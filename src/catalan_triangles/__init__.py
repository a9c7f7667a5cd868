"""Exact arithmetic for Catalan triangles.

Generators for the unified signed triangle and the two classical Catalan
triangles, a registry of their identities with an exact sweep engine, and
counterexample scans for the two open divisibility conjectures.
"""

from .conjectures import (
    DivisibilityClaim,
    ScanState,
    check_mixed_cube,
    divisibility_claim,
    load_checkpoint,
    reverify,
    save_checkpoint,
    scan_divisibility,
    scan_mixed,
)
from .errors import (
    CheckpointError,
    DomainError,
    EmptyDomainError,
    IntegrityError,
    UnknownIdentityError,
    UsageError,
)
from .exact import Rational, binomial, exact_div, harmonic
from .identities import (
    IdentityDescriptor,
    VerificationReport,
    evaluate_sides,
    get_identity,
    list_identities,
    register,
    verify_identity,
)
from .triangles import (
    SequenceSpec,
    a_number,
    a_row,
    b_number,
    b_row,
    c_number,
    c_row,
    catalan,
    gen_catalan,
    generate,
    seq_a,
    seq_b,
)

__all__ = [
    "CheckpointError",
    "DivisibilityClaim",
    "DomainError",
    "EmptyDomainError",
    "IdentityDescriptor",
    "IntegrityError",
    "Rational",
    "ScanState",
    "SequenceSpec",
    "UnknownIdentityError",
    "UsageError",
    "VerificationReport",
    "a_number",
    "a_row",
    "b_number",
    "b_row",
    "binomial",
    "c_number",
    "c_row",
    "catalan",
    "check_mixed_cube",
    "divisibility_claim",
    "evaluate_sides",
    "exact_div",
    "gen_catalan",
    "generate",
    "get_identity",
    "harmonic",
    "list_identities",
    "load_checkpoint",
    "register",
    "reverify",
    "save_checkpoint",
    "scan_divisibility",
    "scan_mixed",
    "seq_a",
    "seq_b",
    "verify_identity",
]

__version__ = "0.1.0"
