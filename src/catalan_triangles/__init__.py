"""Exact arithmetic for Catalan triangles.

Generators for the unified signed triangle and the two classical Catalan
triangles, a registry of their identities with an exact sweep engine, and
counterexample scans for the two open divisibility conjectures.

Each name of __all__ is imported from its module at its first access
(PEP 562), so a process loads only the modules it uses: `seq` and `value`
load no identities, conjectures or dataclasses.
"""

# module -> the public names it defines
_EXPORTS = {
    "conjectures": (
        "DivisibilityClaim", "ScanState", "check_mixed_cube", "divisibility_claim", "load_checkpoint", "reverify",
        "save_checkpoint", "scan_divisibility", "scan_mixed",
    ),
    "errors": (
        "CheckpointError", "DomainError", "EmptyDomainError", "IntegrityError", "UnknownIdentityError", "UsageError",
    ),
    "exact": ("Rational", "binomial", "exact_div", "harmonic"),
    "identities": (
        "IdentityDescriptor", "VerificationReport", "evaluate_sides", "get_identity", "list_identities", "register",
        "verify_identity",
    ),
    "triangles": (
        "SequenceSpec", "a_number", "a_row", "b_number", "b_row", "c_number", "c_row", "catalan", "gen_catalan",
        "generate", "seq_a", "seq_b",
    ),
}
_ORIGINS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGINS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The public name from its module, imported at its first access and kept in this module's globals.

    Any other name raises AttributeError.  A submodule's name is not public,
    so `from catalan_triangles import conjectures` falls through to the
    import system, which imports the submodule.
    """
    if name not in _ORIGINS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = globals()[name] = getattr(import_module("." + _ORIGINS[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
