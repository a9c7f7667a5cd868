"""Registry of exact combinatorial identities plus a sweep engine.

Every entry binds a stable id to a statement over named integer parameters,
`lhs == rhs` in the grammar of statements.py, which compiles it into the
two evaluators the first time the identity is looked up.  A side returns
an int or a Fraction, and the two are compared as returned: ints as ints,
a Fraction against either by canonical (lowest-terms) equality.
Evaluators are total on the declared domain: outside-the-triangle terms
vanish through the binomial zero convention, never through special cases
in the sums.  A descriptor may also carry hand-written sides, any
(**params) -> int | Fraction callables, which are used as given.

The engine, _lines, checks a line of cells at a time: the cells that
share all parameters but the last.  A sweep builds its lines straight from
the box, one per value of those parameters, and applies the constraint
once per line.  A descriptor whose two sides were both compiled comes with
a line function that runs a whole line in one call; any other, a
dataclasses.replace copy included, runs cell by cell.
Either way a failed cell is reported with the sides at that cell, so the
two paths report the same.  The relation is the caller's: != for a
sweep, and the conjecture scans run the same engine with theirs.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from fractions import Fraction
from itertools import compress, product, starmap
from operator import ne
from typing import Callable

from .errors import DomainError, EmptyDomainError, IntegrityError, UnknownIdentityError, UsageError
# binomial, harmonic and the triangle functions are what compiled sides call
# (statements.FUNCTIONS), next to the row-table builders below
# (statements.TABLES); the sides look them up in this module at call time,
# so rebinding one here reaches every side.
from .exact import _int, binomial, binomials, harmonic, keep_partials
from .triangles import _KINDS, _a_ext, _b_ext, _c_ext, _row_slice, catalan, gen_catalan, seq_a, seq_b

Assignment = Mapping[str, int]


def _table(entry, kind, r, width) -> list[int]:
    """[entry(r, j) for j in 0..the row's last column], or [] when that is more than width columns.

    The columns inside the row come from one checked kernel run, of
    triangles._row_slice for a triangle kind and of exact.binomials for
    Pascal's triangle (kind None); those before the kind's first column are
    0, as entry gives them.  A row entry refuses raises entry's own DomainError.
    """
    first, _, extra = (0, None, 0) if kind is None else _KINDS[kind]
    if r < (0 if kind is None else 1):
        entry(r, 0)  # raises
    end = r + extra + 1
    if end > width:
        return []
    return [0] * first + (binomials(r, 0, 0, 1, end) if kind is None else _row_slice(kind, r, first, end))


# The row tables compiled statements read (statements.TABLES), looked up here at call time as the entries are.
_c_table = partial(_table, _c_ext, "c_row")
_b_table = partial(_table, _b_ext, "b_row")
_a_table = partial(_table, _a_ext, "a_row")
_binomial_table = partial(_table, binomial, None)


def _range(name: str, span, minimum: int) -> tuple[int, int]:
    """span, a 2-item tuple or list of ints, as (lo, hi) with lo raised to minimum; anything else raises UsageError."""
    if not (isinstance(span, (tuple, list)) and len(span) == 2 and all(map(_int, span))):
        raise UsageError("the %s range must be two integers (lo, hi), got %r" % (name, span))
    return max(span[0], minimum), span[1]


@dataclass(frozen=True)
class Parameter:
    name: str
    minimum: int


@dataclass(frozen=True)
class IdentityDescriptor:
    """One verifiable identity: statement, parameter domain, two evaluators.

    A side left as None is compiled from the statement, and a constraint
    given as text (say "i <= n") is compiled as a chain of comparisons; the
    registry and the engine do that before they use the descriptor.
    constraint, when present, is the relational part of the domain;
    per-parameter lower bounds live in parameters.  default_cap is the
    upper bound a sweep uses for parameters the caller did not range.
    line, set only by _compiled when it compiled both sides, is fn with
    fn(*head, xs) giving, for each x in xs, those two sides at head + (x,)
    as a cross-multiplied pair, equal iff the sides are.  admit, set only
    by _compiled when it compiled a text constraint, is the line filter
    admit(*head, xs) giving the xs whose cells head + (x,) the constraint
    admits.  No caller can pass either, and dataclasses.replace copies
    neither, so every copy runs cell by cell and calls its constraint once
    per cell, with keywords, as a hand-written constraint is called.
    """

    id: str
    statement: str
    parameters: tuple[Parameter, ...]
    lhs: Callable[..., Fraction | int] | None = None
    rhs: Callable[..., Fraction | int] | None = None
    constraint: Callable[..., bool] | str | None = None
    default_cap: int = 100
    line: Callable | None = field(default=None, init=False, compare=False, repr=False)
    admit: Callable | None = field(default=None, init=False, compare=False, repr=False)

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    def admits(self, assignment: Assignment) -> bool:
        if any(assignment[p.name] < p.minimum for p in self.parameters):
            return False
        return self.constraint is None or self.constraint(**dict(assignment))


@dataclass(frozen=True)
class Mismatch:
    assignment: tuple[tuple[str, int], ...]
    lhs: Fraction
    rhs: Fraction

    def to_dict(self) -> dict:
        return {
            "assignment": dict(self.assignment),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass
class VerificationReport:
    """Outcome of sweeping one identity over a finite parameter box."""

    identity: str
    domain: dict[str, tuple[int, int]]
    cells: int
    mismatches: list[Mismatch]
    elapsed_ms: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "identity": self.identity,
            "domain": {name: list(span) for name, span in self.domain.items()},
            "cells": self.cells,
            "status": self.status,
            "mismatches": [m.to_dict() for m in self.mismatches],
        }
        if include_timing:
            doc["elapsed_ms"] = round(self.elapsed_ms, 3)
        return doc


_REGISTRY: dict[str, IdentityDescriptor] = {}


def _compiled(ident: IdentityDescriptor) -> IdentityDescriptor:
    """ident with each side left as None compiled from its statement, and a text constraint compiled with its filter."""
    sides = ident.lhs is None or ident.rhs is None
    text = ident.constraint if isinstance(ident.constraint, str) else None
    if not sides and text is None:
        return ident
    from . import statements  # loaded by the first compile, so seq and value never load it

    try:
        built = statements.compile_identity(
            ident.parameter_names(), globals(), ident.statement if sides else None, text
        )
    except UsageError as exc:
        raise UsageError("%s: %s" % (ident.id, exc)) from None
    line, admit = built.pop("line", None), built.pop("admit", None)
    compiled = replace(ident, **{name: fn for name, fn in built.items() if not callable(getattr(ident, name))})
    if ident.lhs is ident.rhs is None:  # the line runs the compiled sides, so only they get it
        object.__setattr__(compiled, "line", line)
    object.__setattr__(compiled, "admit", admit)
    return compiled


def _store(descriptor: IdentityDescriptor, registry: dict = _REGISTRY) -> IdentityDescriptor:
    if descriptor.id in registry:
        raise UsageError("identity id %r already registered" % descriptor.id)
    registry[descriptor.id] = descriptor
    return descriptor


def register(descriptor: IdentityDescriptor) -> IdentityDescriptor:
    """Add an identity; what it leaves to its statement is compiled now, so a bad one raises UsageError."""
    return _store(_compiled(descriptor))


def _lookup(identity_id: str, registry: dict = _REGISTRY) -> IdentityDescriptor:
    if not isinstance(identity_id, str) or identity_id not in registry:
        raise UnknownIdentityError(identity_id, registry)
    registry[identity_id] = ident = _compiled(registry[identity_id])
    return ident


def list_identities() -> list[IdentityDescriptor]:
    return [_lookup(identity_id) for identity_id in _REGISTRY]


def get_identity(identity_id: str) -> IdentityDescriptor:
    return _lookup(identity_id)


def _ident(id, statement, parameters, constraint=None, cap=100, registry=_REGISTRY):
    """Declare a built-in statement in registry; it is compiled on its first lookup, not at import."""
    parameters = tuple(Parameter(name, minimum) for name, minimum in parameters)
    _store(IdentityDescriptor(id, statement, parameters, constraint=constraint, default_cap=cap), registry)


# --- recurrences -----------------------------------------------------------

_ident("prop-recurrence", "c(m+2,k) == c(m,k) + 2*c(m,k-1) + c(m,k-2)", [("m", 1), ("k", 2)])

_ident("rec-B", "b(n,k) == b(n-1,k-1) + 2*b(n-1,k) + b(n-1,k+1)", [("n", 2), ("k", 2)], "k <= n")

_ident("rec-A", "a(n,k) == a(n-1,k-1) + 2*a(n-1,k) + a(n-1,k+1)", [("n", 2), ("k", 2)], "k <= n + 1")

# --- linear and alternating sums -------------------------------------------

_ident("thm-linear-sum", "sum(c(m,k), k=0..n) == binomial(m-1,n)", [("m", 2), ("n", 1)])

_ident("thm-alt-sum", "sum((-1)^k * c(m,k), k=0..n) == (-1)^n * c(m-1,n)", [("m", 2), ("n", 1)], "n <= m - 1")

_ident("cor-alt-B", "sum((-1)^k * b(n,k), k=1..n) == -catalan(n-1)", [("n", 1)])

_ident("cor-alt-A", "sum((-1)^k * a(n,k), k=1..n+1) == 0", [("n", 1)])

_ident("eq-linear-B", "sum(b(n,k), k=1..n) == (n+1)/2 * catalan(n)", [("n", 1)])

_ident("eq-linear-A", "sum(a(n,k), k=1..n+1) == (n+1) * catalan(n)", [("n", 1)])

# Stated twice in the paper, as eq-square-B/cor-square-ii and eq-square-A/cor-square-iii.
_ident("eq-square-B", "sum(b(n,k)^2, k=1..n) == catalan(2n-1)", [("n", 1)])

_ident("eq-square-A", "sum(a(n,k)^2, k=1..n+1) == catalan(2n)", [("n", 1)])

_ident(
    "eq-convolution",
    "sum(b(n,k)*b(n,n+k-i)*(n+2k-i), k=1..i) == (n+1)*catalan(n)*binomial(2n-2,i-1)",
    [("n", 1), ("i", 1)],
    "i <= n",
    cap=40,
)

# --- sums of squares --------------------------------------------------------

_ident(
    "thm-square-sum",
    "sum(c(m,k)^2, k=0..n) == (m-2n)/m * binomial(m-1,n)^2 + 2/m * sum(binomial(m-1,k)^2, k=0..n-1)",
    [("m", 1), ("n", 1)],
)

_ident(
    "thm-alt-square-sum",
    "sum((-1)^k * c(m,k)^2, k=0..n) == 2*(-1)^n * binomial(m-1,n)^2 - sum((-1)^k * binomial(m,k)^2, k=0..n)",
    [("m", 1), ("n", 1)],
)

_ident("cor-square-i", "sum(c(n,k)^2, k=0..n) == 2 * catalan(n-1)", [("n", 1)])

_ident("cor-square-ii", "sum(b(n,k)^2, k=1..n) == catalan(2n-1)", [("n", 1)])

_ident("cor-square-iii", "sum(a(n,k)^2, k=1..n+1) == catalan(2n)", [("n", 1)])

_ident("cor-square-iv", "sum((-1)^k * b(n,k)^2, k=1..n) == -(n+1)/2 * catalan(n)", [("n", 1)])

_ident(
    "thm-square-decomp-i",
    "binomial(m,n)^2 == sum((2j-n)/n * binomial(j-1,n-1)^2, j=n..m)",
    [("m", 1), ("n", 1)],
    "m >= n",
)

_ident("thm-square-decomp-ii", "binomial(2n,n)^2 == sum((3n-2k)/n * binomial(2n-1-k,n-1)^2, k=0..n)", [("n", 1)])

_ident("thm-square-decomp-remark", "binomial(2n,n)^2 == sum((n+2j)/n * binomial(n-1+j,n-1)^2, j=0..n)", [("n", 1)])

_ident("eq-vandermonde", "sum(binomial(n,k)^2, k=0..n) == binomial(2n,n)", [("n", 0)])

_ident("eq-alt-square", "sum((-1)^k * binomial(2n,k)^2, k=0..2n) == (-1)^n * binomial(2n,n)", [("n", 0)])

# --- sums of cubes ----------------------------------------------------------

_ident(
    "eq-amm",
    "sum((m-2k)*binomial(m,k)^3, k=0..n) == (m-n)*binomial(m,n)*sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)",
    [("m", 1), ("n", 1)],
    cap=40,
)

_ident(
    "thm-cube-sum",
    "sum(c(m,k)^3, k=0..n) == 4*binomial(m-1,n)^3 - 3*binomial(m-1,n)*sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)",
    [("m", 1), ("n", 1)],
    cap=40,
)

_ident(
    "thm-alt-cube-sum",
    "sum((-1)^k * c(m,k)^3, k=0..n) == (m-3n)/m * (-1)^n * binomial(m-1,n)^3 - (m-3)/m * sum((-1)^k * binomial(m-1,k)^3, k=0..n-1)",
    [("m", 1), ("n", 1)],
)

_ident(
    "cor-cube-B",
    "sum(b(n,k)^3, k=0..n) == 1/2 * binomial(2n,n)^3 - 3/2 * binomial(2n,n) * sum(binomial(j,n)*binomial(j,n-1), j=n..2n-1)",
    [("n", 1)],
)

_ident(
    "cor-cube-A",
    "sum(a(n,k)^3, k=1..n+1) == binomial(2n,n)^3 - 3*binomial(2n,n)*sum(binomial(j,n)^2, j=n..2n-1)",
    [("n", 1)],
)

_ident(
    "cor-alt-cube-A",
    "sum((-1)^k * a(n,k)^3, k=1..n+1) == (n-1)/(2n+1) * binomial(2n,n) * binomial(3n,n)",
    [("n", 1)],
)

_ident(
    "eq-dixon",
    "sum((-1)^k * binomial(2n,k)^3, k=0..2n) == (-1)^n * binomial(2n,n) * binomial(3n,n)",
    [("n", 1)],
)

_ident(
    "thm-b-cube",
    "sum(b(n,k)^3, k=1..n) == 1/(2n) * binomial(2n,n) * sum(k * binomial(2n-k-1,n-1)^2, k=1..n)",
    [("n", 1)],
)

_ident("rem-b-cube-factored", "sum(b(n,k)^3, k=1..n) == (n+1)/2 * catalan(n) * seq_b(n)", [("n", 1)])

_ident(
    "rem-a-cube-factored",
    "sum(a(n,k)^3, k=1..n+1) == (n+1) * catalan(n) * ((2*(n+1)*catalan(n))^2 - 3*seq_a(n))",
    [("n", 1)],
)

# --- harmonic-number sums ----------------------------------------------------

_ident(
    "thm-harmonic",
    "sum(c(m,k) * H(k), k=1..n) == binomial(m-1,n) * H(n) - 1/m * sum(binomial(m,k), k=1..n)",
    [("m", 1), ("n", 1)],
)

_ident("cor-harmonic-C", "sum(c(n,k) * H(k), k=1..n) == (1 - 2^n) / n", [("n", 1)])

_ident(
    "cor-harmonic-B",
    "sum(b(n,k) * H(n-k), k=0..n-1) == (2n*H(n)-1)/(4n) * binomial(2n,n) - (2^(2n-1)-1)/(2n)",
    [("n", 1)],
)

_ident(
    "cor-harmonic-A",
    "sum(a(n,k) * H(n-k+1), k=1..n) == H(n) * binomial(2n,n) - (2^(2n)-1)/(2n+1)",
    [("n", 1)],
)

_ident("rem-ps13", "sum((n-2k) * H(k) * binomial(n,k), k=1..n) == 1 - 2^n", [("n", 1)])

# --- generalized Catalan relation --------------------------------------------

_ident("rel-gen-catalan", "c(k*n+1, n) == ((k-2)*n + 1) * gen_catalan(k, n)", [("k", 1), ("n", 1)])


# --- engine -------------------------------------------------------------------


def _resolve(identity: str | IdentityDescriptor) -> IdentityDescriptor:
    if isinstance(identity, IdentityDescriptor):
        return _compiled(identity)
    return get_identity(identity)


# The exact types a side may return; a float, None or a bool is never compared.
_EXACT_TYPES = (int, Fraction)


def _sides(ident: IdentityDescriptor, kwargs: dict[str, int]) -> tuple[int | Fraction, int | Fraction]:
    """Both sides at one cell, each an int or a Fraction exactly as returned."""
    lhs, rhs = ident.lhs(**kwargs), ident.rhs(**kwargs)
    if type(lhs) not in _EXACT_TYPES or type(rhs) not in _EXACT_TYPES:
        side, value = ("lhs", lhs) if type(lhs) not in _EXACT_TYPES else ("rhs", rhs)
        raise TypeError(
            "%s: %s at %r is %s, not an int or a Fraction" % (ident.id, side, kwargs, type(value).__name__)
        )
    return lhs, rhs


def evaluate_sides(identity: str | IdentityDescriptor, assignment: Assignment) -> tuple[Fraction, Fraction]:
    """Evaluate both sides exactly at one admissible parameter assignment."""
    ident = _resolve(identity)
    names = ident.parameter_names()
    if not isinstance(assignment, Mapping):
        raise DomainError("%s: an assignment maps parameter names to integers, got %r" % (ident.id, assignment))
    if set(assignment) != set(names):
        raise DomainError(
            "%s expects parameters %s, got %s" % (ident.id, names, tuple(assignment))
        )
    for name in names:
        if not _int(assignment[name]):
            raise DomainError("%s: %s must be an integer, got %r" % (ident.id, name, assignment[name]))
    if not ident.admits(assignment):
        raise DomainError("%s: assignment %r violates the identity's domain" % (ident.id, dict(assignment)))
    lhs, rhs = _sides(ident, dict(assignment))
    return Fraction(lhs), Fraction(rhs)


def effective_domain(
    identity: str | IdentityDescriptor,
    ranges: Mapping[str, tuple[int, int]] | None = None,
    cap: int | None = None,
) -> dict[str, tuple[int, int]]:
    """Per-parameter sweep bounds: explicit range, else minimum..cap."""
    ident = _resolve(identity)
    if ranges is None:
        ranges = {}
    elif not isinstance(ranges, Mapping):  # a list of pairs would pass dict()
        raise UsageError("ranges must map parameter names to (lo, hi), got %r" % (ranges,))
    unknown = set(ranges) - set(ident.parameter_names())
    if unknown:
        raise UsageError("%s has no parameter(s) %s" % (ident.id, sorted(unknown)))
    if cap is not None and not _int(cap):
        raise UsageError("the cap must be an integer, got %r" % (cap,))
    top = ident.default_cap if cap is None else cap
    return {p.name: _range(p.name, ranges.get(p.name, (p.minimum, top)), p.minimum) for p in ident.parameters}


def _domain_lines(ident: IdentityDescriptor, domain: dict[str, tuple[int, int]], ignore_constraint: bool) -> list:
    """The lines of the box domain that hold a cell the constraint admits, in lexicographic order.

    A line is (head, xs): one value per parameter but the last, and the
    values of the last whose cells are admitted, increasing; with
    ignore_constraint or no constraint, all of them.  The constraint runs
    once per line through the descriptor's filter, or without one once per
    cell, with keywords.
    """
    *heads, last = [range(lo, hi + 1) for lo, hi in domain.values()]
    names, test = ident.parameter_names(), ident.constraint
    if ignore_constraint or test is None:
        admit = lambda *args: args[-1]
    else:
        admit = ident.admit or (lambda *args: [x for x in args[-1] if test(**dict(zip(names, (*args[:-1], x))))])
    return [(head, xs) for head in product(*heads) if (xs := admit(*head, last))]


def _lines(name, lines, names, at, fails, line=None, fail_fast=False) -> tuple[list[tuple], int]:
    """(failed, checked): (cell, lhs, rhs) at each cell where fails(lhs, rhs), and the count of cells checked.

    lines are (head, xs) pairs, whose cells head + (x,) for x in xs are
    checked in that order.  at(cell) gives the two sides at a cell.  A line
    runs in one call of line(*head, xs), which gives a pair per x, and only
    the cells whose pair fails run at: sides that pass there, or a pair
    count other than the cell count, raise IntegrityError.  Without line,
    or if its call raises anything but IntegrityError, the line runs cell
    by cell, so that the sides raise their own error; if none of them
    raises, the line function's error is raised as an IntegrityError.  A
    failed check inside the line (a table's kernel run, say) is raised as
    it is.  fail_fast stops at the first failure.
    """
    failed = []
    checked = 0
    with keep_partials():
        for head, xs in lines:
            positions, flagged, error = range(len(xs)), False, None
            if line is not None:
                try:
                    flags = list(starmap(fails, line(*head, xs)))
                except IntegrityError:  # a failed check, which the cells need not repeat
                    raise
                except Exception as exc:  # then every cell runs through at, which raises where it does
                    error = exc
                else:  # compress would stop at the shorter of flags and cells
                    if len(flags) != len(xs):
                        raise IntegrityError("%s: line function gave %d pairs for %d cells" % (name, len(flags), len(xs)))
                    positions, flagged = list(compress(range(len(xs)), flags)), True
            for i in positions:
                cell = (*head, xs[i])
                lhs, rhs = at(cell)
                if fails(lhs, rhs):
                    failed.append((cell, lhs, rhs))
                    if fail_fast:
                        return failed, checked + i + 1
                elif flagged:
                    raise IntegrityError("%s: line function and sides disagree at %r" % (name, dict(zip(names, cell))))
            if error is not None:
                raise IntegrityError("%s: line function raised %r on the line at %r, where no cell's sides do"
                                     % (name, error, dict(zip(names, head))))
            checked += len(xs)
    return failed, checked


def verify_identity(
    identity: str | IdentityDescriptor,
    ranges: Mapping[str, tuple[int, int]] | None = None,
    parallelism: int = 1,
    fail_fast: bool = False,
    allow_outside_domain: bool = False,
    cap: int | None = None,
) -> VerificationReport:
    """Exactly compare both sides on every admissible cell of the swept box.

    The sides are compared as returned (an int or a Fraction; anything
    else raises TypeError) and turned into Fractions only for a mismatch
    record.  All mismatches are collected (not just the first) unless
    fail_fast is set, which stops at the first mismatch in cell order.
    The box is walked a line at a time (_domain_lines), inside the timed
    span, and the lines run through _lines in lexicographic order of the
    parameters, so mismatches come out canonically sorted, with ident's
    line function if it has one.  parallelism is accepted for
    compatibility and has no effect: the sweep is serial, since threads
    only slow pure-Python big-integer work under the GIL.
    """
    ident = _resolve(identity)
    domain = effective_domain(ident, ranges, cap)
    started = time.perf_counter()
    lines = _domain_lines(ident, domain, allow_outside_domain)
    if not lines:
        raise EmptyDomainError(
            "%s: no admissible cells in %s" % (ident.id, {k: list(v) for k, v in domain.items()})
        )
    names = ident.parameter_names()
    at = lambda cell: _sides(ident, dict(zip(names, cell)))
    failed, checked = _lines(ident.id, lines, names, at, ne, ident.line, fail_fast)
    mismatches = [Mismatch(tuple(zip(names, cell)), Fraction(lhs), Fraction(rhs)) for cell, lhs, rhs in failed]
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        identity=ident.id,
        domain=domain,
        cells=checked,
        mismatches=mismatches,
        elapsed_ms=elapsed_ms,
    )
