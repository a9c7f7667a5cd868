"""Counterexample scans for the two open conjectures, with resumable state.

Conjecture one: for m > n >= 1 and odd p, binomial(m-1, n) divides the sum
of c(m,k)^p over k = 0..n.  Since b(n, k) = c(2n, n-k) and
a(n, k) = c(2n+1, n+1-k), the b and a claims are the c claim at
(m, n) = (2n, n-1) and (2n+1, n).  Conjecture two is an exact closed form
for sum(b(n,k)^2 * b(m,k), k=1..min(n,m)).

The c claim and conjecture two are statement texts in the grammar of
statements.py, compiled on first use through identities._compiled as the
registered identities are; the b and a claims sum powers of a row built by
the row kernel, and take the c claim's divisor binomial(m-1, n).  Scans
check cells through identities._lines, the sweep's engine, and the c scan
runs on its statement's line function along each row m.  A scan makes its
lines straight from the domain (a row m with n below m for c, a row n for
the mixed claim, one line for b and a): a leg starts at its frontier's line
and cuts only its first and last line, so it costs what it scans, never
the domain's cell list.

Scans are evidence, not proof: a clean state means "no counterexample in the
scanned domain", nothing more.  Every cell is checked in exact arithmetic;
cells whose divisor is zero are counted separately, never silently skipped.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import attrgetter, ne
from typing import Callable, NamedTuple

from . import identities
from .errors import CheckpointError, DomainError, EmptyDomainError, UsageError
from .exact import _int, binomial
from .identities import IdentityDescriptor, Parameter, _range
from .triangles import a_row, b_row

CHECKPOINT_VERSION = 2

Cell = tuple[int, ...]


@dataclass(frozen=True)
class DivisibilityClaim:
    """One cell of conjecture one: divisor should divide dividend exactly."""

    dividend: int
    divisor: int
    parameters: tuple[tuple[str, int], ...]

    @property
    def holds(self) -> bool:
        return self.divisor != 0 and self.dividend % self.divisor == 0


@dataclass
class ScanState:
    """Resumable progress of one scan over a fixed, totally ordered cell set.

    frontier is the next unprocessed cell (None once the domain is spent);
    counterexamples are JSON-ready dicts with big integers as decimal
    strings.  elapsed_ms accumulates across resumed legs and is excluded
    from equality.  domain holds the scanned bounds per cell index, with
    their minima applied, and a resumed scan must ask for the same ones.
    """

    conjecture: str
    p: int | None
    frontier: Cell | None
    processed: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    skipped_zero_divisor: int = 0
    elapsed_ms: float = field(default=0.0, compare=False)
    domain: dict[str, tuple[int, int]] | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {"version": CHECKPOINT_VERSION}
        for name, spec in _CHECKPOINT_FIELDS.items():
            if include_timing or name != "elapsed_ms":
                doc[name] = spec.to_json(getattr(self, name))
        return doc


class _Field(NamedTuple):
    valid: Callable[[object], bool]  # test of the JSON value
    expected: str  # what the test demands
    default: object = None  # value when the field is absent; None if it is required
    to_json: Callable = lambda value: value
    from_json: Callable = lambda value: value


_VARIANTS = ("c", "b", "a")
# each conjecture's names for the values of a cell, in scan order
_NAMES = {"divisibility-c": ("m", "n"), "divisibility-b": ("n",), "divisibility-a": ("n",), "mixed-cube": ("n", "m")}

# The checkpoint schema, in document order after "version".
_CHECKPOINT_FIELDS = {
    "conjecture": _Field(lambda v: v in _NAMES, "one of %s" % ", ".join(_NAMES)),
    "p": _Field(lambda v: v is None or _int(v), "an integer or null"),
    "domain": _Field(
        lambda v: v is None or isinstance(v, dict) and all(
            isinstance(b, list) and len(b) == 2 and all(map(_int, b)) for b in v.values()
        ),
        "an object of [lo, hi] integer pairs or null",
        to_json=lambda domain: None if domain is None else {name: list(bounds) for name, bounds in domain.items()},
        from_json=lambda v: None if v is None else {name: tuple(bounds) for name, bounds in v.items()},
    ),
    "frontier": _Field(
        lambda v: v is None or (isinstance(v, list) and all(map(_int, v))), "a list of integers or null",
        to_json=lambda cell: None if cell is None else list(cell), from_json=lambda v: None if v is None else tuple(v),
    ),
    "processed": _Field(lambda v: _int(v) and v >= 0, "a non-negative integer"),
    "counterexamples": _Field(lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v), "a list of objects"),
    "skipped_zero_divisor": _Field(lambda v: _int(v) and v >= 0, "a non-negative integer", 0),
    # a finite float: no Infinity or NaN token, and no integer that float arithmetic cannot add to
    "elapsed_ms": _Field(lambda v: (_int(v) or isinstance(v, float)) and 0 <= v <= sys.float_info.max,
                         "a finite non-negative number", 0.0, to_json=lambda ms: round(ms, 3)),
}


# The scans' statements, unregistered: _compiled compiles each on its first use.
_STATEMENTS: dict[str, IdentityDescriptor] = {}


def _statement(id: str, statement: str, parameters: str, constraint: str | None = None) -> None:
    parameters = tuple(Parameter(name, 1) for name in parameters)
    _STATEMENTS[id] = IdentityDescriptor(id, statement, parameters, constraint=constraint)


# n last, so that its line is a row m with n rising and the running sum runs on locals
_statement("divisibility-c", "sum(c(m,k)^p, k=0..n) == binomial(m-1,n)", "mpn")

# conjecture two, split at min(n, m), the upper bound of its sums
_statement(
    "mixed-cube n<=m",
    "sum(b(n,k)^2 * b(m,k), k=1..n) == binomial(2n,n)^2 * binomial(2m,m) / 2 * (1 - (n+2m) * sum(binomial(m+j,m) * binomial(n+j,n-1), j=0..n-1) / (n * binomial(n+m,n) * binomial(2n,n)))",
    "nm",
    "n <= m",
)

_statement(
    "mixed-cube m<n",
    "sum(b(n,k)^2 * b(m,k), k=1..m) == binomial(2n,n)^2 * binomial(2m,m) / 2 * (1 - (n+2m) * sum(binomial(n+j,n) * binomial(n+j,n-1), j=0..m-1) / (m * binomial(n+m,n) * binomial(n+m,n)))",
    "nm",
    "m < n",
)


def _compiled(id: str) -> IdentityDescriptor:
    """The statement of that id, compiled on its first use as the registry compiles an identity."""
    ident = _STATEMENTS[id] = identities._compiled(_STATEMENTS[id])
    return ident


def divisibility_claim(variant: str, p: int, cell: Cell) -> DivisibilityClaim:
    """Dividend and claimed divisor at one cell of the chosen variant, for an int p >= 0.

    For c they are the two sides of the text sum(c(m,k)^p, k=0..n) ==
    binomial(m-1,n), whose == only separates them.  Its dividend is a
    running sum, so a scan in cell order adds one term per cell.  The b and
    a claims at n are the c claim at (2n, n-1) and (2n+1, n).
    """
    if not _int(p) or p < 0:
        raise DomainError("divisibility_claim: p must be an integer >= 0, got %r" % (p,))
    if variant not in _VARIANTS:
        raise UsageError("unknown divisibility variant %r (expected one of %s)" % (variant, _VARIANTS))
    names = _NAMES["divisibility-" + variant]
    if not isinstance(cell, (tuple, list)) or len(cell) != len(names) or not all(map(_int, cell)):
        raise DomainError("divisibility_claim: a %s cell is (%s), got %r" % (variant, ", ".join(names), cell))
    if variant == "c":
        m, n = cell
        if m < 1:
            raise DomainError("divisibility_claim: m must be >= 1, got %d" % m)
        claim = _compiled("divisibility-c")
        return DivisibilityClaim(claim.lhs(m, p, n), claim.rhs(m, p, n), (("m", m), ("n", n)))
    (n,) = cell
    # b_row(n) is row 2n of c at columns n-1..0, and a_row(n) row 2n+1 at columns n..0
    m, top, row = (2 * n, n - 1, b_row(n)) if variant == "b" else (2 * n + 1, n, a_row(n))
    return DivisibilityClaim(sum(x ** p for x in row), binomial(m - 1, top), (("n", n),))


def check_mixed_cube(n: int, m: int) -> tuple[Fraction, Fraction, bool]:
    """Both sides of the mixed-cube identity at (n, m), as Fractions, and their equality.

    The sides are those of conjecture two's statement for n <= m or for
    m < n; n or m below 1 raises DomainError.
    """
    ident = _compiled("mixed-cube n<=m" if n <= m else "mixed-cube m<n")
    lhs, rhs = identities.evaluate_sides(ident, {"n": n, "m": m})
    return lhs, rhs, lhs == rhs


def _check(conjecture: str, p: int | None, claim_fn: Callable[[Cell], DivisibilityClaim] | None = None):
    """(names, at, fails, line, record): how identities._lines checks the cells of conjecture.

    at(cell) gives the two sides (a claim's dividend and divisor), and line
    is the c claim's line function along a row m unless claim_fn replaces
    divisibility_claim.  record(cell, lhs, rhs) is a failed cell's record,
    or None where the divisor is zero; reverify demands it again.
    """
    names = _NAMES[conjecture]
    if conjecture == "mixed-cube":
        record = lambda cell, lhs, rhs: identities.Mismatch(tuple(zip(names, cell)), lhs, rhs).to_dict()
        return names, lambda cell: check_mixed_cube(*cell)[:2], ne, None, record
    variant = conjecture.removeprefix("divisibility-")
    build = claim_fn or (lambda cell: divisibility_claim(variant, p, cell))
    sides = attrgetter("dividend", "divisor")
    line = None
    if variant == "c" and claim_fn is None:
        row = _compiled(conjecture).line
        line = lambda m, ns: row(m, p, ns)

    def record(cell, dividend, divisor):
        if divisor == 0:
            return None
        return {
            "assignment": dict(zip(names, cell)),
            "dividend": str(dividend),
            "divisor": str(divisor),
            "remainder": str(dividend % divisor),
        }

    fails = lambda dividend, divisor: divisor == 0 or dividend % divisor != 0
    return names, lambda cell: sides(build(cell)), fails, line, record


def _divisibility_domain(variant: str, m_range, n_range) -> dict[str, tuple[int, int]]:
    """The scanned bounds; variant c without an n range scans 1 <= n < m."""
    if variant == "c":
        if m_range is None:
            raise UsageError("variant c needs an m range")
        m = _range("m", m_range, 2)
        return {"m": m, "n": (1, m[1] - 1) if n_range is None else _range("n", n_range, 1)}
    if m_range is not None:
        raise UsageError("variant %s takes no m range; drop --m" % variant)
    if n_range is None:
        raise UsageError("variant %s needs an n range" % variant)
    return {"n": _range("n", n_range, 1)}


def _line(conjecture: str, domain: dict[str, tuple[int, int]], head: Cell) -> range:
    """The last values of domain's cells that start with head, in scan order (for c, n < m); none if head is no head.

    Scan order is lexicographic, (m, n) for c, n for b and a, (n, m) for
    mixed, so a line holds the cells that share all values but the last,
    their head: a row m for c, a row n for mixed, and () for b and a.
    """
    *outer, last = _NAMES[conjecture]
    if len(head) != len(outer) or not all(domain[name][0] <= x <= domain[name][1] for name, x in zip(outer, head)):
        return range(0)
    lo, hi = domain[last]
    return range(lo, (min(hi, head[0] - 1) if conjecture == "divisibility-c" else hi) + 1)


def _domain_lines(conjecture: str, domain: dict[str, tuple[int, int]]):
    """Every (head, xs) line of domain in scan order, empty ones included, but for c from row m = n's lo + 1 on."""
    heads = [range(domain[name][0], domain[name][1] + 1) for name in _NAMES[conjecture][:-1]]
    if conjecture == "divisibility-c":
        heads[0] = range(max(domain["m"][0], domain["n"][0] + 1), domain["m"][1] + 1)
    return ((head, _line(conjecture, domain, head)) for head in product(*heads))


def _leg(conjecture: str, domain: dict[str, tuple[int, int]], start: int, stop: int | None):
    """(lines, frontier): the non-empty lines of domain's cells start..stop-1 (to its last if stop is None), and its
    cell at stop (None if none).  It walks no line past the one that holds stop."""
    lines, offset = [], 0
    for head, xs in _domain_lines(conjecture, domain):
        part = xs[max(start - offset, 0):None if stop is None else stop - offset]
        if part:
            lines.append((head, part))
        if stop is not None and stop < offset + len(xs):
            return lines, (*head, xs[stop - offset])
        offset += len(xs)
    return lines, None


def _processed(state: ScanState, names: tuple[str, ...], cell: Cell) -> bool:
    """Whether the scan that wrote state checked cell: a cell of state.domain before state.frontier.

    The cell belongs to the domain iff its last value is on its own line;
    in lexicographic order the cells before the frontier are those below it.
    """
    if state.domain is None or state.domain.keys() != set(names):
        return False
    on_line = cell[-1] in _line(state.conjecture, state.domain, cell[:-1])
    return on_line and (state.frontier is None or cell < state.frontier)


def _resume_index(conjecture: str, domain: dict[str, tuple[int, int]], state: ScanState | None) -> int:
    """The count of domain's cells before the checkpoint's frontier (all of them if it is None), by line lengths.

    The checkpoint's counts must agree with it.
    """
    if state is None:
        return 0
    frontier = state.frontier
    if frontier is None:
        index = sum(len(xs) for _, xs in _domain_lines(conjecture, domain))
    else:
        line = _line(conjecture, domain, frontier[:-1])
        if not frontier or frontier[-1] not in line:
            raise CheckpointError("checkpoint frontier %r does not belong to the scan domain" % (frontier,))
        index = line.index(frontier[-1])
        for head, xs in _domain_lines(conjecture, domain):  # the lines before the frontier's, which is among them
            if head == frontier[:-1]:
                break
            index += len(xs)
    # every scan starts at the first cell of the domain, so the frontier fixes the count
    if state.processed != index:
        raise CheckpointError(
            "checkpoint counts %d cells processed, but %d cells of the domain precede its frontier %r"
            % (state.processed, index, state.frontier)
        )
    if state.skipped_zero_divisor + len(state.counterexamples) > state.processed:
        raise CheckpointError(
            "checkpoint counts %d zero-divisor cells and %d counterexamples in %d processed cells"
            % (state.skipped_zero_divisor, len(state.counterexamples), state.processed)
        )
    return index


def _run_scan(conjecture, p, domain, checkpoint, max_cells, claim_fn=None) -> ScanState:
    if max_cells is not None and not (_int(max_cells) and max_cells >= 0):
        raise UsageError("the cell limit must be >= 0 (an int, not a bool), got %r" % (max_cells,))
    if not any(xs for _, xs in _domain_lines(conjecture, domain)):
        raise EmptyDomainError("%s: no cells in %s" % (conjecture, {name: list(span) for name, span in domain.items()}))
    if checkpoint is not None:
        if checkpoint.conjecture != conjecture or checkpoint.p != p:
            raise CheckpointError(
                "checkpoint is for %r (p=%r), not %r (p=%r)"
                % (checkpoint.conjecture, checkpoint.p, conjecture, p)
            )
        if checkpoint.domain != domain:
            raise CheckpointError("checkpoint scanned the domain %r, not %r" % (checkpoint.domain, domain))
    start_index = _resume_index(conjecture, domain, checkpoint)
    names, at, fails, line, record = _check(conjecture, p, claim_fn)
    started = time.perf_counter()
    lines, frontier = _leg(conjecture, domain, start_index, None if max_cells is None else start_index + max_cells)
    failed, checked = identities._lines(conjecture, lines, names, at, fails, line)
    records = [record(*failure) for failure in failed]
    found = [entry for entry in records if entry is not None]
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    previous = checkpoint or ScanState(conjecture, p, frontier=None)
    return ScanState(
        conjecture=conjecture,
        p=p,
        domain=domain,
        frontier=frontier,
        processed=previous.processed + checked,
        counterexamples=list(previous.counterexamples) + found,
        skipped_zero_divisor=previous.skipped_zero_divisor + len(records) - len(found),
        elapsed_ms=previous.elapsed_ms + elapsed_ms,
    )


def scan_divisibility(
    variant: str,
    p: int,
    n_range: tuple[int, int] | None = None,
    m_range: tuple[int, int] | None = None,
    checkpoint: ScanState | None = None,
    jobs: int = 1,
    max_cells: int | None = None,
    claim_fn: Callable[[Cell], DivisibilityClaim] | None = None,
) -> ScanState:
    """Exhaustively test the divisibility claim on every cell of the domain.

    Cells are ordered lexicographically ((m, n) ascending for variant c,
    plain n for b and a), which is also the checkpoint frontier order.
    claim_fn substitutes the per-cell claim builder, which then runs at
    every cell; the engine never assumes the claim is true.  jobs is
    accepted for compatibility and has no effect: the scan is serial.
    """
    if not isinstance(variant, str) or variant.lower() not in _VARIANTS:
        raise UsageError("unknown divisibility variant %r (expected one of %s)" % (variant, _VARIANTS))
    variant = variant.lower()
    if not _int(p) or p < 1 or p % 2 == 0:
        raise UsageError("exponent p must be an odd integer >= 1, got %r" % (p,))
    domain = _divisibility_domain(variant, m_range, n_range)
    return _run_scan("divisibility-" + variant, p, domain, checkpoint, max_cells, claim_fn)


def scan_mixed(
    n_range: tuple[int, int],
    m_range: tuple[int, int],
    checkpoint: ScanState | None = None,
    jobs: int = 1,
    max_cells: int | None = None,
) -> ScanState:
    """Test the mixed-cube identity on every (n, m) cell, in (n, m) order.

    jobs is accepted for compatibility and has no effect: the scan is serial.
    """
    if n_range is None or m_range is None:
        raise UsageError("scan mixed needs both --n and --m ranges")
    domain = {"n": _range("n", n_range, 1), "m": _range("m", m_range, 1)}
    return _run_scan("mixed-cube", None, domain, checkpoint, max_cells)


def reverify(state: ScanState, claim_fn: Callable[[Cell], DivisibilityClaim] | None = None) -> bool:
    """Recompute every recorded counterexample; True iff each cell yields its record again.

    Only a cell the scan processed is recomputed: a record at any other
    cell, or any record of a state without a domain, makes it False at
    once, since a forged cell may be outside every check's domain or
    arbitrarily costly.
    """
    if state.conjecture not in _NAMES:
        raise UsageError("cannot reverify unknown conjecture %r" % state.conjecture)
    if state.conjecture != "mixed-cube" and state.counterexamples and not (_int(state.p) and state.p >= 1):
        return False  # no claim has this exponent
    names, at, fails, _, record = _check(state.conjecture, state.p, claim_fn)
    lines = []  # a line per record: no line function runs, so grouping them would save nothing
    for counterexample in state.counterexamples:
        assignment = counterexample.get("assignment")
        if not isinstance(assignment, dict) or assignment.keys() != set(names):
            return False
        cell = tuple(assignment[name] for name in names)
        if not all(map(_int, cell)) or not _processed(state, names, cell):
            return False
        lines.append((cell[:-1], cell[-1:]))
    # no line function: every recorded cell should fail again, and each failing cell runs through at anyway
    failed, _ = identities._lines(state.conjecture, lines, names, at, fails)
    return [record(*failure) for failure in failed] == state.counterexamples


def save_checkpoint(state: ScanState, destination: str | os.PathLike) -> None:
    """Atomically persist state as versioned JSON that survives a crash.

    The document is one line of JSON: json.dumps without indent runs
    CPython's C encoder, where json.dump or any indent runs the pure-Python
    one.  It goes to a fresh temp file in the destination's directory, is
    flushed and fsynced, and then renamed over the destination, so the
    destination holds either the old checkpoint or the whole new one.
    """
    text = json.dumps(state.to_dict(), allow_nan=False) + "\n"
    directory = os.path.dirname(os.path.abspath(destination))
    fd, tmp = tempfile.mkstemp(prefix=".checkpoint-", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, destination)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(source: str | os.PathLike) -> ScanState:
    """Load a checkpoint written by save_checkpoint; validate its version and fields."""
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError("unreadable checkpoint %s: %s" % (source, exc)) from exc
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            "checkpoint %s has version %r; only version %r, which records the scan domain, can be resumed"
            % (source, doc.get("version") if isinstance(doc, dict) else None, CHECKPOINT_VERSION)
        )
    fields = {}
    for name, spec in _CHECKPOINT_FIELDS.items():
        if name not in doc and spec.default is None:
            raise CheckpointError("checkpoint %s is missing field %r" % (source, name))
        value = doc.get(name, spec.default)
        if not spec.valid(value):
            raise CheckpointError("checkpoint %s: field %r must be %s" % (source, name, spec.expected))
        fields[name] = spec.from_json(value)
    return ScanState(**fields)
