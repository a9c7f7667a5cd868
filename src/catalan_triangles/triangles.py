"""Generators for the named sequences and triangles.

Three triangular arrays live here.  The signed triangle c(m, k) =
((m - 2k)/m) * binomial(m, k) unifies the two classical Catalan triangles,
and b and a are computed as its entries: Shapiro's b(n, k) = c(2n, n-k) on
even rows, a(n, k) = c(2n+1, n+1-k) on odd rows.  All entries are exact
integers; a division that leaves a remainder raises IntegrityError.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from operator import sub

from .errors import DomainError, IntegrityError, UsageError
from .exact import EXACT_DECIMAL, _int, binomial, binomials, c_run, exact_div


def _c_ext(m: int, k: int) -> int:
    """c(m, k) extended by zero outside 0 <= k <= m (binomial convention), for rows m >= 1."""
    if m < 1:
        raise DomainError("c: m must be >= 1, got %d" % m)
    value, remainder = divmod((m - 2 * k) * binomial(m, k), m)
    if remainder:
        raise IntegrityError("c(%d, %d): closed form is not an integer" % (m, k))
    return value


def _b_ext(n: int, k: int) -> int:
    """b(n, k) = c(2n, n-k) on 0 <= k <= n, and zero outside, for rows n >= 1."""
    if n < 1:
        raise DomainError("b: n must be >= 1, got %d" % n)
    return _c_ext(2 * n, n - k) if k >= 0 else 0


def _a_ext(n: int, k: int) -> int:
    """a(n, k) = c(2n+1, n+1-k) on 1 <= k <= n + 1, and zero outside, for rows n >= 1."""
    if n < 1:
        raise DomainError("a: n must be >= 1, got %d" % n)
    return _c_ext(2 * n + 1, n + 1 - k) if k >= 1 else 0


def catalan(n: int) -> int:
    """The n-th Catalan number binomial(2n, n) / (n + 1)."""
    if n < 0:
        raise DomainError("catalan: n must be >= 0, got %d" % n)
    return exact_div(binomial(2 * n, n), n + 1)


def c_number(m: int, k: int) -> int:
    """Entry (m, k) of the signed unified triangle, rows m >= 1, 0 <= k <= m: the checked one-column row slice at k."""
    if m < 1:
        raise DomainError("c_number: m must be >= 1, got %d" % m)
    if k < 0 or k > m:
        raise DomainError("c_number: k must satisfy 0 <= k <= m, got k=%d, m=%d" % (k, m))
    return _row_slice("c_row", m, k, k + 1)[0]


def b_number(n: int, k: int) -> int:
    """Entry (n, k) of Shapiro's triangle, n >= 1, 0 <= k <= n (k=0 gives 0): c_number(2n, n-k)."""
    if n < 1:
        raise DomainError("b_number: n must be >= 1, got %d" % n)
    if k < 0 or k > n:
        raise DomainError("b_number: k must satisfy 0 <= k <= n, got k=%d, n=%d" % (k, n))
    return c_number(2 * n, n - k)


def a_number(n: int, k: int) -> int:
    """Entry (n, k) of the odd-row companion triangle, n >= 1, 1 <= k <= n + 1: c_number(2n+1, n+1-k)."""
    if n < 1:
        raise DomainError("a_number: n must be >= 1, got %d" % n)
    if k < 1 or k > n + 1:
        raise DomainError("a_number: k must satisfy 1 <= k <= n+1, got k=%d, n=%d" % (k, n))
    return c_number(2 * n + 1, n + 1 - k)


def gen_catalan(k: int, n: int) -> int:
    """Generalized Catalan number of order k: binomial(n*k, n-1) / n."""
    if k < 1:
        raise DomainError("gen_catalan: k must be >= 1, got %d" % k)
    if n < 1:
        raise DomainError("gen_catalan: n must be >= 1, got %d" % n)
    return exact_div(binomial(n * k, n - 1), n)


def seq_a(n: int) -> int:
    """a(n) = sum of binomial(n+k, n)^2 for k = 0..n (OEIS A112029)."""
    if n < 0:
        raise DomainError("seq_a: n must be >= 0, got %d" % n)
    return sum(x * x for x in binomials(n, n, 1, 0, n + 1))


def seq_b(n: int) -> int:
    """b(n) = sum of (k/n) * binomial(2n-k-1, n-1)^2 for k = 0..n (OEIS A183069)."""
    if n < 1:
        raise DomainError("seq_b: n must be >= 1, got %d" % n)
    # k = 1..n walks binomial(2n-k-1, n-1) down its column
    return exact_div(sum(k * x * x for k, x in enumerate(binomials(2 * n - 2, n - 1, -1, 0, n), 1)), n)


# Order-2 P-recurrences lead(n)*s(n+2) = mid(n)*s(n+1) - tail(n)*s(n), found by
# exact linear algebra on the terms and checked against the direct sums term by
# term for n <= 1200 and at n = 3000; lead(n) > 0 on each sequence's domain.
_RECURRENCES = {
    "seq_a": lambda n: (
        2 * (n + 2) ** 2 * (2 * n + 5) * (21 * n + 29),
        (((1365 * n + 9403) * n + 23898) * n + 26652) * n + 11032,
        4 * (n + 1) * (2 * n + 3) ** 2 * (21 * n + 50),
    ),
    "seq_b": lambda n: (
        2 * (n + 2) ** 2 * (2 * n + 3) * (7 * n * n + 8 * n + 2),
        ((((455 * n + 2123) * n + 3634) * n + 2846) * n + 1040) * n + 144,
        4 * n * (2 * n + 1) ** 2 * (7 * n * n + 22 * n + 17),
    ),
}


def _recurrent_slice(kind: str, direct, indices: range) -> list[int]:
    """direct(i) for i in indices: two direct terms, then one exact division per term.

    Each step's remainder must be zero, and the last term of a slice of three
    or more is checked against a fresh direct(), so a wrong step raises
    IntegrityError.
    """
    values = [direct(i) for i in indices[:2]]
    for n in indices[:-2]:
        lead, mid, tail = _RECURRENCES[kind](n)
        value, remainder = divmod(mid * values[-1] - tail * values[-2], lead)
        if remainder:
            raise IntegrityError("%s(%d): recurrence step is not exact" % (kind, n + 2))
        values.append(value)
    if len(values) > 2 and values[-1] != direct(indices[-1]):
        raise IntegrityError("%s(%d): recurrence disagrees with the direct sum" % (kind, indices[-1]))
    return values


# kind: (first index, name of its param or None, last column of a row minus the row index)
_KINDS = {
    "catalan": (0, None, None),
    "seq_a": (0, None, None),
    "seq_b": (1, None, None),
    "gen_catalan": (1, "k", None),
    "c_row": (0, "m", 0),
    "b_row": (1, "n", 0),
    "a_row": (1, "n", 1),
}


def _row_slice(kind: str, index: int, start: int, stop: int, number=int) -> list:
    """Columns start..stop-1 of one triangle row, from one checked run of exact.c_run up a row's lower half.

    b(n, k) = c(2n, n-k) and a(n, k) = c(2n+1, n+1-k) lie in the lower half of their c row, so a b or a
    slice is the run up row 2n or 2n+1 over its columns, reversed.  A c row computes only the columns
    j <= m/2 the slice reads, directly or through c(m, k) = -c(m, m - k): one run up row m below the
    middle, and an even row's middle c(m, m/2) = 0, each compared with the Pascal difference
    binomial(m-1, j) - binomial(m-1, j-1) from a separately anchored run of exact.binomials along row
    m - 1.  The columns past the middle are their negated mirrors.  The entries are of type number.
    """
    _, name, extra = _KINDS[kind]
    if index < 1:
        raise DomainError("%s: %s must be >= 1, got %d" % (kind, name, index))
    if stop - 1 > index + extra:
        raise DomainError("generate: slice %d..%d leaves row %d of %s" % (start, stop - 1, index, kind))
    if kind != "c_row":
        return c_run(2 * index + extra, index + extra + 1 - stop, stop - start, number)[::-1]
    m = index
    # min(k, m - k) rises to the middle and falls past it: over the slice it is least at an end, and
    # greatest at the column nearest the middle
    near = min(max(start, m // 2), stop - 1)
    lo, hi = min(start, m + 1 - stop), min(near, m - near)
    zero = 2 * hi == m  # the slice reads an even row's middle, c(m, m/2) = 0, where a run cannot go
    values = c_run(m, lo, hi + 1 - lo - zero, number) + [number(0)] * zero
    lead = max(lo - 1, 0)  # pascal holds columns lo-1..hi of row m - 1, with binomial(m-1, -1) = 0
    pascal = [0] * (lead + 1 - lo) + binomials(m - 1, lead, 0, 1, hi + 1 - lead, number)
    differences = list(map(sub, pascal[1:], pascal))
    if values != differences:
        j = lo + next(i for i, (x, y) in enumerate(zip(values, differences)) if x != y)
        raise IntegrityError("c_row(%d) at k=%d: closed form and Pascal-difference form disagree" % (m, j))
    # the slice's first column past the middle, or stop; values stops before it
    middle = min(max(start, m // 2 + 1), stop)
    return values[start - lo:] + [-values[m - k - lo] for k in range(middle, stop)]


def c_row(m: int) -> tuple[int, ...]:
    """Row m of the unified triangle as a tuple indexed by k = 0..m."""
    return tuple(_row_slice("c_row", m, 0, m + 1))


def b_row(n: int) -> tuple[int, ...]:
    """Row n of Shapiro's triangle as a tuple indexed by k = 1..n."""
    return tuple(_row_slice("b_row", n, 1, n + 1))


def a_row(n: int) -> tuple[int, ...]:
    """Row n of the companion triangle as a tuple indexed by k = 1..n+1."""
    return tuple(_row_slice("a_row", n, 1, n + 2))


@dataclass(frozen=True)
class SequenceSpec:
    """A contiguous slice request against one named sequence or triangle row.

    kind is a key of _KINDS, which gives its first index and whether it
    takes a param: the order k of gen_catalan, or the row of a triangle.
    """

    kind: str
    start: int
    count: int
    param: int | None = None


def generate(spec: SequenceSpec, number=int) -> list:
    """Evaluate the slice described by spec; invalid specs raise DomainError.

    Catalan and generalized Catalan slices are one run of exact.binomials
    each, and a row slice is one run of exact.c_run up a c row's lower half,
    which a c row checks against one run of exact.binomials (_row_slice).
    A seq_a or seq_b slice takes its first two terms from the direct sums
    and every later term from the sequence's order-2 P-recurrence, one exact
    division per term, and checks its last term against a fresh direct sum;
    a remainder or a disagreement raises IntegrityError.

    The terms are ints.  With number=decimal.Decimal, the runs and every
    step on them are taken in Decimal under exact.EXACT_DECIMAL, with
    the same checks, so a step that would round raises its decimal signal;
    seq_a and seq_b terms stay ints.
    """
    if not (isinstance(spec.kind, str) and spec.kind in _KINDS):
        raise DomainError("generate: unknown kind %r" % (spec.kind,))
    if number is not int and number is not Decimal:
        raise UsageError("generate: number must be int or decimal.Decimal, got %r" % (number,))
    first, param, _ = _KINDS[spec.kind]
    if (spec.param is None) == (param is not None):
        raise DomainError("generate: kind %r and param %r do not agree" % (spec.kind, spec.param))
    for name in ("start", "count", "param") if param else ("start", "count"):
        if not _int(getattr(spec, name)):
            raise DomainError("generate: %s must be an integer, got %r" % (name, getattr(spec, name)))
    if spec.count < 1:
        raise DomainError("generate: count must be >= 1, got %d" % spec.count)
    if spec.start < first:
        raise DomainError("generate: start %d below first index of %s" % (spec.start, spec.kind))
    indices = range(spec.start, spec.start + spec.count)

    with localcontext(EXACT_DECIMAL):
        if spec.kind == "catalan":  # binomial(2i, i) / (i + 1)
            run = binomials(2 * spec.start, spec.start, 2, 1, spec.count, number)
            return [exact_div(x, i + 1) for i, x in zip(indices, run)]
        if spec.kind == "gen_catalan":  # binomial(i*K, i-1) / i
            order = spec.param
            if order < 1:
                raise DomainError("gen_catalan: k must be >= 1, got %d" % order)
            run = binomials(order * spec.start, spec.start - 1, order, 1, spec.count, number)
            return [exact_div(x, i) for i, x in zip(indices, run)]
        if spec.kind == "seq_a":  # seq_a and seq_b are looked up here, so a rebinding reaches them
            return _recurrent_slice("seq_a", seq_a, indices)
        if spec.kind == "seq_b":
            return _recurrent_slice("seq_b", seq_b, indices)

        # triangle rows: the slice must stay inside the row
        return _row_slice(spec.kind, spec.param, spec.start, indices.stop, number)
