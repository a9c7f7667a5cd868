"""Generators for the named sequences and triangles.

Three triangular arrays live here.  The signed triangle c(m, k) =
((m - 2k)/m) * binomial(m, k) unifies the two classical Catalan triangles:
its even rows give Shapiro's triangle b(n, k) = (k/n) * binomial(2n, n-k)
and its odd rows give a(n, k) = ((2k-1)/(2n+1)) * binomial(2n+1, n+1-k).
All entries are exact integers; exact_div enforces that at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, IntegrityError
from .exact import binomial, binomials, exact_div


def _c_ext(m: int, k: int) -> int:
    """c(m, k) extended by zero outside 0 <= k <= m (binomial convention), for rows m >= 1."""
    if m < 1:
        raise DomainError("c: m must be >= 1, got %d" % m)
    return exact_div((m - 2 * k) * binomial(m, k), m)


def _b_ext(n: int, k: int) -> int:
    """b(n, k) extended by zero outside 0 <= k <= n, for rows n >= 1."""
    if n < 1:
        raise DomainError("b: n must be >= 1, got %d" % n)
    return exact_div(k * binomial(2 * n, n - k), n) if k >= 0 else 0


def _a_ext(n: int, k: int) -> int:
    """a(n, k) extended by zero outside 1 <= k <= n + 1."""
    return exact_div((2 * k - 1) * binomial(2 * n + 1, n + 1 - k), 2 * n + 1) if k >= 1 else 0


def catalan(n: int) -> int:
    """The n-th Catalan number binomial(2n, n) / (n + 1)."""
    if n < 0:
        raise DomainError("catalan: n must be >= 0, got %d" % n)
    return exact_div(binomial(2 * n, n), n + 1)


def c_number(m: int, k: int) -> int:
    """Entry (m, k) of the signed unified triangle, rows m >= 1, 0 <= k <= m."""
    if m < 1:
        raise DomainError("c_number: m must be >= 1, got %d" % m)
    if k < 0 or k > m:
        raise DomainError("c_number: k must satisfy 0 <= k <= m, got k=%d, m=%d" % (k, m))
    value = _c_ext(m, k)
    # double-entry bookkeeping: closed form vs Pascal-difference form
    if value != binomial(m, k) - 2 * binomial(m - 1, k - 1):
        raise IntegrityError("c_number(%d, %d): closed form and Pascal-difference form disagree" % (m, k))
    return value


def b_number(n: int, k: int) -> int:
    """Entry (n, k) of Shapiro's triangle, n >= 1, 0 <= k <= n (k=0 gives 0)."""
    if n < 1:
        raise DomainError("b_number: n must be >= 1, got %d" % n)
    if k < 0 or k > n:
        raise DomainError("b_number: k must satisfy 0 <= k <= n, got k=%d, n=%d" % (k, n))
    return _b_ext(n, k)


def a_number(n: int, k: int) -> int:
    """Entry (n, k) of the odd-row companion triangle, n >= 1, 1 <= k <= n + 1."""
    if n < 1:
        raise DomainError("a_number: n must be >= 1, got %d" % n)
    if k < 1 or k > n + 1:
        raise DomainError("a_number: k must satisfy 1 <= k <= n+1, got k=%d, n=%d" % (k, n))
    return _a_ext(n, k)


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


# kind: (name of the row index, last column minus row index)
_ROWS = {"c_row": ("m", 0), "b_row": ("n", 0), "a_row": ("n", 1)}


def _row_slice(kind: str, index: int, start: int, stop: int) -> list[int]:
    """Columns start..stop-1 of one triangle row, from one run of binomials."""
    name, extra = _ROWS[kind]
    if index < 1:
        raise DomainError("%s: %s must be >= 1, got %d" % (kind, name, index))
    if stop - 1 > index + extra:
        raise DomainError("generate: slice %d..%d leaves row %d of %s" % (start, stop - 1, index, kind))
    columns = range(start, stop)
    if kind == "b_row":  # b(n, k) = k * binomial(2n, n-k) / n
        n = index
        return [exact_div(k * x, n) for k, x in zip(columns, binomials(2 * n, n - start, 0, -1, len(columns)))]
    if kind == "a_row":  # a(n, k) = (2k-1) * binomial(2n+1, n+1-k) / (2n+1)
        n = index
        return [
            exact_div((2 * k - 1) * x, 2 * n + 1)
            for k, x in zip(columns, binomials(2 * n + 1, n + 1 - start, 0, -1, len(columns)))
        ]
    # c(m, k) = (m - 2k) * binomial(m, k) / m, checked against the Pascal-difference
    # form binomial(m, k) - 2 * binomial(m-1, k-1), whose run has its own anchor
    m = index
    first = max(start, 1)  # binomial(m-1, -1) = 0
    shifted = [0] * (first - start) + binomials(m - 1, first - 1, 0, 1, stop - first)
    values = []
    for k, x, y in zip(columns, binomials(m, start, 0, 1, len(columns)), shifted):
        value = exact_div((m - 2 * k) * x, m)
        if value != x - 2 * y:
            raise IntegrityError("c_row(%d) at k=%d: closed form and Pascal-difference form disagree" % (m, k))
        values.append(value)
    return values


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

    kind is one of catalan, gen_catalan, seq_a, seq_b, c_row, b_row, a_row;
    param carries the extra index (the order k of gen_catalan, or the row).
    """

    kind: str
    start: int
    count: int
    param: int | None = None


_PARAMETRIC_KINDS = {"gen_catalan", "c_row", "b_row", "a_row"}
_KIND_FIRST_INDEX = {
    "catalan": 0,
    "gen_catalan": 1,
    "seq_a": 0,
    "seq_b": 1,
    "c_row": 0,
    "b_row": 1,
    "a_row": 1,
}


def generate(spec: SequenceSpec) -> list[int]:
    """Evaluate the slice described by spec; invalid specs raise DomainError."""
    if spec.kind not in _KIND_FIRST_INDEX:
        raise DomainError("generate: unknown kind %r" % spec.kind)
    if spec.count < 1:
        raise DomainError("generate: count must be >= 1, got %d" % spec.count)
    if (spec.param is None) == (spec.kind in _PARAMETRIC_KINDS):
        raise DomainError("generate: kind %r and param %r do not agree" % (spec.kind, spec.param))
    if spec.start < _KIND_FIRST_INDEX[spec.kind]:
        raise DomainError("generate: start %d below first index of %s" % (spec.start, spec.kind))
    indices = range(spec.start, spec.start + spec.count)

    if spec.kind == "catalan":  # binomial(2i, i) / (i + 1)
        return [exact_div(x, i + 1) for i, x in zip(indices, binomials(2 * spec.start, spec.start, 2, 1, spec.count))]
    if spec.kind == "gen_catalan":  # binomial(i*K, i-1) / i
        order = spec.param
        if order < 1:
            raise DomainError("gen_catalan: k must be >= 1, got %d" % order)
        run = binomials(order * spec.start, spec.start - 1, order, 1, spec.count)
        return [exact_div(x, i) for i, x in zip(indices, run)]
    if spec.kind == "seq_a":
        return [seq_a(i) for i in indices]
    if spec.kind == "seq_b":
        return [seq_b(i) for i in indices]

    # triangle rows: the slice must stay inside the row
    return _row_slice(spec.kind, spec.param, spec.start, indices.stop)
