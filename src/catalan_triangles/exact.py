"""Exact integer and rational primitives.

Arbitrary precision comes from Python's native int and fractions.Fraction
(always in lowest terms, positive denominator), so every operation here is
exact by construction; there is deliberately no floating-point fast path.
Two checked run kernels walk a line of values one exact ratio at a time:
binomials along any line of Pascal's triangle, and c_run up the lower half
0 <= k < m/2 of a row of the signed triangle c(m, k) = (m - 2k) *
binomial(m, k) / m.  Their runs can also be taken in decimal.Decimal under
EXACT_DECIMAL, whose str() is linear where CPython's int to str is
quadratic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
from fractions import Fraction
from itertools import repeat
from math import comb, prod
from operator import mul
from typing import Iterator

from .errors import DomainError, IntegrityError

Rational = Fraction

# Decimal integers that stay exact: any step that would round or cannot be
# represented raises its signal instead.  Use it only through localcontext,
# with divmod, never "/", which would compute MAX_PREC digits.
EXACT_DECIMAL = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, DivisionByZero, Overflow],
)


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # True would read as 1


def binomial(u: int, v: int) -> int:
    """Binomial coefficient C(u, v), zero whenever v < 0 or v > u."""
    if u < 0:
        raise DomainError("binomial: u must be >= 0, got %d" % u)
    if v < 0 or v > u:
        return 0
    return comb(u, v)


def exact_div(a: int, b: int) -> int:
    """Division that must leave no remainder; anything else is a bug upstream."""
    if b == 0:
        raise IntegrityError("exact_div: zero divisor")
    quotient, remainder = divmod(a, b)
    if remainder:
        raise IntegrityError("exact_div: %d is not divisible by %d" % (a, b))
    return quotient


def binomials(u: int, v: int, du: int, dv: int, count: int, number=int) -> list:
    """[binomial(u + i*du, v + i*dv) for i = 0..count-1], one exact step per entry.

    One comb() anchors the run; each next value is the last one times the
    ratio of the two binomials, taken with one divmod whose remainder must
    be zero, and the last value is checked against a fresh comb(), so a
    wrong step raises IntegrityError.  Every point of the run must satisfy
    0 <= v <= u; since the run is a line, checking its two ends suffices.
    The values are of type number: int, or decimal.Decimal under EXACT_DECIMAL.
    """
    if count < 0:
        raise DomainError("binomials: count must be >= 0, got %d" % count)
    if count == 0:
        return []
    end_u, end_v = u + (count - 1) * du, v + (count - 1) * dv
    if not (0 <= v <= u and 0 <= end_v <= end_u):
        raise DomainError(
            "binomials: run from (%d, %d) to (%d, %d) leaves 0 <= v <= u" % (u, v, end_u, end_v)
        )
    # One step multiplies by (u'!/u!) / ((v'!/v!) * (w'!/w!)) with w = u - v.
    # A base b moving by d contributes the factors b+1..b+d (d > 0) or the
    # reciprocals of b+d+1..b (d < 0); each factor moves by d per step, so a
    # range holds it for the whole run.
    steps = count - 1
    up, down = [], []
    for base, d, grows, shrinks in ((u, du, up, down), (v, dv, down, up), (u - v, du - dv, down, up)):
        if d > 0:
            grows += [range(base + o, base + o + steps * d, d) for o in range(1, d + 1)]
        elif d:
            shrinks += [range(base + o, base + o + steps * d, d) for o in range(d + 1, 1)]
    values = _walk(number(comb(u, v)), _per_step(up, steps), _per_step(down, steps))
    if len(values) < count:
        raise IntegrityError("binomials: step %d of the run from binomial(%d, %d) is not exact" % (len(values), u, v))
    if steps and values[-1] != comb(end_u, end_v):
        raise IntegrityError("binomials: run ending at binomial(%d, %d) disagrees with comb()" % (end_u, end_v))
    return values


def c_run(m: int, j: int, count: int, number=int) -> list:
    """[c(m, j + i) for i = 0..count-1], c(m, k) = (m - 2k) * binomial(m, k) / m, one exact step per entry.

    c is hypergeometric in k: c(m, k+1) / c(m, k) = (m-k)(m-2k-2) / ((k+1)(m-2k)).  The closed form,
    from comb() and one divmod whose remainder must be zero, anchors the run; each next value is the
    last one times the ratio, taken with one divmod whose remainder must be zero; and the last value is
    checked against the closed form, so a wrong step raises IntegrityError.  The run stays in the
    lower half 0 <= k < m/2 of row m, where no factor of the ratio is zero.  The values are of type
    number, as in binomials.
    """
    if count < 0:
        raise DomainError("c_run: count must be >= 0, got %d" % count)
    if count == 0:
        return []
    end = j + count - 1
    if not (0 <= j and 2 * end < m):
        raise DomainError("c_run: run from c(%d, %d) to c(%d, %d) leaves 0 <= k < m/2" % (m, j, m, end))
    value, remainder = divmod((m - 2 * j) * comb(m, j), m)
    if remainder:
        raise IntegrityError("c_run: anchor c(%d, %d) is not an integer" % (m, j))
    # binomial(m, k) steps by (m-k)/(k+1); m - 2k by (m-2k-2)/(m-2k)
    values = _walk(
        number(value),
        map(mul, range(m - j, m - end, -1), range(m - 2 * j - 2, m - 2 * end - 2, -2)),
        map(mul, range(j + 1, end + 1), range(m - 2 * j, m - 2 * end, -2)),
    )
    if len(values) < count:
        raise IntegrityError("c_run: step %d of the run from c(%d, %d) is not exact" % (len(values), m, j))
    if count > 1 and values[-1] * m != (m - 2 * end) * comb(m, end):
        raise IntegrityError("c_run: run from c(%d, %d) disagrees with the closed form at c(%d, %d)" % (m, j, m, end))
    return values


def _walk(value, numerators, denominators) -> list:
    """[value, ...], each next value the last times a step's numerator over its denominator.

    The list stops short at the first step whose division leaves a remainder; its caller raises.
    """
    values = [value]
    for num, den in zip(numerators, denominators):
        value, remainder = divmod(value * num, den)
        if remainder:
            break
        values.append(value)
    return values


def _per_step(factors: list[range], steps: int):
    """The product of one factor from each range, per step; a lone range is its own product."""
    if len(factors) == 1:
        return factors[0]
    return map(prod, zip(*factors, repeat(1, steps)))


_harmonic_lock = threading.Lock()
_harmonic_cache: list[Fraction] = [Fraction(0)]  # index 0 is a sentinel, never returned


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number 1 + 1/2 + ... + 1/n, in lowest terms."""
    if n < 1:
        raise DomainError("harmonic: n must be >= 1, got %d" % n)
    if n >= len(_harmonic_cache):
        with _harmonic_lock:
            while len(_harmonic_cache) <= n:
                k = len(_harmonic_cache)
                _harmonic_cache.append(_harmonic_cache[-1] + Fraction(1, k))
    return _harmonic_cache[n]


# Partials of the running sums, per thread; None outside keep_partials().
_scope = threading.local()


def partials() -> dict:
    """The store that compiled running sums keep their partials in; outside keep_partials(), a fresh one nothing keeps."""
    store = getattr(_scope, "partials", None)
    return {} if store is None else store


@contextmanager
def keep_partials() -> Iterator[None]:
    """Let running sums reuse their partials until the outermost block exits.

    On exit every partial is dropped, so nothing outlives the sweep or scan
    that filled it.  Blocks nest; each thread has its own partials.
    """
    if getattr(_scope, "partials", None) is not None:
        yield
        return
    _scope.partials = {}
    try:
        yield
    finally:
        _scope.partials = None
