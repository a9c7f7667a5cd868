"""Exact integer and rational primitives.

Arbitrary precision comes from Python's native int and fractions.Fraction
(always in lowest terms, positive denominator), so every operation here is
exact by construction; there is deliberately no floating-point fast path.
Integer runs can also be taken in decimal.Decimal under EXACT_DECIMAL,
whose str() is linear where CPython's int to str is quadratic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
from fractions import Fraction
from itertools import repeat
from math import comb, prod
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
    value = number(comb(u, v))
    values = [value]
    for num, den in zip(_per_step(up, steps), _per_step(down, steps)):
        value, remainder = divmod(value * num, den)
        if remainder:
            raise IntegrityError(
                "binomials: step %d of the run from binomial(%d, %d) is not exact" % (len(values), u, v)
            )
        values.append(value)
    if steps and value != comb(end_u, end_v):
        raise IntegrityError("binomials: run ending at binomial(%d, %d) disagrees with comb()" % (end_u, end_v))
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


def partials() -> dict | None:
    """The store that compiled running sums keep their partials in, or None outside keep_partials()."""
    return getattr(_scope, "partials", None)


@contextmanager
def keep_partials() -> Iterator[None]:
    """Let running sums reuse their partials until the outermost block exits.

    On exit every partial is dropped, so nothing outlives the sweep or scan
    that filled it.  Blocks nest; each thread has its own partials.
    """
    if partials() is not None:
        yield
        return
    _scope.partials = {}
    try:
        yield
    finally:
        _scope.partials = None
