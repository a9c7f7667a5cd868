"""Exact integer and rational primitives.

Arbitrary precision comes from Python's native int and fractions.Fraction
(always in lowest terms, positive denominator), so every operation here is
exact by construction; there is deliberately no floating-point fast path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, lcm, prod
from operator import itemgetter
from typing import Callable, Iterator

from .errors import DomainError, IntegrityError

Rational = Fraction


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


def binomials(u: int, v: int, du: int, dv: int, count: int) -> list[int]:
    """[binomial(u + i*du, v + i*dv) for i = 0..count-1], one exact step per entry.

    One comb() anchors the run; each next value is the last one times the
    ratio of the two binomials, divided through exact_div, and the last
    value is checked against a fresh comb(), so a wrong step raises
    IntegrityError.  Every point of the run must satisfy 0 <= v <= u;
    since the run is a line, checking its two ends suffices.
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
    up, down = [repeat(1, steps)], [repeat(1, steps)]
    for base, d, grows, shrinks in ((u, du, up, down), (v, dv, down, up), (u - v, du - dv, down, up)):
        offsets, side = (range(1, d + 1), grows) if d > 0 else (range(d + 1, 1), shrinks)
        side.extend(range(base + o, base + o + steps * d, d) for o in offsets)
    value = comb(u, v)
    values = [value]
    for num, den in zip(map(prod, zip(*up)), map(prod, zip(*down))):
        value = exact_div(value * num, den)
        values.append(value)
    if steps and value != comb(end_u, end_v):
        raise IntegrityError("binomials: run ending at binomial(%d, %d) disagrees with comb()" % (end_u, end_v))
    return values


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


def harmonic_numerators(n: int) -> tuple[int, list[int]]:
    """(L, [L*H(0), L*H(1), ..., L*H(n)]) with L = lcm(1..n) and H(0) = 0.

    Every L*H(k) for k <= n is an integer, so a sum weighted by harmonic
    numbers up to n is one integer sum over the single denominator L.
    """
    if n < 0:
        raise DomainError("harmonic_numerators: n must be >= 0, got %d" % n)
    scale = lcm(*range(1, n + 1))
    return scale, list(accumulate((scale // j for j in range(1, n + 1)), initial=0))


# Partials of the running sums, per thread; None outside keep_partials().
_scope = threading.local()


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


class RunningSum:
    """sum(term(k, **fixed) for k = lo..hi) as a (**params) -> int | Fraction callable.

    params are the bound parameter named hi and the parameters named in
    fixed; lo is an int or a callable of the fixed parameters.  Inside
    keep_partials() the sum remembers, for each value of its fixed
    parameters, the last (hi, partial): a call at the same or a larger hi
    adds only the missing terms, any other call starts again from lo.
    Outside keep_partials() every call sums from lo.

    The partial is an integer numerator over the lcm of the term
    denominators seen so far, so Fraction terms cost integer additions and
    a call builds at most one Fraction; a sum of int terms returns an int.
    """

    def __init__(
        self,
        term: Callable[..., int | Fraction],
        lo: int | Callable[..., int],
        hi: str,
        fixed: tuple[str, ...] = (),
    ):
        self.term = term
        self.lo = lo
        self.hi = hi
        self.fixed = tuple(fixed)
        self._names = {hi, *self.fixed}
        # the fixed values in declaration order, whatever the call's order
        self._fixed_values = itemgetter(*self.fixed) if self.fixed else lambda params: ()

    def __call__(self, **params: int) -> int | Fraction:
        if params.keys() != self._names:
            raise TypeError("running sum takes parameters %s, got %s" % (sorted(self._names), sorted(params)))
        hi = params.pop(self.hi)  # params is this call's own dict; what is left are the fixed parameters
        lo = self.lo(**params) if callable(self.lo) else self.lo
        partials = getattr(_scope, "partials", None)
        key = (self, self._fixed_values(params))
        last = partials.get(key) if partials is not None else None
        if last is not None and lo <= last[0] <= hi:
            start, num, den = last[0] + 1, last[1], last[2]
        else:
            start, num, den = lo, 0, 1
        term = self.term
        for k in range(start, hi + 1):
            value = term(k, **params)
            top, bottom = value.numerator, value.denominator
            if bottom != den:
                if den % bottom:
                    grown = lcm(den, bottom)
                    num *= grown // den
                    den = grown
                top *= den // bottom
            num += top
        if partials is not None:
            partials[key] = (hi, num, den)
        return num if den == 1 else Fraction(num, den)
