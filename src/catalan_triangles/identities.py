"""Registry of exact combinatorial identities plus a sweep engine.

Every entry binds a stable id to a pair of evaluators (left and right side)
over named integer parameters.  A side returns an int or a Fraction, and the
two are compared as returned: ints as ints, a Fraction against either by
canonical (lowest-terms) equality, so identities whose right side carries
explicit fractions like (n+1)/2 * catalan(n) need no special casing.  A
rational side is written as one quotient Fraction(numerator, denominator)
of integers, and a sum weighted by harmonic numbers as one integer sum over
lcm(1..n).  Evaluators are total on the declared domain: outside-the-triangle
terms vanish through the binomial zero convention, never through special
cases in the sums.  A partial sum whose bound is a swept parameter is
declared as an exact.RunningSum, so a sweep that raises the bound adds one
term per cell instead of re-summing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping

from .errors import DomainError, EmptyDomainError, UnknownIdentityError, UsageError
from .exact import RunningSum, binomial, harmonic, harmonic_numerators, keep_partials
from .triangles import _a_ext, _b_ext, _c_ext, catalan, gen_catalan, seq_a, seq_b

Assignment = Mapping[str, int]


@dataclass(frozen=True)
class Parameter:
    name: str
    minimum: int


@dataclass(frozen=True)
class IdentityDescriptor:
    """One verifiable identity: statement, parameter domain, two evaluators.

    constraint, when present, is the relational part of the domain (say
    i <= n); per-parameter lower bounds live in parameters.  default_cap is
    the upper bound a sweep uses for parameters the caller did not range.
    """

    id: str
    statement: str
    parameters: tuple[Parameter, ...]
    lhs: Callable[..., Fraction | int]
    rhs: Callable[..., Fraction | int]
    constraint: Callable[..., bool] | None = None
    default_cap: int = 100

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


def register(descriptor: IdentityDescriptor) -> IdentityDescriptor:
    if descriptor.id in _REGISTRY:
        raise UsageError("identity id %r already registered" % descriptor.id)
    _REGISTRY[descriptor.id] = descriptor
    return descriptor


def list_identities() -> list[IdentityDescriptor]:
    return list(_REGISTRY.values())


def get_identity(identity_id: str) -> IdentityDescriptor:
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id, _REGISTRY) from None


def _ident(id, statement, parameters, lhs, rhs, constraint=None, cap=100):
    register(
        IdentityDescriptor(
            id=id,
            statement=statement,
            parameters=tuple(Parameter(name, minimum) for name, minimum in parameters),
            lhs=lhs,
            rhs=rhs,
            constraint=constraint,
            default_cap=cap,
        )
    )


# --- recurrences -----------------------------------------------------------

_ident(
    "prop-recurrence",
    "c(m+2,k) == c(m,k) + 2*c(m,k-1) + c(m,k-2)",
    [("m", 1), ("k", 2)],
    lambda m, k: _c_ext(m + 2, k),
    lambda m, k: _c_ext(m, k) + 2 * _c_ext(m, k - 1) + _c_ext(m, k - 2),
)

_ident(
    "rec-B",
    "b(n,k) == b(n-1,k-1) + 2*b(n-1,k) + b(n-1,k+1)",
    [("n", 2), ("k", 2)],
    lambda n, k: _b_ext(n, k),
    lambda n, k: _b_ext(n - 1, k - 1) + 2 * _b_ext(n - 1, k) + _b_ext(n - 1, k + 1),
    constraint=lambda n, k: k <= n,
)

_ident(
    "rec-A",
    "a(n,k) == a(n-1,k-1) + 2*a(n-1,k) + a(n-1,k+1)",
    [("n", 2), ("k", 2)],
    lambda n, k: _a_ext(n, k),
    lambda n, k: _a_ext(n - 1, k - 1) + 2 * _a_ext(n - 1, k) + _a_ext(n - 1, k + 1),
    constraint=lambda n, k: k <= n + 1,
)

# --- linear and alternating sums -------------------------------------------

_ident(
    "thm-linear-sum",
    "sum(c(m,k), k=0..n) == binomial(m-1,n)",
    [("m", 2), ("n", 1)],
    RunningSum(lambda k, m: _c_ext(m, k), 0, "n", ("m",)),
    lambda m, n: binomial(m - 1, n),
)

_ident(
    "thm-alt-sum",
    "sum((-1)^k * c(m,k), k=0..n) == (-1)^n * c(m-1,n)",
    [("m", 2), ("n", 1)],
    RunningSum(lambda k, m: (-1) ** k * _c_ext(m, k), 0, "n", ("m",)),
    lambda m, n: (-1) ** n * _c_ext(m - 1, n),
    constraint=lambda m, n: n <= m - 1,
)

_ident(
    "cor-alt-B",
    "sum((-1)^k * b(n,k), k=1..n) == -catalan(n-1)",
    [("n", 1)],
    lambda n: sum((-1) ** k * _b_ext(n, k) for k in range(1, n + 1)),
    lambda n: -catalan(n - 1),
)

_ident(
    "cor-alt-A",
    "sum((-1)^k * a(n,k), k=1..n+1) == 0",
    [("n", 1)],
    lambda n: sum((-1) ** k * _a_ext(n, k) for k in range(1, n + 2)),
    lambda n: 0,
)

_ident(
    "eq-linear-B",
    "sum(b(n,k), k=1..n) == (n+1)/2 * catalan(n)",
    [("n", 1)],
    lambda n: sum(_b_ext(n, k) for k in range(1, n + 1)),
    lambda n: Fraction((n + 1) * catalan(n), 2),
)

_ident(
    "eq-linear-A",
    "sum(a(n,k), k=1..n+1) == (n+1) * catalan(n)",
    [("n", 1)],
    lambda n: sum(_a_ext(n, k) for k in range(1, n + 2)),
    lambda n: (n + 1) * catalan(n),
)

# Stated twice in the paper, as eq-square-B/cor-square-ii and eq-square-A/cor-square-iii.
_B_SQUARES = (
    "sum(b(n,k)^2, k=1..n) == catalan(2n-1)",
    [("n", 1)],
    lambda n: sum(_b_ext(n, k) ** 2 for k in range(1, n + 1)),
    lambda n: catalan(2 * n - 1),
)
_A_SQUARES = (
    "sum(a(n,k)^2, k=1..n+1) == catalan(2n)",
    [("n", 1)],
    lambda n: sum(_a_ext(n, k) ** 2 for k in range(1, n + 2)),
    lambda n: catalan(2 * n),
)

_ident("eq-square-B", *_B_SQUARES)

_ident("eq-square-A", *_A_SQUARES)

_ident(
    "eq-convolution",
    "sum(b(n,k)*b(n,n+k-i)*(n+2k-i), k=1..i) == (n+1)*catalan(n)*binomial(2n-2,i-1)",
    [("n", 1), ("i", 1)],
    lambda n, i: sum(_b_ext(n, k) * _b_ext(n, n + k - i) * (n + 2 * k - i) for k in range(1, i + 1)),
    lambda n, i: (n + 1) * catalan(n) * binomial(2 * (n - 1), i - 1),
    constraint=lambda n, i: i <= n,
    cap=40,
)

# --- sums of squares --------------------------------------------------------

# sum(binomial(m,k)^2, k=0..n) and sum((-1)^k * binomial(m,k)^2, k=0..n)
_binomial_squares = RunningSum(lambda k, m: binomial(m, k) ** 2, 0, "n", ("m",))
_alt_binomial_squares = RunningSum(lambda k, m: (-1) ** k * binomial(m, k) ** 2, 0, "n", ("m",))
# sum((2j-n) * binomial(j-1,n-1)^2, j=n..m), bounded by m with n fixed
_square_decomp_terms = RunningSum(
    lambda j, n: (2 * j - n) * binomial(j - 1, n - 1) ** 2, lambda n: n, "m", ("n",)
)

_ident(
    "thm-square-sum",
    "sum(c(m,k)^2, k=0..n) == (m-2n)/m * binomial(m-1,n)^2 + 2/m * sum(binomial(m-1,k)^2, k=0..n-1)",
    [("m", 1), ("n", 1)],
    RunningSum(lambda k, m: _c_ext(m, k) ** 2, 0, "n", ("m",)),
    lambda m, n: Fraction((m - 2 * n) * binomial(m - 1, n) ** 2 + 2 * _binomial_squares(m=m - 1, n=n - 1), m),
)

_ident(
    "thm-alt-square-sum",
    "sum((-1)^k * c(m,k)^2, k=0..n) == 2*(-1)^n * binomial(m-1,n)^2 - sum((-1)^k * binomial(m,k)^2, k=0..n)",
    [("m", 1), ("n", 1)],
    RunningSum(lambda k, m: (-1) ** k * _c_ext(m, k) ** 2, 0, "n", ("m",)),
    lambda m, n: 2 * (-1) ** n * binomial(m - 1, n) ** 2 - _alt_binomial_squares(m=m, n=n),
)

_ident(
    "cor-square-i",
    "sum(c(n,k)^2, k=0..n) == 2 * catalan(n-1)",
    [("n", 1)],
    lambda n: sum(_c_ext(n, k) ** 2 for k in range(n + 1)),
    lambda n: 2 * catalan(n - 1),
)

_ident("cor-square-ii", *_B_SQUARES)

_ident("cor-square-iii", *_A_SQUARES)

_ident(
    "cor-square-iv",
    "sum((-1)^k * b(n,k)^2, k=1..n) == -(n+1)/2 * catalan(n)",
    [("n", 1)],
    lambda n: sum((-1) ** k * _b_ext(n, k) ** 2 for k in range(1, n + 1)),
    lambda n: Fraction(-(n + 1) * catalan(n), 2),
)

_ident(
    "thm-square-decomp-i",
    "binomial(m,n)^2 == sum((2j-n)/n * binomial(j-1,n-1)^2, j=n..m)",
    [("m", 1), ("n", 1)],
    lambda m, n: binomial(m, n) ** 2,
    lambda m, n: Fraction(_square_decomp_terms(n=n, m=m), n),
    constraint=lambda m, n: m >= n,
)

_ident(
    "thm-square-decomp-ii",
    "binomial(2n,n)^2 == sum((3n-2k)/n * binomial(2n-1-k,n-1)^2, k=0..n)",
    [("n", 1)],
    lambda n: binomial(2 * n, n) ** 2,
    lambda n: Fraction(sum((3 * n - 2 * k) * binomial(2 * n - 1 - k, n - 1) ** 2 for k in range(n + 1)), n),
)

_ident(
    "thm-square-decomp-remark",
    "binomial(2n,n)^2 == sum((n+2j)/n * binomial(n-1+j,n-1)^2, j=0..n)",
    [("n", 1)],
    lambda n: binomial(2 * n, n) ** 2,
    lambda n: Fraction(sum((n + 2 * j) * binomial(n - 1 + j, n - 1) ** 2 for j in range(n + 1)), n),
)

_ident(
    "eq-vandermonde",
    "sum(binomial(n,k)^2, k=0..n) == binomial(2n,n)",
    [("n", 0)],
    lambda n: sum(binomial(n, k) ** 2 for k in range(n + 1)),
    lambda n: binomial(2 * n, n),
)

_ident(
    "eq-alt-square",
    "sum((-1)^k * binomial(2n,k)^2, k=0..2n) == (-1)^n * binomial(2n,n)",
    [("n", 0)],
    lambda n: sum((-1) ** k * binomial(2 * n, k) ** 2 for k in range(2 * n + 1)),
    lambda n: (-1) ** n * binomial(2 * n, n),
)

# --- sums of cubes ----------------------------------------------------------

# sum((-1)^k * binomial(m,k)^3, k=0..n)
_alt_binomial_cubes = RunningSum(lambda k, m: (-1) ** k * binomial(m, k) ** 3, 0, "n", ("m",))


def _cube_cross_sum(m: int, n: int) -> int:
    return sum(binomial(j, n) * binomial(j, m - n - 1) for j in range(m))


_ident(
    "eq-amm",
    "sum((m-2k)*binomial(m,k)^3, k=0..n) == (m-n)*binomial(m,n)*sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)",
    [("m", 1), ("n", 1)],
    RunningSum(lambda k, m: (m - 2 * k) * binomial(m, k) ** 3, 0, "n", ("m",)),
    lambda m, n: (m - n) * binomial(m, n) * _cube_cross_sum(m, n),
    cap=40,
)

_ident(
    "thm-cube-sum",
    "sum(c(m,k)^3, k=0..n) == 4*binomial(m-1,n)^3 - 3*binomial(m-1,n)*sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)",
    [("m", 1), ("n", 1)],
    RunningSum(lambda k, m: _c_ext(m, k) ** 3, 0, "n", ("m",)),
    lambda m, n: 4 * binomial(m - 1, n) ** 3 - 3 * binomial(m - 1, n) * _cube_cross_sum(m, n),
    cap=40,
)

_ident(
    "thm-alt-cube-sum",
    "sum((-1)^k * c(m,k)^3, k=0..n) == (m-3n)/m * (-1)^n * binomial(m-1,n)^3 - (m-3)/m * sum((-1)^k * binomial(m-1,k)^3, k=0..n-1)",
    [("m", 1), ("n", 1)],
    RunningSum(lambda k, m: (-1) ** k * _c_ext(m, k) ** 3, 0, "n", ("m",)),
    lambda m, n: Fraction(
        (m - 3 * n) * (-1) ** n * binomial(m - 1, n) ** 3 - (m - 3) * _alt_binomial_cubes(m=m - 1, n=n - 1), m
    ),
)

_ident(
    "cor-cube-B",
    "sum(b(n,k)^3, k=0..n) == 1/2 * binomial(2n,n)^3 - 3/2 * binomial(2n,n) * sum(binomial(j,n)*binomial(j,n-1), j=n..2n-1)",
    [("n", 1)],
    lambda n: sum(_b_ext(n, k) ** 3 for k in range(n + 1)),
    lambda n: Fraction(
        binomial(2 * n, n) ** 3
        - 3 * binomial(2 * n, n) * sum(binomial(j, n) * binomial(j, n - 1) for j in range(n, 2 * n)),
        2,
    ),
)

_ident(
    "cor-cube-A",
    "sum(a(n,k)^3, k=1..n+1) == binomial(2n,n)^3 - 3*binomial(2n,n)*sum(binomial(j,n)^2, j=n..2n-1)",
    [("n", 1)],
    lambda n: sum(_a_ext(n, k) ** 3 for k in range(1, n + 2)),
    lambda n: binomial(2 * n, n) ** 3 - 3 * binomial(2 * n, n) * sum(binomial(j, n) ** 2 for j in range(n, 2 * n)),
)

_ident(
    "cor-alt-cube-A",
    "sum((-1)^k * a(n,k)^3, k=1..n+1) == (n-1)/(2n+1) * binomial(2n,n) * binomial(3n,n)",
    [("n", 1)],
    lambda n: sum((-1) ** k * _a_ext(n, k) ** 3 for k in range(1, n + 2)),
    lambda n: Fraction((n - 1) * binomial(2 * n, n) * binomial(3 * n, n), 2 * n + 1),
)

_ident(
    "eq-dixon",
    "sum((-1)^k * binomial(2n,k)^3, k=0..2n) == (-1)^n * binomial(2n,n) * binomial(3n,n)",
    [("n", 1)],
    lambda n: sum((-1) ** k * binomial(2 * n, k) ** 3 for k in range(2 * n + 1)),
    lambda n: (-1) ** n * binomial(2 * n, n) * binomial(3 * n, n),
)

_ident(
    "thm-b-cube",
    "sum(b(n,k)^3, k=1..n) == 1/(2n) * binomial(2n,n) * sum(k * binomial(2n-k-1,n-1)^2, k=1..n)",
    [("n", 1)],
    lambda n: sum(_b_ext(n, k) ** 3 for k in range(1, n + 1)),
    lambda n: Fraction(
        binomial(2 * n, n) * sum(k * binomial(2 * n - k - 1, n - 1) ** 2 for k in range(1, n + 1)),
        2 * n,
    ),
)

_ident(
    "rem-b-cube-factored",
    "sum(b(n,k)^3, k=1..n) == (n+1)/2 * catalan(n) * seq_b(n)",
    [("n", 1)],
    lambda n: sum(_b_ext(n, k) ** 3 for k in range(1, n + 1)),
    lambda n: Fraction((n + 1) * catalan(n) * seq_b(n), 2),
)

_ident(
    "rem-a-cube-factored",
    "sum(a(n,k)^3, k=1..n+1) == (n+1) * catalan(n) * ((2*(n+1)*catalan(n))^2 - 3*seq_a(n))",
    [("n", 1)],
    lambda n: sum(_a_ext(n, k) ** 3 for k in range(1, n + 2)),
    lambda n: (n + 1) * catalan(n) * ((2 * (n + 1) * catalan(n)) ** 2 - 3 * seq_a(n)),
)

# --- harmonic-number sums ----------------------------------------------------

# sum(binomial(m,k), k=1..n)
_binomials_from_one = RunningSum(lambda k, m: binomial(m, k), 1, "n", ("m",))


def _harmonic_sum(n: int, terms) -> Fraction:
    """sum(w * H(j) for w, j in terms), every j <= n, as one integer sum over lcm(1..n)."""
    scale, scaled = harmonic_numerators(n)
    return Fraction(sum(w * scaled[j] for w, j in terms), scale)


def _over_harmonic(n: int, a: int, b: int, d: int) -> Fraction:
    """(a*H(n) + b) / d as one quotient: with H(n) = p/q it is (a*p + b*q) / (d*q)."""
    p, q = harmonic(n).as_integer_ratio()
    return Fraction(a * p + b * q, d * q)


_ident(
    "thm-harmonic",
    "sum(c(m,k) * H(k), k=1..n) == binomial(m-1,n) * H(n) - 1/m * sum(binomial(m,k), k=1..n)",
    [("m", 1), ("n", 1)],
    RunningSum(lambda k, m: _c_ext(m, k) * harmonic(k), 1, "n", ("m",)),
    lambda m, n: _over_harmonic(n, m * binomial(m - 1, n), -_binomials_from_one(m=m, n=n), m),
)

_ident(
    "cor-harmonic-C",
    "sum(c(n,k) * H(k), k=1..n) == (1 - 2^n) / n",
    [("n", 1)],
    lambda n: _harmonic_sum(n, ((_c_ext(n, k), k) for k in range(1, n + 1))),
    lambda n: Fraction(1 - 2**n, n),
)

_ident(
    "cor-harmonic-B",
    "sum(b(n,k) * H(n-k), k=0..n-1) == (2n*H(n)-1)/(4n) * binomial(2n,n) - (2^(2n-1)-1)/(2n)",
    [("n", 1)],
    lambda n: _harmonic_sum(n, ((_b_ext(n, k), n - k) for k in range(n))),
    lambda n: _over_harmonic(n, 2 * n * binomial(2 * n, n), 2 - binomial(2 * n, n) - 4**n, 4 * n),
)

_ident(
    "cor-harmonic-A",
    "sum(a(n,k) * H(n-k+1), k=1..n) == H(n) * binomial(2n,n) - (2^(2n)-1)/(2n+1)",
    [("n", 1)],
    lambda n: _harmonic_sum(n, ((_a_ext(n, k), n - k + 1) for k in range(1, n + 1))),
    lambda n: _over_harmonic(n, (2 * n + 1) * binomial(2 * n, n), 1 - 4**n, 2 * n + 1),
)

_ident(
    "rem-ps13",
    "sum((n-2k) * H(k) * binomial(n,k), k=1..n) == 1 - 2^n",
    [("n", 1)],
    lambda n: _harmonic_sum(n, (((n - 2 * k) * binomial(n, k), k) for k in range(1, n + 1))),
    lambda n: 1 - 2**n,
)

# --- generalized Catalan relation --------------------------------------------

_ident(
    "rel-gen-catalan",
    "c(k*n+1, n) == ((k-2)*n + 1) * gen_catalan(k, n)",
    [("k", 1), ("n", 1)],
    lambda k, n: _c_ext(k * n + 1, n),
    lambda k, n: ((k - 2) * n + 1) * gen_catalan(k, n),
)


# --- engine -------------------------------------------------------------------


def _resolve(identity: str | IdentityDescriptor) -> IdentityDescriptor:
    if isinstance(identity, IdentityDescriptor):
        return identity
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
    if set(assignment) != set(names):
        raise DomainError(
            "%s expects parameters %s, got %s" % (ident.id, names, tuple(assignment))
        )
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
    ranges = dict(ranges or {})
    unknown = set(ranges) - set(ident.parameter_names())
    if unknown:
        raise UsageError("%s has no parameter(s) %s" % (ident.id, sorted(unknown)))
    domain = {}
    for param in ident.parameters:
        lo, hi = ranges.get(param.name, (param.minimum, ident.default_cap if cap is None else cap))
        domain[param.name] = (max(lo, param.minimum), hi)
    return domain


def _admissible_cells(ident: IdentityDescriptor, domain: dict[str, tuple[int, int]], ignore_constraint: bool):
    names = ident.parameter_names()
    spans = [range(domain[name][0], domain[name][1] + 1) for name in names]
    if ignore_constraint or ident.constraint is None:
        return list(product(*spans))
    return [values for values in product(*spans) if ident.constraint(**dict(zip(names, values)))]


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
    Cells run in lexicographic order of the parameters, so mismatches come
    out canonically sorted.  parallelism is accepted for compatibility and has
    no effect: the sweep is serial, since threads only slow pure-Python
    big-integer work under the GIL.
    """
    ident = _resolve(identity)
    domain = effective_domain(ident, ranges, cap)
    cells = _admissible_cells(ident, domain, allow_outside_domain)
    if not cells:
        raise EmptyDomainError(
            "%s: no admissible cells in %s" % (ident.id, {k: list(v) for k, v in domain.items()})
        )
    names = ident.parameter_names()
    started = time.perf_counter()
    checked = 0
    mismatches = []
    with keep_partials():
        for values in cells:
            lhs, rhs = _sides(ident, dict(zip(names, values)))
            checked += 1
            if lhs != rhs:
                mismatches.append(Mismatch(tuple(zip(names, values)), Fraction(lhs), Fraction(rhs)))
                if fail_fast:
                    break
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerificationReport(
        identity=ident.id,
        domain=domain,
        cells=checked,
        mismatches=mismatches,
        elapsed_ms=elapsed_ms,
    )
