"""Core arithmetic: binomials with the zero convention, harmonic numbers
and exact division.  math.comb is the independent oracle throughout."""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_triangles.errors import DomainError, IntegrityError
from catalan_triangles.exact import binomial, exact_div, harmonic, keep_partials, partials


def comb_oracle(u, v):
    if v < 0 or v > u:
        return 0
    return math.comb(u, v)


def test_binomial_small_cases():
    assert binomial(4, 2) == 6
    assert binomial(5, 5) == 1
    assert binomial(0, 0) == 1


def test_binomial_zero_convention():
    assert binomial(3, -1) == 0
    assert binomial(3, 4) == 0
    assert binomial(0, 1) == 0


def test_binomial_negative_u_rejected():
    with pytest.raises(DomainError):
        binomial(-1, 0)


@given(st.integers(0, 300), st.integers(-5, 310))
def test_binomial_matches_math_comb(u, v):
    assert binomial(u, v) == comb_oracle(u, v)


def test_binomial_large_uncached_rows():
    assert binomial(5000, 3) == math.comb(5000, 3)
    assert binomial(5000, 4997) == math.comb(5000, 3)


@given(st.integers(0, 200), st.data())
def test_binomial_symmetry(u, data):
    v = data.draw(st.integers(0, u))
    assert binomial(u, v) == binomial(u, u - v)


@given(st.integers(1, 200), st.data())
def test_binomial_pascal_rule_including_boundaries(u, data):
    v = data.draw(st.integers(0, u))
    assert binomial(u, v) == binomial(u - 1, v - 1) + binomial(u - 1, v)


def test_vandermonde_sum_of_squares():
    for n in range(101):
        assert sum(binomial(n, k) ** 2 for k in range(n + 1)) == binomial(2 * n, n)


def test_alternating_sum_of_squares():
    for n in range(101):
        total = sum((-1) ** k * binomial(2 * n, k) ** 2 for k in range(2 * n + 1))
        assert total == (-1) ** n * binomial(2 * n, n)


@given(st.integers(), st.integers())
def test_integer_addition_is_exact(a, b):
    assert (a + b) - b == a


def test_exact_div_examples():
    assert exact_div(10, 5) == 2
    assert exact_div(0, 7) == 0
    assert exact_div((6 - 2 * 2) * binomial(6, 2), 6) == 5


def test_exact_div_rejects_inexact():
    with pytest.raises(IntegrityError):
        exact_div(10, 3)


def test_exact_div_rejects_zero_divisor():
    with pytest.raises(IntegrityError):
        exact_div(10, 0)


def test_harmonic_first_values():
    assert harmonic(1) == Fraction(1)
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_lowest_terms():
    h = harmonic(30)
    assert h.denominator > 0
    assert math.gcd(h.numerator, h.denominator) == 1


def test_harmonic_difference_is_unit_fraction():
    for n in range(2, 501):
        assert harmonic(n) - harmonic(n - 1) == Fraction(1, n)


@pytest.mark.parametrize("n", [0, -1, -10])
def test_harmonic_domain(n):
    with pytest.raises(DomainError):
        harmonic(n)


def test_binomial_concurrent_consistency():
    results = {}
    lock = threading.Lock()

    def worker(base):
        local = {}
        for u in range(base, 120, 7):
            for v in range(0, u + 1, 3):
                local[(u, v)] = binomial(u, v)
        with lock:
            results.update(local)

    threads = [threading.Thread(target=worker, args=(b,)) for b in range(7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(value == math.comb(u, v) for (u, v), value in results.items())


@settings(max_examples=30)
@given(st.integers(1, 400))
def test_harmonic_closed_prefix(n):
    assert harmonic(n) == sum(Fraction(1, k) for k in range(1, n + 1))


def test_nested_keep_partials_blocks_share_one_store_until_the_outer_exit():
    assert partials() is None
    with keep_partials():
        store = partials()
        store["outer"] = 1
        with keep_partials():
            assert partials() is store
            store["inner"] = 2
        assert partials() is store
        assert store == {"outer": 1, "inner": 2}
    assert partials() is None
