"""Running sums against the from-scratch sums they replace.

The references below are the from-scratch expressions each running-sum side
had before it became a RunningSum; a sweep or scan that keeps partials must
agree with them at every cell, in any call order."""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_triangles import exact
from catalan_triangles.conjectures import divisibility_claim, reverify, scan_divisibility
from catalan_triangles.exact import RunningSum, binomial, harmonic, keep_partials
from catalan_triangles.identities import evaluate_sides, get_identity, verify_identity
from catalan_triangles.triangles import _c_ext

REFERENCE = {
    ("thm-linear-sum", "lhs"): lambda m, n: sum(_c_ext(m, k) for k in range(n + 1)),
    ("thm-alt-sum", "lhs"): lambda m, n: sum((-1) ** k * _c_ext(m, k) for k in range(n + 1)),
    ("eq-amm", "lhs"): lambda m, n: sum((m - 2 * k) * binomial(m, k) ** 3 for k in range(n + 1)),
    ("thm-cube-sum", "lhs"): lambda m, n: sum(_c_ext(m, k) ** 3 for k in range(n + 1)),
    ("thm-square-sum", "lhs"): lambda m, n: sum(_c_ext(m, k) ** 2 for k in range(n + 1)),
    ("thm-square-sum", "rhs"): lambda m, n: Fraction(m - 2 * n, m) * binomial(m - 1, n) ** 2
    + Fraction(2 * sum(binomial(m - 1, k) ** 2 for k in range(n)), m),
    ("thm-alt-square-sum", "lhs"): lambda m, n: sum((-1) ** k * _c_ext(m, k) ** 2 for k in range(n + 1)),
    ("thm-alt-square-sum", "rhs"): lambda m, n: 2 * (-1) ** n * binomial(m - 1, n) ** 2
    - sum((-1) ** k * binomial(m, k) ** 2 for k in range(n + 1)),
    ("thm-alt-cube-sum", "lhs"): lambda m, n: sum((-1) ** k * _c_ext(m, k) ** 3 for k in range(n + 1)),
    ("thm-alt-cube-sum", "rhs"): lambda m, n: Fraction((m - 3 * n) * (-1) ** n * binomial(m - 1, n) ** 3, m)
    - Fraction((m - 3) * sum((-1) ** k * binomial(m - 1, k) ** 3 for k in range(n)), m),
    ("thm-harmonic", "lhs"): lambda m, n: sum(_c_ext(m, k) * harmonic(k) for k in range(1, n + 1)),
    ("thm-harmonic", "rhs"): lambda m, n: binomial(m - 1, n) * harmonic(n)
    - Fraction(sum(binomial(m, k) for k in range(1, n + 1)), m),
    ("thm-square-decomp-i", "rhs"): lambda m, n: sum(
        Fraction((2 * j - n) * binomial(j - 1, n - 1) ** 2, n) for j in range(n, m + 1)
    ),
}

DIVIDEND_EXPONENTS = (1, 3, 7)


def _side(key):
    identity_id, side = key
    return getattr(get_identity(identity_id), side)


def _partials_left():
    return getattr(exact._scope, "partials", None)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(sorted(REFERENCE) + [("dividend", p) for p in DIVIDEND_EXPONENTS]),
            st.integers(1, 14),
            st.integers(1, 14),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_running_sums_match_from_scratch_in_any_order(calls):
    # consecutive draws raise, lower and repeat the bound and hop between
    # fixed values and between sums, all inside one keep_partials block
    with keep_partials():
        for key, m, n in calls:
            if key[0] == "dividend":
                p = key[1]
                got = divisibility_claim("c", p, (m, n)).dividend
                want = sum(_c_ext(m, k) ** p for k in range(n + 1))
            else:
                got = _side(key)(m=m, n=n)
                want = REFERENCE[key](m, n)
            assert got == want, (key, m, n)
    assert _partials_left() is None


def test_running_sums_outside_a_sweep_sum_from_scratch():
    side = _side(("thm-linear-sum", "lhs"))
    for n in (5, 9, 3, 9):
        assert side(m=12, n=n) == REFERENCE[("thm-linear-sum", "lhs")](12, n)
    assert _partials_left() is None


def test_a_partial_below_lo_is_never_extended():
    # terms below lo are not part of the sum even where they are non-zero
    counted = RunningSum(lambda k, m: m, lambda m: 3, "n", ("m",))
    with keep_partials():
        assert [counted(m=2, n=n) for n in (1, 5, 2, 6, 6)] == [0, 6, 0, 8, 8]


def test_perturbed_term_fails_every_cell_at_or_beyond_it():
    # a wrong term at k = 4 must stay in every later partial of a sweep,
    # not just the cell that added it
    ident = get_identity("thm-linear-sum")
    wrong = RunningSum(lambda k, m: _c_ext(m, k) + (k == 4), 0, "n", ("m",))
    report = verify_identity(dataclasses.replace(ident, lhs=wrong), {"m": (2, 12), "n": (1, 12)})
    failed = {tuple(value for _, value in mismatch.assignment) for mismatch in report.mismatches}
    assert failed == {(m, n) for m in range(2, 13) for n in range(4, 13)}
    assert all(mismatch.lhs - mismatch.rhs == 1 for mismatch in report.mismatches)


def test_partials_are_bounded_and_dropped_when_the_sweep_returns():
    ident = get_identity("thm-linear-sum")
    sizes = []

    def rhs(m, n):
        sizes.append(len(_partials_left()))
        return ident.rhs(m=m, n=n)

    report = verify_identity(dataclasses.replace(ident, rhs=rhs), {"m": (2, 200), "n": (1, 200)})
    assert report.passed and report.cells == 199 * 200
    # one entry per value of m, the sum's fixed parameter
    assert 0 < max(sizes) <= 199
    assert _partials_left() is None


def test_no_partials_left_after_any_public_call():
    evaluate_sides("thm-harmonic", {"m": 9, "n": 4})
    assert _partials_left() is None
    state = scan_divisibility("c", 3, m_range=(2, 30))
    assert _partials_left() is None

    def off_by_one(cell):
        true = divisibility_claim("c", 3, cell)
        return dataclasses.replace(true, dividend=true.dividend + (cell[1] == 2))

    state = scan_divisibility("c", 3, m_range=(2, 30), claim_fn=off_by_one)
    assert len(state.counterexamples) == 27  # n = 2 for m = 4..30; at m = 3 the divisor is 1
    assert _partials_left() is None
    assert reverify(state, claim_fn=off_by_one)
    assert _partials_left() is None
