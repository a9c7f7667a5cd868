"""Running sums and single-quotient sides against the expressions they replace.

The references below are the from-scratch expressions each running-sum side
had before it became a compiled running sum, and the Fraction chains each rational
side had before it became one quotient (a harmonic-weighted sum: one integer
numerator over the lcm of its term denominators); a sweep or scan that keeps
partials must agree with them at every cell, in any call order."""

import dataclasses
from fractions import Fraction

from conftest import with_line
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_triangles import exact, identities
from catalan_triangles.conjectures import divisibility_claim, reverify, scan_divisibility
from catalan_triangles.exact import binomial, harmonic, keep_partials
from catalan_triangles.identities import evaluate_sides, get_identity, verify_identity
from catalan_triangles.statements import compile_identity
from catalan_triangles.triangles import _a_ext, _b_ext, _c_ext, catalan, seq_b

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
    ("eq-linear-B", "rhs"): lambda n: Fraction(n + 1, 2) * catalan(n),
    ("cor-square-iv", "rhs"): lambda n: -Fraction(n + 1, 2) * catalan(n),
    ("thm-square-decomp-ii", "rhs"): lambda n: sum(
        Fraction((3 * n - 2 * k) * binomial(2 * n - 1 - k, n - 1) ** 2, n) for k in range(n + 1)
    ),
    ("thm-square-decomp-remark", "rhs"): lambda n: sum(
        Fraction((n + 2 * j) * binomial(n - 1 + j, n - 1) ** 2, n) for j in range(n + 1)
    ),
    ("cor-cube-B", "rhs"): lambda n: Fraction(binomial(2 * n, n) ** 3, 2)
    - Fraction(3 * binomial(2 * n, n) * sum(binomial(j, n) * binomial(j, n - 1) for j in range(n, 2 * n)), 2),
    ("rem-b-cube-factored", "rhs"): lambda n: Fraction(n + 1, 2) * catalan(n) * seq_b(n),
    ("cor-harmonic-C", "lhs"): lambda n: sum(_c_ext(n, k) * harmonic(k) for k in range(1, n + 1)),
    ("cor-harmonic-B", "lhs"): lambda n: sum(_b_ext(n, k) * harmonic(n - k) for k in range(n)),
    ("cor-harmonic-B", "rhs"): lambda n: Fraction(2 * n * harmonic(n) - 1, 4 * n) * binomial(2 * n, n)
    - Fraction(2 ** (2 * n - 1) - 1, 2 * n),
    ("cor-harmonic-A", "lhs"): lambda n: sum(_a_ext(n, k) * harmonic(n - k + 1) for k in range(1, n + 1)),
    ("cor-harmonic-A", "rhs"): lambda n: harmonic(n) * binomial(2 * n, n) - Fraction(2 ** (2 * n) - 1, 2 * n + 1),
    ("rem-ps13", "lhs"): lambda n: sum((n - 2 * k) * harmonic(k) * binomial(n, k) for k in range(1, n + 1)),
}

DIVIDEND_EXPONENTS = (1, 3, 7)


def _side(key):
    identity_id, side = key
    return getattr(get_identity(identity_id), side)


def _params(key, m, n):
    names = get_identity(key[0]).parameter_names()
    return {name: value for name, value in (("m", m), ("n", n)) if name in names}


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
                params = _params(key, m, n)
                got = _side(key)(**params)
                want = REFERENCE[key](**params)
                assert type(got) in (int, Fraction), (key, m, n)
            assert got == want, (key, m, n)
    assert _partials_left() is None


def test_one_parameter_sides_match_their_fraction_chains():
    # every n up to 60, so lcm(1..n) grows through many prime powers
    for key in sorted(REFERENCE):
        if get_identity(key[0]).parameter_names() == ("n",):
            for n in range(1, 61):
                assert _side(key)(n=n) == REFERENCE[key](n=n), (key, n)


def _running_lhs(statement, parameters=("m", "n", "p"), namespace=None):
    return compile_identity(parameters, {} if namespace is None else namespace, statement)["lhs"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3), st.integers(-2, 25)), min_size=1, max_size=50))
def test_a_running_sum_of_fractions_matches_sum_in_any_order(calls):
    # moving denominators, some terms integral, and a lower bound read from p
    rational = _running_lhs("sum((7k+m-3p)/(k^2+m+p), k=p-1..n) == 0")
    integral = _running_lhs("sum(7k+m-3p, k=p-1..n) == 0")
    with keep_partials():
        for m, p, n in calls:
            got, whole = rational(m=m, n=n, p=p), integral(m=m, n=n, p=p)
            ks = range(p - 1, n + 1)
            assert got == sum((Fraction(7 * k + m - 3 * p, k * k + m + p) for k in ks), Fraction(0)), (m, p, n)
            assert whole == sum(7 * k + m - 3 * p for k in ks), (m, p, n)
            # the compiled rule: an int exactly when the term's denominator is the literal 1
            assert type(got) is Fraction and type(whole) is int
    assert _partials_left() is None


def test_running_sums_outside_a_sweep_sum_from_scratch():
    side = _side(("thm-linear-sum", "lhs"))
    for n in (5, 9, 3, 9):
        assert side(m=12, n=n) == REFERENCE[("thm-linear-sum", "lhs")](12, n)
    assert _partials_left() is None


def test_a_partial_below_lo_is_never_extended():
    # terms below lo are not part of the sum even where they are non-zero
    counted = _running_lhs("sum(m, k=3..n) == 0", ("m", "n"))
    with keep_partials():
        assert [counted(m=2, n=n) for n in (1, 5, 2, 6, 6)] == [0, 6, 0, 8, 8]


def test_perturbed_term_fails_every_cell_at_or_beyond_it():
    # a wrong term at k = 4 must stay in every later partial of a sweep,
    # not just the cell that added it, cell by cell and along a line
    ident = get_identity("thm-linear-sum")
    namespace = dict(vars(identities), _c_ext=lambda m, k: identities._c_ext(m, k) + (k == 4))
    built = compile_identity(("m", "n"), namespace, ident.statement)
    for wrong in (
        dataclasses.replace(ident, lhs=built["lhs"]),
        with_line(ident, built["line"], lhs=built["lhs"], rhs=built["rhs"]),
    ):
        report = verify_identity(wrong, {"m": (2, 12), "n": (1, 12)})
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
