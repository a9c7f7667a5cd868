"""Triangle and sequence generators against hand values, brute-force
oracles, and the cross-triangle bridge relations."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalan_triangles import exact, identities, triangles
from catalan_triangles.errors import DomainError, IntegrityError, UsageError
from catalan_triangles.triangles import (
    SequenceSpec,
    a_number,
    a_row,
    b_number,
    b_row,
    c_number,
    c_row,
    catalan,
    gen_catalan,
    generate,
    seq_a,
    seq_b,
)

# fifth entry is 1626: both defining sums give it, and the cube-sum
# factorization sum(b(5,k)^3) = 126 * b(5) = 204876 forces it
SEQ_A_FIRST_10 = [1, 5, 46, 517, 6376, 82994, 1119210, 15475205, 217994860, 3115374880]
SEQ_B_FIRST_10 = [1, 3, 19, 163, 1626, 17769, 206487, 2508195, 31504240, 406214878]


def test_catalan_first_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(3) == 5


def test_catalan_matches_convolution_recurrence():
    by_recurrence = [1]
    for n in range(1, 11):
        by_recurrence.append(sum(by_recurrence[i] * by_recurrence[n - 1 - i] for i in range(n)))
    assert by_recurrence[10] == 16796
    assert [catalan(n) for n in range(11)] == by_recurrence


def test_catalan_rejects_negative():
    with pytest.raises(DomainError):
        catalan(-1)


def test_c_number_values():
    assert c_number(6, 2) == 5
    assert c_number(1, 1) == -1
    assert c_number(10, 5) == 0


@pytest.mark.parametrize("m, k", [(6, 7), (6, -1), (0, 0), (-2, 0)])
def test_c_number_domain(m, k):
    with pytest.raises(DomainError):
        c_number(m, k)


def test_b_number_values():
    assert b_number(6, 3) == 110
    assert b_number(5, 1) == 42 == catalan(5)
    assert all(b_number(n, n) == 1 for n in range(1, 30))
    assert all(b_number(n, 0) == 0 for n in range(1, 30))


@pytest.mark.parametrize("n, k", [(4, 5), (4, -1), (0, 0)])
def test_b_number_domain(n, k):
    with pytest.raises(DomainError):
        b_number(n, k)


def test_a_number_values():
    assert a_number(6, 3) == 275
    assert a_number(4, 1) == 14 == catalan(4)
    assert all(a_number(n, n + 1) == 1 for n in range(1, 30))


@pytest.mark.parametrize("n, k", [(4, 0), (4, 6), (0, 1)])
def test_a_number_domain(n, k):
    with pytest.raises(DomainError):
        a_number(n, k)


def test_gen_catalan_order_two_is_catalan():
    assert all(gen_catalan(2, n) == catalan(n) for n in range(1, 31))


def test_gen_catalan_small_case():
    assert gen_catalan(3, 2) == 3
    # the unified triangle recovers it: entry (7, 2) is 9
    assert c_number(7, 2) == ((3 - 2) * 2 + 1) * gen_catalan(3, 2) == 9


def test_gen_catalan_domain():
    with pytest.raises(DomainError):
        gen_catalan(0, 3)
    with pytest.raises(DomainError):
        gen_catalan(2, 0)


def test_seq_a_first_terms():
    assert [seq_a(n) for n in range(10)] == SEQ_A_FIRST_10
    assert seq_a(2) == 1**2 + 3**2 + 6**2 == 46
    with pytest.raises(DomainError):
        seq_a(-1)


def test_seq_b_first_terms():
    assert [seq_b(n) for n in range(1, 11)] == SEQ_B_FIRST_10
    with pytest.raises(DomainError):
        seq_b(0)


def test_seq_b_both_defining_forms_agree():
    for n in range(1, 201):
        mirrored = sum((n - k) * math.comb(n - 1 + k, n - 1) ** 2 for k in range(n))
        assert mirrored % n == 0
        assert seq_b(n) == mirrored // n


def test_generate_rows():
    assert generate(SequenceSpec("c_row", 0, 7, param=6)) == [1, 4, 5, 0, -5, -4, -1]
    assert generate(SequenceSpec("b_row", 1, 4, param=4)) == [14, 14, 6, 1]
    assert generate(SequenceSpec("a_row", 1, 6, param=5)) == [42, 90, 75, 35, 9, 1]


def test_generate_sequences():
    assert generate(SequenceSpec("catalan", 0, 7)) == [1, 1, 2, 5, 14, 42, 132]
    assert generate(SequenceSpec("seq_a", 0, 5)) == SEQ_A_FIRST_10[:5]
    assert generate(SequenceSpec("seq_b", 1, 5)) == SEQ_B_FIRST_10[:5]
    assert generate(SequenceSpec("gen_catalan", 1, 4, param=3)) == [1, 3, 12, 55]


def test_generate_partial_row_slice():
    assert generate(SequenceSpec("c_row", 2, 3, param=6)) == [5, 0, -5]
    assert generate(SequenceSpec("a_row", 6, 1, param=5)) == [1]


def test_generate_computes_only_the_requested_entries(monkeypatch):
    slices = [(2500, 1000, 3), (2000, 0, 2001)]  # (row, start, count)
    expected = {m: [c_number(m, k) for k in range(start, start + count)] for m, start, count in slices}
    calls = []

    def counting_comb(u, v):
        calls.append((u, v))
        return math.comb(u, v)

    monkeypatch.setattr(exact, "comb", counting_comb)
    anchors = []
    for m, start, count in slices:
        calls.clear()
        assert generate(SequenceSpec("c_row", start, count, param=m)) == expected[m]
        stop = start + count
        assert all(start - 1 <= v <= stop for u, v in calls), calls
        anchors.append(len(calls))
    # each of the two runs (closed form, Pascal-difference check) is
    # anchored and checked by one comb() at either end, whatever its length
    assert anchors == [4, 4]


def test_c_number_forms_that_disagree_raise_integrity_error(monkeypatch):
    # the check compares c(6, 2) with binomial(5,2) - binomial(5,1), from a run along row 5 whose second entry is off
    def one_wrong(u, v, du, dv, count, number=int):
        values = exact.binomials(u, v, du, dv, count, number)
        if (u, v) == (5, 1):
            values[1] += 1
        return values

    monkeypatch.setattr(triangles, "binomials", one_wrong)
    with pytest.raises(IntegrityError, match=r"c_row\(6\) at k=2: closed form and Pascal-difference form disagree"):
        c_number(6, 2)


@pytest.mark.parametrize(
    "spec",
    [
        SequenceSpec("c_row", 0, 8, param=6),  # slice leaves the row
        SequenceSpec("b_row", 0, 2, param=4),  # b rows start at k = 1
        SequenceSpec("catalan", -1, 3),
        SequenceSpec("catalan", 0, 0),
        SequenceSpec("seq_b", 0, 3),
        SequenceSpec("nonsense", 0, 3),
        SequenceSpec("catalan", 0, 3, param=5),  # param on a plain sequence
        SequenceSpec("c_row", 0, 3),  # missing param
        SequenceSpec(["c_row"], 0, 3, param=2),  # unhashable kind
    ],
)
def test_generate_rejects_invalid_specs(spec):
    with pytest.raises(DomainError):
        generate(spec)


@pytest.mark.parametrize("number", [float, Fraction, str, None])
def test_generate_computes_in_int_or_decimal_only(number):
    with pytest.raises(UsageError, match="number must be int or decimal.Decimal"):
        generate(SequenceSpec("catalan", 0, 3), number)


@pytest.mark.parametrize("spec", [
    SequenceSpec("c_row", 0, 9, param=8),
    SequenceSpec("b_row", 2, 3, param=5),
    SequenceSpec("a_row", 1, 6, param=5),
    SequenceSpec("catalan", 4, 6),
    SequenceSpec("gen_catalan", 1, 6, param=3),
])
def test_generate_in_decimal_gives_the_int_terms_as_integral_decimals(spec):
    terms = generate(spec, Decimal)
    assert terms == generate(spec)
    assert all(type(x) is Decimal and x.as_tuple().exponent == 0 for x in terms)
    assert all(type(x) is int for x in generate(SequenceSpec("seq_a", 0, 4), Decimal))  # a and b stay ints


@pytest.mark.parametrize(
    "spec, field",
    [
        (SequenceSpec("catalan", 0, 2.5), "count"),
        (SequenceSpec("catalan", 2.0, 3), "start"),
        (SequenceSpec("catalan", True, 2), "start"),  # would read as start 1
        (SequenceSpec("catalan", 0, True), "count"),
        (SequenceSpec("c_row", 0, 3, param=2.0), "param"),
        (SequenceSpec("c_row", 0, 2, param=True), "param"),  # would read as row 1
        (SequenceSpec("gen_catalan", 1, 3, param="3"), "param"),
    ],
)
def test_generate_rejects_a_field_that_is_not_an_int(spec, field):
    with pytest.raises(DomainError, match="%s must be an integer" % field):
        generate(spec)


def test_rows_match_scalar_entries():
    for m in range(1, 40):
        assert c_row(m) == tuple(c_number(m, k) for k in range(m + 1))
    for n in range(1, 25):
        assert b_row(n) == tuple(b_number(n, k) for k in range(1, n + 1))
        assert a_row(n) == tuple(a_number(n, k) for k in range(1, n + 2))


def comb_or_zero(u, v):
    if v < 0 or v > u:
        return 0
    return math.comb(u, v)


def test_integrality_witness():
    # closed form equals the Pascal-difference form everywhere, which is the
    # reason exact_div can never fire inside a triangle computation
    for m in range(1, 201):
        for k in range(m + 1):
            assert c_number(m, k) == math.comb(m, k) - 2 * comb_or_zero(m - 1, k - 1)


def test_row_antisymmetry():
    # on the per-entry path: c_row builds its columns past the middle by this same symmetry
    for m in range(1, 201):
        assert all(c_number(m, k) == -c_number(m, m - k) for k in range(m + 1))


def closed_c(m, k):
    """c(m, k) = (m - 2k) * binomial(m, k) / m from math.comb, sharing no code with the row kernel."""
    quotient, remainder = divmod((m - 2 * k) * math.comb(m, k), m)
    assert remainder == 0
    return quotient


def test_row_slices_and_tables_match_math_comb_below_across_and_above_the_middle():
    # each c row computes only the columns at or below m/2 and mirrors the rest; odd and even rows put the
    # middle on one column or between two, and every slice here draws its ends on a given side of it
    rng = random.Random(1)
    for m in range(1, 201):
        half = m // 2
        below = rng.randint(0, half)
        above = rng.randint(half + 1, m)
        slices = [
            (0, m + 1),
            (below, rng.randint(below + 1, half + 1)),
            (rng.randint(0, half), rng.randint(half + 2, m + 1)),
            (above, rng.randint(above + 1, m + 1)),
        ]
        for start, stop in slices:
            expected = [closed_c(m, k) for k in range(start, stop)]
            assert triangles._row_slice("c_row", m, start, stop) == expected, (m, start, stop)
            with localcontext(exact.EXACT_DECIMAL):
                printed = triangles._row_slice("c_row", m, start, stop, Decimal)
            assert all(type(x) is Decimal for x in printed)
            assert [str(x) for x in printed] == [str(x) for x in expected], (m, start, stop)
    for r in range(201):
        assert identities._binomial_table(r, r + 1) == [math.comb(r, j) for j in range(r + 1)], r
        if r:
            assert identities._c_table(r, r + 1) == [closed_c(r, j) for j in range(r + 1)], r


def paper_b(n, k):
    """The paper's b(n, k) = k * binomial(2n, n-k) / n, zero outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    quotient, remainder = divmod(k * math.comb(2 * n, n - k), n)
    assert remainder == 0
    return quotient


def paper_a(n, k):
    """The paper's a(n, k) = (2k-1) * binomial(2n+1, n+1-k) / (2n+1), zero outside 1 <= k <= n+1."""
    if not 1 <= k <= n + 1:
        return 0
    quotient, remainder = divmod((2 * k - 1) * math.comb(2 * n + 1, n + 1 - k), 2 * n + 1)
    assert remainder == 0
    return quotient


@given(st.integers(1, 160), st.data())
def test_bridges_to_classical_triangles(n, data):
    # b and a are computed as c(2n, n-k) and c(2n+1, n+1-k); the paper's own forms share no code with c
    k = data.draw(st.integers(-n - 3, 2 * n + 4), label="k")
    assert triangles._b_ext(n, k) == paper_b(n, k)
    assert triangles._a_ext(n, k) == paper_a(n, k)
    if 0 <= k <= n:
        assert b_number(n, k) == paper_b(n, k)
    if 1 <= k <= n + 1:
        assert a_number(n, k) == paper_a(n, k)
    for kind, paper, first, last in (("b_row", paper_b, 1, n), ("a_row", paper_a, 1, n + 1)):
        start = data.draw(st.integers(first, last), label="%s start" % kind)
        count = data.draw(st.integers(1, last - start + 1), label="%s count" % kind)
        expected = [paper(n, k) for k in range(start, start + count)]
        assert generate(SequenceSpec(kind, start, count, param=n)) == expected
    assert b_row(n) == tuple(paper_b(n, k) for k in range(1, n + 1))
    assert a_row(n) == tuple(paper_a(n, k) for k in range(1, n + 2))


def test_b_and_a_are_zero_outside_their_triangles():
    # the mirrored c values c(2n, n-k) and c(2n+1, n+1-k) are not b and a there
    for n in range(1, 30):
        assert [triangles._b_ext(n, k) for k in range(-n - 3, 0)] == [0] * (n + 3)
        assert [triangles._b_ext(n, k) for k in range(n + 1, 2 * n + 4)] == [0] * (n + 3)
        assert [triangles._a_ext(n, k) for k in range(-n - 3, 1)] == [0] * (n + 4)
        assert [triangles._a_ext(n, k) for k in range(n + 2, 2 * n + 5)] == [0] * (n + 3)
        assert triangles._b_ext(n, 0) == 0
    assert triangles._b_ext(3, -1) == 0 != triangles._c_ext(6, 4)
    assert triangles._a_ext(3, 0) == 0 != triangles._c_ext(7, 4) == -catalan(3)


@pytest.mark.parametrize(
    "entry, row", [("_c_ext", 0), ("_b_ext", 0), ("_a_ext", 0), ("_c_ext", -3), ("_b_ext", -2), ("_a_ext", -2)]
)
@pytest.mark.parametrize("k", [-1, 0, 1])
def test_an_entry_below_the_first_row_raises_domain_error(entry, row, k):
    # c(0, k) and b(0, k) divide by zero, and a(0, k) is outside its triangle: each is a bad request,
    # not a failed exactness check or a value
    with pytest.raises(DomainError):
        getattr(triangles, entry)(row, k)


def test_catalan_coincidences():
    for n in range(1, 101):
        assert c_number(2 * n, n - 1) == catalan(n) == c_number(2 * n + 1, n)


def test_three_term_row_recurrences():
    def b_ext(n, k):
        return b_number(n, k) if 0 <= k <= n else 0

    def a_ext(n, k):
        return a_number(n, k) if 1 <= k <= n + 1 else 0

    for n in range(2, 101):
        for k in range(2, n + 1):
            assert b_number(n, k) == b_ext(n - 1, k - 1) + 2 * b_ext(n - 1, k) + b_ext(n - 1, k + 1)
        for k in range(2, n + 2):
            assert a_number(n, k) == a_ext(n - 1, k - 1) + 2 * a_ext(n - 1, k) + a_ext(n - 1, k + 1)


@given(st.integers(1, 300), st.data())
def test_c_number_closed_form_property(m, data):
    k = data.draw(st.integers(0, m))
    assert m * c_number(m, k) == (m - 2 * k) * math.comb(m, k)
