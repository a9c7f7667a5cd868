"""Triangle and sequence generators against hand values, brute-force
oracles, and the cross-triangle bridge relations."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalan_triangles import exact, triangles
from catalan_triangles.errors import DomainError, IntegrityError
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
    # the check compares c(6, 2) with binomial(6,2) - 2*binomial(5,1)
    def wrong_binomial(u, v):
        return math.comb(u, v) + ((u, v) == (5, 1))

    monkeypatch.setattr(triangles, "binomial", wrong_binomial)
    with pytest.raises(IntegrityError):
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
    ],
)
def test_generate_rejects_invalid_specs(spec):
    with pytest.raises(DomainError):
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
    for m in range(1, 201):
        row = c_row(m)
        assert all(row[k] == -row[m - k] for k in range(m + 1))


def test_bridges_to_classical_triangles():
    for n in range(1, 101):
        assert all(b_number(n, k) == c_number(2 * n, n - k) for k in range(1, n + 1))
        assert all(a_number(n, k) == c_number(2 * n + 1, n + 1 - k) for k in range(1, n + 2))


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


@pytest.mark.parametrize("entry, row", [("_c_ext", 0), ("_b_ext", 0), ("_c_ext", -3), ("_b_ext", -2)])
@pytest.mark.parametrize("k", [-1, 0, 1])
def test_an_entry_below_the_first_row_raises_domain_error(entry, row, k):
    # c(0, k) and b(0, k) divide by zero: a bad request, not a failed exactness check
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
