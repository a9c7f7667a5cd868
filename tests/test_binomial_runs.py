"""The rolling-binomial kernel and every path built on it, against the
per-entry and from-scratch evaluations it replaced; wrong anchors, wrong
steps and a drifted check run must raise, never print a value."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, exact, triangles
from catalan_triangles.conjectures import divisibility_claim
from catalan_triangles.errors import DomainError, IntegrityError
from catalan_triangles.exact import binomials
from catalan_triangles.triangles import (
    SequenceSpec,
    _a_ext,
    _b_ext,
    a_number,
    b_number,
    c_number,
    catalan,
    gen_catalan,
    generate,
    seq_a,
    seq_b,
)


def seed_seq_a(n):
    return sum(math.comb(n + k, n) ** 2 for k in range(n + 1))


def seed_seq_b(n):
    total = sum(k * math.comb(2 * n - k - 1, n - 1) ** 2 for k in range(1, n + 1))
    assert total % n == 0
    return total // n


@st.composite
def runs(draw):
    """(u, v, du, dv, count) whose every point satisfies 0 <= v <= u."""
    du = draw(st.integers(-3, 6))
    dv = draw(st.integers(-3, 3))
    count = draw(st.integers(1, 40))
    v = max(0, -(count - 1) * dv) + draw(st.integers(0, 150))
    w = max(0, -(count - 1) * (du - dv)) + draw(st.integers(0, 150))
    return v + w, v, du, dv, count


@given(runs())
def test_binomials_match_math_comb(run):
    u, v, du, dv, count = run
    assert binomials(u, v, du, dv, count) == [math.comb(u + i * du, v + i * dv) for i in range(count)]


@pytest.mark.parametrize("run", [(5, 6, 0, 1, 1), (5, 3, 0, 1, 4), (5, 2, 0, -1, 4), (3, 3, -1, 0, 2), (-1, 0, 1, 0, 3)])
def test_binomials_reject_runs_that_leave_the_triangle(run):
    with pytest.raises(DomainError):
        binomials(*run)


def test_binomials_empty_run():
    assert binomials(4, 9, 0, 1, 0) == []
    with pytest.raises(DomainError):
        binomials(4, 2, 0, 1, -1)


def test_binomials_check_their_last_value(monkeypatch):
    # a doubled anchor keeps every step exact; only the check at the end sees it
    anchors = []

    def doubled_anchor(u, v):
        anchors.append((u, v))
        return math.comb(u, v) * (2 if len(anchors) == 1 else 1)

    monkeypatch.setattr(exact, "comb", doubled_anchor)
    with pytest.raises(IntegrityError):
        binomials(40, 3, 0, 1, 20)


ENTRY = {"c_row": c_number, "b_row": b_number, "a_row": a_number}
ROW_COLUMNS = {"c_row": (0, 0), "b_row": (1, 0), "a_row": (1, 1)}  # first column, last column - row


@given(st.sampled_from(sorted(ENTRY)), st.integers(1, 160), st.data())
def test_generate_rows_match_scalar_entries(kind, row, data):
    first, extra = ROW_COLUMNS[kind]
    start = data.draw(st.integers(first, row + extra))
    count = data.draw(st.integers(1, row + extra - start + 1))
    expected = [ENTRY[kind](row, k) for k in range(start, start + count)]
    assert generate(SequenceSpec(kind, start, count, param=row)) == expected


@given(st.integers(0, 200), st.integers(1, 60))
def test_generate_catalan_matches_scalar(start, count):
    assert generate(SequenceSpec("catalan", start, count)) == [catalan(i) for i in range(start, start + count)]


@given(st.integers(1, 7), st.integers(1, 120), st.integers(1, 40))
def test_generate_gen_catalan_matches_scalar(order, start, count):
    expected = [gen_catalan(order, i) for i in range(start, start + count)]
    assert generate(SequenceSpec("gen_catalan", start, count, param=order)) == expected


@given(st.integers(0, 120), st.integers(1, 8))
def test_generate_seq_a_and_seq_b_match_seed_sums(start, count):
    indices = range(start, start + count)
    assert generate(SequenceSpec("seq_a", start, count)) == [seed_seq_a(n) for n in indices]
    indices = range(start + 1, start + 1 + count)
    assert generate(SequenceSpec("seq_b", start + 1, count)) == [seed_seq_b(n) for n in indices]


def test_seq_a_and_seq_b_match_seed_sums_on_a_prefix():
    assert [seq_a(n) for n in range(60)] == [seed_seq_a(n) for n in range(60)]
    assert [seq_b(n) for n in range(1, 60)] == [seed_seq_b(n) for n in range(1, 60)]


def test_generate_gen_catalan_rejects_order_zero():
    with pytest.raises(DomainError):
        generate(SequenceSpec("gen_catalan", 1, 3, param=0))


@settings(max_examples=40)
@given(st.sampled_from(["b", "a"]), st.integers(1, 120), st.sampled_from([1, 3, 5, 7]))
def test_b_and_a_dividends_match_per_entry_sums(variant, n, p):
    if variant == "b":
        expected = sum(_b_ext(n, k) ** p for k in range(1, n + 1))
    else:
        expected = sum(_a_ext(n, k) ** p for k in range(1, n + 2))
    assert divisibility_claim(variant, p, (n,)).dividend == expected


# every kind, each with runs of two or more entries, so each run has a check
FAULT_SPECS = [
    ["c-row:40", "0", "41"],
    ["c-row:40", "7", "3"],
    ["b-row:30", "1", "30"],
    ["a-row:30", "1", "31"],
    ["catalan", "3", "20"],
    ["gen-catalan:4", "2", "20"],
    ["a", "2", "5"],
    ["b", "2", "5"],
]


@pytest.mark.parametrize("argv", FAULT_SPECS, ids=lambda argv: " ".join(argv))
def test_wrong_anchor_raises_instead_of_printing(argv, monkeypatch, capsys):
    # the anchor of the first run comes out one too large
    calls = []

    def wrong_comb(u, v):
        calls.append((u, v))
        return math.comb(u, v) + (len(calls) == 1)

    monkeypatch.setattr(exact, "comb", wrong_comb)
    assert cli.main(["seq", *argv]) == cli.EXIT_INTERNAL  # a failed exactness check is a bug, not a bad request
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: IntegrityError" in captured.err


@pytest.mark.parametrize("argv", FAULT_SPECS, ids=lambda argv: " ".join(argv))
def test_wrong_step_raises_instead_of_printing(argv, monkeypatch, capsys):
    # the numerator of the first ratio step comes out one too large
    calls = []

    def wrong_prod(factors):
        calls.append(factors)
        return math.prod(factors) + (len(calls) == 1)

    monkeypatch.setattr(exact, "prod", wrong_prod)
    assert cli.main(["seq", *argv]) == cli.EXIT_INTERNAL  # a failed exactness check is a bug, not a bad request
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: IntegrityError" in captured.err


def test_c_row_check_run_catches_a_consistently_wrong_closed_form_run(monkeypatch):
    # a run that is wrong but self-consistent (every value doubled) passes its
    # own anchor and end checks; only the separately anchored run catches it
    def doubled_for_row(u, v, du, dv, count):
        values = binomials(u, v, du, dv, count)
        return [2 * x for x in values] if u == 30 else values

    monkeypatch.setattr(triangles, "binomials", doubled_for_row)
    with pytest.raises(IntegrityError):
        generate(SequenceSpec("c_row", 0, 31, param=30))
