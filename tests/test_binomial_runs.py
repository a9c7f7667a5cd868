"""The rolling-binomial kernel and every path built on it, against the
per-entry and from-scratch evaluations it replaced; wrong anchors, wrong
steps and a drifted check run must raise, never print a value."""

import math
import re
from decimal import Decimal, localcontext
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, exact, triangles
from catalan_triangles.conjectures import divisibility_claim
from catalan_triangles.errors import DomainError, IntegrityError
from catalan_triangles.exact import binomials, c_run
from catalan_triangles.triangles import (
    SequenceSpec,
    _a_ext,
    _b_ext,
    a_number,
    b_number,
    c_number,
    c_row,
    catalan,
    gen_catalan,
    generate,
    seq_a,
    seq_b,
)


@cache
def seed_seq_a(n):
    return sum(math.comb(n + k, n) ** 2 for k in range(n + 1))


@cache
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


def closed_c(m, k):
    """c(m, k) = (m - 2k) * binomial(m, k) / m from math.comb, sharing no code with the kernel."""
    quotient, remainder = divmod((m - 2 * k) * math.comb(m, k), m)
    assert remainder == 0
    return quotient


@st.composite
def c_runs(draw):
    """(m, j, count) on the lower half 0 <= k < m/2 of row m."""
    m = draw(st.integers(1, 160))
    j = draw(st.integers(0, (m - 1) // 2))
    count = draw(st.integers(1, (m - 1) // 2 - j + 1))
    return m, j, count


@given(c_runs())
@example((7, 3, 1)).via("a single entry")
@example((1, 0, 1)).via("row 1, whose lower half is c(1, 0)")
@example((10, 4, 1)).via("the last column below an even row's middle alone")
@example((10, 0, 5)).via("up to the last column below an even row's middle")
@example((11, 0, 6)).via("an odd row's whole lower half")
def test_c_run_matches_the_closed_form_from_math_comb(run):
    m, j, count = run
    expected = [closed_c(m, j + i) for i in range(count)]
    assert c_run(m, j, count) == expected
    with localcontext(exact.EXACT_DECIMAL):
        printed = c_run(m, j, count, Decimal)
    assert all(type(x) is Decimal for x in printed)
    assert [str(x) for x in printed] == [str(x) for x in expected]


@pytest.mark.parametrize(
    "run",
    [
        (10, 5, 1), (10, 3, 3), (10, 0, 6),  # onto an even row's middle c(10, 5) = 0
        (11, 4, 3), (11, 0, 7), (11, 6, 1), (1, 1, 1),  # across or above an odd row's middle
        (10, -1, 2), (0, 0, 1),  # a negative start, or row 0
        (4, 2, -1),  # count < 0
    ],
)
def test_c_run_rejects_a_run_that_leaves_the_lower_half(run):
    with pytest.raises(DomainError):
        c_run(*run)


def test_c_run_empty_run():
    assert c_run(4, 9, 0) == []
    with pytest.raises(DomainError):
        c_run(4, 2, -1)


def comb_at(cell, wrong):
    """math.comb, except that at cell it gives wrong(math.comb(*cell))."""
    return lambda u, v: wrong(math.comb(u, v)) if (u, v) == cell else math.comb(u, v)


# each check of the row kernels, made to fire by one injected fault
@pytest.mark.parametrize(
    "cell, wrong, run, message",
    [
        # (10 - 2*3) * (120 + 1) is not a multiple of 10
        ((10, 3), lambda x: x + 1, lambda: c_run(10, 3, 2), r"c_run: anchor c\(10, 3\) is not an integer"),
        # an anchor off by (10 - 2*2) * 10 / 10 = 6 is an integer, 33 for 27, but 33 * 8 * 4 / (3 * 6) is not
        ((10, 2), lambda x: x + 10, lambda: c_run(10, 2, 3), r"c_run: step 1 of the run from c\(10, 2\) is not exact"),
        # a doubled anchor keeps every step exact; only the end check sees it
        (
            (10, 1), lambda x: 2 * x, lambda: c_run(10, 1, 3),
            r"c_run: run from c\(10, 1\) disagrees with the closed form at c\(10, 3\)",
        ),
        # a run up to the last column below c(10, 5) = 0 is checked there, at its own last column
        (
            (10, 0), lambda x: 2 * x, lambda: c_run(10, 0, 5),
            r"c_run: run from c\(10, 0\) disagrees with the closed form at c\(10, 4\)",
        ),
        (
            (10, 2), lambda x: x + 1, lambda: binomials(10, 2, 0, 1, 3),
            r"binomials: step 1 of the run from binomial\(10, 2\) is not exact",
        ),
    ],
    ids=["c_run anchor", "c_run step", "c_run end", "c_run end below an even middle", "binomials step"],
)
def test_each_kernel_check_fires_under_one_wrong_comb(cell, wrong, run, message, monkeypatch):
    monkeypatch.setattr(exact, "comb", comb_at(cell, wrong))
    with pytest.raises(IntegrityError, match=message):
        run()


@pytest.mark.parametrize("run, call, column", [((10, 0, 5), 5, 4), ((21, 3, 8), 8, 10)])
def test_c_run_end_check_fires_on_a_wrong_last_step(run, call, column, monkeypatch):
    # divmod call `call` is the run's last step (the first is its anchor): one too large, with no remainder
    wrong_divmod, _ = wrong_divmod_at(call)
    monkeypatch.setattr(exact, "divmod", wrong_divmod, raising=False)
    with pytest.raises(IntegrityError, match=r"disagrees with the closed form at c\(%d, %d\)" % (run[0], column)):
        c_run(*run)


def test_c_row_pascal_check_fires_on_one_wrong_entry_of_its_run(monkeypatch):
    # the run of row 9 gives binomial(9, j) + 1, so the Pascal difference at k = j is off; at j = 5 that is the
    # even row's middle, c(10, 5) = 0, which no c run computes
    for j in (2, 5):
        def one_wrong(u, v, du, dv, count, number=int):
            values = binomials(u, v, du, dv, count, number)
            if u == 9:
                values[j] += 1
            return values

        monkeypatch.setattr(triangles, "binomials", one_wrong)
        message = r"c_row\(10\) at k=%d: closed form and Pascal-difference form disagree" % j
        with pytest.raises(IntegrityError, match=message):
            c_row(10)


def test_c_ext_closed_form_remainder_fires(monkeypatch):
    # (10 - 2*3) * (120 + 1) is not a multiple of 10
    monkeypatch.setattr(triangles, "binomial", lambda u, v: math.comb(u, v) + 1)
    with pytest.raises(IntegrityError, match=r"c\(10, 3\): closed form is not an integer"):
        triangles._c_ext(10, 3)


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


@settings(deadline=None)  # the seed sums are cached across examples, so the first ones pay for the rest
@given(st.integers(0, 400), st.integers(1, 80))
@example(0, 3).via("the shortest slice with a recurrence step")
@example(400, 80).via("the widest slice drawn")
def test_generate_seq_a_and_seq_b_match_seed_sums(start, count):
    # slices of three or more terms run the P-recurrences; the seed sums share no code with them
    indices = range(start, start + count)
    assert generate(SequenceSpec("seq_a", start, count)) == [seed_seq_a(n) for n in indices]
    indices = range(start + 1, start + 1 + count)
    assert generate(SequenceSpec("seq_b", start + 1, count)) == [seed_seq_b(n) for n in indices]


@pytest.mark.parametrize("kind, start", [("seq_a", 0), ("seq_b", 1)])
@pytest.mark.parametrize("count", [1, 2, 3, 30])
def test_a_seq_slice_reads_its_direct_sums_through_the_module(kind, start, count, monkeypatch):
    # the first two terms and the end check of a longer slice; a rebinding (the tracer's) reaches each
    direct, calls = getattr(triangles, kind), []

    def counted(n):
        calls.append(n)
        return direct(n)

    monkeypatch.setattr(triangles, kind, counted)
    assert generate(SequenceSpec(kind, start, count)) == [direct(n) for n in range(start, start + count)]
    assert calls == [start, start + 1, start + count - 1][:count]


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


@pytest.mark.parametrize("argv", [argv for argv in FAULT_SPECS if argv[0] not in ("a", "b")], ids=" ".join)
def test_a_decimal_step_that_would_round_raises_instead_of_printing(argv, monkeypatch, capsys):
    # the row and Catalan runs print from Decimal; with five digits a step's product would round (Rounded
    # alone when the digits dropped are zeros), and the trap raises before the end check could see it
    narrow = exact.EXACT_DECIMAL.copy()
    narrow.prec = 5
    monkeypatch.setattr(triangles, "EXACT_DECIMAL", narrow)
    assert cli.main(["seq", *argv]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"^internal error: (Inexact|Rounded): ", captured.err, re.MULTILINE)


def wrong_divmod_at(call):
    """divmod, except that call number `call` returns a quotient one too large and no remainder."""
    calls = []

    def wrong_divmod(a, b):
        calls.append((a, b))
        quotient, remainder = divmod(a, b)
        return (quotient + 1, 0) if len(calls) == call else (quotient, remainder)

    return wrong_divmod, calls


@pytest.mark.parametrize("argv", FAULT_SPECS, ids=lambda argv: " ".join(argv))
def test_wrong_step_raises_instead_of_printing(argv, monkeypatch, capsys):
    # the first divmod of the first run comes out one too large, with no remainder to give it away: a row
    # run's closed-form anchor, or a binomial run's first step; every spec starts with a run of two or more
    # entries, before any exact_div in the module
    wrong_divmod, calls = wrong_divmod_at(1)
    monkeypatch.setattr(exact, "divmod", wrong_divmod, raising=False)
    assert cli.main(["seq", *argv]) == cli.EXIT_INTERNAL  # a failed exactness check is a bug, not a bad request
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: IntegrityError" in captured.err
    assert calls


@pytest.mark.parametrize("step", [1, 18], ids=["first step", "last step"])
@pytest.mark.parametrize("argv", [["a", "2", "20"], ["b", "2", "20"]], ids=" ".join)
def test_wrong_recurrence_step_raises_instead_of_printing(argv, step, monkeypatch, capsys):
    # terms 3..20 come from 18 recurrence steps; a wrong last step is seen only by the end check
    wrong_divmod, calls = wrong_divmod_at(step)
    monkeypatch.setattr(triangles, "divmod", wrong_divmod, raising=False)
    assert cli.main(["seq", *argv]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: IntegrityError" in captured.err
    assert len(calls) >= step


def doubled_on_row(kernel, row):
    """kernel, except that its run on row `row` comes out doubled: wrong, yet each entry one exact ratio from the last."""

    def doubled(m, *args):
        values = kernel(m, *args)
        return [2 * x for x in values] if m == row else values

    return doubled


def test_c_row_check_run_catches_a_consistently_wrong_closed_form_run(monkeypatch):
    # only the separately anchored Pascal run catches a self-consistent wrong c run
    monkeypatch.setattr(triangles, "c_run", doubled_on_row(exact.c_run, 30))
    with pytest.raises(IntegrityError, match=r"c_row\(30\) at k=0: closed form and Pascal-difference form disagree"):
        generate(SequenceSpec("c_row", 0, 31, param=30))


def test_c_row_check_run_catches_a_consistently_wrong_closed_form_run_in_decimal(monkeypatch, capsys):
    # the same wrong run on the CLI's Decimal path
    monkeypatch.setattr(triangles, "c_run", doubled_on_row(exact.c_run, 30))
    assert cli.main(["seq", "c-row:30", "0", "31"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: IntegrityError: c_row(30) at k=0: closed form and Pascal-difference form disagree" in captured.err


@pytest.mark.parametrize("number", [int, Decimal])
def test_c_row_closed_form_run_catches_a_consistently_wrong_pascal_run(number, monkeypatch):
    # the mirror case: a self-consistent wrong run of row m - 1 disagrees with a right c run
    monkeypatch.setattr(triangles, "binomials", doubled_on_row(exact.binomials, 29))
    with localcontext(exact.EXACT_DECIMAL):
        with pytest.raises(IntegrityError, match=r"c_row\(30\) at k=0: closed form and Pascal-difference form disagree"):
            generate(SequenceSpec("c_row", 0, 31, param=30), number)
