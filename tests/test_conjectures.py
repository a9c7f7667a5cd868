"""Divisibility and mixed-cube scans: quotient cross-checks, checkpoint
round-trips, resume determinism, and the engine's ability to fail."""

import dataclasses
import json
import math
import os
from fractions import Fraction
from unittest import mock

import pytest
from conftest import with_line
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, conjectures, identities
from catalan_triangles.conjectures import (
    DivisibilityClaim,
    ScanState,
    check_mixed_cube,
    divisibility_claim,
    load_checkpoint,
    reverify,
    save_checkpoint,
    scan_divisibility,
    scan_mixed,
)
from catalan_triangles.errors import CheckpointError, DomainError, EmptyDomainError, IntegrityError, UsageError
from catalan_triangles.identities import evaluate_sides
from catalan_triangles.triangles import b_number, catalan, seq_a, seq_b


def comb_or_zero(u, v):
    if v < 0 or v > u:
        return 0
    return math.comb(u, v)


def test_scan_c_exponent_one_clean():
    state = scan_divisibility("c", 1, m_range=(2, 40))
    assert state.processed == sum(m - 1 for m in range(2, 41)) == 780
    assert state.counterexamples == []
    assert state.skipped_zero_divisor == 0
    assert state.frontier is None


def test_c_quotients_at_exponent_one_are_one():
    for m in range(2, 21):
        for n in range(1, m):
            claim = divisibility_claim("c", 1, (m, n))
            assert claim.holds
            assert claim.dividend == claim.divisor


def test_c_quotients_at_exponent_three_match_cube_closed_form():
    for m in range(2, 41):
        for n in range(1, m):
            claim = divisibility_claim("c", 3, (m, n))
            inner = sum(comb_or_zero(j, n) * comb_or_zero(j, m - n - 1) for j in range(m))
            assert claim.dividend // claim.divisor == 4 * claim.divisor**2 - 3 * inner


@pytest.mark.parametrize("variant, cell", [("c", (0, 1)), ("c", (0, 5)), ("b", (0,)), ("a", (0,))])
def test_a_claim_below_its_first_row_raises_domain_error(variant, cell):
    # a bad request, not an internal fault: c at m = 0 would otherwise divide by binomial(-1, n) = 0
    with pytest.raises(DomainError):
        divisibility_claim(variant, 3, cell)


@pytest.mark.parametrize(
    "variant, cell",
    [
        ("c", (5,)),
        ("c", (5, 2, 1)),
        ("b", (2, 3)),
        ("a", ()),
        ("c", (5.0, 2)),
        ("b", (2.0,)),
        ("b", (True,)),  # would read as n = 1
        ("a", ("3",)),
        ("b", 5),  # not a tuple or list
        ("b", None),
        ("c", "52"),
    ],
)
def test_a_claim_at_a_cell_of_the_wrong_length_raises_domain_error(variant, cell):
    with pytest.raises(DomainError, match="cell is"):
        divisibility_claim(variant, 3, cell)


def test_an_unknown_variant_or_conjecture_is_a_usage_error():
    with pytest.raises(UsageError, match="unknown divisibility variant"):
        divisibility_claim("d", 3, (2,))
    with pytest.raises(UsageError, match="unknown conjecture"):
        reverify(ScanState("nope", 3, None))


def test_b_quotients_at_exponent_three_are_seq_b():
    state = scan_divisibility("b", 3, n_range=(1, 40))
    assert not state.counterexamples
    for n in range(1, 41):
        claim = divisibility_claim("b", 3, (n,))
        assert claim.dividend // claim.divisor == seq_b(n)


def test_a_quotients_at_exponent_three_match_seq_a_form():
    for n in range(1, 31):
        claim = divisibility_claim("a", 3, (n,))
        assert claim.holds
        expected = (2 * (n + 1) * catalan(n)) ** 2 - 3 * seq_a(n)
        assert claim.dividend // claim.divisor == expected


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40), st.sampled_from([1, 3, 5, 7]))
@example(1, 7)
@example(40, 7)
def test_the_b_and_a_claims_are_the_c_claim_on_even_and_odd_rows(n, p):
    # b(n,k) = c(2n, n-k) and a(n,k) = c(2n+1, n+1-k): the b and a claims are the c claim at
    # (2n, n-1) and (2n+1, n), reached through the row kernel on one side and through the
    # compiled running sum and binomial on the other
    for variant, cell in (("b", (2 * n, n - 1)), ("a", (2 * n + 1, n))):
        claim, c_claim = divisibility_claim(variant, p, (n,)), divisibility_claim("c", p, cell)
        assert (claim.dividend, claim.divisor) == (c_claim.dividend, c_claim.divisor), (variant, n, p)


@given(st.integers(1, 160))
def test_the_b_and_a_divisors_are_the_papers_catalan_multiples(n):
    # the c claim's divisor binomial(m-1, n) at (2n, n-1) and (2n+1, n)
    catalan_n = math.comb(2 * n, n) // (n + 1)
    assert 2 * divisibility_claim("b", 1, (n,)).divisor == (n + 1) * catalan_n
    assert divisibility_claim("a", 1, (n,)).divisor == (n + 1) * catalan_n


def test_scan_b_exponent_five_clean():
    state = scan_divisibility("b", 5, n_range=(1, 20))
    assert state.processed == 20
    assert not state.counterexamples


@pytest.mark.parametrize("p", [0, 2, 4, -3])
def test_even_or_nonpositive_exponent_rejected(p):
    with pytest.raises(UsageError):
        scan_divisibility("b", p, n_range=(1, 5))


@pytest.mark.parametrize(
    "variant, p, ranges",
    [("b", 3.0, {"n_range": (1, 40)}), ("c", 3.0, {"m_range": (2, 40)}), ("b", True, {"n_range": (1, 3)})],
    ids=["b-float", "c-float", "b-bool"],
)
def test_an_exponent_that_is_not_an_int_is_rejected_before_any_cell(variant, p, ranges, monkeypatch):
    # 3.0 raised entries to float powers, whose rounding was reported as counterexamples; True, which
    # is 1 to arithmetic, was saved as "p": true, a checkpoint load_checkpoint refuses
    def evaluated(*args):
        raise AssertionError("evaluated a cell")

    monkeypatch.setattr(conjectures, "divisibility_claim", evaluated)
    with pytest.raises(UsageError):
        scan_divisibility(variant, p, **ranges)


@pytest.mark.parametrize("p", [-1, 3.0, True, None])
@pytest.mark.parametrize("variant, cell", [("c", (6, 2)), ("b", (3,)), ("a", (3,))])
def test_a_claim_with_an_exponent_that_is_not_an_int_of_at_least_0_raises_domain_error(variant, cell, p):
    # b at p = -1 would return the float dividend 1.45
    with pytest.raises(DomainError):
        divisibility_claim(variant, p, cell)


@pytest.mark.parametrize("variant", ["x", 5, None, ["b"]])
def test_unknown_variant_rejected(variant):
    with pytest.raises(UsageError):
        scan_divisibility(variant, 3, n_range=(1, 5))


def test_missing_ranges_rejected():
    with pytest.raises(UsageError):
        scan_divisibility("c", 3)
    with pytest.raises(UsageError):
        scan_divisibility("b", 3)
    for n_range, m_range in [(None, (1, 3)), ((1, 3), None)]:
        with pytest.raises(UsageError, match="needs both"):
            scan_mixed(n_range, m_range)


def test_worker_count_does_not_change_the_state():
    serial = scan_divisibility("c", 5, m_range=(2, 25), jobs=1)
    for jobs in (2, 4, 8):
        assert scan_divisibility("c", 5, m_range=(2, 25), jobs=jobs) == serial


def test_falsified_divisor_produces_counterexamples():
    def off_by_one(cell):
        claim = divisibility_claim("b", 3, cell)
        return DivisibilityClaim(claim.dividend, claim.divisor + 1, claim.parameters)

    state = scan_divisibility("b", 3, n_range=(1, 12), claim_fn=off_by_one)
    assert state.counterexamples
    record = state.counterexamples[0]
    assert set(record) == {"assignment", "dividend", "divisor", "remainder"}
    assert int(record["remainder"]) != 0
    # recorded counterexamples re-verify against the claim that produced them
    assert reverify(state, claim_fn=off_by_one)
    # and are exposed as bogus against the true claim
    assert not reverify(state)


def test_zero_divisors_are_counted_not_scanned_past():
    def degenerate(cell):
        claim = divisibility_claim("b", 1, cell)
        return DivisibilityClaim(claim.dividend, 0, claim.parameters)

    state = scan_divisibility("b", 1, n_range=(1, 9), claim_fn=degenerate)
    assert state.skipped_zero_divisor == 9
    assert state.processed == 9
    assert not state.counterexamples


def test_a_zero_divisor_count_is_recounted_on_load_against_its_claim(tmp_path):
    # only a claim_fn gives a zero divisor, so reverify counts them again over the processed cells
    def degenerate(cell):
        claim = divisibility_claim("b", 1, cell)
        return DivisibilityClaim(claim.dividend, claim.divisor if cell[0] % 3 == 0 else 0, claim.parameters)

    whole = scan_divisibility("b", 1, n_range=(1, 12), claim_fn=degenerate)
    assert whole.skipped_zero_divisor == 8
    path = tmp_path / "scan.json"
    save_checkpoint(scan_divisibility("b", 1, n_range=(1, 12), max_cells=7, claim_fn=degenerate), path)
    partial = load_checkpoint(path)
    assert partial.skipped_zero_divisor == 5  # n = 1, 2, 4, 5, 7
    assert reverify(partial, claim_fn=degenerate)
    with pytest.raises(CheckpointError, match="counts 5 zero-divisor cells, but its 7 processed cells hold 0"):
        reverify(partial)
    assert scan_divisibility("b", 1, n_range=(1, 12), checkpoint=partial, claim_fn=degenerate) == whole


def test_check_mixed_cube_spot_values():
    lhs, rhs, equal = check_mixed_cube(2, 1)
    assert (lhs, rhs, equal) == (4, 4, True)
    lhs, rhs, equal = check_mixed_cube(1, 3)
    assert equal and lhs == 5


def test_check_mixed_cube_rejects_bad_domain():
    with pytest.raises(DomainError):
        check_mixed_cube(0, 3)


def test_mixed_cube_diagonal_reduces_to_cube_sum():
    for n in range(1, 21):
        lhs, rhs, equal = check_mixed_cube(n, n)
        cube_lhs, cube_rhs = evaluate_sides("cor-cube-B", {"n": n})
        assert equal
        assert lhs == cube_lhs == cube_rhs == rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
@example(1, 1)
@example(60, 60)
@example(37, 37)  # the diagonal, where both statements' sums end at n = m
@example(59, 60)  # just above it: n <= m
@example(60, 59)  # just below it: m < n
@example(1, 60)
@example(60, 1)
def test_mixed_cube_against_independent_brute_force(n, m):
    r, s = min(n, m), max(n, m)
    lhs_oracle = Fraction(
        sum(b_number(n, k) ** 2 * b_number(m, k) for k in range(1, r + 1))
    )
    inner = sum(math.comb(s + j, s) * math.comb(n + j, n - 1) for j in range(r))
    rhs_oracle = Fraction(math.comb(2 * n, n) ** 2 * math.comb(2 * m, m), 2) * (
        1
        - Fraction(n + 2 * m, r)
        * Fraction(inner, math.comb(n + m, n) * math.comb(n + r, n))
    )
    lhs, rhs, equal = check_mixed_cube(n, m)
    assert type(lhs) is type(rhs) is Fraction
    assert (lhs, rhs) == (lhs_oracle, rhs_oracle)
    assert (str(lhs), str(rhs)) == (str(lhs_oracle), str(rhs_oracle))
    assert equal


def test_scan_mixed_clean():
    state = scan_mixed((1, 12), (1, 12))
    assert state.processed == 144
    assert not state.counterexamples
    assert state.conjecture == "mixed-cube"
    assert state.p is None


@pytest.mark.parametrize("text", ["mixed-cube n<=m", "mixed-cube m<n"])
def test_each_mixed_cube_text_holds_on_the_whole_box_without_its_constraint(text):
    # the split at min(n, m) is for speed: each text's sums then run only to min(n, m); the sides are
    # compiled again, so the sweep runs on their line function whether or not a scan compiled them before
    base = conjectures._STATEMENTS[text]
    ident = identities._compiled(dataclasses.replace(base, lhs=None, rhs=None, constraint=None))
    assert ident.line is not None
    report = identities.verify_identity(ident, {"n": (1, 20), "m": (1, 20)})
    assert report.passed and report.cells == 400


def test_checkpoint_round_trip(tmp_path):
    state = scan_divisibility("c", 5, m_range=(2, 12))
    path = tmp_path / "scan.json"
    save_checkpoint(state, path)
    assert load_checkpoint(path) == state
    save_checkpoint(state, path)  # over an existing checkpoint
    assert load_checkpoint(path) == state
    assert os.listdir(tmp_path) == ["scan.json"]


def test_failed_checkpoint_write_leaves_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "scan.json"
    save_checkpoint(scan_divisibility("c", 5, m_range=(2, 6)), path)
    saved = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(scan_divisibility("c", 5, m_range=(2, 12)), path)
    assert path.read_bytes() == saved
    assert os.listdir(tmp_path) == ["scan.json"]


MALFORMED_SCANS = {
    "mixed n (1,)": (lambda: scan_mixed((1,), (1, 3)), "n range"),
    "mixed m (1, 3.5)": (lambda: scan_mixed((1, 3), (1, 3.5)), "m range"),
    "mixed n (True, 3)": (lambda: scan_mixed((True, 3), (1, 3)), "n range"),  # would run as (1, 3)
    "mixed n [1, 2, 3]": (lambda: scan_mixed([1, 2, 3], (1, 3)), "n range"),  # would be cut to (1, 2)
    "b n (1,)": (lambda: scan_divisibility("b", 3, n_range=(1,)), "n range"),
    "a n (1, 2, 3)": (lambda: scan_divisibility("a", 3, n_range=(1, 2, 3)), "n range"),
    "c m (2, '9')": (lambda: scan_divisibility("c", 3, m_range=(2, "9")), "m range"),
    "c m (True, 9)": (lambda: scan_divisibility("c", 3, m_range=(True, 9)), "m range"),
    "c n (1, 2.5)": (lambda: scan_divisibility("c", 3, m_range=(2, 9), n_range=(1, 2.5)), "n range"),
    "c m 5": (lambda: scan_divisibility("c", 3, m_range=5), "m range"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCANS))
def test_a_malformed_range_is_a_usage_error_naming_it(case):
    scan, named = MALFORMED_SCANS[case]
    with pytest.raises(UsageError, match=named):
        scan()


def test_negative_cell_limit_is_a_usage_error():
    with pytest.raises(UsageError):
        scan_divisibility("c", 3, m_range=(2, 5), max_cells=-1)
    with pytest.raises(UsageError):
        scan_mixed((1, 3), (1, 3), max_cells=-2)
    # True would scan one cell, and 2.5 would fail in slicing
    for limit in (True, 2.5):
        with pytest.raises(UsageError, match="cell limit"):
            scan_divisibility("c", 3, m_range=(2, 5), max_cells=limit)
        with pytest.raises(UsageError, match="cell limit"):
            scan_mixed((1, 3), (1, 3), max_cells=limit)
    assert scan_divisibility("c", 3, m_range=(2, 5), max_cells=0).processed == 0


@pytest.mark.parametrize(
    "scan",
    [
        lambda: scan_divisibility("b", 3, n_range=(5, 3)),
        lambda: scan_divisibility("a", 1, n_range=(0, 0)),  # n starts at 1
        lambda: scan_divisibility("c", 3, m_range=(10, 5)),
        lambda: scan_divisibility("c", 3, m_range=(2, 5), n_range=(7, 9)),  # every n >= m
        lambda: scan_mixed((3, 1), (1, 2)),
        lambda: scan_mixed((1, 2), (2, 1), max_cells=5),
    ],
    ids=["b-reversed", "a-below-the-minimum", "c-reversed", "c-every-n-above-m", "mixed-reversed", "mixed-limited"],
)
def test_a_scan_over_no_cells_is_an_empty_domain_error(scan):
    with pytest.raises(EmptyDomainError, match="no cells in"):
        scan()


def test_checkpoint_document_fields(tmp_path):
    state = scan_divisibility("b", 3, n_range=(1, 6))
    path = tmp_path / "scan.json"
    save_checkpoint(state, path)
    doc = json.loads(path.read_text())
    for field in ("version", "conjecture", "p", "domain", "frontier", "processed", "counterexamples", "elapsed_ms"):
        assert field in doc
    assert doc["version"] == 2
    assert doc["conjecture"] == "divisibility-b"
    assert doc["p"] == 3
    assert doc["domain"] == {"n": [1, 6]}
    assert doc["frontier"] is None
    assert doc["processed"] == 6


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "scan.json"
    state = scan_divisibility("b", 3, n_range=(1, 4))
    save_checkpoint(state, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_checkpoint_garbage_is_integrity_error(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text("not json {")
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    path.write_text(json.dumps({"version": 2, "conjecture": "divisibility-b"}))
    with pytest.raises(IntegrityError):
        load_checkpoint(path)


def test_resume_equals_uninterrupted_run(tmp_path):
    uninterrupted = scan_divisibility("c", 5, m_range=(2, 20))
    total = uninterrupted.processed
    for cut in (1, total // 2, total - 1):
        partial = scan_divisibility("c", 5, m_range=(2, 20), max_cells=cut)
        assert partial.frontier is not None
        assert partial.processed == cut
        path = tmp_path / ("cut%d.json" % cut)
        save_checkpoint(partial, path)
        resumed = scan_divisibility("c", 5, m_range=(2, 20), checkpoint=load_checkpoint(path))
        assert resumed == uninterrupted


def _c_claim(p):
    """claim_fn that is divisibility_claim itself, so the c scan runs cell by cell."""
    return lambda cell: divisibility_claim("c", p, cell)


def _scan_on_cells(kind, p, n_range, m_range, **options):
    """The scan cell by cell: through claim_fn for c, b and a, and for mixed, which takes no claim_fn, with
    conjectures._check giving no line function, so that identities._lines runs every cell through check_mixed_cube."""
    if kind != "mixed":
        claim_fn = lambda cell: divisibility_claim(kind, p, cell)
        return scan_divisibility(kind, p, n_range, m_range, claim_fn=claim_fn, **options)
    check = conjectures._check

    def no_line(*args):
        names, at, fails, _, record = check(*args)
        return names, at, fails, None, record

    with mock.patch.object(conjectures, "_check", no_line):
        return scan_mixed(n_range, m_range, **options)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["c", "b", "a", "mixed"]),
    st.sampled_from([1, 3, 5, 7]),
    st.integers(2, 30),
    st.integers(0, 15),
    st.one_of(st.none(), st.tuples(st.integers(1, 25), st.integers(0, 15))),
    st.lists(st.integers(0, 60), max_size=4),
)
@example("mixed", 1, 2, 12, (1, 15), [7, 59])  # frontiers (1, 8) and (5, 3): on both sides of the split m = n
def test_every_scan_on_its_line_function_equals_the_scan_cell_by_cell(kind, p, lo, span, n_box, cuts):
    # random boxes, legs cut anywhere (mostly mid-row), each resumed from the last leg's frontier; for c the
    # box's first range is m's, for b and a the only one is n's, and for mixed it is n's and n_box is m's
    if kind == "c":
        m_range, n_range = (lo, lo + span), None
        if n_box is not None:
            n_lo = min(n_box[0], m_range[1] - 1)  # so that (m_hi, n_lo) is a cell
            n_range = (n_lo, n_lo + n_box[1])
    else:
        n_range = (lo - 1, lo - 1 + span)
        m_range = None if kind != "mixed" else (1, lo + span) if n_box is None else (n_box[0], n_box[0] + n_box[1])
    on_line = on_cells = None
    for cut in cuts + [None]:
        if kind == "mixed":
            on_line = scan_mixed(n_range, m_range, checkpoint=on_line, max_cells=cut)
        else:
            on_line = scan_divisibility(kind, p, n_range, m_range, checkpoint=on_line, max_cells=cut)
        on_cells = _scan_on_cells(kind, p, n_range, m_range, checkpoint=on_cells, max_cells=cut)
        assert on_line == on_cells
    assert on_line.frontier is None and not on_line.counterexamples


@pytest.mark.parametrize("p", [2, 4])
def test_the_c_line_function_finds_the_failures_of_even_exponents(p):
    # no scan runs an even p, where the claim really fails: run the scan's check through _lines directly
    domain = {"m": (2, 30), "n": (1, 29)}
    cells = [(*head, x) for head, xs in conjectures._domain_lines("divisibility-c", domain) for x in xs]
    names, at, fails, line, record = conjectures._check("divisibility-c", p)
    assert line is not None

    def indivisible(m, n):
        dividend = sum(((m - 2 * k) * math.comb(m, k) // m) ** p for k in range(n + 1))
        return dividend % math.comb(m - 1, n) != 0

    # the whole domain, then slices that start and end mid-row, as a limit cut and a resumed frontier make them
    for start, stop in [(0, len(cells)), (4, 61), (100, 101), (250, 406)]:
        part = cells[start:stop]
        lines, _ = conjectures._leg("divisibility-c", domain, start, stop)
        on_line = identities._lines("divisibility-c", lines, names, at, fails, line)
        on_cells = identities._lines("divisibility-c", lines, names, at, fails)
        assert on_line == on_cells and on_line[1] == len(part)
        assert [record(*failure) for failure in on_line[0]] == [record(*failure) for failure in on_cells[0]]
        assert [cell for cell, _, _ in on_line[0]] == [cell for cell in part if indivisible(*cell)] != []


def test_a_c_line_function_that_fails_where_the_claim_holds_is_an_integrity_error(monkeypatch, capsys):
    # 2 never divides 1, at every cell of every row
    compiled = identities._lookup("divisibility-c", conjectures._STATEMENTS)
    wrong = with_line(compiled, lambda p, m, ns: [(1, 2)] * len(ns))
    monkeypatch.setitem(conjectures._STATEMENTS, "divisibility-c", wrong)
    with pytest.raises(IntegrityError, match="divisibility-c: line function and sides disagree at"):
        scan_divisibility("c", 3, m_range=(2, 6))
    assert scan_divisibility("c", 3, m_range=(2, 6), claim_fn=_c_claim(3)).processed == 15  # cell by cell
    assert cli.main(["scan", "c-powers", "--p", "3", "--m", "2..6", "--no-timing"]) == cli.EXIT_INTERNAL
    assert "line function and sides disagree" in capsys.readouterr().err


def test_resume_in_many_small_legs():
    state = None
    while state is None or state.frontier is not None:
        state = scan_divisibility("b", 3, n_range=(1, 17), checkpoint=state, max_cells=3)
    assert state == scan_divisibility("b", 3, n_range=(1, 17))


def test_resume_with_finished_checkpoint_is_a_no_op():
    done = scan_divisibility("b", 3, n_range=(1, 8))
    again = scan_divisibility("b", 3, n_range=(1, 8), checkpoint=done)
    assert again == done


def test_checkpoint_for_wrong_scan_rejected():
    other = scan_divisibility("b", 3, n_range=(1, 5))
    with pytest.raises(IntegrityError):
        scan_divisibility("a", 3, n_range=(1, 5), checkpoint=other)
    with pytest.raises(IntegrityError):
        scan_divisibility("b", 5, n_range=(1, 5), checkpoint=other)


@pytest.mark.parametrize(
    "first, resumed",
    [
        ({"n_range": (1, 10)}, {"n_range": (6, 7)}),  # the frontier (6,) lies in both
        ({"n_range": (1, 10)}, {"n_range": (1, 12)}),
        ({"m_range": (2, 12)}, {"m_range": (2, 12), "n_range": (1, 3)}),
    ],
)
def test_checkpoint_for_another_domain_rejected(first, resumed):
    variant = "c" if "m_range" in first else "b"
    partial = scan_divisibility(variant, 3, max_cells=5, **first)
    with pytest.raises(IntegrityError, match="domain"):
        scan_divisibility(variant, 3, checkpoint=partial, **resumed)


def test_checkpoint_domain_applies_the_minima():
    # the same cells, asked for in two ways, are the same domain
    partial = scan_divisibility("c", 3, m_range=(0, 12), max_cells=5)
    assert partial.domain == {"m": (2, 12), "n": (1, 11)}
    resumed = scan_divisibility("c", 3, m_range=(2, 12), n_range=(-4, 11), checkpoint=partial)
    assert resumed == scan_divisibility("c", 3, m_range=(2, 12))
    mixed = scan_mixed((1, 4), (1, 4), max_cells=3)
    with pytest.raises(IntegrityError, match="domain"):
        scan_mixed((1, 4), (1, 5), checkpoint=mixed)


def test_version_1_checkpoint_is_refused_by_name(tmp_path):
    path = tmp_path / "scan.json"
    save_checkpoint(scan_divisibility("b", 3, n_range=(1, 10), max_cells=5), path)
    doc = json.loads(path.read_text())
    del doc["domain"]
    path.write_text(json.dumps({**doc, "version": 1}))
    with pytest.raises(IntegrityError, match="version 1"):
        load_checkpoint(path)


def test_checkpoint_frontier_outside_domain_rejected():
    partial = scan_divisibility("b", 3, n_range=(1, 30), max_cells=25)
    with pytest.raises(IntegrityError):
        scan_divisibility("b", 3, n_range=(1, 10), checkpoint=partial)


def test_mixed_scan_resume(tmp_path):
    uninterrupted = scan_mixed((1, 9), (1, 9))
    partial = scan_mixed((1, 9), (1, 9), max_cells=40)
    path = tmp_path / "mixed.json"
    save_checkpoint(partial, path)
    resumed = scan_mixed((1, 9), (1, 9), checkpoint=load_checkpoint(path))
    assert resumed == uninterrupted


def test_scan_state_equality_ignores_timing():
    a = ScanState("divisibility-b", 3, None, processed=5)
    b = ScanState("divisibility-b", 3, None, processed=5, elapsed_ms=123.4)
    assert a == b


def _off_by_one(cell):
    claim = divisibility_claim("b", 3, cell)
    return DivisibilityClaim(claim.dividend, claim.divisor + 1, claim.parameters)


def _falsified_b_scan():
    state = scan_divisibility("b", 3, n_range=(1, 12), claim_fn=_off_by_one)
    assert state.counterexamples and reverify(state, claim_fn=_off_by_one)
    return state


def _edited(state, edit):
    """state with its first counterexample record edited; its domain, frontier and counts are kept."""
    record = json.loads(json.dumps(state.counterexamples[0]))
    edit(record)
    return dataclasses.replace(state, counterexamples=[record] + state.counterexamples[1:])


def test_an_unedited_record_rechecks():
    # the control of the edited-record cases: only the edit makes them fail
    state = _falsified_b_scan()
    assert reverify(_edited(state, lambda record: None), claim_fn=_off_by_one) is True


def _c_scan_with_a_record_at(assignment):
    state = scan_divisibility("c", 3, m_range=(2, 5), max_cells=3)
    assert (state.domain, state.frontier) == ({"m": (2, 5), "n": (1, 4)}, (4, 1))
    record = {"assignment": assignment, "dividend": "1", "divisor": "1", "remainder": "1"}
    return dataclasses.replace(state, counterexamples=[record])


@pytest.mark.parametrize(
    "assignment",
    [
        {"m": 0, "n": 1},  # c(0, k) divides by m = 0
        {"m": 60000, "n": 30000},  # would take minutes
        {"m": 6, "n": 1},  # past the domain's m bound
        {"m": 3, "n": 3},  # in the box, but n < m fails
        {"m": 4, "n": 1},  # the frontier: not processed yet
        {"m": 4, "n": 2},  # after the frontier
    ],
    ids=["m-zero", "huge", "outside-m", "n-not-below-m", "at-frontier", "after-frontier"],
)
def test_reverify_evaluates_no_record_at_a_cell_the_scan_never_processed(monkeypatch, assignment):
    def evaluated(*args):
        raise AssertionError("evaluated a cell the scan never processed")

    state = _c_scan_with_a_record_at(assignment)
    monkeypatch.setattr(conjectures, "divisibility_claim", evaluated)
    assert reverify(state) is False


def test_a_state_without_a_domain_vouches_for_no_record(monkeypatch):
    mixed = scan_mixed((1, 3), (1, 3), max_cells=4)
    true_record = {"assignment": {"n": 1, "m": 2}, "lhs": "1", "rhs": "2"}
    monkeypatch.setattr(conjectures, "check_mixed_cube", lambda n, m: (Fraction(1), Fraction(2), False))
    assert reverify(dataclasses.replace(mixed, counterexamples=[true_record])) is True
    assert reverify(dataclasses.replace(mixed, counterexamples=[true_record], domain=None)) is False


def test_reverify_rejects_a_record_whose_divisor_is_now_zero():
    state = _edited(_falsified_b_scan(), lambda record: record.update(divisor="0"))

    def zero_divisor(cell):
        return DivisibilityClaim(_off_by_one(cell).dividend, 0, (("n", cell[0]),))

    assert reverify(state, claim_fn=zero_divisor) is False


@pytest.mark.parametrize(
    "edit",
    [
        lambda record: record["assignment"].clear(),  # the cell key is missing
        lambda record: record["assignment"].update(m=99),  # an extra key
        lambda record: record.update(assignment=[record["assignment"]["n"]]),  # not an object
        lambda record: record["assignment"].update(n=True),  # JSON true is no cell index
        lambda record: record["assignment"].update(n=str(record["assignment"]["n"])),
        lambda record: record.update(remainder=str(int(record["remainder"]) + 1)),
        lambda record: record.update(note="extra field"),
    ],
    ids=["missing-cell-key", "extra-cell-key", "assignment-not-an-object", "bool-index", "str-index", "remainder",
         "extra-field"],
)
def test_reverify_rejects_an_edited_record(edit):
    assert reverify(_edited(_falsified_b_scan(), edit), claim_fn=_off_by_one) is False


def _one_more(cell):
    claim = divisibility_claim("b", 3, cell)
    return dataclasses.replace(claim, dividend=claim.dividend + 1)


@pytest.mark.parametrize(
    "records",
    [lambda records: records + records[:1], lambda records: records[:3] + records[2:],
     lambda records: records[1:2] + records[:1] + records[2:]],
    ids=["first-appended", "third-repeated", "first-two-swapped"],
)
def test_reverify_rejects_records_repeated_or_out_of_scan_order(records):
    # each record alone re-checks, so only their order can tell: a repeated one was once kept by the resumed
    # scan, which then ended with 12 records where the uninterrupted scan has 11
    state = scan_divisibility("b", 3, n_range=(1, 12), max_cells=8, claim_fn=_one_more)
    assert len(state.counterexamples) == 7 and reverify(state, claim_fn=_one_more)
    assert len(scan_divisibility("b", 3, n_range=(1, 12), claim_fn=_one_more).counterexamples) == 11
    forged = dataclasses.replace(state, counterexamples=records(state.counterexamples))
    assert reverify(forged, claim_fn=_one_more) is False


@pytest.mark.parametrize("p", [None, 0, -1])
def test_reverify_rejects_records_under_an_exponent_no_scan_uses(p):
    # a loaded checkpoint may say p is null; no cell check runs at it (c(4,2)^-1 would divide by zero)
    record = {"assignment": {"m": 4, "n": 2}, "dividend": "1", "divisor": "3", "remainder": "1"}
    assert reverify(ScanState("divisibility-c", p, None, 1, [record])) is False
    assert reverify(ScanState("divisibility-c", p, None, 1, [])) is True


def test_reverify_rejects_an_edited_mixed_cube_record(monkeypatch):
    # both texts falsified, rhs + 1, so that the scan's line function and reverify's cells see the same claim
    for text in ("mixed-cube n<=m", "mixed-cube m<n"):
        base = conjectures._STATEMENTS[text]
        falsified = dataclasses.replace(base, statement=base.statement + " + 1", lhs=None, rhs=None)
        monkeypatch.setitem(conjectures._STATEMENTS, text, falsified)
    state = scan_mixed((1, 3), (1, 3))
    assert len(state.counterexamples) == 9
    assert reverify(state)
    assert reverify(_edited(state, lambda record: None))
    assert not reverify(_edited(state, lambda record: record.update(lhs=str(Fraction(record["lhs"]) + 1))))
    monkeypatch.undo()
    assert not reverify(state)


def test_checkpoint_key_order(tmp_path):
    state = _falsified_b_scan()
    path = tmp_path / "scan.json"
    save_checkpoint(state, path)
    keys = ["version", "conjecture", "p", "domain", "frontier", "processed", "counterexamples", "skipped_zero_divisor"]
    assert list(json.loads(path.read_text())) == keys + ["elapsed_ms"]
    assert list(state.to_dict(include_timing=False)) == keys
    assert list(load_checkpoint(path).to_dict(include_timing=False)) == keys


def _refuse_constant(token):
    raise ValueError("non-finite number %s in a checkpoint" % token)


def test_checkpoint_is_one_line_of_json(tmp_path):
    state = _falsified_b_scan()
    path = tmp_path / "scan.json"
    save_checkpoint(state, path)
    text = path.read_text()
    assert text == json.dumps(state.to_dict(), allow_nan=False) + "\n"
    assert text.count("\n") == 1
    assert list(json.loads(text, parse_constant=_refuse_constant)) == ["version", *conjectures._CHECKPOINT_FIELDS]


def test_checkpoint_in_the_indented_layout_loads(tmp_path):
    # files written before checkpoints became one line of JSON still resume
    state = _falsified_b_scan()
    path = tmp_path / "scan.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state.to_dict(), fh, indent=2)
        fh.write("\n")
    assert load_checkpoint(path) == state


def test_thousands_of_long_counterexamples_round_trip(tmp_path):
    def plus_one(cell):
        claim = divisibility_claim("c", 7, cell)
        return DivisibilityClaim(claim.dividend + 1, claim.divisor, claim.parameters)

    state = scan_divisibility("c", 7, m_range=(2, 120), claim_fn=plus_one)
    assert len(state.counterexamples) >= 3000
    assert max(len(record["dividend"]) for record in state.counterexamples) >= 200
    path = tmp_path / "scan.json"
    save_checkpoint(state, path)
    assert load_checkpoint(path) == state
    assert load_checkpoint(path).counterexamples == state.counterexamples


def test_non_finite_state_is_never_written(tmp_path):
    path = tmp_path / "scan.json"
    with pytest.raises(ValueError):
        save_checkpoint(ScanState("divisibility-b", 3, None, elapsed_ms=math.inf), path)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "elapsed", ["1e999", "-1e999", "Infinity", "NaN", "1" + "0" * 400],
    ids=["overflowing-float", "negative-overflow", "Infinity", "NaN", "401-digit-integer"],
)
def test_checkpoint_elapsed_time_must_be_finite(tmp_path, elapsed):
    path = tmp_path / "scan.json"
    save_checkpoint(scan_divisibility("b", 3, n_range=(1, 4)), path)
    doc = json.loads(path.read_text())
    doc["elapsed_ms"] = "@"
    path.write_text(json.dumps(doc).replace('"@"', elapsed))
    with pytest.raises(CheckpointError, match="'elapsed_ms' must be a finite non-negative number"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "counts",
    [{"processed": 1000000}, {"processed": 2}, {"processed": 4}, {"processed": 0}, {"frontier": None},
     {"frontier": (2, 1)}, {"skipped_zero_divisor": 4}],
    ids=lambda counts: ",".join("%s=%s" % item for item in counts.items()),
)
def test_resume_rejects_counts_that_disagree_with_the_frontier(counts):
    partial = scan_divisibility("c", 3, m_range=(2, 6), max_cells=3)
    assert (partial.frontier, partial.processed) == ((4, 1), 3)
    with pytest.raises(CheckpointError, match="checkpoint counts"):
        scan_divisibility("c", 3, m_range=(2, 6), checkpoint=dataclasses.replace(partial, **counts))


def test_resume_rejects_more_findings_than_processed_cells():
    state = _falsified_b_scan()
    room = state.processed - len(state.counterexamples)
    full = dataclasses.replace(state, skipped_zero_divisor=room)
    resume = dict(n_range=(1, 12), claim_fn=_off_by_one)
    assert scan_divisibility("b", 3, checkpoint=full, **resume) == full
    with pytest.raises(CheckpointError, match="counterexamples in 12 processed cells"):
        scan_divisibility("b", 3, checkpoint=dataclasses.replace(full, skipped_zero_divisor=room + 1), **resume)
