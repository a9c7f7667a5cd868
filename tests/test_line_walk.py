"""The line walk of sweeps and scans against flat cell lists.

A sweep builds its lines straight from the box, one per value of all
parameters but the last, and applies the constraint once per line through
the filter compiled next to it; a scan leg builds only the lines it scans,
the first cut at the frontier and the last at the cell limit.  The
flat-list definitions they replaced are kept here as the naive side: every
box cell the constraint admits, and every cell of a scan domain in
lexicographic order."""

import contextlib
import io
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, conjectures, identities
from catalan_triangles.conjectures import DivisibilityClaim, reverify, scan_divisibility, scan_mixed
from catalan_triangles.errors import EmptyDomainError
from catalan_triangles.identities import IdentityDescriptor, Parameter, get_identity, list_identities, verify_identity

# --- sweeps -------------------------------------------------------------------------


def _flat(ident, domain, outside):
    """The cells a sweep checks, as the flat list the engine once built."""
    names = ident.parameter_names()
    spans = [range(domain[name][0], domain[name][1] + 1) for name in names]
    if outside or ident.constraint is None:
        return list(product(*spans))
    return [cell for cell in product(*spans) if ident.constraint(**dict(zip(names, cell)))]


def _walked(ident, domain, outside):
    lines = identities._domain_lines(ident, domain, outside)
    assert all(xs for _, xs in lines)
    return [(*head, x) for head, xs in lines for x in xs]


@st.composite
def _options(draw, ident):
    """A cap, explicit ranges for some parameters (empty ones too), and allow_outside_domain."""
    cap = draw(st.one_of(st.none(), st.integers(0, 9)))
    ranges = {}
    for p in ident.parameters:
        if draw(st.booleans()):
            lo = draw(st.integers(p.minimum - 2, p.minimum + 8))
            ranges[p.name] = (lo, draw(st.integers(lo - 1, lo + 6)))
    return {"ranges": ranges, "cap": cap, "allow_outside_domain": draw(st.booleans())}


@st.composite
def _constrained(draw):
    """A true statement over 1-3 parameters with a drawn chain of comparisons as its constraint."""
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    operand = st.one_of(
        st.sampled_from(names),
        st.integers(-3, 12).map(str),
        st.tuples(st.sampled_from(names), st.integers(-3, 3)).map(lambda t: "%s + %d" % t),
        st.tuples(st.integers(2, 3), st.sampled_from(names)).map(lambda t: "%d*%s" % t),
    )
    operands = draw(st.lists(operand, min_size=2, max_size=4))
    ops = draw(st.lists(st.sampled_from(["<", "<=", ">", ">="]), min_size=len(operands) - 1, max_size=len(operands) - 1))
    text = operands[0] + "".join(" %s %s" % pair for pair in zip(ops, operands[1:]))
    ident = identities._compiled(IdentityDescriptor(
        "test-walk", "%s == %s" % (" + ".join(names), " + ".join(reversed(names))),
        tuple(Parameter(name, draw(st.integers(0, 3))) for name in names), constraint=text, default_cap=7,
    ))
    assert ident.admit is not None
    return ident


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_sweep_walks_the_cells_of_the_flat_list_under_a_drawn_constraint(data):
    ident = data.draw(_constrained())
    options = data.draw(_options(ident))
    domain = identities.effective_domain(ident, options["ranges"], options["cap"])
    flat = _flat(ident, domain, options["allow_outside_domain"])
    assert _walked(ident, domain, options["allow_outside_domain"]) == flat
    # a copy has no filter and calls its constraint per cell, with keywords
    assert _walked(replace(ident), domain, options["allow_outside_domain"]) == flat
    if not flat:
        with pytest.raises(EmptyDomainError):
            verify_identity(ident, **options)
    else:
        report = verify_identity(ident, **options)
        assert report.passed and report.cells == len(flat)


@pytest.mark.parametrize("identity", [ident.id for ident in list_identities()])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_sweep_walks_the_cells_of_the_flat_list_for_every_identity(identity, data):
    ident = get_identity(identity)
    options = data.draw(_options(ident))
    domain = identities.effective_domain(ident, options["ranges"], options["cap"])
    outside = options["allow_outside_domain"]
    assert _walked(ident, domain, outside) == _walked(replace(ident), domain, outside) == _flat(ident, domain, outside)


def test_only_a_compiled_text_constraint_has_a_line_filter():
    ident = get_identity("rec-B")
    assert ident.admit is not None and get_identity("thm-linear-sum").admit is None
    assert replace(ident).admit is None  # so a copy's constraint may differ from its filter's
    hand = identities._compiled(IdentityDescriptor(
        "test-hand", "n == n", (Parameter("n", 1),), constraint=lambda n: n % 2 == 0
    ))
    assert hand.admit is None and verify_identity(hand, cap=9).cells == 4
    with pytest.raises(TypeError, match="'admit'"):
        IdentityDescriptor("x", "n == n", (Parameter("n", 1),), constraint="n <= 3", admit=lambda xs: xs)
    with pytest.raises(ValueError, match="admit"):
        replace(ident, admit=lambda n, ks: ks)


def test_a_sweep_runs_the_filter_once_per_line_and_a_copy_the_constraint_once_per_cell():
    ident = get_identity("thm-alt-sum")
    report = verify_identity(ident, cap=12)
    heads = []

    def never(**cell):
        raise AssertionError("the per-cell constraint ran in a filtered sweep")

    planted = replace(ident, constraint=never)
    object.__setattr__(planted, "admit", lambda *args: heads.append(args[:-1]) or ident.admit(*args))
    assert verify_identity(planted, cap=12) == report
    assert heads == [(m,) for m in range(2, 13)]
    cells = []
    copy = replace(ident, constraint=lambda **cell: cells.append(cell) or ident.constraint(**cell))
    assert verify_identity(copy, cap=12) == report
    assert cells == [{"m": m, "n": n} for m in range(2, 13) for n in range(1, 13)]


def test_a_constraint_the_filter_cannot_inline_is_tested_through_its_constraint():
    # a sum needs statements before its value, so the filter calls the compiled chain positionally
    ident = identities._compiled(IdentityDescriptor(
        "test-sum", "m + n == n + m", (Parameter("m", 1), Parameter("n", 1)), constraint="sum(k, k=1..n) <= m"
    ))
    domain = identities.effective_domain(ident, cap=12)
    assert _walked(ident, domain, False) == _flat(ident, domain, False) == [
        (m, n) for m in range(1, 13) for n in range(1, 13) if n * (n + 1) // 2 <= m
    ]


def test_elapsed_ms_covers_the_walk_of_the_domain(monkeypatch):
    # each line's filter takes one second of a fake clock, which only the timed span can see
    ident = get_identity("thm-alt-sum")
    clock = [0.0]
    monkeypatch.setattr(identities, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def slow(*args):
        clock[0] += 1.0
        return ident.admit(*args)

    planted = replace(ident)
    object.__setattr__(planted, "admit", slow)
    assert verify_identity(planted, cap=12).elapsed_ms == 11 * 1000.0


def _cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def test_the_no_timing_report_is_unchanged_and_a_timed_one_still_has_elapsed_ms():
    argv = ["verify", "thm-alt-sum", "--m", "5..9", "--n", "3..12", "--format", "json"]
    expected = {"identity": "thm-alt-sum", "domain": {"m": [5, 9], "n": [3, 12]}, "cells": 20, "status": "PASS",
                "mismatches": []}
    assert _cli_json(*argv, "--no-timing") == expected
    timed = _cli_json(*argv)
    assert isinstance(timed.pop("elapsed_ms"), float) and timed == expected


# --- scans --------------------------------------------------------------------------


def _flat_domain(kind, bounds):
    """The scanned bounds with their minima applied, as the scans apply them."""
    if kind == "mixed":
        return {"n": (max(bounds["n"][0], 1), bounds["n"][1]), "m": (max(bounds["m"][0], 1), bounds["m"][1])}
    if kind == "c":
        m = (max(bounds["m"][0], 2), bounds["m"][1])
        n = (1, m[1] - 1) if bounds.get("n") is None else (max(bounds["n"][0], 1), bounds["n"][1])
        return {"m": m, "n": n}
    return {"n": (max(bounds["n"][0], 1), bounds["n"][1])}


def _flat_scan_cells(kind, domain):
    """Every cell of a scan domain in scan order, as the flat list the scans once built."""
    n_lo, n_hi = domain["n"]
    if kind == "mixed":
        return [(n, m) for n in range(n_lo, n_hi + 1) for m in range(domain["m"][0], domain["m"][1] + 1)]
    if kind == "c":
        return [(m, n) for m in range(domain["m"][0], domain["m"][1] + 1) for n in range(n_lo, n_hi + 1) if n < m]
    return [(n,) for n in range(n_lo, n_hi + 1)]


def _flat_document(kind, domain, cells, stop, outcome):
    """The checkpoint document of a scan of cells[:stop], from the cells' outcomes (a record, "zero" or None)."""
    conjecture = "mixed-cube" if kind == "mixed" else "divisibility-" + kind
    seen = [outcome(cell) for cell in cells[:stop]]
    return {
        "version": conjectures.CHECKPOINT_VERSION,
        "conjecture": conjecture,
        "p": None if kind == "mixed" else 3,
        "domain": {name: list(span) for name, span in domain.items()},
        "frontier": list(cells[stop]) if stop < len(cells) else None,
        "processed": stop,
        "counterexamples": [entry for entry in seen if isinstance(entry, dict)],
        "skipped_zero_divisor": seen.count("zero"),
    }


@st.composite
def _scan_domains(draw):
    kind = draw(st.sampled_from(["c", "b", "a", "mixed"]))
    span = lambda lo, hi, width: st.integers(lo, hi).flatmap(lambda a: st.tuples(st.just(a), st.integers(a - 1, a + width)))
    if kind == "c":
        bounds = {"m": draw(span(0, 9, 7)), "n": draw(st.one_of(st.none(), span(0, 8, 6)))}
    elif kind == "mixed":
        bounds = {"n": draw(span(0, 4, 4)), "m": draw(span(0, 4, 4))}
    else:
        bounds = {"n": draw(span(0, 6, 9))}
    return kind, bounds


def _scan(kind, bounds, **options):
    if kind == "mixed":
        return scan_mixed(bounds["n"], bounds["m"], **options)
    return scan_divisibility(kind, 3, n_range=bounds.get("n"), m_range=bounds.get("m"), **options)


@settings(max_examples=150, deadline=None)
@given(_scan_domains(), st.randoms(use_true_random=False), st.integers(0, 80))
@example(("c", {"m": (2, 8), "n": (4, 6)}), random.Random(1), 2)  # empty lines m = 2..4 before the first cell (5, 4)
@example(("mixed", {"n": (1, 3), "m": (2, 4)}), random.Random(2), 5)
def test_every_leg_of_a_scan_is_the_flat_lists_slice(domain_draw, rng, second):
    # every cut from 0 to the domain's size, then a second leg of a drawn size, then the rest
    kind, bounds = domain_draw
    domain = _flat_domain(kind, bounds)
    cells = _flat_scan_cells(kind, domain)
    if not cells:
        with pytest.raises(EmptyDomainError):
            _scan(kind, bounds)
        return
    names = conjectures._NAMES["mixed-cube" if kind == "mixed" else "divisibility-" + kind]
    bad = set(rng.sample(cells, rng.randint(0, len(cells))))
    zero = set(rng.sample(cells, rng.randint(0, len(cells)))) - bad

    # fake sides, so that the engine's walk is what is tested: a remainder of 1 on bad cells, a zero divisor on zero
    def claim(cell):
        return DivisibilityClaim(2 * sum(cell) + (cell in bad), 0 if cell in zero else 2, ())

    # mixed takes no claim_fn, and its scan runs on its texts' line function: a text gets n*m/3 on the left and
    # n*m/3 + binomial(x, y - s) on the right, so a cell is bad where s <= y <= x + s
    above, below = rng.randint(-2, 6), rng.randint(-2, 6)
    fakes = {
        text: replace(conjectures._STATEMENTS[text], statement="n*m/3 == n*m/3 + binomial(%s)" % args,
                      lhs=None, rhs=None)
        for text, args in (("mixed-cube n<=m", "n, m - %d" % above), ("mixed-cube m<n", "m, n - %d" % below))
    }

    def sides(n, m):
        x, y, s = (n, m, above) if n <= m else (m, n, below)
        return Fraction(n * m, 3), Fraction(n * m, 3) + (math.comb(x, y - s) if 0 <= y - s <= x else 0)

    def outcome(cell):
        assignment = dict(zip(names, cell))
        if kind == "mixed":
            lhs, rhs = sides(*cell)
            return {"assignment": assignment, "lhs": str(lhs), "rhs": str(rhs)} if lhs != rhs else None
        if cell in zero:
            return "zero"
        return {"assignment": assignment, "dividend": str(2 * sum(cell) + 1), "divisor": "2", "remainder": "1"} \
            if cell in bad else None

    options = {} if kind == "mixed" else {"claim_fn": claim}
    with mock.patch.dict(conjectures._STATEMENTS, fakes):
        whole = _scan(kind, bounds, **options)
        assert whole.to_dict(include_timing=False) == _flat_document(kind, domain, cells, len(cells), outcome)
        assert reverify(whole, **options)
        for cut in range(len(cells) + 1):
            state = _scan(kind, bounds, max_cells=cut, **options)
            assert state.to_dict(include_timing=False) == _flat_document(kind, domain, cells, cut, outcome), cut
            state = _scan(kind, bounds, checkpoint=state, max_cells=second, **options)
            stop = min(cut + second, len(cells))
            assert state.to_dict(include_timing=False) == _flat_document(kind, domain, cells, stop, outcome)
            assert reverify(state, **options)
            assert _scan(kind, bounds, checkpoint=state, **options) == whole
    # each claim itself, on its line function: no findings, the same frontiers
    for cut in range(len(cells) + 1):
        state = _scan(kind, bounds, max_cells=cut)
        assert (state.frontier, state.processed, state.counterexamples) == (
            cells[cut] if cut < len(cells) else None, cut, []
        )


def test_a_c_scan_walks_no_row_before_its_first_cell():
    # rows m = 2..299990 hold no cell with n >= 299990: a 1-cell leg, the cell at its count and its resume skip them
    domain = {"m": (2, 300000), "n": (299990, 299999)}
    claim = lambda cell: DivisibilityClaim(2, 2, ())
    scan = lambda **options: scan_divisibility("c", 7, n_range=domain["n"], m_range=domain["m"], claim_fn=claim, **options)
    first, second = (299991,), (299992,)  # rows of one and two cells
    with mock.patch.object(conjectures, "_line", wraps=conjectures._line) as line:
        assert conjectures._leg("divisibility-c", domain, 0, 1) == ([(first, range(299990, 299991))], (*second, 299990))
        assert line.call_count == 2
        line.reset_mock()
        state = scan(max_cells=1)
        assert (state.domain, state.frontier, state.processed) == (domain, (*second, 299990), 1)
        assert line.call_count == 2  # the leg's two rows, whose first cell shows the domain is not empty
        line.reset_mock()
        assert conjectures._leg("divisibility-c", domain, 1, 1) == ([], state.frontier)  # the cell at its count
        assert line.call_count == 2
        line.reset_mock()
        assert scan(checkpoint=state).processed == 10 * 11 // 2
        assert line.call_count == 10  # every row of the leg, the first holding the checkpoint's frontier


@pytest.mark.parametrize("kind, bounds", [("c", {"m": (2, 40)}), ("b", {"n": (1, 60)}),
                                          ("mixed", {"n": (1, 9), "m": (1, 9)})])
def test_each_leg_walks_its_domain_once(kind, bounds):
    # a leg's cells and the cell at its checkpoint's count come from one walk; a spent checkpoint, whose null
    # frontier stands for the domain's cell count, walks it once more to sum it
    with mock.patch.object(conjectures, "_domain_lines", wraps=conjectures._domain_lines) as walks:
        state = _scan(kind, bounds, max_cells=25)
        assert (state.processed, walks.call_count) == (25, 1)  # a fresh leg
        for legs in (2, 3):
            state = _scan(kind, bounds, checkpoint=state, max_cells=None if legs == 3 else 25)
            assert walks.call_count == legs  # a resumed leg, cut at its limit or run to the end
        assert state.frontier is None and state == _scan(kind, bounds)
        walks.reset_mock()
        assert _scan(kind, bounds, checkpoint=state) == state
        assert walks.call_count == 2  # the spent checkpoint's empty leg, then its total


def test_a_leg_costs_what_it_scans():
    # the first 1,000 cells of m = 2..3000 end at m = 46; the domain's cell list alone held 4.5M tuples
    identities._lookup("divisibility-c", conjectures._STATEMENTS)
    tracemalloc.start()
    try:
        state = scan_divisibility("c", 7, m_range=(2, 3000), max_cells=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.frontier == (46, 11) and state.processed == 1000
    assert peak < 4 * 2**20, peak
