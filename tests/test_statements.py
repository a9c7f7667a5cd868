"""The statement compiler: every compiled side against a naive reading of
its statement, every line function against the sides it was compiled
with, the grammar's refusals, the reader against the regular expressions
it replaced, the digest of the source generated for the built-in
statements, and building on first lookup only, from the table of prebuilt
code that is the one import a timed command makes."""

import ast
import hashlib
import json
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from conftest import with_line
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catalan_triangles import cli, conjectures, exact, identities, statements
from catalan_triangles.errors import DomainError, EmptyDomainError, IntegrityError, UsageError
from catalan_triangles.exact import harmonic, keep_partials
from catalan_triangles.identities import (
    IdentityDescriptor,
    Parameter,
    evaluate_sides,
    get_identity,
    list_identities,
    register,
    verify_identity,
)

# --- a naive interpreter: Fractions, sums from scratch, math.comb ---------------


def _int(x):
    assert Fraction(x).denominator == 1, x
    return int(x)


def _binomial(u, v):
    u, v = _int(u), _int(v)
    return comb(u, v) if 0 <= v <= u else 0


def _integers(f):
    return lambda *xs: f(*map(_int, xs))


def _pow(x, e):
    """x ** e, refusing e < 0 as the library does (a Fraction would take the power)."""
    if e < 0:
        raise DomainError("exponent %s is below 0" % e)
    return x ** e


def _rows(first, f):
    """f over integer arguments, refusing a row below first with DomainError as the library does."""

    def entry(row, column):
        if _int(row) < first:
            raise DomainError("row %s is below %d" % (row, first))
        return f(_int(row), _int(column))

    return entry


NAIVE = {
    "F": Fraction,
    "binomial": _rows(0, _binomial),
    "c": _rows(1, lambda m, k: Fraction(m - 2 * k, m) * _binomial(m, k)),
    "b": _rows(1, lambda n, k: Fraction(k, n) * _binomial(2 * n, n - k) if k >= 0 else 0),
    "a": _rows(1, lambda n, k: Fraction(2 * k - 1, 2 * n + 1) * _binomial(2 * n + 1, n + 1 - k) if k >= 1 else 0),
    "catalan": _integers(lambda n: Fraction(_binomial(2 * n, n), n + 1)),
    "gen_catalan": _integers(lambda k, n: Fraction(_binomial(n * k, n - 1), n)),
    "seq_a": _integers(lambda n: sum(_binomial(n + k, n) ** 2 for k in range(n + 1))),
    "seq_b": _integers(lambda n: sum(Fraction(k, n) * _binomial(2 * n - k - 1, n - 1) ** 2 for k in range(n + 1))),
    "H": _integers(harmonic),
    "_sum": lambda term, lo, hi: sum((term(Fraction(k)) for k in range(_int(lo), _int(hi) + 1)), Fraction(0)),
    "_pow": _pow,
}


class _Powers(ast.NodeTransformer):
    """x ** e -> _pow(x, e)."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("_pow", ast.Load()), [node.left, node.right], [])
        return node


def _python(side: str) -> str:
    """side as a Python expression over Fractions: 2n -> F(2)*n, sum(E, v=lo..hi) -> _sum(lambda v: E, lo, hi),
    x^e -> _pow(x, e)."""
    text = re.sub(r"\b(\d+)\b", r"F(\1)", re.sub(r"\b(\d+)(?=[A-Za-z(])", r"\1*", side.replace("^", "**")))
    while True:
        starts = [match.end() for match in re.finditer(r"(?<!\w)sum\(", text)]
        if not starts:
            return ast.unparse(_Powers().visit(ast.parse(text, mode="eval")))
        start = end = starts[-1]  # the last sum holds no other
        depth = 1
        while depth:
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            end += 1
        term, _, bounds = text[start:end - 1].rpartition(",")
        var, lo, hi = re.fullmatch(r"\s*(\w+)\s*=(.*)\.\.(.*)", bounds).groups()
        text = "%s_sum(lambda %s: %s, %s, %s)%s" % (text[:start - 4], var, term, lo, hi, text[end:])


def naive(side: str, cell: dict) -> Fraction:
    return Fraction(eval(_python(side), {**NAIVE, **{name: Fraction(value) for name, value in cell.items()}}))


def _value(evaluate):
    """evaluate(), or DomainError or ZeroDivisionError where it raises that: a row below the first is refused on both
    readings, and so is a zero denominator."""
    try:
        return evaluate()
    except DomainError:
        return DomainError
    except ZeroDivisionError:
        return ZeroDivisionError


_REFUSALS = (DomainError, ZeroDivisionError)


def _refused(value):
    """value, with either refusal as one mark: the two readings may meet a side's two refusals in either order."""
    return "refused" if value in _REFUSALS else value


# Statements that take the compiler's other paths: H of a square, of a
# product and of a difference, H in a running sum, terms whose denominator
# moves with the variable, sums inside sums, several H-weighted sums in one
# side, empty ranges, and running sums on a line function's locals whose
# bounds fall or climb by two, next to running sums whose term or lower
# bound reads the line variable, which keep their partials in the store.
# Then the row tables: reads outside the row at both ends, a row that moves
# with the line variable, one fixed row read by a running sum and outside
# any sum, one row read at two column offsets, empty ranges over rows below
# the first, and rows below the first that a cell reaches.
# Only each side's value is checked, not the equation.
PATHS = [
    ("path-h-square", "sum(H(k^2) / k, k=1..n) == sum(sum(1/j, j=1..k), k=1..n)", [("n", 1)]),
    ("path-h-pair", "sum(H(n-k) * H(k), k=1..n-1) == H(n)^2 - sum(1/k^2, k=1..n) + H(2n)", [("n", 1)]),
    ("path-running-h", "sum(c(m,k) * H(m), k=0..n) + 1/(m+1) == m * sum(H(k+m)/(k+1), k=0..n)", [("m", 1), ("n", 1)]),
    ("path-nested", "sum(sum(binomial(j,k), j=k..n), k=0..n) == 2^(n+1) - 1 + -catalan(n)/(n+1)^2", [("n", 0)]),
    ("path-table-twice", "sum(H(k)*b(n,k), k=1..n) - sum(H(k+1), k=0..n-1) == (2n+1)/(n+2) * H(n+1)", [("n", 1)]),
    # true; one plain sum reads both H(n*k) and H(2k), each of which the right side sums alone
    ("path-h-coefficient", "sum(H(n*k) + H(2k), k=1..n) == sum(H(2k), k=1..n) + sum(H(n*j), j=1..n)", [("n", 1)]),
    # true; along the line of n, the sums over k=0..m-n and k=1..2n keep their
    # partials on locals (a falling bound restarts, one that climbs by two resumes),
    # and the one whose term reads n keeps its partial in the store
    (
        "path-line-bounds",
        "sum(binomial(m,k), k=0..m-n) + sum(binomial(n,k), k=0..m+n-2) + sum(k*H(k), k=1..2n)"
        " == sum(binomial(m,m-k), k=n..m) + 2^n - binomial(n,m+n-1) + n*(2n+1)*H(2n) - n*(2n-1)/2",
        [("m", 1), ("n", 1)],
    ),
    # along n: c row m is a line table read from column -2 and -3 on and past m; b row n and Pascal row n are
    # the sum's tables, read from column -2 and -3 on and past n
    ("path-table-ends", "sum(c(m,k-2), k=0..n) + c(m,n-3) == sum(b(n,k-2) * binomial(n,2k-3), k=0..n+3)", [("m", 1), ("n", 1)]),
    # rows n and n+m move with the line variable n, so each is a table of its sum's evaluation
    ("path-table-moving", "sum(a(n,k)^2 * binomial(n+m,k+1), k=0..m) == sum(b(n+1,k) * c(n,k), k=1..m)", [("m", 1), ("n", 1)]),
    # true; one table of row m per line, read by two running sums and outside any sum
    ("path-table-fixed", "sum(c(m,k)^2, k=0..n) - c(m,n)^2 == sum(c(m,k)^2, k=0..n-1)", [("m", 1), ("n", 1)]),
    # rows m, n and 2m, each read at two column offsets from one table in one plain sum (the eq-convolution shape)
    (
        "path-table-offsets",
        "sum(c(m,k)*c(m,k+n) + b(n,k)*b(n,n+k-1), k=0..n) == sum(binomial(2m,k) * binomial(2m,k+m), k=0..m)",
        [("m", 1), ("n", 1)],
    ),
    # true; rows catalan(m) and catalan(m)-1 hold a call, so each is bound to a local at each read, as the
    # call's argument is, and is one line table: built for m <= 4, and read a call per term past that
    ("path-table-call", "sum(c(catalan(m),k), k=0..n) == binomial(catalan(m)-1,n)", [("m", 1), ("n", 1)]),
    # at n = 1 or m = 1 each sum is empty over row 0, which no table may build
    ("path-table-empty", "sum(c(n-1,k), k=1..n-1) + sum(a(m-1,k), k=1..(m-1)*n) == sum(b(m-1,k), k=m..m-1)", [("m", 1), ("n", 1)]),
    # rows n-2, m-2 and m-1 fall below the first at n <= 2 or m <= 2: DomainError on every path there
    ("path-table-below", "sum(a(n-2,k), k=0..m) == b(m-2,n) + sum(c(m-1,k), k=0..n)", [("m", 1), ("n", 1)]),
]
for _id, _statement, _parameters in PATHS:
    identities._ident(_id, _statement, _parameters, cap=12)
try:
    ORACLE = {ident.id: ident for ident in list_identities()}
finally:
    for _id, _, _ in PATHS:
        del identities._REGISTRY[_id]


@st.composite
def cells(draw):
    """An identity and 1..4 admissible cells, each parameter at its cap or anywhere from its minimum."""
    ident = ORACLE[draw(st.sampled_from(sorted(ORACLE)))]
    cap = ident.default_cap
    drawn = draw(st.lists(
        st.fixed_dictionaries({p.name: st.one_of(st.just(cap), st.integers(p.minimum, cap)) for p in ident.parameters}),
        min_size=1, max_size=4,
    ))
    admissible = [cell for cell in drawn if ident.admits(cell)]
    assume(admissible)
    return ident, admissible


@settings(max_examples=300, deadline=None)
@given(cells())
def test_compiled_sides_match_a_naive_reading_of_the_statement(drawn):
    ident, admissible = drawn
    lhs_text, rhs_text = ident.statement.split(" == ")
    with keep_partials():  # running sums extend, shrink and hop between fixed values
        for cell in admissible:
            for compiled, text in ((ident.lhs, lhs_text), (ident.rhs, rhs_text)):
                value = _value(lambda: compiled(**cell))
                assert type(value) in (int, Fraction) or value is DomainError, (ident.id, cell)
                assert value == _value(lambda: naive(text, cell)), (ident.id, text, cell)


def test_every_registered_identity_is_in_the_oracle():
    assert {ident.id for ident in list_identities()} <= set(ORACLE)
    assert len(ORACLE) == 39 + len(PATHS)


# --- the line functions against the scalar sides -------------------------------


def test_only_thm_square_decomp_i_keeps_a_line_partial_in_the_store():
    # its running sum's term and lower bound read the line variable n; every other line sum keeps its partial on
    # locals, which against the store is about 6% of the sweep and 16% of the c scan
    lines = {ident.id: ident.line for ident in list_identities()}
    scans = conjectures._STATEMENTS
    lines.update((text, identities._lookup(text, scans).line) for text in list(scans))
    assert {name for name, line in lines.items() if "_partials" in line.__code__.co_freevars} == {"thm-square-decomp-i"}


def _scalar(ident):
    """ident with a hand-written wrapper as its left side, so the engine runs it cell by cell."""
    lhs = ident.lhs
    return replace(ident, lhs=lambda **kwargs: lhs(**kwargs))


def _outcome(ident, **options):
    """The report of a sweep, or the type and message of what it raised."""
    try:
        return verify_identity(ident, **options)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def boxes(draw, ident):
    """Sweep options for ident: each parameter's range starts anywhere from its
    minimum (mid-line too), often spans one value, and the constraint may be ignored."""
    ranges = {}
    for p in ident.parameters:
        lo = draw(st.one_of(st.just(p.minimum), st.integers(p.minimum, max(p.minimum, ident.default_cap))))
        ranges[p.name] = (lo, draw(st.one_of(st.just(lo), st.integers(lo, lo + 12))))
    return {"ranges": ranges, "allow_outside_domain": draw(st.booleans()), "fail_fast": draw(st.booleans())}


@pytest.mark.parametrize("identity", sorted(ORACLE))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_line_path_reports_what_the_scalar_path_reports(identity, data):
    ident = ORACLE[identity]
    assert ident.line is not None
    options = data.draw(boxes(ident))
    assert _outcome(ident, **options) == _outcome(_scalar(ident), **options)


def _descriptor_of(statement, names, constraint=None):
    return identities._compiled(IdentityDescriptor(
        id="test-line", statement=statement, parameters=tuple(Parameter(name, 1) for name in names),
        constraint=constraint,
    ))


@pytest.mark.parametrize("identity", ["thm-harmonic", "thm-square-decomp-i", "rec-A", "eq-linear-B", "eq-convolution"])
def test_a_right_side_one_too_large_at_one_cell_is_one_mismatch(identity):
    ident = get_identity(identity)
    names = ident.parameter_names()
    lines = identities._domain_lines(ident, identities.effective_domain(ident, cap=9), False)
    cells = [(*head, x) for head, xs in lines for x in xs]
    cell = dict(zip(names, cells[len(cells) // 2]))
    rhs = ident.rhs

    def shifted(**kwargs):
        return rhs(**kwargs) + (kwargs == cell)

    report = verify_identity(replace(ident, rhs=shifted), cap=9)
    assert [dict(m.assignment) for m in report.mismatches] == [cell]
    assert report.cells == len(cells)


def test_fail_fast_counts_the_cells_the_scalar_path_counts():
    # the sides differ from the third cell of the line m = 2 on, after a passing line m = 1
    ident = _descriptor_of("sum(c(m,k), k=0..n) == binomial(m-1,n) + (m-1)*(n-1)*(n-2)", ("m", "n"))
    assert ident.line is not None
    fast = verify_identity(ident, cap=6, fail_fast=True)
    assert fast == verify_identity(_scalar(ident), cap=6, fail_fast=True)
    assert fast.cells == 6 + 3 and [dict(m.assignment) for m in fast.mismatches] == [{"m": 2, "n": 3}]
    full = verify_identity(ident, cap=6)
    assert full == verify_identity(_scalar(ident), cap=6) and len(full.mismatches) > 1


def test_a_replaced_side_never_runs_the_stale_line_function():
    ident = get_identity("thm-square-sum")
    rhs, line = ident.rhs, ident.line
    calls = []
    counted = with_line(ident, lambda *args: calls.append(args) or line(*args))
    assert verify_identity(counted, cap=6).passed and calls  # the compiled sides run through the line function
    calls.clear()

    def wrong(**kwargs):
        return rhs(**kwargs) + 1

    for stale in (replace(counted, rhs=wrong), replace(counted, lhs=wrong), replace(counted, rhs=None, lhs=wrong)):
        report = verify_identity(stale, cap=6)
        assert len(report.mismatches) == report.cells
    assert not calls


def test_a_line_function_that_flags_agreeing_sides_is_an_integrity_error():
    # a pair of unequal values at every cell, where the sides are equal
    unequal = with_line(get_identity("rec-A"), lambda *args: [(0, 1)] * len(args[-1]))
    with pytest.raises(IntegrityError, match="rec-A: line function and sides disagree at"):
        verify_identity(unequal, cap=6)


def test_a_line_function_is_never_an_argument():
    # so no caller can vouch for false sides with a line function of its own
    f, g = (lambda n: n), (lambda n: n + 1)
    fake = lambda ns: [(0, 0)] * len(ns)
    with pytest.raises(TypeError, match="'line'"):
        IdentityDescriptor("x", "n == n + 1", (Parameter("n", 1),), lhs=f, rhs=g, line=fake)
    with pytest.raises(ValueError, match="line"):
        replace(get_identity("eq-vandermonde"), line=fake)
    report = verify_identity(IdentityDescriptor("x", "n == n + 1", (Parameter("n", 1),), lhs=f, rhs=g), cap=5)
    assert report.status == "FAIL" and len(report.mismatches) == report.cells == 5


@pytest.mark.parametrize("identity", sorted(ORACLE))
def test_a_replaced_descriptor_runs_cell_by_cell_and_reports_what_the_compiled_one_reports(identity):
    compiled = ORACLE[identity]
    copy = replace(compiled, default_cap=compiled.default_cap)
    assert compiled.line is not None and copy.line is None and copy == compiled
    recompiled = identities._compiled(replace(compiled, lhs=None, rhs=None))
    assert recompiled.line is not None
    assert identities._compiled(replace(compiled, rhs=None)).line is None  # one compiled side gets no line
    for outside in (False, True):
        report = _outcome(compiled, cap=8, allow_outside_domain=outside)
        assert _outcome(copy, cap=8, allow_outside_domain=outside) == report
        assert _outcome(recompiled, cap=8, allow_outside_domain=outside) == report


@pytest.mark.parametrize(
    "statement, names",
    [
        ("1/(n-5) == 1/(n-5)", ("n",)),  # a side's denominator
        ("m/(n-5) + 1 == 1 + m/(n-5)", ("m", "n")),  # the denominator of a sum of quotients
        ("sum(1/(k-5), k=1..n) == sum(1/(k-5), k=1..n)", ("m", "n")),  # a running sum on the line function's locals
        ("sum(m/(k-5), k=1..n) == sum(m/(k-5), k=1..n)", ("n", "m")),  # a running sum in the store, keyed by m
    ],
)
def test_a_zero_denominator_mid_line_raises_as_the_scalar_path_does(statement, names):
    ident = _descriptor_of(statement, names)
    for fail_fast in (False, True):
        line = _outcome(ident, cap=8, fail_fast=fail_fast)
        assert line == _outcome(_scalar(ident), cap=8, fail_fast=fail_fast)
        assert line[0] is ZeroDivisionError


@pytest.mark.parametrize(
    "statement, names, cap, cell, message",
    [
        # x^e would be a float, so every side and line function refuses e < 0 before taking the power:
        # false at every n, yet at n = 1 and 2 its floats round to equal
        ("3^(n-2) * 9 == 3^n + 3^(n-40)", ("n",), 3, {"n": 1}, "below 0"),
        # true until the exponent falls below 0 mid-line, at n = 5
        ("2^(4-n) * 2^n == 16", ("n",), 6, {"n": 5}, "below 0"),
        # in the term of a running sum along n, from the line m = 2 on
        ("sum(2^(k-m) * 0, k=1..n) == 0", ("m", "n"), 4, {"m": 2, "n": 1}, "below 0"),
        # in the term of a running sum that resumes its partial from the store in the line function
        ("sum((-1)^(k-n) * 0, k=1..m) == 0", ("m", "n"), 4, {"m": 1, "n": 2}, "below 0"),
        # c(0, k) would divide by zero: a bad request, not a failed exactness check
        ("c(n-1, 0) == 1", ("n",), 3, {"n": 1}, "must be >= 1"),
        # a(0, 1) is outside the triangle a starts at row 1, even though 2n+1 is no zero divisor there
        ("a(n-1, 1) == 1", ("n",), 3, {"n": 1}, "must be >= 1"),
    ],
)
def test_a_negative_exponent_or_a_row_below_the_first_raises_domain_error(statement, names, cap, cell, message):
    ident = _descriptor_of(statement, names)
    for fail_fast in (False, True):
        assert _outcome(ident, cap=cap, fail_fast=fail_fast)[0] is DomainError
        assert _outcome(_scalar(ident), cap=cap, fail_fast=fail_fast)[0] is DomainError
    with pytest.raises(DomainError, match=message):
        evaluate_sides(ident, cell)


def test_a_literal_square_in_a_chain_is_evaluated_only_where_the_chain_reaches_it():
    # c(0, 0) raises; the chain stops at n < 1 before it, squared or not, and the filter keeps its comparisons inline
    for constraint in ("n < 1 < c(n-1,0)", "n < 1 < c(n-1,0)^2", "n < 1 < c(n-1,0)^3"):
        ident = _descriptor_of("n == n", ("n",), constraint)
        assert ident.admit(list(range(1, 6))) == [] and not ident.admits({"n": 1})
        admit = statements.compile_identity(("n",), vars(identities), None, constraint)["admit"]
        assert "constraint" not in admit.__code__.co_freevars
        with pytest.raises(EmptyDomainError):
            verify_identity(ident, cap=5)


def test_an_alternating_sum_still_verifies():
    ident = _descriptor_of("sum((-1)^k * binomial(n,k), k=0..n) == 0^n + sum((-1)^(n-k) * 0, k=0..n)", ("n",))
    assert verify_identity(ident, cap=30).passed
    assert get_identity("thm-alt-sum").line is not None and verify_identity("thm-alt-sum", cap=12).passed


def test_b_and_a_outside_their_triangles_read_zero():
    # a(n, 0) is 0, not c(2n+1, n+1) = -catalan(n), so this sum is the sum of row n
    statement = "sum(a(n,k), k=0..n+1) + sum(b(n,k), k=-2..n+3) == (n+1)*catalan(n) + binomial(2n-1,n)"
    ident = _descriptor_of(statement, ("n",))
    assert evaluate_sides(ident, {"n": 3}) == (20 + 10, 20 + 10)
    assert verify_identity(ident, cap=25).passed


def test_a_compound_denominator_is_computed_once_per_cell():
    calls = []

    def binomial(u, v):
        calls.append((u, v))
        return exact.binomial(u, v)

    built = statements.compile_identity(("n",), {"binomial": binomial}, "1/binomial(n,1) + 1 == (n+1)/n")
    for n in range(1, 6):
        assert built["lhs"](n=n) == built["rhs"](n=n)
    assert len(calls) == 5
    calls.clear()
    pairs = built["line"](list(range(1, 6)))
    assert len(pairs) == 5 and all(lhs == rhs for lhs, rhs in pairs)
    assert len(calls) == 5


# --- row tables ------------------------------------------------------------------

ENTRIES = {
    "_c_table": (identities._c_ext, 1, 0),  # builder: (entry function, first row, last column minus the row)
    "_b_table": (identities._b_ext, 1, 0),
    "_a_table": (identities._a_ext, 1, 1),
    "_binomial_table": (identities.binomial, 0, 0),
}


@pytest.mark.parametrize("builder", sorted(ENTRIES))
def test_a_table_is_its_entry_function_over_its_columns(builder):
    table, (entry, first, extra) = getattr(identities, builder), ENTRIES[builder]
    for row in range(first, first + 9):
        whole = [entry(row, j) for j in range(row + extra + 1)]
        assert table(row, len(whole)) == whole and table(row, 2 * len(whole)) == whole
        assert table(row, len(whole) - 1) == []  # wider than its width: no table
    for row in (first - 1, first - 2, first - 3):  # a refused row raises the kernels' own DomainError, or has no table
        with pytest.raises(DomainError):
            entry(row, 0)
        if builder == "_binomial_table" and row > -3:  # binomials(row, 0, 0, 1, row // 2 + 1) is an empty run
            assert table(row, 3) == []  # no table: each read is the entry's call, which raises
        else:
            with pytest.raises(DomainError):
                table(row, 3)


@pytest.mark.parametrize("identity", [identity for identity in sorted(ORACLE) if identity.startswith("path-table")])
def test_a_line_reads_each_table_entry_the_sides_read_by_call(identity):
    # every pair a line gives is its cell's sides cross-multiplied, at table reads before column 0, at column 0, at
    # a row's last column and past it, which the index guard 0 <= column < len(table) sends to 0 or to the table;
    # tests/test_kernel_mutants.py moves each bound of that guard and checks that this test fails
    ident = ORACLE[identity]
    with keep_partials():
        for head, xs in identities._domain_lines(ident, identities.effective_domain(ident), False):
            cells = [dict(zip(ident.parameter_names(), (*head, x))) for x in xs]
            sides = [(_value(lambda: ident.lhs(**cell)), _value(lambda: ident.rhs(**cell))) for cell in cells]
            if any(DomainError in pair for pair in sides):  # a row below the first, which the line raises for too
                continue
            pairs = ident.line(*head, xs)
            assert len(pairs) == len(xs)
            for (p, q), (lhs, rhs), cell in zip(pairs, sides, cells):
                assert p * rhs == q * lhs and (p == q) == (lhs == rhs), (identity, cell)


def test_a_fixed_row_reads_a_table_and_every_other_call_stays_a_call(monkeypatch):
    calls = []
    for name in ("_c_ext", "binomial", "_c_table", "_binomial_table"):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args, name=name, real=real, **kw: calls.append(name) or real(*args, **kw))

    def called(function, *args, **kwargs):
        calls.clear()
        function(*args, **kwargs)
        return Counter(calls)

    linear, vandermonde, decomp = map(get_identity, ("thm-linear-sum", "eq-vandermonde", "thm-square-decomp-i"))
    # a running sum and the divisor along n read rows m and m-1 from one table each per line; in a side, a call per term
    assert called(linear.line, 12, list(range(1, 13))) == {"_c_table": 1, "_binomial_table": 1}
    assert called(linear.lhs, m=12, n=5) == {"_c_ext": 6} and called(linear.rhs, m=12, n=5) == {"binomial": 1}
    # row n moves with the line variable n, so the plain sum over it reads a table of its own in the line, and a
    # call per term in a side; binomial(2n,n) outside any sum is a call
    assert called(vandermonde.line, [3, 4]) == {"_binomial_table": 2, "binomial": 2}
    assert called(vandermonde.lhs, n=4) == {"binomial": 5}
    # binomial(m,n) is a line table, and binomial(j-1,n-1) reads the summation variable j: a call per term
    assert called(decomp.line, 5, [1, 2, 3, 4, 5]) == {"_binomial_table": 1, "binomial": 5 + 4 + 3 + 2 + 1}


def test_no_registered_line_function_falls_back_to_cells():
    # a builder's signature mistake or a broken table would raise inside a line, where _lines reruns its cells
    for ident in list_identities():
        with keep_partials():
            for head, xs in identities._domain_lines(ident, identities.effective_domain(ident), False):
                assert len(ident.line(*head, xs)) == len(xs), (ident.id, head)
    # and every scan's line, the mixed claim's two segments included
    domains = {"divisibility-c": {"m": (2, 60), "n": (1, 59)}, "divisibility-b": {"n": (1, 60)},
               "divisibility-a": {"n": (1, 60)}, "mixed-cube": {"n": (1, 30), "m": (1, 30)}}
    for conjecture, domain in domains.items():
        line = conjectures._check(conjecture, 7)[3]
        with keep_partials():
            for head, xs in conjectures._domain_lines(conjecture, domain):
                assert len(line(*head, xs)) == len(xs), (conjecture, head)


def test_a_row_wider_than_twice_its_line_is_read_a_call_per_term(monkeypatch):
    # a line of two cells reads three columns of row 300 of c and Pascal's row 299: no kernel run
    # builds the rows, while a line of 299 cells builds each once
    ident = get_identity("thm-linear-sum")
    runs = []
    for name in ("_row_slice", "binomials"):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args, real=real: runs.append(args) or real(*args))
    with keep_partials():
        assert ident.line(300, [1, 2]) == [(ident.lhs(m=300, n=n), ident.rhs(m=300, n=n)) for n in (1, 2)]
        assert runs == []
        assert len(ident.line(300, list(range(1, 300)))) == 299
        assert [args[0] for args in runs] == ["c_row", 299]  # _row_slice("c_row", 300, ...), binomials(299, ...)


def test_a_fixed_row_that_holds_a_call_is_a_line_table_read_as_the_naive_reading_reads_it(monkeypatch):
    ident = ORACLE["path-table-call"]
    lhs_text, rhs_text = ident.statement.split(" == ")
    built = []
    for name in ("_c_table", "_binomial_table"):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda r, width, real=real: built.append(r) or real(r, width))
    with keep_partials():
        for (m,), xs in identities._domain_lines(ident, identities.effective_domain(ident), False):
            expected = [(naive(lhs_text, {"m": m, "n": n}), naive(rhs_text, {"m": m, "n": n})) for n in xs]
            assert [(ident.lhs(m=m, n=n), ident.rhs(m=m, n=n)) for n in xs] == expected, m
            assert ident.line(m, xs) == expected, m
    rows = [comb(2 * m, m) // (m + 1) for m in range(1, 13)]  # catalan(m)
    assert built == [r for row in rows for r in (row, row - 1)]


def test_an_integrity_error_in_a_line_function_is_raised_not_retried_cell_by_cell(monkeypatch, capsys):
    ident = get_identity("thm-linear-sum")

    def planted(*args):
        raise IntegrityError("planted")

    with pytest.raises(IntegrityError, match="planted"):
        verify_identity(with_line(ident, planted), cap=6)
    # any other exception sends the line through its cells, and where none of them raises, it is raised as a
    # line function that disagrees with the sides
    with pytest.raises(IntegrityError, match=r"thm-linear-sum: line function raised ZeroDivisionError.* at \{'m': 2\}"):
        verify_identity(with_line(ident, lambda *args: 1 / 0), cap=6)

    def failed(m, width):
        raise IntegrityError("c_row(%d): a kernel check failed" % m)

    # a table builder whose check fails, compiled into the line function: no call in the sides reaches it
    built = statements.compile_identity(("m", "n"), dict(vars(identities), _c_table=failed), ident.statement)
    with pytest.raises(IntegrityError, match="kernel check failed"):
        verify_identity(with_line(ident, built["line"], lhs=built["lhs"], rhs=built["rhs"]), cap=6)
    # and through the CLI, where the registered line function reads the builder from identities
    monkeypatch.setattr(identities, "_c_table", failed)
    assert cli.main(["verify", "thm-linear-sum", "--max", "6", "--no-timing"]) == 3
    assert "kernel check failed" in capsys.readouterr().err


def test_a_line_function_that_raises_where_no_cell_does_is_an_integrity_error(monkeypatch, capsys):
    ident = get_identity("thm-linear-sum")
    broken = with_line(ident, lambda *args: [][0])
    # with sides changed so that every cell fails, each line's cells run and fail, and then the line's error
    # is raised, unless fail_fast stops at the first failed cell first
    false = with_line(ident, broken.line, rhs=lambda m, n: ident.rhs(m=m, n=n) + 1)
    with pytest.raises(IntegrityError, match="line function raised IndexError"):
        verify_identity(false, cap=6)
    report = verify_identity(false, cap=6, fail_fast=True)
    assert (report.cells, report.mismatches) == (1, verify_identity(replace(false), cap=6, fail_fast=True).mismatches)
    # a line that raises where its sides raise too reports the sides' own error, as the cell path does
    below, box = ORACLE["path-table-below"], {"m": (1, 1), "n": (3, 3)}
    outcome = _outcome(with_line(below, lambda *args: 1 / 0), ranges=box)
    assert outcome[0] is DomainError and outcome == _outcome(_scalar(below), ranges=box)
    # and through the CLI, exit 3
    monkeypatch.setitem(identities._REGISTRY, "thm-linear-sum", broken)
    assert cli.main(["verify", "thm-linear-sum", "--max", "6", "--no-timing"]) == 3
    assert "line function raised IndexError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "builder, identity",
    [("_c_table", "thm-linear-sum"), ("_b_table", "rec-B"), ("_a_table", "rec-A"), ("_binomial_table", "eq-vandermonde")],
)
def test_a_table_one_column_short_fails_the_sweep(monkeypatch, builder, identity):
    real = getattr(identities, builder)
    monkeypatch.setattr(identities, builder, lambda row, width: real(row, width)[:-1])
    outcome = _outcome(identity, cap=8)
    # the line flags cells whose sides agree, since no side reads a table
    assert isinstance(outcome, tuple) and outcome[0] is IntegrityError, outcome


BUILDERS = ("_c_table", "_b_table", "_a_table", "_binomial_table")
# each scan at a small domain, as the CLI takes it
SCANS = (
    ["scan", "c-powers", "--p", "3", "--m", "2..12"],
    ["scan", "b-cubes", "--p", "3", "--n", "1..12"],
    ["scan", "a-cubes", "--p", "3", "--n", "1..12"],
    ["scan", "mixed", "--n", "1..8", "--m", "1..8"],
)


class _FirstReadOff(list):
    """A row table whose first entry read is off by one."""

    column = None

    def __getitem__(self, i):
        if self.column is None:
            self.column = i
        return list.__getitem__(self, i) + (i == self.column)


def _builders_called(monkeypatch, run) -> set[str]:
    """The row-table builders that run() calls."""
    called = set()
    for name in BUILDERS:
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args, name=name, real=real: called.add(name) or real(*args))
    run()
    monkeypatch.undo()
    return called


FAULTS = {
    "one column short": lambda real: lambda *args: real(*args)[:-1],
    "first read off by one": lambda real: lambda *args: _FirstReadOff(real(*args)),
}
# the planted faults that no line pair shows, so the sweep or scan passes (exit 0), and why
UNSEEN = {
    ("one column short", "_binomial_table", "eq-convolution"): "binomial(2n-2,i-1) reads columns i-1 <= n-1 of row 2n-2",
    ("one column short", "_b_table", "cor-harmonic-B"): "k=0..n-1 never reads column n",
    ("one column short", "_a_table", "cor-harmonic-A"): "k=1..n never reads column n+1",
    ("one column short", "_c_table", "c-powers"): "n < m never reads column m",
    ("one column short", "_binomial_table", "mixed"): "binomial(2n,n) reads the middle of row 2n",
    ("first read off by one", "_a_table", "rec-A"): "a(n,k) on the left and a(n-1,k-1) on the right are both one off",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_broken_table_is_never_a_finding(monkeypatch, capsys, fault):
    # the sides read no table, so a broken one makes the line flag cells whose sides agree: exit 3, never 1
    commands = [["verify", ident.id, "--max", "12"] for ident in list_identities()] + list(SCANS)
    pairs, met = 0, set()
    for argv in commands:
        for name in sorted(_builders_called(monkeypatch, lambda: cli.main(argv + ["--no-timing"]))):
            monkeypatch.setattr(identities, name, FAULTS[fault](getattr(identities, name)))
            key = (fault, name, argv[1])
            assert cli.main(argv + ["--no-timing"]) == (cli.EXIT_OK if key in UNSEEN else cli.EXIT_INTERNAL), key
            monkeypatch.undo()
            pairs += 1
            met.add(key)
    capsys.readouterr()
    assert pairs == 43 + 6  # (builder, identity) pairs, and (builder, scan) pairs: c 2, b 1, a 1, mixed 2
    assert {key for key in UNSEEN if key[0] == fault} <= met


# --- column sums -------------------------------------------------------------------
# Plain sums of a line function whose term has column factors binomial(v+a, e) or binomial(a-v, e) (README rule 5):
# (text, its range at (m, n), each factor's (row, column) at (v, m, n)).  Where a row falls below 0 in the range, the
# line refuses it as the sides do; elsewhere it evaluates only the terms at which every factor is nonzero.
COLUMN_SUMS = [
    # eq-amm's and thm-cube-sum's inner sum, from row 0, narrowed to j = max(n, m-n-1)..m-1: empty where n >= m
    ("sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)", lambda m, n: (0, m - 1), lambda j, m, n: [(j, n), (j, m - n - 1)]),
    # thm-b-cube's falling column, rows 2n-2 down to n-1 of column n-1: every term
    ("sum(k*binomial(2n-k-1,n-1)^2, k=1..n)", lambda m, n: (1, n), lambda k, m, n: [(2 * n - k - 1, n - 1)]),
    # a falling row that reaches 0 at the upper bound, narrowed to k = 0..n-2
    ("sum(binomial(n-k,2), k=0..n)", lambda m, n: (0, n), lambda k, m, n: [(n - k, 2)]),
    # a rising row from 0, narrowed to j = n-1..m, where the first term is m (the factor m keeps the sum plain)
    ("sum(binomial(j+1,n)*m, j=-1..m)", lambda m, n: (-1, m), lambda j, m, n: [(j + 1, n)]),
    # cor-cube-A's square next to a column below 0 where n < 3, which leaves no term
    ("sum(binomial(j,n)^2 * binomial(j+m,n-3), j=n-1..2n-1)", lambda m, n: (n - 1, 2 * n - 1),
     lambda j, m, n: [(j, n), (j + m, n - 3)]),
    # row -1 at j = -1 and at k = n+1: refused, never narrowed away
    ("sum(m*binomial(j,n), j=-1..m)", lambda m, n: (-1, m), lambda j, m, n: [(j, n)]),
    ("sum(binomial(n-k,0), k=0..n+1)", lambda m, n: (0, n + 1), lambda k, m, n: [(n - k, 0)]),
]


@contextmanager
def _runs_from(length):
    """statements.RUN set to length while a statement compiles at run time: its column sums read runs from there on."""
    saved, statements.RUN = statements.RUN, length
    try:
        yield
    finally:
        statements.RUN = saved


@pytest.mark.parametrize("text, bounds, factors", COLUMN_SUMS, ids=[text for text, _, _ in COLUMN_SUMS])
def test_a_line_evaluates_a_column_sum_over_its_support_only(monkeypatch, text, bounds, factors):
    # every term by its call, then with every sum of a term or more read from runs; tests/test_kernel_mutants.py moves
    # each bound the compiler narrows to by one, loosens or drops each guard that no row falls below 0, and moves the
    # runs' offset by one, and checks that this test fails
    calls = []
    for name in ("binomial", "binomials"):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for length in (statements.RUN, 1):
        with _runs_from(length):
            ident = _descriptor_of(text + " == 0", ("m", "n"))
        for m in range(1, 9):
            xs = list(range(1, 9))
            sides = [_value(lambda: ident.lhs(m=m, n=n)) for n in xs]
            if DomainError in sides:
                with pytest.raises(DomainError, match="binomial: u must be >= 0"):
                    ident.line(m, xs)
                continue
            calls.clear()
            assert [lhs for lhs, _ in ident.line(m, xs)] == sides, (length, m)
            supports = {n: [v for v in range(bounds(m, n)[0], bounds(m, n)[1] + 1)
                            if all(0 <= e <= row for row, e in factors(v, m, n))] for n in xs}
            # a call per factor and term, or a run per factor of each sum that has a term
            terms = sum(len(factors(v, m, n)) for n, support in supports.items() for v in support)
            runs = sum(len(factors(support[0], m, n)) for n, support in supports.items() if support)
            assert Counter(calls) == Counter({"binomials": runs} if length == 1 else {"binomial": terms}), (length, m)


def test_no_side_reads_a_table(monkeypatch):
    texts = [identities._lookup(text, conjectures._STATEMENTS) for text in list(conjectures._STATEMENTS)]

    def sides():
        for ident in list_identities() + texts:
            ranges = {"p": (1, 3)} if "p" in ident.parameter_names() else None
            verify_identity(replace(ident), ranges, cap=10)  # a copy runs its sides cell by cell

    assert _builders_called(monkeypatch, sides) == set()
    # nor does a side's code name a builder
    for ident in list_identities() + texts:
        for side in (ident.lhs, ident.rhs):
            assert not set(side.__code__.co_names) & set(BUILDERS), ident.id


# --- random statements from the grammar ----------------------------------------
# Trees over literals 0..3, + - * /, powers 0..3, signs (-1)^E of an integer
# expression E, c b a binomial on row name+1 or name+2, column reads
# binomial(v+A-B, E) and binomial(A-v-B, E) of the innermost name v (the
# summation variable inside a sum), H(name+1) and sums whose lower bound is
# -2, -1, 0, 1, a name or a name + 1 and whose upper bound is 0, 1, a name, a
# name + 1, m - n or m - 1, whose term may be divided by an integer expression,
# among them column sums: plain sums of one or two column reads times m*n
# and maybe another tree.
# A leaf or a row names an index into the names in scope, so every tree
# renders to a statement; the denominator of a / is B^2 + 1, never 0, and that
# of a sum's term may be 0.  A row, a column, a harmonic number's argument or
# an exponent may fall below 0 where a lower bound does, and a column read's
# row or column anywhere: there the library and naive each raise DomainError,
# or ZeroDivisionError at a zero denominator.

_LEAVES = st.one_of(st.tuples(st.just("literal"), st.integers(0, 3)), st.tuples(st.just("name"), st.integers(0, 7)))
_INTEGERS = st.recursive(_LEAVES, lambda children: st.tuples(st.sampled_from("+-*"), children, children), max_leaves=3)
# the row v + A - B or A - v - B of the innermost name v, each of A and B left out or an integer expression, and the
# column
_COLUMN = st.tuples(st.just("column"), st.sampled_from((1, -1)), *[st.one_of(st.none(), _INTEGERS)] * 2, _INTEGERS)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.just("^"), children, st.integers(0, 3)),
        st.tuples(st.just("sign"), _INTEGERS),  # (-1)^E, which compiles to a select on E's parity
        # the column the innermost name (the summation variable inside a sum) plus or minus an integer
        # expression, an integer expression minus it, any integer expression, or any, which is refused
        # unless it is an integer
        st.tuples(st.just("call"), st.sampled_from(("c", "b", "a", "binomial")), st.integers(0, 7), st.integers(1, 2),
                  st.one_of(st.tuples(st.sampled_from("+-"), st.just(("name", -1)), _INTEGERS),
                            st.tuples(st.just("-"), _INTEGERS, st.just(("name", -1))), _INTEGERS, children)),
        st.tuples(st.just("H"), st.integers(0, 7)),
        _COLUMN,
        st.tuples(st.just("sum"), children, st.integers(0, 5), st.integers(0, 5), st.integers(0, 7),
                  st.one_of(st.none(), _INTEGERS)),  # the term's divisor, which may be 0
        # a column sum: a plain sum (its term reads m and n, so no upper bound makes it a running sum) of one or two
        # column reads of its variable, times another tree or not
        st.tuples(st.just("columns"), st.lists(_COLUMN, min_size=1, max_size=2), st.one_of(st.none(), children),
                  st.integers(0, 5), st.integers(0, 5), st.integers(0, 7), st.one_of(st.none(), _INTEGERS)),
    )


def _render(tree, names=("m", "n")):
    kind, *args = tree
    if kind == "literal":
        return str(args[0])
    if kind in ("name", "H"):
        name = names[args[0] % len(names)]
        return name if kind == "name" else "H(%s+1)" % name
    if kind == "^":
        return "(%s)^%d" % (_render(args[0], names), args[1])
    if kind == "sign":
        return "(-1)^(%s)" % _render(args[0], names)
    if kind == "/":
        return "(%s)/((%s)^2 + 1)" % (_render(args[0], names), _render(args[1], names))
    if kind in "+-*":
        return "(%s %s %s)" % (_render(args[0], names), kind, _render(args[1], names))
    if kind == "call":
        function, row, offset, column = args
        return "%s(%s+%d, %s)" % (function, names[row % len(names)], offset, _render(column, names))
    if kind == "column":
        sign, a, b, column = args
        a, b = (None if x is None else _render(x, names) for x in (a, b))
        row = (names[-1] if a is None else "%s+%s" % (names[-1], a)) if sign > 0 else "%s-%s" % (a or 0, names[-1])
        return "binomial(%s%s, %s)" % (row, "" if b is None else "-" + b, _render(column, names))
    v = "v%d" % len(names)
    if kind == "sum":
        term, lo, hi, bound, divisor = args
        term = _render(term, names + (v,))
    else:  # m*n times the column reads, and times the other tree if there is one
        columns, other, lo, hi, bound, divisor = args
        term = "*".join(["m", "n", *(_render(x, names + (v,)) for x in columns)]
                        + ([] if other is None else ["(%s)" % _render(other, names + (v,))]))
    name = names[bound % len(names)]
    lo, hi = ("0", "1", name, name + "+1", "-1", "-2")[lo], ("0", "1", name, name + "+1", "m-n", "m-1")[hi]
    if divisor is not None:
        term = "(%s)/(%s)" % (term, _render(divisor, names + (v,)))
    return "sum(%s, %s=%s..%s)" % (term, v, lo, hi)


_TREES = st.recursive(_LEAVES, _extend, max_leaves=6)


# (-1)^(m - n) falls below 0 where n > m, and (-1)^(v - n) in a sum over v = 0..m too
_BELOW_ZERO = ("sign", ("-", ("name", 0), ("name", 1)))
_SUMMED_BELOW_ZERO = ("sum", ("*", ("sign", ("-", ("name", 2), ("name", 1))), ("name", 2)), 0, 2, 0, None)
# column sums, which a line function narrows to their support and reads from column runs (README rule 5):
# eq-amm's inner sum sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1), empty where n >= m
_AMM = ("sum", ("*", ("column", 1, None, None, ("name", 1)),
                ("column", 1, None, None, ("-", ("-", ("name", 0), ("name", 1)), ("literal", 1)))), 0, 5, 0, None)
# thm-b-cube's falling column, sum(k * binomial(2n-k-1,n-1)^2, k=1..n)
_B_CUBE = ("sum", ("*", ("name", 2), ("^", ("column", -1, ("*", ("literal", 2), ("name", 1)), ("literal", 1),
                                              ("-", ("name", 1), ("literal", 1))), 2)), 1, 2, 1, None)
# sum(binomial(j+1,n)*m, j=-1..m), narrowed to j = n-1..m; and sum(binomial(j,n)*m, j=-1..m), whose row -1 the
# line must refuse as the sides do, not narrow away (without the factor m, each would be a running sum along n)
_FROM_ROW_0 = ("sum", ("*", ("column", 1, ("literal", 1), None, ("name", 1)), ("name", 0)), 4, 2, 0, None)
_FROM_ROW_BELOW_0 = ("sum", ("*", ("column", 1, None, None, ("name", 1)), ("name", 0)), 4, 2, 0, None)
# sum(binomial(j,n)*m / (j-3), j=0..m), whose zero denominator at j = 3 no line may skip where n > 3
_ZERO_DENOMINATOR = ("sum", ("*", ("column", 1, None, None, ("name", 1)), ("name", 0)), 0, 2, 0,
                     ("-", ("name", 2), ("literal", 3)))


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES)
@example(_BELOW_ZERO, ("literal", 1)).via("a sign whose exponent falls below 0 at some cells")
@example(("*", _SUMMED_BELOW_ZERO, ("literal", 2)), ("sign", ("+", ("name", 0), ("literal", 3))))
@example(_AMM, ("literal", 0)).via("eq-amm's inner sum, empty at n >= m")
@example(_B_CUBE, ("literal", 0)).via("a falling column")
@example(_FROM_ROW_0, _FROM_ROW_BELOW_0).via("a sum narrowed from row 0, and one whose row -1 raises")
@example(_ZERO_DENOMINATOR, ("literal", 0)).via("a zero denominator in a column sum's term")
def test_random_statements_agree_with_naive_on_every_path(lhs_tree, rhs_tree):
    statement = "%s == %s" % (_render(lhs_tree), _render(rhs_tree))
    try:
        ident = _descriptor_of(statement, ("m", "n"))
    except UsageError:
        return  # a refused statement raises UsageError and nothing else
    with _runs_from(1):  # the same statement with every column sum of a term or more read from runs
        runs = _descriptor_of(statement, ("m", "n"))
    lhs_text, rhs_text = statement.split(" == ")
    cells = [{"m": m, "n": n} for m in range(1, 7) for n in range(1, 7)]
    with keep_partials():
        sides = [(_value(lambda: ident.lhs(**cell)), _value(lambda: ident.rhs(**cell))) for cell in cells]
    for cell, (lhs, rhs) in zip(cells, sides):
        expected = (_value(lambda: naive(lhs_text, cell)), _value(lambda: naive(rhs_text, cell)))
        assert tuple(map(_refused, (lhs, rhs))) == tuple(map(_refused, expected)), (statement, cell)
    # the first refusal the cells meet in order, the left side first, is what a sweep raises
    refusal = next((value for pair in sides for value in pair if value in _REFUSALS), None)
    for compiled in (ident, runs):
        for m in range(1, 7):  # each pair is the sides cross-multiplied by one common denominator
            if any(value in _REFUSALS for pair in sides[6 * m - 6:6 * m] for value in pair):
                with pytest.raises(_REFUSALS):  # never narrowed away: the engine then reruns the line's cells
                    compiled.line(m, list(range(1, 7)))
                continue
            pairs = compiled.line(m, list(range(1, 7)))
            assert len(pairs) == 6
            for (p, q), (lhs, rhs) in zip(pairs, sides[6 * m - 6:6 * m]):
                assert p * rhs == q * lhs and (p == q) == (lhs == rhs), (statement, m)
        for fail_fast in (False, True):
            options = {"ranges": {"m": (1, 6), "n": (1, 6)}, "fail_fast": fail_fast}
            outcome = _outcome(compiled, **options)
            assert outcome == _outcome(_scalar(compiled), **options), statement
            if not fail_fast and refusal is not None:
                assert outcome[0] is refusal, (statement, outcome)


# a chain of one or two comparisons between integer expressions in m and n, from the same leaves
_COMPARISONS = st.lists(st.tuples(st.sampled_from(("<", "<=", ">", ">=")), _INTEGERS), min_size=1, max_size=2)
_CHAINS = st.tuples(_INTEGERS, _COMPARISONS)


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES, _CHAINS)
def test_random_constraints_admit_what_a_naive_reading_admits_on_every_path(lhs_tree, rhs_tree, chain):
    statement = "%s == %s" % (_render(lhs_tree), _render(rhs_tree))
    first, comparisons = chain
    constraint = _render(first) + "".join(" %s %s" % (op, _render(x)) for op, x in comparisons)
    try:
        ident = _descriptor_of(statement, ("m", "n"), constraint)
    except UsageError:
        return  # a refused statement raises UsageError and nothing else
    box = {"m": (1, 6), "n": (1, 6)}
    admitted = [(m, n) for m in range(1, 7) for n in range(1, 7)
                if eval(_python(constraint), {**NAIVE, "m": Fraction(m), "n": Fraction(n)})]
    # the line filter and the per-cell test each admit exactly those cells
    assert [(*head, x) for head, xs in identities._domain_lines(ident, box, False) for x in xs] == admitted, constraint
    assert [(m, n) for m in range(1, 7) for n in range(1, 7) if ident.admits({"m": m, "n": n})] == admitted
    for outside in (False, True):
        for fail_fast in (False, True):
            options = {"ranges": box, "allow_outside_domain": outside, "fail_fast": fail_fast}
            outcome = _outcome(ident, **options)
            assert outcome == _outcome(_scalar(ident), **options), (statement, constraint, options)
            if not (outside or admitted):
                assert outcome[0] is EmptyDomainError, (statement, constraint)
            elif not (isinstance(outcome, tuple) or fail_fast):
                assert outcome.cells == (36 if outside else len(admitted)), (statement, constraint)


# --- the grammar ---------------------------------------------------------------


def _descriptor(statement, constraint=None, names=("n",)):
    return IdentityDescriptor(
        id="test-grammar", statement=statement, parameters=tuple(Parameter(name, 1) for name in names),
        constraint=constraint,
    )


BAD_STATEMENTS = [
    "x == n",  # unknown name
    "sum(c(n,k), j=0..n) == 0",  # k is not bound
    "catalan == n",  # a function as a value
    "n(2) == n",  # a parameter as a function
    "binomial(n) == 1",  # wrong arity
    "n == 1.5 * n",  # float literal
    "n == 2.",
    "n == 1e3",
    "n + 1",  # no ==
    "n = n",
    "n < n + 1",
    "n == n == n",  # doubled ==
    "n == (n == n)",
    "sum(k, n=1..3) == 6",  # the variable shadows the parameter
    "sum(sum(k, k=1..j), j=1..n) == sum(sum(k, k=1..n), k=1..n)",  # shadows an outer variable
    "sum(k, H=1..n) == 0",  # shadows a function
    "sum(k, range=1..n) == 0",  # shadows what the generated code calls
    "sum(z, k=0..n) == 0",  # an unknown name in a running sum
    "sum(sum(w, k=0..n), w=0..2) + sum(w, k=0..n) == 0",  # a running sum used again where w is unknown
    "n == n extra",  # trailing text
    "n == n)",
    "n == n # + 1",
    "n == n; n",
    "n == n\n+ 1",
    "sum(k, k, 1, n) == 0",  # a sum not written with v=lo..hi
    "sum(k, k=1..n, j=1..n) == 0",
    "n == 'n'",
    "n == n[0]",
    "n == n // 2",
    "n == c(n/2, 1)",  # a rational argument
    "sum(k, k=1/2..n) == 0",
    "n == 2^(1/2)",
]


@pytest.mark.parametrize("statement", BAD_STATEMENTS)
def test_a_bad_statement_is_a_usage_error(statement):
    with pytest.raises(UsageError, match="test-grammar"):
        register(_descriptor(statement))
    assert "test-grammar" not in identities._REGISTRY


@pytest.mark.parametrize("constraint", ["n", "n <= x", "n <= 1.5", "n <= n/2", "n <= n)", "n == 1", "n != 1"])
def test_a_bad_constraint_is_a_usage_error(constraint):
    with pytest.raises(UsageError):
        register(_descriptor("n == n", constraint))
    assert "test-grammar" not in identities._REGISTRY


@pytest.mark.parametrize("names", [("n", "n"), ("_n",), ("H",), ("sum",), ("range",), ("lambda",), ("Fraction",)])
def test_a_bad_parameter_name_is_a_usage_error(names):
    with pytest.raises(UsageError):
        register(_descriptor("1 == 1", names=names))


def test_constraints_compile_to_comparison_chains():
    ident = identities._compiled(_descriptor("n == n", "1 < n <= 2*m - 1", names=("m", "n")))
    assert [(m, n) for m in range(1, 4) for n in range(1, 7) if ident.admits({"m": m, "n": n})] == [
        (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (3, 5)
    ]


@pytest.mark.parametrize(
    "identity, old, new",
    [
        ("eq-linear-A", "(n+1) * catalan", "(n+2) * catalan"),
        ("thm-square-sum", "2/m * sum", "3/m * sum"),
        ("cor-harmonic-B", "(2n*H(n)-1)", "(2n*H(n)-2)"),
        ("thm-harmonic", "c(m,k) * H(k)", "c(m,k) * H(k+1)"),
    ],
)
def test_a_changed_coefficient_yields_mismatches(identity, old, new):
    # the sides are read from the statement: edit it and the sweep fails
    true = get_identity(identity)
    assert old in true.statement
    changed = IdentityDescriptor(
        id=identity + "-changed", statement=true.statement.replace(old, new), parameters=true.parameters,
        constraint=true.constraint,
    )
    assert verify_identity(true, cap=8).passed
    report = verify_identity(changed, cap=8)
    assert report.mismatches and report.cells == verify_identity(true, cap=8).cells


def test_hand_written_sides_are_kept():
    ident = _descriptor("n == n + 1")
    ident = IdentityDescriptor(ident.id, ident.statement, ident.parameters, lhs=lambda n: n, rhs=lambda n: n)
    assert verify_identity(ident, cap=5).passed  # the statement is not what is checked


def test_h_below_one_raises_as_harmonic_does():
    for statement in ("sum(H(k), k=0..n) == 0", "sum(H(k)*H(k), k=0..n) == 0", "H(n-1) == 0"):
        with pytest.raises(DomainError):
            evaluate_sides(_descriptor(statement), {"n": 1})
    # an empty sum reads no harmonic number at all
    assert evaluate_sides(_descriptor("sum(H(k-5), k=1..n-1) == 0"), {"n": 1}) == (0, 0)


# --- the reader against the regular expressions it replaced ---------------------

_PRODUCT = re.compile(r"\b(\d+)(?=[A-Za-z_(])")  # 2n -> 2*n, 3(n+1) -> 3*(n+1)
_RANGE = re.compile(r",\s*([A-Za-z_]\w*)\s*=(?!=)(.*?)\.\.")  # , v=lo.. -> , v, lo,
_SUM_CALL = re.compile(r"\bsum\s*\(")


def _regex_rewrite(text):
    return _RANGE.subn(r", \1, \2, ", _PRODUCT.sub(r"\1*", text.replace("^", "**")))


def _regex_parse(text):
    """statements._parse with _PRODUCT, _RANGE and re.findall in place of its character scans: their reference.

    A sum is counted where the rewritten source calls the word sum, so that
    2sum( counts as the 2*sum( it reads as, and a keyword or attribute sum
    does not.
    """
    if not statements._CHARACTERS.issuperset(text):
        raise UsageError("unexpected character in %r" % text)
    source, ranges = _regex_rewrite(text)
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError:
        raise UsageError("cannot parse %r" % text) from None
    if len(_SUM_CALL.findall(source)) != ranges:
        raise UsageError("write every sum as sum(term, v=lo..hi) in %r" % text)
    return tree


def _read(parse, text):
    """The tree parse reads from text, dumped, or the type and message of what it raised."""
    try:
        return ast.dump(parse(text))
    except Exception as exc:
        return type(exc), str(exc)


def _reads_as_the_regular_expressions_read(text):
    if statements._CHARACTERS.issuperset(text):
        assert statements._rewrite(text) == _regex_rewrite(text)
        source = statements._rewrite(text)[0]
        assert statements._sums(source) == len(_SUM_CALL.findall(source))
    assert _read(statements._parse, text) == _read(_regex_parse, text)


# texts near the shapes the reader rewrites: a number before sum, sum as a keyword and an attribute, == after a
# range's variable, a newline before its .., whitespace around its variable, a variable that starts with a digit,
# two .. and a comma inside a lower bound
_NEAR_MISSES = [
    "2sum(k, k=1..n) == n", "n == c(n, sum=1)", "n.sum == 0", "sum(k, k==1..n) == 0", "sum(k, k=1\n..n) == 0",
    "sum(k,\tk\t=1..n) == 0", "sum(k,\n k =\n1..n) == 0", "sum(k, 2k=1..n) == 0", "sum(k, k=1..2..n) == 0",
    "sum(k, k=c(1,j=2..3)..n) == 0", "2_n + 3(n) + 4n2 + n5(1) == 0",
]


@pytest.mark.parametrize(
    "text, refusal",
    [
        ("2sum(k, k=1..n) == n*(n+1)", None),
        ("n == c(n, sum=1)", "unsupported expression 'c(n, sum=1)'"),
        ("n.sum == 0", "unsupported expression 'n.sum'"),
    ],
)
def test_the_reader_counts_the_sums_the_grammar_reads(text, refusal):
    # 2sum is 2*sum, as 2n is 2*n; a sum that is no call is refused by the compiler with its own message, not
    # with the one for a sum without its range
    if refusal is None:
        sides = statements.compile_identity(("n",), {}, text)
        assert [(sides["lhs"](n=n), sides["rhs"](n=n)) for n in range(5)] == [(n * (n + 1),) * 2 for n in range(5)]
    else:
        with pytest.raises(UsageError) as raised:
            statements.compile_identity(("n",), {}, text)
        assert str(raised.value) == refusal
    _reads_as_the_regular_expressions_read(text)


def test_every_built_in_text_reads_as_the_regular_expressions_read_it():
    # the 39 identities, the 5 claims and the oracle's statements
    texts = [ident.statement for ident in [*ORACLE.values(), *conjectures._STATEMENTS.values()]]
    assert len(texts) == 39 + 5 + len(PATHS)
    for text in texts + BAD_STATEMENTS + _NEAR_MISSES:
        _reads_as_the_regular_expressions_read(text)


# pieces of statements, near misses of the rewritten shapes among them
_PIECES = ["sum", "sum(", "(", ")", ",", ", ", " ", "\t", "\n", "k", "n", "v2", "_x", "=", "==", "..", ".", "0", "2", "12",
           "^", "*", "+", "-", "/", "<=", "c(", "H(", "k=1..n", ", k=", "=\n", "x2", "2n", "3(", "2_", "sum2", "_sum", "é"]


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(sorted(statements._CHARACTERS)),
    st.lists(st.sampled_from(_PIECES)).map("".join),
    st.builds(lambda lhs, rhs: "%s == %s" % (_render(lhs), _render(rhs)), _TREES, _TREES),
))
def test_any_text_reads_as_the_regular_expressions_read_it(text):
    _reads_as_the_regular_expressions_read(text)


def test_import_compiles_nothing_and_a_lookup_compiles_only_its_identity():
    # a built-in's sides come from the table of prebuilt code, so the compiler itself runs for none of them
    code = "\n".join([
        "from catalan_triangles import identities, statements",
        "compiled = []",
        "real = statements.compile_identity",
        "statements.compile_identity = lambda *args: compiled.append(args) or real(*args)",
        "assert all(i.lhs is None and i.rhs is None for i in identities._REGISTRY.values())",
        "first = identities.get_identity('thm-harmonic')",
        "assert identities.get_identity('thm-harmonic') is first",
        "assert compiled == [], compiled",
        "print(' '.join(i.id for i in identities._REGISTRY.values() if i.lhs is not None))",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "thm-harmonic\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "b-cubes", "--p", "3", "--n", "1..6"],
        ["scan", "a-cubes", "--p", "3", "--n", "1..6"],
        ["scan", "mixed", "--n", "1..4", "--m", "1..4"],
        ["seq", "c-row:12", "0", "13"],
        ["value", "c", "6", "2"],
        ["scan", "c-powers", "--p", "3", "--m", "2..6"],
    ],
    ids=" ".join,
)
def test_only_the_scans_load_the_compiler(argv):
    # seq and value never load the compiler, and every scan's claims come from the table of prebuilt code
    code = "\n".join([
        "import contextlib, io, sys",
        "from catalan_triangles import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(%r) == 0" % (argv,),
        "print('catalan_triangles.statements' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


_LEG = ["scan", "c-powers", "--p", "7", "--m", "2..30", "--checkpoint", "{}", "--limit", "100", "--no-timing"]


@pytest.mark.parametrize(
    "argv, legs, imported",
    [
        (["verify", "thm-harmonic", "--no-timing"], 0, ["catalan_triangles._prebuilt"]),
        (_LEG, 0, ["catalan_triangles._prebuilt"]),
        (_LEG, 1, ["catalan_triangles._prebuilt"]),
        (["seq", "c-row:300", "0", "301"], 0, []),
    ],
    ids=["verify", "scan first leg", "scan resumed leg", "seq"],
)
def test_a_timed_command_first_imports_only_the_compiler(tmp_path, argv, legs, imported):
    # a benchmark op times cli.main after its child's own imports (perfbench/ops.py: cli, conjectures and identities),
    # which load no compiler: a module a command imports first is timed in each process it runs in, and the one is
    # the table of the built-in statements' prebuilt code, loaded by the first lookup; the compiler is never loaded
    argv = [arg.format(tmp_path / "checkpoint.json") for arg in argv]
    code = "\n".join([
        "import contextlib, io, sys",
        "from catalan_triangles import cli, conjectures, identities",
        "assert 'catalan_triangles.statements' not in sys.modules",
        "before = set(sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(%r) == 0" % (argv,),
        "print(sorted(set(sys.modules) - before))",
    ])
    for _ in range(legs):  # the legs before, each in a process of its own
        assert subprocess.run([sys.executable, "-m", "catalan_triangles", *argv], capture_output=True).returncode == 0
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "%s\n" % imported


def test_the_source_generated_for_the_built_in_statements_is_pinned():
    # tests/generated_sources.py prints each built-in statement's generated source; a change that means to keep
    # the generated code (a faster compiler, say) keeps this digest, and one that means to change it gives the
    # new digest here with what changed and why
    run = subprocess.run([sys.executable, str(Path(__file__).parent / "generated_sources.py")], capture_output=True)
    assert run.returncode == 0, run.stderr
    assert len(json.loads(run.stdout)) == 39 + 5
    assert hashlib.sha256(run.stdout).hexdigest() == "2f0a3e9feead3a3b4dc440e624d301a4f80c6afa0cead6b8ce824bc93477f1ae"
