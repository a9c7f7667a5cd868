"""Mutation analysis of the row kernels, the row tables and the compiler's generated guards (DeMillo, Lipton &
Sayward, 1978; Voas & McGraw, 1998).

exact.c_run, exact.binomials and triangles._row_slice are mutated with ast,
one edit per mutant: a raise deleted, a comparison negated, or a bound of a
range() or a slice moved by one.  Each mutant is written into a copy of the
package, and test_binomial_runs.py and test_triangles.py run against it in a
subprocess; a failing run kills it.  The mutants they do not kill are pinned
by text, each with the reason it changes no value the kernels give or the
checks they make.

Three more groups are mutated by text, one line replaced per mutant, each
against a fast test of test_statements.py that must kill every one:

* the guard 0 <= column < len(table) that statements._Compiler.entry writes
  around each table read, a string the compiler formats: each bound moved by
  one, the upper comparison loosened to <=, and each comparison dropped;
* the code statements._Compiler.support and .columns write for a column sum
  (README rule 5): each bound it narrows to moved by one, each guard that no
  row falls below 0 loosened from >= to > or dropped, and the offset of the
  runs' reads moved by one;
* identities._table: its width rule, its row's end, its zero padding before
  a kind's first column, and the Pascal run and mirror, each moved by one.

The tests here run a seeded draw of the mutants;

    PYTHONPATH=src python tests/test_kernel_mutants.py

runs every one and exits 1 if a mutant survives unpinned or a pinned one is
killed.
"""

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from itertools import accumulate
from pathlib import Path

import pytest

import catalan_triangles

PACKAGE = Path(catalan_triangles.__file__).parent
TESTS = Path(__file__).parent
KERNELS = {"exact.py": ("binomials", "c_run"), "triangles.py": ("_row_slice",)}
KERNEL_TESTS = ["test_binomial_runs.py", "test_triangles.py"]
GUARD_TESTS = ["test_statements.py::test_a_line_reads_each_table_entry_the_sides_read_by_call"]
COLUMN_TESTS = ["test_statements.py::test_a_line_evaluates_a_column_sum_over_its_support_only"]
TABLE_TESTS = ["test_statements.py::test_a_table_is_its_entry_function_over_its_columns"]
MUTANTS, DRAWN, SEED = 74, 3, 1
# the line of statements._Compiler.entry that writes a table read with its index guard, and the guard's mutants
_GUARD = 'return "(%s[%s] if 0 <= %s < %sn else (0 if %sn else %s(%s, %s)))" % (t, e, e, t, t, FUNCTIONS[name][0], r, e)'
GUARDS = [
    *(_GUARD.replace("0 <= %s < %sn", guard) for guard in (
        "-1 <= %s < %sn", "1 <= %s < %sn", "0 <= %s < %sn + 1", "0 <= %s < %sn - 1", "0 <= %s <= %sn", "%s < %sn"
    )),
    # without its upper comparison the guard formats one t fewer
    'return "(%s[%s] if 0 <= %s else (0 if %sn else %s(%s, %s)))" % (t, e, e, t, FUNCTIONS[name][0], r, e)',
]
_RISING, _FALLING = 'guards.append("%s >= 0" % _plus(k, a))', 'guards.append("%s >= 0" % _minus(a, h))'
_READ = 'inner.runs[factor] = "(%s[%s - %s] if %s else binomial(%s, %s))" % ('
_ZEROS = "return [0] * first + _row_slice(kind, r, first, end)"
_HALF, _MIRROR = "half = binomials(r, 0, 0, 1, r // 2 + 1)", "return half + half[:(r + 1) // 2][::-1]"
# The text mutants: (file, function, a line as the source has it, the lines that replace it in each mutant, the
# tests that must kill every one)
TEXTS = [
    ("statements.py", "entry", _GUARD, GUARDS, GUARD_TESTS),
    # the lower bound a rising row narrows to, and the upper bound a falling row narrows to
    ("statements.py", "support", "low = _minus(e, a)",
     ['low = _minus(e, a) + " + 1"', 'low = _minus(e, a) + " - 1"'], COLUMN_TESTS),
    ("statements.py", "support", "high = _minus(a, e)",
     ['high = _minus(a, e) + " + 1"', 'high = _minus(a, e) + " - 1"'], COLUMN_TESTS),
    # each guard that no row falls below 0 in the range, loosened and dropped
    ("statements.py", "support", _RISING, [_RISING.replace(">=", ">"), 'guards.append("True")'], COLUMN_TESTS),
    ("statements.py", "support", _FALLING, [_FALLING.replace(">=", ">"), 'guards.append("True")'], COLUMN_TESTS),
    # the offset of a run's read
    ("statements.py", "columns", _READ,
     [_READ.replace("[%s - %s]", "[%s - %s + 1]"), _READ.replace("[%s - %s]", "[%s - %s - 1]")], COLUMN_TESTS),
    ("identities.py", "_table", "if end > width:", ["if end >= width:", "if end > width + 1:"], TABLE_TESTS),
    ("identities.py", "_table", "end = r + extra + 1", ["end = r + extra", "end = r + extra + 2"], TABLE_TESTS),
    ("identities.py", "_table", _ZEROS,
     [_ZEROS.replace("[0] * first", "[0] * (first + 1)"), _ZEROS.replace("[0] * first", "[0] * (first - 1)"),
      _ZEROS.replace("[0] * first + ", "")], TABLE_TESTS),
    ("identities.py", "_table", _HALF, [_HALF.replace("r // 2 + 1", "r // 2 + 2"), _HALF.replace("r // 2 + 1", "r // 2")],
     TABLE_TESTS),
    ("identities.py", "_table", _MIRROR,
     [_MIRROR.replace("(r + 1) // 2]", "(r + 1) // 2 + 1]"), _MIRROR.replace("(r + 1) // 2]", "(r + 1) // 2 - 1]")],
     TABLE_TESTS),
]
_NUMERATORS = "map(mul, range(m - j, m - end, -1), range(m - 2 * j - 2, m - 2 * end - 2, -2)),"
_DENOMINATORS = "map(mul, range(j + 1, end + 1), range(m - 2 * j, m - 2 * end, -2)),"
# The mutants the kernel tests do not kill, by reason: (function, a line as the source has it, then the lines that
# replace it in each mutant).  Every other mutant is killed.  Each pinned one gives the same values and checks.
SURVIVORS = {
    # map(mul, x, y) stops at the shorter of x and y, so a range one longer than its partner adds no step
    "a c_run factor range one longer than the range it is multiplied with": [
        ("c_run", _NUMERATORS,
         "map(mul, range(m - j, m - end - 1, -1), range(m - 2 * j - 2, m - 2 * end - 2, -2)),",
         "map(mul, range(m - j, m - end, -1), range(m - 2 * j - 2, m - 2 * end - 2 - 1, -2)),"),
        ("c_run", _DENOMINATORS,
         "map(mul, range(j + 1, end + 1 + 1), range(m - 2 * j, m - 2 * end, -2)),",
         "map(mul, range(j + 1, end + 1), range(m - 2 * j, m - 2 * end - 1, -2)),"),
    ],
    # range(a, b, -2) and range(a, b + 1, -2) hold the same values when a - b is even
    "a stop moved by one on a c_run range of step -2 that keeps its values": [
        ("c_run", _NUMERATORS, "map(mul, range(m - j, m - end, -1), range(m - 2 * j - 2, m - 2 * end - 2 + 1, -2)),"),
        ("c_run", _DENOMINATORS, "map(mul, range(j + 1, end + 1), range(m - 2 * j, m - 2 * end + 1, -2)),"),
    ],
}

_NEGATED = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _moved(node: ast.expr, step: int) -> ast.expr:
    return ast.BinOp(node, ast.Add() if step > 0 else ast.Sub(), ast.Constant(1))


def _edits(node: ast.AST):
    """(the node that replaces node, for each mutation of it); a deleted raise is a pass."""
    if isinstance(node, ast.Raise):
        yield ast.Pass()
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            yield ast.Compare(node.left, node.ops[:i] + [_NEGATED[type(op)]()] + node.ops[i + 1:], node.comparators)
    elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
        for i in range(min(2, len(node.args))):
            for step in (1, -1):
                yield ast.Call(node.func, node.args[:i] + [_moved(node.args[i], step)] + node.args[i + 1:], node.keywords)
    elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        for bound in ("lower", "upper"):
            if getattr(node.slice, bound) is not None:
                for step in (1, -1):
                    moved = ast.Slice(node.slice.lower, node.slice.upper, node.slice.step)
                    setattr(moved, bound, _moved(getattr(node.slice, bound), step))
                    yield ast.Subscript(node.value, moved, node.ctx)


def mutants() -> list[tuple[str, str, str, str, str]]:
    """(file, function, line, mutated line, mutated source of the file) for each mutant, in source order."""
    found = []
    for name, functions in KERNELS.items():
        source = (PACKAGE / name).read_text()
        offsets = [0, *accumulate(map(len, source.splitlines(keepends=True)))]  # of each line's start
        for function in ast.parse(source).body:
            if not (isinstance(function, ast.FunctionDef) and function.name in functions):
                continue
            for node in ast.walk(function):
                for edit in _edits(node):
                    first, last = offsets[node.lineno - 1], offsets[node.end_lineno]
                    start, end = first + node.col_offset, offsets[node.end_lineno - 1] + node.end_col_offset
                    mutated = source[:start] + ast.unparse(edit) + source[end:]
                    old = " ".join(source[first:last].split())
                    new = " ".join(mutated[first:last + len(mutated) - len(source)].split())
                    found.append((name, function.name, old, new, mutated))
    return found


def text_mutants() -> list[tuple[str, str, str, str, str]]:
    """The text mutants, as mutants() gives them."""
    found = []
    for name, function, old, news, _ in TEXTS:
        source = (PACKAGE / name).read_text()
        assert source.count(old) == 1, "%s no longer holds the line %r once" % (name, old)
        found += [(name, function, old, new, source.replace(old, new)) for new in news]
    return found


def killed(name: str, function: str, mutated: str) -> bool:
    """Whether the tests of function (the kernels', or those TEXTS names) fail against a copy of the package with
    file name holding mutated."""
    tests = next((tests for file, owner, _, _, tests in TEXTS if (file, owner) == (name, function)), KERNEL_TESTS)
    with tempfile.TemporaryDirectory() as tmp:
        copy = shutil.copytree(PACKAGE, Path(tmp) / "catalan_triangles", ignore=shutil.ignore_patterns("__pycache__"))
        (copy / name).write_text(mutated)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        run = subprocess.run(argv + [str(TESTS / test) for test in tests], capture_output=True, text=True,
                             cwd=tmp, env=env, timeout=600)
    assert run.returncode in (0, 1, 2), run.stdout + run.stderr  # passed, failed, or broken at collection
    return run.returncode != 0


def _pinned() -> set[tuple[str, str, str]]:
    return {(function, old, new) for edits in SURVIVORS.values() for function, old, *news in edits for new in news}


def test_the_kernel_mutants_are_counted_and_every_pin_names_one():
    keys = [(function, old, new) for _, function, old, new, _ in mutants()]
    assert len(keys) == len(set(keys)) == MUTANTS
    assert not _pinned() - set(keys), "pinned mutants that no longer exist: %s" % sorted(_pinned() - set(keys))
    texts = text_mutants()
    assert len(set(texts)) == len(texts) == sum(len(news) for _, _, _, news, _ in TEXTS) == 7 + 10 + 11


def _drawn():
    """DRAWN kernel mutants, then one text mutant of each group: the index guard, the column sums and _table."""
    texts = text_mutants()
    groups = [[mutant for mutant in texts if mutant[:2] in keys] for keys in (
        {("statements.py", "entry")}, {("statements.py", "support"), ("statements.py", "columns")},
        {("identities.py", "_table")},
    )]
    return random.Random(SEED).sample(mutants(), DRAWN) + [random.Random(SEED).sample(group, 1)[0] for group in groups]


@pytest.mark.parametrize("name, function, old, new, mutated", [
    pytest.param(*mutant, id="%s: %s" % mutant[1::2]) for mutant in _drawn()
])
def test_a_drawn_kernel_mutant_is_killed_unless_pinned(name, function, old, new, mutated):
    assert killed(name, function, mutated) == ((function, old, new) not in _pinned()), (function, old, new)


if __name__ == "__main__":
    wrong, every = [], mutants() + text_mutants()
    for name, function, old, new, mutated in every:
        outcome = killed(name, function, mutated)
        print("%-8s %s: %s -> %s" % ("killed" if outcome else "survived", function, old, new), flush=True)
        if outcome == ((function, old, new) in _pinned()):
            wrong.append((function, old, new))
    print("%d mutants, %d unpinned survivors or killed pins" % (len(every), len(wrong)))
    for mutant in wrong:
        print("wrong:", mutant)
    sys.exit(1 if wrong else 0)
