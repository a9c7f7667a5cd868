"""Mutation analysis of the row kernels and the row tables' index guard (DeMillo, Lipton & Sayward, 1978; Voas &
McGraw, 1998).

exact.c_run, exact.binomials and triangles._row_slice are mutated with ast,
one edit per mutant: a raise deleted, a comparison negated, or a bound of a
range() or a slice moved by one.  Each mutant is written into a copy of the
package, and test_binomial_runs.py and test_triangles.py run against it in a
subprocess; a failing run kills it.  The mutants they do not kill are pinned
by text, each with the reason it changes no value the kernels give or the
checks they make.

The guard 0 <= column < len(table) that statements._Compiler.entry writes
around each table read is mutated by text, since it is a string the compiler
formats: each bound moved by one, the upper comparison loosened to <=, and
each comparison dropped.  test_statements.py's fast table test must kill
every one.  The tests here run a seeded draw of the mutants;

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


def guard_mutants() -> list[tuple[str, str, str, str, str]]:
    """The index guard's mutants, as mutants() gives them."""
    source = (PACKAGE / "statements.py").read_text()
    assert source.count(_GUARD) == 1, "statements._Compiler.entry no longer writes the guard %r" % _GUARD
    return [("statements.py", "entry", _GUARD, guard, source.replace(_GUARD, guard)) for guard in GUARDS]


def killed(name: str, mutated: str) -> bool:
    """Whether the kernel tests, or for statements.py the guard's tests, fail against a copy of the package with
    file name holding mutated."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = shutil.copytree(PACKAGE, Path(tmp) / "catalan_triangles", ignore=shutil.ignore_patterns("__pycache__"))
        (copy / name).write_text(mutated)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        tests = GUARD_TESTS if name == "statements.py" else KERNEL_TESTS
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
    assert len(set(guard_mutants())) == len(GUARDS) == 7


@pytest.mark.parametrize(
    "name, function, old, new, mutated",
    [
        pytest.param(*mutant, id="%s: %s" % mutant[1::2])
        for mutant in random.Random(SEED).sample(mutants(), DRAWN) + random.Random(SEED).sample(guard_mutants(), 1)
    ],
)
def test_a_drawn_kernel_mutant_is_killed_unless_pinned(name, function, old, new, mutated):
    assert killed(name, mutated) == ((function, old, new) not in _pinned()), (function, old, new)


if __name__ == "__main__":
    wrong = []
    for name, function, old, new, mutated in mutants() + guard_mutants():
        outcome = killed(name, mutated)
        print("%-8s %s: %s -> %s" % ("killed" if outcome else "survived", function, old, new), flush=True)
        if outcome == ((function, old, new) in _pinned()):
            wrong.append((function, old, new))
    print("%d mutants, %d unpinned survivors or killed pins" % (MUTANTS + len(GUARDS), len(wrong)))
    for mutant in wrong:
        print("wrong:", mutant)
    sys.exit(1 if wrong else 0)
