"""The table of the built-in statements' prebuilt code (catalan_triangles/_prebuilt.py):
it is the generator's output, it serves every built-in without the compiler,
any other text still compiles at run time, and its code reads the entry
functions in identities at call time."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from catalan_triangles import _prebuilt, identities
from catalan_triangles.identities import IdentityDescriptor, Parameter, get_identity, register

TESTS = Path(__file__).parent


def test_the_checked_in_table_is_the_generators_output():
    # after an edit of statements.py that changes the generated code, regenerate it with the command in its docstring
    run = subprocess.run([sys.executable, str(TESTS / "generated_sources.py"), "--module"], capture_output=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == Path(_prebuilt.__file__).read_bytes()


def test_every_built_in_is_served_from_the_table_without_the_compiler():
    # each side, line and filter is a function of its factory's code, in a process that never loads statements
    code = "\n".join([
        "import sys",
        "from catalan_triangles import conjectures, identities",
        "from catalan_triangles._prebuilt import BUILT",
        "texts = [(r, ident) for r in (identities._REGISTRY, conjectures._STATEMENTS) for ident in list(r.values())]",
        "keys = [(ident.parameter_names(), ident.statement, ident.constraint) for _, ident in texts]",
        "for (registry, ident), key in zip(texts, keys):",
        "    built = identities._lookup(ident.id, registry)",
        "    nested = [id(const) for const in BUILT[key].__code__.co_consts]",
        "    fns = [built.lhs, built.rhs, built.line] + ([built.constraint, built.admit] if key[2] else [])",
        "    assert all(id(fn.__code__) in nested and fn.__globals__ is vars(identities) for fn in fns), ident.id",
        "print(len(texts), len(set(keys)), 'catalan_triangles.statements' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "44 42 False\n"  # eq-square-B and -A share their texts with cor-square-ii and -iii


def _compiled_at_run_time(ident):
    return all(fn.__code__.co_filename == "<statement>" for fn in (ident.lhs, ident.rhs, ident.line))


def test_a_text_not_in_the_table_compiles_at_run_time():
    registered = register(IdentityDescriptor(
        "prebuilt-test-registered", "sum(binomial(n,k), k=0..n) == 2^n", (Parameter("n", 0),)
    ))
    try:
        assert _compiled_at_run_time(registered)
        assert [registered.lhs(n=n) for n in range(5)] == [1, 2, 4, 8, 16]
    finally:
        del identities._REGISTRY[registered.id]
    base = get_identity("prop-recurrence")
    assert not _compiled_at_run_time(base)
    spaced = base.statement.replace(" ", "\t", 1)  # one character changed, the same identity
    assert spaced != base.statement
    mutant = identities._compiled(replace(base, statement=spaced, lhs=None, rhs=None))
    assert _compiled_at_run_time(mutant)
    cells = [(m, k) for m in range(1, 9) for k in range(2, m + 3)]
    assert [mutant.lhs(m=m, k=k) for m, k in cells] == [base.lhs(m=m, k=k) for m, k in cells]
    assert mutant.line(9, range(2, 12)) == base.line(9, range(2, 12))


def test_patching_an_entry_function_reaches_a_table_served_line_and_its_sides(monkeypatch):
    # the fault-injection tests rebind identities._c_ext; the prebuilt code must read it there at call time
    ident = get_identity("prop-recurrence")
    assert not _compiled_at_run_time(ident)
    real, calls = identities._c_ext, []
    monkeypatch.setattr(identities, "_c_ext", lambda m, k: calls.append((m, k)) or real(m, k) + 1)
    assert ident.lhs(m=4, k=2) == real(6, 2) + 1
    assert ident.rhs(m=4, k=2) == real(4, 2) + 2 * real(4, 1) + real(4, 0) + 4
    # a row wider than twice the line's cells gets no table, so the line calls the entry function
    assert ident.line(40, [5]) == [(real(42, 5) + 1, real(40, 5) + 2 * real(40, 4) + real(40, 3) + 4)]
    assert calls == [(6, 2), (4, 2), (4, 1), (4, 0), (42, 5), (40, 5), (40, 4), (40, 3)]
