"""Mutation analysis of the statement layer (DeMillo, Lipton & Sayward, 1978).

Every registered statement and every conjecture statement is mutated in
each of its integer literals (+1 and -1), each binary + or - (swapped) and
each sum bound (+1 and -1), and printed back into the grammar.  A sweep of
each mutant at cap 6 must report the same on the line path as on the cell
path, inside the domain and outside it; a mutant the compiler refuses must
raise UsageError.  The number of mutants the sweep kills is pinned: a drop
means a cap too small or an engine that stopped seeing a mismatch.

Conjecture one's relation (a zero divisor or a non-zero remainder) gets the
same oracle: each mutant of the c claim's text is scanned with that
relation on the claim's line function and cell by cell."""

import ast
import copy
import functools
from dataclasses import replace

import pytest

from catalan_triangles import conjectures, identities, statements
from catalan_triangles.errors import UsageError
from catalan_triangles.conjectures import divisibility_claim
from catalan_triangles.identities import list_identities, verify_identity

CAP = 6
STATEMENTS = {ident.id: ident for ident in list_identities()} | conjectures._STATEMENTS
# the c lines the claim's mutants are scanned on, the exponents, and the (mutant, p) runs that report a
# finding: the four runs that report none put the lower bound at -1, whose extra term c(m,-1) is 0
C_LINES = [line for line in conjectures._domain_lines("divisibility-c", {"m": (2, 9), "n": (1, 8)}) if line[1]]
C_EXPONENTS, C_FINDINGS = (3, 5), 14
# mutants, those the compiler refuses, and those whose sweep at CAP inside the domain does not pass (a
# mismatch, or 67 that raise DomainError or ZeroDivisionError); the 39 registered statements give 766
# mutants and 672 kills
MUTANTS, REFUSED, KILLED = 852, 0, 748

_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _text(node: ast.AST) -> str:
    """node printed back into the statement grammar, with every operation in parentheses."""
    if isinstance(node, ast.Constant):
        return str(node.value) if node.value >= 0 else "(-%d)" % -node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.UnaryOp):
        return "(%s%s)" % ("-" if isinstance(node.op, ast.USub) else "+", _text(node.operand))
    if isinstance(node, ast.BinOp):
        return "(%s %s %s)" % (_text(node.left), _OPERATORS[type(node.op)], _text(node.right))
    if isinstance(node, ast.Compare):  # a statement's one ==
        return "%s == %s" % (_text(node.left), _text(node.comparators[0]))
    args = [_text(arg) for arg in node.args]
    if node.func.id == "sum":
        return "sum(%s, %s=%s..%s)" % tuple(args)
    return "%s(%s)" % (node.func.id, ", ".join(args))


def _mutants(statement: str) -> list[str]:
    """The texts of statement with one literal +-1, one + and - swapped, or one sum bound +-1."""
    tree = statements._parse(statement)
    sites = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Constant):
            sites += [(i, None, 1), (i, None, -1)]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            sites.append((i, None, 0))
        elif isinstance(node, ast.Call) and node.func.id == "sum":
            sites += [(i, bound, step) for bound in (2, 3) for step in (1, -1)]
    texts = []
    for i, bound, step in sites:
        mutant = copy.deepcopy(tree)
        node = list(ast.walk(mutant))[i]
        if bound is not None:
            node.args[bound] = ast.BinOp(node.args[bound], ast.Add() if step > 0 else ast.Sub(), ast.Constant(1))
        elif step:
            node.value += step
        else:
            node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
        texts.append(_text(mutant))
    return texts


def _outcome(ident, **options):
    """The report of a sweep, or the type of what it raised."""
    try:
        return verify_identity(ident, cap=CAP, **options)
    except Exception as exc:
        return type(exc)


@functools.cache
def _sweeps(identity: str) -> list[tuple]:
    """(mutant, line path, cell path, line path outside, cell path outside) for each mutant of identity.

    The line path is the compiled mutant, the cell path the same sides wrapped in new callables;
    outside is with allow_outside_domain.  A mutant the compiler refuses has UsageError throughout.
    """
    base = STATEMENTS[identity]
    sweeps = []
    for text in _mutants(base.statement):
        try:
            ident = identities._compiled(replace(base, statement=text, lhs=None, rhs=None))
        except UsageError:
            sweeps.append((text,) + (UsageError,) * 4)
            continue
        lhs, rhs = ident.lhs, ident.rhs
        cells = replace(ident, lhs=lambda **cell: lhs(**cell), rhs=lambda **cell: rhs(**cell))
        assert ident.line is not None and cells.line is None
        outcomes = [_outcome(path, allow_outside_domain=outside) for outside in (False, True) for path in (ident, cells)]
        sweeps.append((text, *outcomes))
    return sweeps


def test_the_statements_print_back_into_the_grammar():
    assert len(STATEMENTS) == 39 + 3
    for ident in STATEMENTS.values():
        tree = statements._parse(ident.statement)
        assert ast.dump(statements._parse(_text(tree))) == ast.dump(tree), ident.id


@pytest.mark.parametrize("identity", sorted(STATEMENTS))
def test_every_mutant_reports_the_same_on_the_line_and_on_the_cells(identity):
    for text, line, cells, line_outside, cells_outside in _sweeps(identity):
        assert line == cells and line_outside == cells_outside, text


def test_the_mutants_killed_at_cap_6_are_pinned():
    sweeps = [sweep for identity in sorted(STATEMENTS) for sweep in _sweeps(identity)]
    refused = [text for text, line, *_ in sweeps if line is UsageError]
    killed = [text for text, line, *_ in sweeps if line is not UsageError and not getattr(line, "passed", False)]
    assert (len(sweeps), len(refused), len(killed)) == (MUTANTS, REFUSED, KILLED)


def _scan(p: int, on_cells: bool):
    """(cells checked, records of the failed cells) of a c scan of C_LINES at p, or the type of what it raised.

    Both paths use conjectures._check's relation and records; on_cells replaces the line function by
    divisibility_claim at each cell."""
    claim_fn = (lambda cell: divisibility_claim("c", p, cell)) if on_cells else None
    names, at, fails, line, record = conjectures._check("divisibility-c", p, claim_fn)
    assert (line is None) == on_cells
    try:
        failed, checked = identities._lines("divisibility-c", C_LINES, names, at, fails, line)
        return checked, [record(*failure) for failure in failed]
    except Exception as exc:
        return type(exc)


def test_every_mutant_of_the_c_claim_reports_the_same_on_its_line_and_on_the_cells(monkeypatch):
    base = conjectures._STATEMENTS["divisibility-c"]
    texts = _mutants(base.statement)
    findings = 0
    for text in texts:
        mutant = replace(base, statement=text, lhs=None, rhs=None)
        monkeypatch.setitem(conjectures._STATEMENTS, "divisibility-c", mutant)
        for p in C_EXPONENTS:
            line, cells = _scan(p, on_cells=False), _scan(p, on_cells=True)
            assert line == cells, (text, p)
            findings += isinstance(line, type) or bool(line[1])
    assert (len(texts), findings) == (9, C_FINDINGS)
