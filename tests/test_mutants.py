"""Mutation analysis of the statement layer (DeMillo, Lipton & Sayward, 1978).

Every registered statement and every conjecture statement is mutated in
each of its integer literals (+1 and -1), each binary + or - (swapped) and
each sum bound (+1 and -1), and printed back into the grammar.  A sweep of
each mutant at cap 6 must report the same on the line path as on the cell
path, inside the domain and outside it; a mutant the compiler refuses must
raise UsageError.  The mutants the sweep does not kill are pinned by text,
each with the reason it leaves its identity true: one that starts to survive
means a cap too small or an engine that stopped seeing a mismatch.

Conjecture one's relation (a zero divisor or a non-zero remainder) gets the
same oracle: each mutant of the c, b and a claims' texts is scanned with
that relation on the claim's line function and cell by cell."""

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
# the lines each claim's mutants are scanned on, the exponents, and per claim its mutants and the (mutant, p)
# runs that report a finding.  Those that report none move a sum bound onto a term that is 0 (c(m,-1), b(n,0),
# b(n,n+1), a(n,0), a(n,n+2)), turn the divisor into the equal binomial(2n-1,n), or into binomial(n,n) or
# binomial(n-1,n-1), which is 1
CLAIM_LINES = {
    "c": [line for line in conjectures._domain_lines("divisibility-c", {"m": (2, 9), "n": (1, 8)}) if line[1]],
    "b": [((), range(1, 9))],
    "a": [((), range(1, 9))],
}
CLAIM_EXPONENTS, CLAIM_FINDINGS = (3, 5), {"c": (9, 14), "b": (14, 18), "a": (11, 12)}
# mutants, and those the compiler refuses; the 39 registered statements give 766 mutants
MUTANTS, REFUSED = 877, 0
# The mutants whose sweep at CAP inside the domain passes, by reason: (statement id, a text of the statement as
# _text prints it, then the texts that replace it in each mutant).  Every other mutant is killed: a mismatch, or
# 67 that raise DomainError or ZeroDivisionError.
SURVIVORS = {
    # a sum bound moved so that it adds or drops only triangle entries outside their row, which are 0: c(m,-1),
    # c(n,n+1), b(n,-1), b(n,0), b(n,n+1), a(n,0) and a(n,n+2)
    "a bound moved onto a c, b or a entry outside its row": [
        ("cor-alt-A", "k=1..(n + 1)", "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("cor-alt-B", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("cor-alt-cube-A", "k=1..(n + 1)", "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("cor-cube-A", "k=1..(n + 1)", "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("cor-cube-B", "k=0..n", "k=(0 + 1)..n", "k=(0 - 1)..n", "k=0..(n + 1)", "k=1..n", "k=(-1)..n"),
        ("cor-harmonic-A", "k=1..n", "k=(1 - 1)..n", "k=0..n"),
        ("cor-harmonic-B", "k=0..(n - 1)",
         "k=(0 + 1)..(n - 1)", "k=(0 - 1)..(n - 1)", "k=1..(n - 1)", "k=(-1)..(n - 1)"),
        ("cor-harmonic-C", "k=1..n", "k=1..(n + 1)"),
        ("cor-square-i", "k=0..n", "k=(0 - 1)..n", "k=0..(n + 1)", "k=(-1)..n"),
        ("cor-square-ii", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("cor-square-iii", "k=1..(n + 1)", "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("cor-square-iv", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("eq-convolution", "k=1..i", "k=(1 - 1)..i", "k=1..(i + 1)", "k=0..i"),
        ("eq-linear-A", "k=1..(n + 1)", "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("eq-linear-B", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("eq-square-A", "k=1..(n + 1)", "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("eq-square-B", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("mixed-cube m<n", "k=1..m", "k=(1 - 1)..m", "k=1..(m + 1)", "k=0..m"),
        ("mixed-cube n<=m", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("rem-a-cube-factored", "k=1..(n + 1)",
         "k=(1 - 1)..(n + 1)", "k=1..((n + 1) + 1)", "k=0..(n + 1)", "k=1..(n + 2)"),
        ("rem-b-cube-factored", "k=1..n", "k=(1 - 1)..n", "k=1..(n + 1)", "k=0..n"),
        ("thm-b-cube", "^ 3), k=1..n", "^ 3), k=(1 - 1)..n", "^ 3), k=1..(n + 1)", "^ 3), k=0..n"),
        ("thm-cube-sum", "k=0..n", "k=(0 - 1)..n", "k=(-1)..n"),
        ("thm-linear-sum", "k=0..n", "k=(0 - 1)..n", "k=(-1)..n"),
        ("thm-square-sum", "k=0..n", "k=(0 - 1)..n", "k=(-1)..n"),
    ],
    # binomial(r,-1), binomial(r,r+1) and on, and binomial(j,n) for 0 <= j < n
    "a bound moved onto a binomial outside its row": [
        ("cor-cube-A", "j=n..((2 * n) - 1)", "j=(n - 1)..((2 * n) - 1)"),
        ("cor-cube-B", "j=n..((2 * n) - 1)", "j=(n - 1)..((2 * n) - 1)"),
        ("eq-alt-square", "k=0..(2 * n)", "k=0..((2 * n) + 1)", "k=0..(3 * n)"),
        ("eq-amm", "k=0..n", "k=(0 - 1)..n", "k=(-1)..n"),
        ("eq-amm", "j=0..(m - 1)", "j=(0 + 1)..(m - 1)", "j=1..(m - 1)"),
        ("eq-dixon", "k=0..(2 * n)", "k=0..((2 * n) + 1)", "k=0..(3 * n)"),
        ("eq-vandermonde", "k=0..n", "k=(0 - 1)..n", "k=0..(n + 1)", "k=(-1)..n"),
        ("mixed-cube m<n", "j=0..(m - 1)", "j=(0 - 1)..(m - 1)", "j=(-1)..(m - 1)"),
        ("mixed-cube n<=m", "j=0..(n - 1)", "j=(0 - 1)..(n - 1)", "j=(-1)..(n - 1)"),
        ("rem-ps13", "k=1..n", "k=1..(n + 1)"),
        ("thm-cube-sum", "j=0..(m - 1)", "j=(0 + 1)..(m - 1)", "j=1..(m - 1)"),
        ("thm-square-sum", "k=0..(n - 1)", "k=(0 - 1)..(n - 1)", "k=(-1)..(n - 1)"),
    ],
    "a lower bound moved onto k = 0 in a sum whose term has the factor k": [
        ("thm-b-cube", "^ 2)), k=1..n", "^ 2)), k=(1 - 1)..n", "^ 2)), k=0..n"),
    ],
    "(-0)^k, which is 0 at every k >= 1, in a sum whose right side is 0": [
        ("cor-alt-A", "((-1) ^ k)", "((-0) ^ k)"),
    ],
}

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
    assert len(STATEMENTS) == 39 + 5
    for ident in STATEMENTS.values():
        tree = statements._parse(ident.statement)
        assert ast.dump(statements._parse(_text(tree))) == ast.dump(tree), ident.id


@pytest.mark.parametrize("identity", sorted(STATEMENTS))
def test_every_mutant_reports_the_same_on_the_line_and_on_the_cells(identity):
    for text, line, cells, line_outside, cells_outside in _sweeps(identity):
        assert line == cells and line_outside == cells_outside, text


def test_the_mutants_killed_at_cap_6_are_pinned():
    sweeps = [(identity, sweep) for identity in sorted(STATEMENTS) for sweep in _sweeps(identity)]
    refused = [text for _, (text, line, *_) in sweeps if line is UsageError]
    assert (len(sweeps), len(refused)) == (MUTANTS, REFUSED)
    pinned = []
    for edits in SURVIVORS.values():
        for identity, old, *news in edits:
            printed = _text(statements._parse(STATEMENTS[identity].statement))
            assert printed.count(old) == 1, (identity, old)
            pinned += [(identity, printed.replace(old, new)) for new in news]
    survivors = {(identity, text) for identity, (text, line, *_) in sweeps if getattr(line, "passed", False)}
    assert len(set(pinned)) == len(pinned) == 104
    assert not survivors - set(pinned), "mutants that now survive: %s" % sorted(survivors - set(pinned))
    assert not set(pinned) - survivors, "pinned mutants that are now killed: %s" % sorted(set(pinned) - survivors)


def _scan(variant: str, p: int, on_cells: bool):
    """(cells checked, records of the failed cells) of a scan of the claim's lines at p, or the type of what it raised.

    Both paths use conjectures._check's relation and records; on_cells replaces the line function by
    divisibility_claim at each cell."""
    claim_fn = (lambda cell: divisibility_claim(variant, p, cell)) if on_cells else None
    conjecture = "divisibility-" + variant
    names, at, fails, line, record = conjectures._check(conjecture, p, claim_fn)
    assert (line is None) == on_cells
    try:
        failed, checked = identities._lines(conjecture, CLAIM_LINES[variant], names, at, fails, line)
        return checked, [record(*failure) for failure in failed]
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("variant", sorted(CLAIM_LINES))
def test_every_mutant_of_a_divisibility_claim_reports_the_same_on_its_line_and_on_the_cells(monkeypatch, variant):
    base = conjectures._STATEMENTS["divisibility-" + variant]
    texts = _mutants(base.statement)
    findings = 0
    for text in texts:
        mutant = replace(base, statement=text, lhs=None, rhs=None)
        monkeypatch.setitem(conjectures._STATEMENTS, "divisibility-" + variant, mutant)
        for p in CLAIM_EXPONENTS:
            line, cells = _scan(variant, p, on_cells=False), _scan(variant, p, on_cells=True)
            assert line == cells, (text, p)
            findings += isinstance(line, type) or bool(line[1])
    assert (len(texts), findings) == CLAIM_FINDINGS[variant]
