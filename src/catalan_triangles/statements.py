"""Compile an identity's statement into its two sides.

A statement is `lhs == rhs` over integer parameters, written in a small
grammar: integer literals, the parameters, + - * / and ^ (or **), `2n`
for 2*n, the functions c b a binomial catalan gen_catalan seq_a seq_b H,
and sum(term, v=lo..hi) over an integer range.  A constraint is a chain of
comparisons (< <= > >=) of integer expressions in the same grammar.
Anything else raises UsageError.  A text is read by a scan of its
characters into Python source, which ast parses: ^ becomes **, a number
that starts a word is multiplied by the name or ( after it, and each
sum's ", v=lo.." becomes ", v, lo, ", so the calls of sum must be as
many as the ranges rewritten.

Each side becomes generated Python code that keeps every value as an
integer pair (numerator, denominator) and builds at most one Fraction, in
its return; an int is returned when the denominator is the literal 1.  A
sum whose upper bound uses a name its term does not is a running sum; any
other is a plain sum.  Every sum runs one loop, in the function that uses
it, which adds integers when the term's denominator is the literal 1 and
otherwise keeps an integer numerator over the lcm of the term denominators
seen so far.  A running sum keeps its partial (next k, numerator,
denominator) for the values of its key, the names its term and lower
bound read: it resumes the partial when the next k is at most the bound
+ 1, and otherwise restarts from the lower bound, so a sweep that raises
the bound adds one term per cell.  The partial lives in exact.partials(),
under an object() of the sum's own and the key's values (outside
exact.keep_partials(), a fresh store).  H(x) is the pair of harmonic(x)
everywhere, inside a sum or not.  An exponent that is
not an integer literal raises DomainError when it evaluates below 0,
before the power is taken.  (-1)^e is then a select on e's parity, and a
literal exponent 2 or 3 a product of the base, bound where ** would
evaluate it ((_d := x)*_d), for a numerator and a denominator alike; any
other power is taken with **.  The generated code looks up _c_ext,
binomial, harmonic and the other functions in the namespace it is given,
at call time.  Its output for the built-in texts is kept in _prebuilt.py,
which identities runs in place of this module: after an edit that changes
the generated code, regenerate that file with
`PYTHONPATH=src python tests/generated_sources.py --module > src/catalan_triangles/_prebuilt.py`.

In a line function, a call c(r,e), b(r,e), a(r,e) or binomial(r,e)
reads a table of the whole row r, not the entry function, where its row
stays fixed: when r reads only the parameters before the line variable, a
table built once per line; else in the term of a plain sum whose variable
r does not read, a table built for that evaluation of the sum.  Every read
of one row of one function in that scope shares its table.  A row with
more than twice the columns the line has cells, or the sum has terms left,
gets an empty table: each read is then a call.  Every other call stays a
call, and a side reads every entry by its call: the sides re-check the
cells a line flags, so they share no code with the tables.  A table is
built at its first read, where the call would have run first, by the
builder TABLES names, from checked kernel runs to the row's middle
(triangles._row_slice, or exact.binomials for Pascal's rows), with the
columns past it mirrored; a read outside it gives 0 through an index guard.

Also in a line function only, a plain sum whose term has factors (through *,
signs, a dividend and literal powers) binomial(v + a, e) or binomial(a - v,
e), with a and e pure (names, integer literals, + - * and literal powers)
and free of the variable v, first narrows its range at run time to where
every such factor can be nonzero: to v >= e - a for a rising row, to v <= a
- e for a falling one, and to nothing for a column below 0.  It narrows
only when no such row falls below 0 in the range and every other part of
the term is pure, with the literal 1 as its denominator, so every term it
skips is 0 and raises nothing.  Then it reads each such factor from one
checked column run of exact.binomials over the range left, where that has
RUN terms or more and 0 <= e <= row holds at both ends; elsewhere each term
calls binomial.  The sides keep the whole range and the calls.

A statement also compiles into a line function over its last parameter x:
line(<the other parameters>, xs) runs both sides for every x in xs
(increasing) in one loop and returns the cross-multiplied pair (lhs
numerator * rhs denominator, rhs numerator * lhs denominator) at each x;
the relation is the caller's.  A running sum of a side whose key does not
include x keeps its partial on the line function's locals instead, empty
at the start of each line.  A zero denominator raises ZeroDivisionError.

A constraint compiles, next to its per-cell test, into a line filter over
the same last parameter: admit(<the other parameters>, xs) is one list
comprehension giving the xs at which the chain holds, with the
comparisons inline.
"""

from __future__ import annotations

import ast
import keyword
from fractions import Fraction
from math import lcm
from typing import Callable

from .errors import DomainError, UsageError
from .exact import partials

# statement name -> (name the generated code calls, arity)
FUNCTIONS = {
    "c": ("_c_ext", 2),
    "b": ("_b_ext", 2),
    "a": ("_a_ext", 2),
    "binomial": ("binomial", 2),
    "catalan": ("catalan", 1),
    "gen_catalan": ("gen_catalan", 2),
    "seq_a": ("seq_a", 1),
    "seq_b": ("seq_b", 1),
    "H": ("harmonic", 1),
}
# statement name -> name of the builder the generated code calls for a row table
TABLES = {"c": "_c_table", "b": "_b_table", "a": "_a_table", "binomial": "_binomial_table"}
# A column factor's terms are read from one checked run of exact.binomials when its sum has at least this many
# terms left after narrowing (README rule 5); in a shorter sum each is a call, which math.comb answers faster.
RUN = 32
# Names a parameter or a summation variable may not take: they would shadow
# what the generated code calls.
_RESERVED = {
    *FUNCTIONS, *(target for target, _ in FUNCTIONS.values()), *TABLES.values(), "binomials", "sum", "range",
    "Fraction", "DomainError",
}
_COMPARISONS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
_CHARACTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ \t\n+-*/^().,=<>")


def _rewrite(text: str) -> tuple[str, int]:
    """(source, ranges): text, of _CHARACTERS only, as Python, and the number of sum ranges it rewrote.

    ^ becomes **; a number that starts a word is multiplied by the letter,
    _ or ( after it (2n -> 2*n, 3(n+1) -> 3*(n+1)); then, from the left,
    each ", v=lo.." with v a name, = not followed by =, and lo the text up
    to the first .. and holding no newline, becomes ", v, lo, ".
    """
    text, pieces, in_name = text.replace("^", "**"), [], False
    for char, after in zip(text, text[1:] + " "):
        pieces.append(char)
        in_name = char.isalpha() or char == "_" or in_name and char.isdigit()  # in a word that starts as a name
        if char.isdigit() and not in_name and (after.isalpha() or after in "_("):
            pieces.append("*")
    text, pieces, ranges = "".join(pieces), [], 0
    while True:
        before, comma, text = text.partition(",")
        pieces.append(before + comma)
        if not comma:
            return "".join(pieces), ranges
        var, _, rest = text.partition("=")
        lo, dots, after = rest.partition("..")
        if var.strip(" \t\n").isidentifier() and dots and not rest.startswith("=") and "\n" not in lo:
            pieces.append(" %s, %s, " % (var.strip(" \t\n"), lo))
            text, ranges = after, ranges + 1


def _parse(text: str) -> ast.expr:
    if not _CHARACTERS.issuperset(text):
        raise UsageError("unexpected character in %r" % text)
    source, ranges = _rewrite(text)
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError:
        raise UsageError("cannot parse %r" % text) from None
    if _sums(source) != ranges:
        raise UsageError("write every sum as sum(term, v=lo..hi) in %r" % text)
    return tree


def _sums(source: str) -> int:
    """How many times source, as _rewrite writes it, calls sum: the word sum (no letter, digit or _ before it), then (.

    Whitespace may stand before the (.  Read from _rewrite's output, 2sum( is
    the call 2*sum(; sum as a keyword, an attribute or a bare name is no
    call, and the compiler refuses it with its own message.
    """
    count, i = 0, source.find("sum")
    while i >= 0:
        before = source[i - 1:i]
        count += not (before.isalnum() or before == "_") and source[i + 3:].lstrip(" \t\n")[:1] == "("
        i = source.find("sum", i + 3)
    return count


def _simple(code: str) -> bool:
    """Whether code is a name or an integer literal: read twice, it is evaluated once."""
    return code.isidentifier() or code.isdecimal()


def _mul(x: str, y: str) -> str:
    return y if x == "1" else x if y == "1" else "(%s*%s)" % (x, y)


def _plus(x: str, a: str) -> str:
    return x if a == "0" else "(%s + %s)" % (x, a)


def _minus(x: str, a: str) -> str:
    return x if a == "0" else "(%s - %s)" % (x, a)


def _pure(node: ast.AST) -> bool:
    """Whether node holds only names, integer literals, + - * and literal powers, so that evaluating it raises nothing."""
    return all(
        type(n.value) is int if isinstance(n, ast.Constant)
        else isinstance(n.right, ast.Constant) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
        else isinstance(n, (ast.Name, ast.Load, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.UAdd,
                            ast.USub))
        for n in ast.walk(node)
    )


def _factors(node: ast.AST) -> list[ast.AST]:
    """The factors of node through *, the dividend of /, signs and powers with a literal exponent of 1 or more: where
    one is 0, node is 0 unless a divisor is 0 there."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _factors(node.left)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _factors(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) \
            and type(node.right.value) is int and node.right.value >= 1:
        return _factors(node.left)
    return [node]


def _indent(lines: list[str]) -> str:
    return "\n".join("    " + line for block in lines for line in block.split("\n"))


class _Scope:
    """One generated function body: a side, or the term of a sum."""

    def __init__(self, names, x=None, var=None, hi=None):
        self.names = frozenset(names)  # the statement names it can read
        self.x = x  # the line variable of a side in a line function
        self.var, self.hi = var, hi  # the variable and upper bound of the plain sum whose term this is
        self.lines: list[str] = []  # statements that run before the returned expression
        self.init: list[str] = []  # statements a line function runs once per line
        self.tables: dict[tuple, str] = {}  # that sum's row tables by (name, row), emptied before its loop
        self.runs: dict[ast.AST, str] = {}  # that sum's column factors, by call node: the code that reads each
        self.built: set[str] = set()  # the tables its lines have built by now


class _Compiler:
    def __init__(self, parameters: tuple[str, ...]):
        for name in parameters:
            if not name.isidentifier() or keyword.iskeyword(name) or name.startswith("_") or name in _RESERVED:
                raise UsageError("parameter name %r is not allowed" % name)
        if len(set(parameters)) != len(parameters):
            raise UsageError("parameter names %s repeat" % (parameters,))
        self.parameters = parameters
        self.defs: list[str] = []  # factory-level code: the running sums' keys
        self.count = 0
        self.line_tables: dict[tuple, str] | None = None  # while a line function compiles, its row tables
        self.reads: dict[ast.AST, frozenset[str]] = {}  # free's results, by node

    def fresh(self, stem: str) -> str:
        self.count += 1
        return "_%s%d" % (stem, self.count)

    def free(self, node: ast.AST) -> frozenset[str]:
        """The parameter and variable names node reads, without those its sums bind; found once per node."""
        if node in self.reads:
            return self.reads[node]
        if isinstance(node, ast.Name):
            names = frozenset((node.id,))
        elif isinstance(node, ast.Call):
            if getattr(node.func, "id", None) == "sum" and len(node.args) == 4 and isinstance(node.args[1], ast.Name):
                term, var, lo, hi = node.args
                names = (self.free(term) - {var.id}) | self.free(lo) | self.free(hi)
            else:
                names = frozenset().union(*map(self.free, node.args))
        else:
            names = frozenset().union(*map(self.free, ast.iter_child_nodes(node)))
        self.reads[node] = names
        return names

    def local(self, code: str, scope: _Scope) -> str:
        """code, bound to a fresh local first unless it is a name or a literal."""
        if _simple(code):
            return code
        d = self.fresh("d")
        scope.lines.append("%s = %s" % (d, code))
        return d

    def integer(self, node: ast.AST, scope: _Scope, what: str) -> str:
        num, den = self.expr(node, scope)
        if den != "1":
            raise UsageError("%s must be an integer expression, got %r" % (what, ast.unparse(node)))
        return num

    def expr(self, node: ast.AST, scope: _Scope) -> tuple[str, str]:
        """(num, den): integer expressions whose quotient is node's value, den "1" for an integer."""
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return str(node.value), "1"
        if isinstance(node, ast.Name):
            if node.id not in scope.names:
                raise UsageError("unknown name %r" % node.id)
            return node.id, "1"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            num, den = self.expr(node.operand, scope)
            return (num, den) if isinstance(node.op, ast.UAdd) else ("(-%s)" % num, den)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            return self.binop(node, scope)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.keywords:
            name = node.func.id
            if name == "sum" and len(node.args) == 4 and isinstance(node.args[1], ast.Name):
                return self.sum(node, scope)
            if node in scope.runs:
                return scope.runs[node], "1"
            if name in FUNCTIONS and len(node.args) == FUNCTIONS[name][1]:
                if name == "H":
                    return self.harmonic(node.args[0], scope)
                if name in TABLES:
                    return self.entry(name, *node.args, scope), "1"
                args = [self.integer(arg, scope, "an argument of %s" % name) for arg in node.args]
                return "%s(%s)" % (FUNCTIONS[name][0], ", ".join(args)), "1"
            raise UsageError("unknown function or wrong arity in %r" % ast.unparse(node))
        if isinstance(node, ast.Constant):
            raise UsageError("only integer literals are allowed, got %r" % (node.value,))
        raise UsageError("unsupported expression %r" % ast.unparse(node))

    def binop(self, node: ast.BinOp, scope: _Scope) -> tuple[str, str]:
        a, a_den = self.expr(node.left, scope)
        if isinstance(node.op, ast.Pow):
            e = self.integer(node.right, scope, "an exponent")
            if not isinstance(node.right, ast.Constant):  # a literal is never negative: -1 is a UnaryOp
                e = self.local(e, scope)
                error = "exponent %s is %%d, below 0" % ast.unparse(node.right)
                scope.lines.append("if %s < 0:\n    raise DomainError(%r %% %s)" % (e, error, e))
            if (a, a_den) == ("(-1)", "1"):  # the sign of an alternating sum, by the exponent's parity
                return "(-1 if %s & 1 else 1)" % e, "1"
            return self.power(a, e), "1" if a_den == "1" else self.power(a_den, e)
        b, b_den = self.expr(node.right, scope)
        if isinstance(node.op, ast.Mult):
            return _mul(a, b), _mul(a_den, b_den)
        if isinstance(node.op, ast.Div):
            return _mul(a, b_den), _mul(a_den, b)
        sign = "+" if isinstance(node.op, ast.Add) else "-"
        if a_den == b_den:
            return "(%s %s %s)" % (a, sign, b), a_den
        # each denominator is read twice, so a compound one is computed once
        a_den, b_den = self.local(a_den, scope), self.local(b_den, scope)
        return "(%s %s %s)" % (_mul(a, b_den), sign, _mul(b, a_den)), _mul(a_den, b_den)

    def power(self, x: str, e: str) -> str:
        """Code for x**e: a literal square or cube is a product of x, bound where it is evaluated, as ** would be."""
        if e not in ("2", "3"):
            return "(%s**%s)" % (x, e)
        d = x if _simple(x) else self.fresh("d")
        return "(%s)" % "*".join([d if d == x else "(%s := %s)" % (d, x)] + [d] * (int(e) - 1))

    def harmonic(self, arg: ast.AST, scope: _Scope) -> tuple[str, str]:
        x = self.integer(arg, scope, "the argument of H")
        p, q = self.fresh("p"), self.fresh("q")
        scope.lines.append("%s, %s = harmonic(%s).as_integer_ratio()" % (p, q, x))
        return p, q

    def entry(self, name: str, row: ast.AST, column: ast.AST, scope: _Scope) -> str:
        """Code for name(row, column): in a line function an entry of a row table where the row stays fixed, else a call.

        A line table lives on the line function's locals, a sum's table on
        that sum's (emptied before its loop); either is built at its first
        read, after the row and column are evaluated, as the call would run.
        """
        what = "an argument of %s" % name
        free = self.free(row)
        if self.line_tables is not None and free <= set(self.parameters[:-1]):
            tables, width = self.line_tables, "2 * len(_xs)"
        elif self.line_tables is not None and scope.var is not None and scope.var not in free:
            tables, width = scope.tables, "2 * (%s - %s + 1)" % (scope.hi, scope.var)
        else:
            return "%s(%s, %s)" % (FUNCTIONS[name][0], self.integer(row, scope, what), self.integer(column, scope, what))
        r = self.integer(row, scope, what)
        # a call in the row, which the code writes as name(...): evaluated at each read, as the call's argument is
        if any(call + "(" in r for call, _ in FUNCTIONS.values()):
            r = self.local(r, scope)
        e = self.local(self.integer(column, scope, what), scope)
        if (name, r) not in tables:
            tables[name, r] = self.fresh("t")
        t = tables[name, r]
        if t not in scope.built:  # the scope's lines run in order, so one build test per table suffices
            scope.built.add(t)
            scope.lines.append("if %s is None:\n    %s = %s(%s, %s)\n    %sn = len(%s)" % (t, t, TABLES[name], r, width, t, t))
        # a negative index would wrap; an empty table, a row wider than its width allows, is a call per read
        return "(%s[%s] if 0 <= %s < %sn else (0 if %sn else %s(%s, %s)))" % (t, e, e, t, t, FUNCTIONS[name][0], r, e)

    def loop(self, v: str, inner: _Scope, term: tuple[str, str], bound: str) -> tuple[str, str, str, str, tuple[str, str]]:
        """(k, num, den, code, sum): code adds term for v = k..bound to num/den, set by the caller.

        num is an integer sum when the term's denominator is the literal 1;
        otherwise it is kept over den, the lcm of the term denominators seen
        so far.
        """
        k, num, den = self.fresh("k"), self.fresh("num"), self.fresh("den")
        step = ["%s = %s" % (v, k)] + inner.lines
        term_num, term_den = term
        if term_den == "1":
            step.append("%s += %s" % (num, term_num))
            total = num, "1"
        else:
            step += [
                "_top, _bottom = %s, %s" % (term_num, term_den),
                "if _bottom != %s:" % den,
                "    if %s %% _bottom:" % den,
                "        _grown = _lcm(%s, _bottom)" % den,
                "        %s *= _grown // %s" % (num, den),
                "        %s = _grown" % den,
                "    _top *= %s // _bottom" % den,
                "%s += _top" % num,
            ]
            total = num, den
        return k, num, den, "while %s <= %s:\n%s" % (k, bound, _indent(step + ["%s += 1" % k])), total

    def linear(self, node: ast.AST, v: str) -> tuple[int, ast.AST | None] | None:
        """(s, a) with node = s*v + a, a a tree that does not read v (None for 0), if node is a sum of such terms."""
        if v not in self.free(node):
            return 0, node
        if isinstance(node, ast.Name):
            return 1, None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            split = self.linear(node.operand, v)
            if split is None or isinstance(node.op, ast.UAdd):
                return split
            return -split[0], split[1] and ast.UnaryOp(ast.USub(), split[1])
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
            return None
        left, right = self.linear(node.left, v), self.linear(node.right, v)
        if left is None or right is None:
            return None
        (s, a), (t, b) = left, right
        if isinstance(node.op, ast.Sub):
            return s - t, a if b is None else ast.UnaryOp(ast.USub(), b) if a is None else ast.BinOp(a, ast.Sub(), b)
        return s + t, a if b is None else b if a is None else ast.BinOp(a, ast.Add(), b)

    def columns(self, term: ast.AST, v: str, scope: _Scope, inner: _Scope) -> tuple[list[tuple[int, str, str, str]], str]:
        """([(s, a, e, run) for each distinct column factor of term], base): the factors binomial(v + a, e) (s = 1)
        and binomial(a - v, e) (s = -1) with a and e pure and not reading v, bound in scope.  inner.runs gets each
        factor's read: entry v - base of its run when there is one, else the call."""
        found, base = {}, None
        for factor in _factors(term):
            if not (isinstance(factor, ast.Call) and getattr(factor.func, "id", None) == "binomial"
                    and len(factor.args) == 2 and not factor.keywords):
                continue
            row, column = factor.args
            split = self.linear(row, v)
            if split is None or split[0] not in (1, -1) or v in self.free(column) or not _pure(row) or not _pure(column):
                continue
            s, a = split
            key = (s, "0" if a is None else self.integer(a, scope, "a row"), self.integer(column, scope, "a column"))
            if key not in found:
                base = base or self.fresh("l")
                found[key] = (s, self.local(key[1], scope), self.local(key[2], scope), self.fresh("r"))
            _, a, e, r = found[key]
            inner.runs[factor] = "(%s[%s - %s] if %s else binomial(%s, %s))" % (
                r, v, base, r, _plus(v, a) if s > 0 else _minus(a, v), e)
        return list(found.values()), base

    def support(self, k: str, h: str, base: str, columns: list[tuple[int, str, str, str]], narrow: bool) -> list[str]:
        """Lines that, when narrow, move k and h, the bounds of a plain sum, onto the range where every column factor
        can be nonzero, if no factor's row falls below 0 from k to h; then bind base to k and build each factor's run
        over k..h where that has RUN terms or more, inside 0 <= e <= row at both ends."""
        lines = []
        if narrow:
            guards, steps = [], []
            for s, a, e, _ in columns:
                if s > 0:  # rows from k + a up: binomial(v + a, e) is 0 below v = e - a
                    low = _minus(e, a)
                    guards.append("%s >= 0" % _plus(k, a))
                    steps.append("if %s < %s:\n    %s = %s" % (k, low, k, low))
                else:  # rows from a - h up: binomial(a - v, e) is 0 above v = a - e
                    high = _minus(a, e)
                    guards.append("%s >= 0" % _minus(a, h))
                    steps.append("if %s > %s:\n    %s = %s" % (h, high, h, high))
            negative = [e for e in dict.fromkeys(e for _, _, e, _ in columns) if not e.isdecimal()]
            if negative:  # a column below 0 is 0 at every term
                steps.append("if %s:\n    %s = %s + 1" % (" or ".join("%s < 0" % e for e in negative), k, h))
            lines.append("if %s:\n%s" % (" and ".join(dict.fromkeys(guards)), _indent(steps)))
        builds = [
            "if 0 <= %s <= %s:\n    %s = binomials(%s, %s, %d, 0, %s - %s + 1)"
            % (e, _plus(k, a) if s > 0 else _minus(a, h), r, _plus(k, a) if s > 0 else _minus(a, k), e, s, h, k)
            for s, a, e, r in columns
        ]
        return lines + [
            "%s = %s" % (base, k),
            "%s = ()" % " = ".join(r for *_, r in columns),
            "if %s - %s >= %d:\n%s" % (h, k, RUN - 1, _indent(builds)),
        ]

    def sum(self, node: ast.Call, scope: _Scope) -> tuple[str, str]:
        term, var, lo, hi = node.args
        v = var.id
        if v in scope.names or v in _RESERVED or v.startswith("_"):
            raise UsageError("summation variable %r shadows a parameter, a variable or a function" % v)
        unknown = self.free(node) - scope.names
        if unknown:
            raise UsageError("unknown name %r" % min(unknown))
        fixed = tuple(sorted((self.free(term) - {v}) | self.free(lo)))
        running = not self.free(hi) <= set(fixed)
        start = _Scope(scope.names) if running else scope
        lo_code = self.integer(lo, start, "a lower bound")
        hi_code = self.local(self.integer(hi, scope, "an upper bound"), scope)
        inner = _Scope(scope.names | {v}, var=None if running else v, hi=hi_code)
        columns, base = [], None
        if not running and self.line_tables is not None:
            columns, base = self.columns(term, v, scope, inner)
        bound = self.fresh("h") if any(s < 0 for s, *_ in columns) else hi_code
        value = self.expr(term, inner)
        k, num, den, code, total = self.loop(v, inner, value, bound)
        first = "%s, %s, %s = %s, 0, 1" % (k, num, den, lo_code)
        if not running:
            scope.lines += ["%s = None" % t for t in inner.tables.values()] + [first]
            if columns:
                # narrowed only where every other part of the term is pure, so that a skipped term raises nothing
                narrow = value[1] == "1" and all(
                    n in inner.runs if isinstance(n, ast.Call)
                    else not isinstance(n, ast.BinOp) or not isinstance(n.op, ast.Pow) or isinstance(n.right, ast.Constant)
                    for n in ast.walk(term)
                )
                scope.lines += ["%s = %s" % (bound, hi_code)] * (bound != hi_code) + self.support(k, bound, base, columns, narrow)
            scope.lines.append(code)
            return total
        # a running sum resumes its partial unless that is empty or passed the bound
        resume = ["if %s is None or %s > %s + 1:\n%s" % (k, k, hi_code, _indent(start.lines + [first])), code]
        if scope.x is not None and scope.x not in fixed:
            scope.init.append("%s = None" % k)  # on locals, empty at the start of each line
            scope.lines += resume
            return total
        key = self.fresh("rs")
        self.defs.append("%s = object()" % key)
        key = "(%s)" % ", ".join((key,) + fixed) if fixed else key
        scope.lines += [
            "_store = _partials()",
            "%s, %s, %s = _store.get(%s, (None, 0, 1))" % (k, num, den, key),
            *resume,
            "_store[%s] = %s, %s, %s" % (key, k, num, den),
        ]
        return total

    def function(self, name: str, node: ast.AST) -> str:
        """Source of def name(parameters) returning node's value."""
        scope = _Scope(self.parameters)
        num, den = self.expr(node, scope)
        returned = num if den == "1" else "Fraction(%s, %s)" % (num, den)
        return "def %s(%s):\n%s" % (name, ", ".join(self.parameters), _indent(scope.lines + ["return " + returned]))

    def line(self, node: ast.Compare) -> str:
        """Source of def line(<parameters but the last>, _xs) returning the pair of cross-multiplied sides at each x in _xs."""
        *head, x = self.parameters
        init, body, sides = [], [], []
        self.line_tables = {}
        for side in (node.left, node.comparators[0]):
            scope = _Scope(self.parameters, x=x)
            num, den = self.expr(side, scope)
            den = self.local(den, scope)
            if den != "1":
                scope.lines.append("if not %s:\n    raise ZeroDivisionError('zero denominator')" % den)
            init += scope.init
            body += scope.lines
            sides.append((num, den))
        init += ["%s = None" % t for t in self.line_tables.values()]
        self.line_tables = None
        (lhs, lhs_den), (rhs, rhs_den) = sides
        body.append("_pairs.append((%s, %s))" % (_mul(lhs, rhs_den), _mul(rhs, lhs_den)))
        loop = "for %s in _xs:\n%s" % (x, _indent(body))
        return "def line(%s):\n%s" % (", ".join(head + ["_xs"]), _indent(init + ["_pairs = []", loop, "return _pairs"]))

    def test(self, node: ast.Compare) -> tuple[str, str]:
        """Sources of def constraint(parameters), the chain of comparisons node, and of its line filter
        def admit(<parameters but the last>, _xs), the list of the xs in _xs at which the chain holds."""
        scope = _Scope(self.parameters)
        operands = [self.integer(x, scope, "a compared value") for x in (node.left, *node.comparators)]
        chain = operands[0] + "".join(" %s %s" % (_COMPARISONS[type(op)], x) for op, x in zip(node.ops, operands[1:]))
        *head, x = self.parameters
        # a chain that needs statements first (a sum, say) is tested through constraint, positionally
        test = "constraint(%s)" % ", ".join(self.parameters) if scope.lines else chain
        return (
            "def constraint(%s):\n%s" % (", ".join(self.parameters), _indent(scope.lines + ["return " + chain])),
            "def admit(%s):\n    return [%s for %s in _xs if %s]" % (", ".join(head + ["_xs"]), x, x, test),
        )


def compile_identity(
    parameters: tuple[str, ...],
    namespace: dict,
    statement: str | None = None,
    constraint: str | None = None,
) -> dict[str, Callable]:
    """Callables compiled from statement ("lhs", "rhs", "line") and constraint ("constraint", "admit").

    The sides and the constraint take the parameters as keywords; line
    and admit take all but the last positionally, then the values of the
    last (see the module docstring).  Their calls to the statement's
    functions read namespace at call time (c is namespace["_c_ext"]).
    """
    compiler = _Compiler(tuple(parameters))
    functions = {}
    if statement is not None:
        tree = _parse(statement)
        if not (isinstance(tree, ast.Compare) and len(tree.ops) == 1 and isinstance(tree.ops[0], ast.Eq)):
            raise UsageError("a statement is one equation lhs == rhs, got %r" % statement)
        functions["lhs"] = compiler.function("lhs", tree.left)
        functions["rhs"] = compiler.function("rhs", tree.comparators[0])
        functions["line"] = compiler.line(tree)
    if constraint is not None:
        tree = _parse(constraint)
        if not (isinstance(tree, ast.Compare) and all(type(op) in _COMPARISONS for op in tree.ops)):
            raise UsageError("a constraint is a chain of comparisons, got %r" % constraint)
        functions["constraint"], functions["admit"] = compiler.test(tree)
    returned = "return {%s}" % ", ".join("%r: %s" % (name, name) for name in functions)
    source = "def _build(Fraction, _lcm, _partials, DomainError):\n%s\n" % _indent(
        compiler.defs + list(functions.values()) + [returned]
    )
    scope: dict = {}
    exec(compile(source, "<statement>", "exec"), namespace, scope)
    return scope["_build"](Fraction, lcm, partials, DomainError)
