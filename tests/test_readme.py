"""README's examples, run as written: every CLI line of its CLI block and
every statement of its library block, with their annotated results."""

import ast
import shlex
from fractions import Fraction
from pathlib import Path

from catalan_triangles import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(heading, language):
    """The first fenced block of that language under the ## heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % language, 1)[1].split("\n```", 1)[0]


def test_every_cli_line_exits_0_and_prints_its_annotated_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the c-powers line writes its checkpoint to the working directory
    lines = [line for line in block("CLI", "sh").splitlines() if line.startswith("catalan-triangles ")]
    annotated = 0
    for line in lines:
        command, _, expected = line.partition("# -> ")
        assert cli.main(shlex.split(command)[1:]) == cli.EXIT_OK, line
        out = capsys.readouterr().out
        if expected:
            assert out == expected.strip() + "\n", line
            annotated += 1
    assert (len(lines), annotated) == (12, 3)  # 5, 110 and 25/12


def test_every_library_statement_gives_its_commented_result():
    source = block("Library use", "python")
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        code, _, expected = lines[node.lineno - 1].partition("#")
        if isinstance(node, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            value = eval(ast.unparse(node.targets[0]), namespace) if isinstance(node, ast.Assign) else None
        if expected:
            assert value == eval(expected, {"Fraction": Fraction}), lines[node.lineno - 1]
            checked += 1
    assert checked == 4
    assert namespace["report"].status == "PASS"
    assert namespace["state"].counterexamples == []
