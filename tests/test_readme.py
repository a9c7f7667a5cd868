"""README's examples, run as written: every CLI line of its CLI block, its
shell loop of long-scan legs, and every statement of its library block,
with their annotated results."""

import ast
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import catalan_triangles
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


def test_the_long_scan_loop_ends_with_the_uninterrupted_report(tmp_path, capsys):
    # the loop as written, in bash, on a smaller domain: 780 cells in legs of 300
    loop = block("Long scans", "sh")
    assert loop.count("2..400") == loop.count("--limit 500") == 1
    loop = loop.replace("2..400", "2..40").replace("--limit 500", "--limit 300")
    src = str(Path(catalan_triangles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = 'catalan-triangles() { "%s" -m catalan_triangles "$@"; }\n%s' % (sys.executable, loop)
    run = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    expected = []
    for p in (1, 3, 5, 7):
        assert cli.main(["scan", "c-powers", "--p", str(p), "--m", "2..40", "--no-timing"]) == cli.EXIT_OK
        expected.append(capsys.readouterr().out)
    assert run.stdout == "".join(expected)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c1.json", "c3.json", "c5.json", "c7.json"]
