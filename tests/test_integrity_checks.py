"""Every `raise IntegrityError` in the package fires under the fault-injection tests.

An integrity check that no test makes fire is unverified: a later edit can
break or delete it, and nothing fails.  The sites are found with ast, and the
fault-injection tests run in a subprocess under a sys.settrace hook, which
every supported Python has (sys.monitoring is 3.12 and later), recording each
site line they reach.  Tracing the whole suite would cost half its time again,
so only the tests that inject one fault each run traced.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import catalan_triangles

PACKAGE = Path(catalan_triangles.__file__).parent
TESTS = Path(__file__).parent
# the tests that plant one fault each and expect an IntegrityError; between them they reach every site
FAULT_TESTS = [
    "test_exact.py::test_exact_div_rejects_inexact",
    "test_exact.py::test_exact_div_rejects_zero_divisor",
    "test_binomial_runs.py::test_binomials_check_their_last_value",
    "test_binomial_runs.py::test_each_kernel_check_fires_under_one_wrong_comb",
    "test_binomial_runs.py::test_c_run_end_check_fires_on_a_wrong_last_step",
    "test_binomial_runs.py::test_c_row_pascal_check_fires_on_one_wrong_entry_of_its_run",
    "test_binomial_runs.py::test_c_ext_closed_form_remainder_fires",
    "test_binomial_runs.py::test_wrong_recurrence_step_raises_instead_of_printing",
    "test_identities.py::test_a_line_function_with_a_pair_count_other_than_its_cell_count_is_an_integrity_error",
    "test_statements.py::test_a_line_function_that_flags_agreeing_sides_is_an_integrity_error",
    "test_statements.py::test_a_line_function_that_raises_where_no_cell_does_is_an_integrity_error",
]
SITES = 14

# argv: a JSON {file: [line, ...]} of the sites, then pytest's arguments; prints the sites reached as JSON
_TRACED_RUN = """
import json, sys, threading
import pytest

sites = {path: set(lines) for path, lines in json.loads(sys.argv[1]).items()}
reached = set()

def on_line(frame, event, arg):
    if event == "line" and frame.f_lineno in sites[frame.f_code.co_filename]:
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return on_line

def on_call(frame, event, arg):
    return on_line if frame.f_code.co_filename in sites else None

sys.settrace(on_call)
threading.settrace(on_call)
code = pytest.main(sys.argv[2:])
sys.settrace(None)
print(json.dumps(sorted(reached)))
sys.exit(code)
"""


def integrity_sites() -> dict[tuple[str, int], str]:
    """{(file, line): source line} of every `raise IntegrityError(...)` in the package."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == "IntegrityError":
                    sites[str(path), node.lineno] = source.splitlines()[node.lineno - 1].strip()
    return sites


def test_every_integrity_check_fires_under_a_fault_injection_test(tmp_path):
    sites = integrity_sites()
    assert len(sites) == SITES
    lines = {}
    for path, line in sites:
        lines.setdefault(path, []).append(line)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", _TRACED_RUN, json.dumps(lines), "-q", "-p", "no:cacheprovider"]
    run = subprocess.run(argv + [str(TESTS / test) for test in FAULT_TESTS], capture_output=True, text=True,
                         cwd=tmp_path, env=env, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    reached = {tuple(site) for site in json.loads(run.stdout.splitlines()[-1])}
    unfired = ["%s:%d %s" % (os.path.relpath(path, PACKAGE.parent), line, text)
               for (path, line), text in sites.items() if (path, line) not in reached]
    assert not unfired, "integrity checks that no fault-injection test fires:\n" + "\n".join(unfired)
