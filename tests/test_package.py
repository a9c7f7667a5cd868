"""The package root and what a process loads: every public name resolves on
first access, and a command imports only the modules it runs."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import catalan_triangles
from catalan_triangles import triangles

_ENGINES = {"catalan_triangles.identities", "catalan_triangles.conjectures", "catalan_triangles.statements"}
# the package's own modules, without the engines: what seq and value run
_TRIANGLES = {"catalan_triangles", "catalan_triangles.cli", "catalan_triangles.errors", "catalan_triangles.exact",
              "catalan_triangles.triangles"}


@pytest.mark.parametrize("name", catalan_triangles.__all__)
def test_every_public_name_resolves_both_ways_and_is_listed(name):
    namespace = {}
    exec("from catalan_triangles import %s as value" % name, namespace)
    assert getattr(catalan_triangles, name) is namespace["value"]
    assert name in dir(catalan_triangles)


def test_the_public_names_are_those_of_the_modules_that_define_them():
    for name in catalan_triangles.__all__:
        value = getattr(catalan_triangles, name)
        module = sys.modules["catalan_triangles." + catalan_triangles._ORIGINS[name]]
        assert getattr(module, name) is value, name
    namespace = {}
    exec("from catalan_triangles import *", namespace)
    assert {name for name in namespace if not name.startswith("__")} == set(catalan_triangles.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        catalan_triangles.nonsense  # noqa: B018
    with pytest.raises(ImportError):
        exec("from catalan_triangles import nonsense", {})
    with pytest.raises(AttributeError, match="has no attribute 'nonsense'"):
        triangles.nonsense  # noqa: B018


def test_a_submodule_imports_through_the_root():
    namespace = {}
    exec("from catalan_triangles import conjectures, identities, statements", namespace)
    for name in ("conjectures", "identities", "statements"):
        assert namespace[name] is sys.modules["catalan_triangles." + name]


def test_sequence_spec_is_still_a_frozen_dataclass():
    spec = catalan_triangles.SequenceSpec("c_row", 0, 7, param=6)
    assert triangles.SequenceSpec is catalan_triangles.SequenceSpec
    assert dataclasses.is_dataclass(spec)
    assert [(f.name, f.default) for f in dataclasses.fields(spec)] == [
        ("kind", dataclasses.MISSING), ("start", dataclasses.MISSING), ("count", dataclasses.MISSING), ("param", None),
    ]
    assert repr(spec) == "SequenceSpec(kind='c_row', start=0, count=7, param=6)"
    same = triangles.SequenceSpec("c_row", 0, 7, 6)
    assert spec == same and hash(spec) == hash(same) and spec is not same
    assert spec != ("c_row", 0, 7, 6)
    moved = dataclasses.replace(spec, start=2, count=3)
    assert moved == triangles.SequenceSpec("c_row", 2, 3, 6) and spec.start == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.start = 1
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert catalan_triangles.generate(moved) == [5, 0, -5]


def _run(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_a_spec_pickled_before_its_class_loads_unpickles_in_a_fresh_process():
    # a pickle names the class by its module, and one written while the class lived in triangles names that module,
    # whose SequenceSpec resolves on first access
    spec = triangles.SequenceSpec("b_row", 1, 4, param=4)
    blob = pickle.dumps(spec, protocol=0)
    for blob in (blob, blob.replace(b"catalan_triangles._spec", b"catalan_triangles.triangles")):
        assert _run("import pickle; print(pickle.loads(%r))" % blob) == "%r\n" % (spec,)


def _loaded(*args):
    """The modules a fresh `python -S` process imports, run with args, from its start to its exit.

    -S keeps out the imports of the environment's .pth files, which are not
    the program's, so the package is found through PYTHONPATH; -X importtime
    lists every import on stderr.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(catalan_triangles.__file__)))
    result = subprocess.run([sys.executable, "-S", "-X", "importtime", *args], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines() if line.startswith("import time")}


def test_importing_the_cli_loads_no_engine_and_none_of_argparse_dataclasses_json_or_typing():
    loaded = _loaded("-c", "import catalan_triangles.cli")
    assert {name for name in loaded if name.startswith("catalan_triangles")} == _TRIANGLES
    assert sorted(loaded & {"argparse", "dataclasses", "fractions", "json", "typing"}) == []


# each command, and the modules its whole process must not load
_UNUSED = [
    (["seq", "c-row:30", "0", "31"], _ENGINES | {"argparse", "dataclasses", "fractions", "json", "typing"}),
    (["seq", "c-row:30", "0", "31", "--format", "json"], _ENGINES | {"argparse", "dataclasses", "typing"}),
    (["value", "c", "6", "2"], _ENGINES | {"argparse", "dataclasses", "fractions", "json", "typing"}),
    (["verify", "eq-vandermonde", "--no-timing"], {"catalan_triangles.conjectures", "catalan_triangles.statements"}),
]


@pytest.mark.parametrize("argv, unused", _UNUSED, ids=[" ".join(argv) for argv, _ in _UNUSED])
def test_a_process_loads_only_what_its_command_runs(argv, unused):
    # start-up is most of a CLI run: seq and value run on the triangles alone, and verify runs no scan
    loaded = _loaded("-m", "catalan_triangles", *argv)
    assert "catalan_triangles.triangles" in loaded
    assert sorted(loaded & unused) == []
    if argv[0] != "verify":
        assert {name for name in loaded if name.startswith("catalan_triangles")} == _TRIANGLES
