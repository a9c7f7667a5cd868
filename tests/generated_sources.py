"""The Python source the statement compiler generates, by statement.

    PYTHONPATH=src python tests/generated_sources.py > sources.json

prints {id: source} for the 39 identities and the 5 claim texts as JSON.
Run it on two trees and compare the files to see what an edit of
statements.py does to the generated code.

    PYTHONPATH=src python tests/generated_sources.py --module > src/catalan_triangles/_prebuilt.py

writes the module of those sources that identities._compiled runs in place
of the compiler for a built-in text; run it after every edit of
statements.py that changes the generated code.
"""

import json
import sys

from catalan_triangles import conjectures, identities, statements

_HEADER = '''"""The statement compiler's output for the built-in statements; generated, do not edit.

    PYTHONPATH=src python tests/generated_sources.py --module > src/catalan_triangles/_prebuilt.py

writes this file from statements.py.  Each _build_<i> is the factory
statements.compile_identity generates for one built-in text, byte for
byte but for its name, and BUILT maps (parameter names, statement,
constraint text) to it.  identities._compiled calls a factory's code with
its own globals, so the code reads _c_ext, binomial and the tables there
at call time; CPython's .pyc of this module keeps the compiled code.
"""
'''


def generated_source(parameters, statement=None, constraint=None) -> str:
    """The source statements.compile_identity generates for these arguments (see its docstring)."""
    sources = []

    def recording(source, *args):
        sources.append(source)
        return compile(source, *args)

    statements.compile = recording  # a module global, which the compiler's call finds before the builtin
    try:
        statements.compile_identity(parameters, vars(identities), statement, constraint)
    finally:
        del statements.compile
    (source,) = sources
    return source


def _built_ins():
    """(id, parameter names, statement, constraint text) of each built-in, in registry order.

    A lookup replaces a descriptor's constraint text with its compiled test,
    so this reads the registries before any built-in is looked up, as in a
    fresh process.
    """
    for registry in (identities._REGISTRY, conjectures._STATEMENTS):
        for ident in registry.values():
            assert ident.lhs is ident.rhs is None and not callable(ident.constraint), "%s was looked up" % ident.id
            yield ident.id, ident.parameter_names(), ident.statement, ident.constraint


def built_in_sources() -> dict[str, str]:
    """id -> generated source of each built-in statement with its constraint."""
    return {ident: generated_source(*key) for ident, *key in _built_ins()}


def prebuilt_module() -> str:
    """The source of catalan_triangles/_prebuilt.py: each built-in text's factory, renamed _build_<i>, and BUILT.

    Built-ins that share their text (parameter names, statement and
    constraint) share its factory.
    """
    ids = {}
    for ident, *key in _built_ins():
        ids.setdefault(tuple(key), []).append(ident)
    factories, entries = [], []
    for i, (key, shared) in enumerate(ids.items()):
        source = generated_source(*key)
        head = "def _build("
        assert source.startswith(head), source
        factories.append("\n\n# %s\ndef _build_%d(%s" % (", ".join(shared), i, source[len(head):]))
        entries.append("    %r: _build_%d,\n" % (key, i))
    return "%s%s\n\nBUILT = {\n%s}\n" % (_HEADER, "".join(factories), "".join(entries))


if __name__ == "__main__":
    if sys.argv[1:] == ["--module"]:
        sys.stdout.write(prebuilt_module())
    else:
        json.dump(built_in_sources(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
