"""The Python source the statement compiler generates, by statement.

    PYTHONPATH=src python tests/generated_sources.py > sources.json

prints {id: source} for the 39 identities and the 5 claim texts as JSON.
Run it on two trees and compare the files to see what an edit of
statements.py does to the generated code.
"""

import json
import sys

from catalan_triangles import conjectures, identities, statements


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


def built_in_sources() -> dict[str, str]:
    """id -> generated source of each built-in statement with its constraint.

    A lookup replaces a descriptor's constraint text with its compiled test,
    so this reads the registries before any built-in is looked up, as in a
    fresh process.
    """
    sources = {}
    for registry in (identities._REGISTRY, conjectures._STATEMENTS):
        for ident in registry.values():
            assert ident.lhs is ident.rhs is None and not callable(ident.constraint), "%s was looked up" % ident.id
            sources[ident.id] = generated_source(ident.parameter_names(), ident.statement, ident.constraint)
    return sources


if __name__ == "__main__":
    json.dump(built_in_sources(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
