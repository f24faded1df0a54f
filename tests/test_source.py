"""Source-level rules for the library itself."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "quivercount"


def test_no_assert_statements():
    # python -O strips assert statements, so a consistency check written as
    # one silently stops running; checks must raise explicitly instead.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
