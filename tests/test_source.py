"""Source-level rules for the library and for its test modules."""

import ast
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "quivercount"


def _parsed(files):
    assert files
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in files]


def _parsed_sources():
    return _parsed(sorted(SOURCE.glob("*.py")))


def _absolute_imports(tree):
    """(line, module) for every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_no_assert_statements():
    # python -O strips assert statements, so a consistency check written as
    # one silently stops running; checks must raise explicitly instead.
    found = []
    for name, tree in _parsed_sources():
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_runtime_imports_are_stdlib():
    found = ["%s:%d %s" % (name, line, module) for name, tree in _parsed_sources()
             for line, module in _absolute_imports(tree)
             if module.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_test_modules_import_no_test_module():
    # The oracles live in tests/oracles.py and the hypothesis strategies in
    # tests/strategies.py, so no test module runs another's module-level
    # code (or its importorskip) to borrow a helper.
    files = sorted(TESTS.glob("test_*.py")) + [TESTS / "oracles.py", TESTS / "strategies.py"]
    found = ["%s:%d %s" % (name, line, module) for name, tree in _parsed(files)
             for line, module in _absolute_imports(tree) if module.startswith("test_")]
    assert found == []


def test_no_module_outgrows_the_largest():
    # Without cached bytecode every interpreter compiles the package from
    # source, and the benchmark's peak_rss_mb follows the size of the
    # largest module (the FOUND line on peak_rss_mb in CHANGES.md).  So no
    # module may grow past 652 lines; a growth fails here, naming the
    # module, instead of at the benchmark gate.
    lengths = {path.name: len(path.read_text().splitlines()) for path in SOURCE.glob("*.py")}
    assert {name: n for name, n in lengths.items() if n > 652} == {}


def test_one_guard():
    # One guard mechanism: multigraph.charge is the only code that raises
    # GuardError, and GUARD the only module-level guard name.
    raises, names = [], []
    for name, tree in _parsed_sources():
        helper = {id(node) for f in tree.body if isinstance(f, ast.FunctionDef)
                  and (name, f.name) == ("multigraph.py", "charge") for node in ast.walk(f)}
        raises += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc is not None
                   and "GuardError" in ast.unparse(node.exc) and id(node) not in helper]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                found = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
            else:
                continue
            names += ["%s %s" % (name, n) for n in found if n.startswith("GUARD") and n != "GUARD"]
    assert raises == [] and names == []


def test_one_gl_module():
    # gl.py alone lists the canonical forms over a field, lifts the classes
    # to a local ring with its orbit partition, reads the units of an
    # endomorphism nullspace (the lift's centralizers) and keeps the
    # _gl_data memo on each algebra.  No other module defines those, or
    # names the memo, or calls them but for stabilizer_order's one count of
    # units; and no module lists GL_n(R) or G, whose scans are oracles in
    # tests/oracles.py.
    kernels = {"_end_units", "_field_classes", "_lifted_classes", "_orbit_parts"}
    scans = {"invertible_matrices", "gl_elements", "enumerate_group"}
    defined, found, calls = set(), [], []
    for name, tree in _parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                used = node.name
                if name == "gl.py":
                    defined.add(used)
                if used in scans:
                    found.append("%s:%d defines %s" % (name, node.lineno, used))
            elif isinstance(node, ast.Call):
                used = ast.unparse(node.func).rpartition(".")[2]
            else:
                continue
            if used in kernels and name != "gl.py":
                calls.append("%s %s" % (name, used))
    found += [path.name for path in SOURCE.glob("*.py")
              if path.name != "gl.py" and "_gl_data" in path.read_text()]
    assert kernels <= defined and found == [] and calls == ["repenum.py _end_units"]


def test_src_line_budget():
    # ROADMAP aim 2: the same behaviour from the least code, which shows as
    # fewer lines in src/.  Lower the budget as src/ shrinks; never raise it.
    total = sum(len(path.read_text().splitlines()) for path in SOURCE.glob("*.py"))
    assert total <= 3520, total
