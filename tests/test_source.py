"""Source guards for four fixed properties of the package: exact arithmetic
(no float literal and no float() call in the core), a runtime that imports
nothing beyond the standard library, no code that only tests call, and no
`dataclasses` on the start-up path."""

import ast
import sys
from pathlib import Path

import latpoly

SOURCES = sorted(Path(latpoly.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_sources_found():
    assert {"cayley.py", "polytope.py", "ratlin.py"} <= {p.name for p in SOURCES}


def test_no_floats_in_the_core():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Constant) and type(node.value) is float), where
            assert not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            ), where


def _imports():
    """(file:line, module) of every absolute import in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}", name


def test_imports_stdlib_only():
    for where, name in _imports():
        assert name.split(".")[0] in sys.stdlib_module_names, f"{where} {name}"


def _traced():
    """The (module, function) pairs of TRACED in benchmarks/tracer.py, which
    wraps them by name: read off its source, not imported."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return {f"{m}.{f}" for m, f in ast.literal_eval(node.value)}
    raise AssertionError("no TRACED list in benchmarks/tracer.py")


def test_every_definition_has_a_runtime_use():
    # A module-level def or class is public, used by other package code, or
    # wrapped by the benchmark tracer.  lpx, the tests' LP oracle, stays in
    # the package while the tracer wraps lpx.solve.
    used = {}  # name -> the top-level statements that mention it
    defined = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path.stem != "lpx":
                defined.append((f"{path.stem}.{stmt.name}", stmt))
            for node in ast.walk(stmt):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                    used.setdefault(name, set()).add(id(stmt))
    public = set(latpoly.__all__)
    traced = _traced()
    unused = [
        qualified
        for qualified, stmt in defined
        if stmt.name not in public
        and qualified not in traced
        and not used.get(stmt.name, set()) - {id(stmt)}
    ]
    assert unused == []


def test_no_dataclasses_import():
    # The records are NamedTuples: importing dataclasses (and inspect behind
    # it) would put several milliseconds into every process start.
    assert [where for where, name in _imports() if name == "dataclasses"] == []
