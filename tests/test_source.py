"""Source guards for two fixed properties of the package: exact arithmetic
(no float literal and no float() call in the core) and a runtime that
imports nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

import latpoly

SOURCES = sorted(Path(latpoly.__file__).parent.glob("*.py"))


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


def test_imports_stdlib_only():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}:{node.lineno} {name}"
