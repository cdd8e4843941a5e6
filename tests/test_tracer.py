"""The traced benchmark run (benchmarks/run.py --trace 1) wraps package
functions by name and reads the caches of some: each name it lists must
still exist, or the traced run fails with a KeyError or AttributeError."""

import importlib.util
import sys
from pathlib import Path

import latpoly.cli  # noqa: F401  (loaded by the benchmark child before tracing)
from latpoly.cayley import generate

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("latpoly_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(name):
    modname, funcname = name.split(".")
    return getattr(sys.modules[f"latpoly.{modname}"], funcname)


def test_tracer_names_resolve_and_install():
    tracer = _load_tracer()
    for modname, funcname in tracer.TRACED:
        assert callable(_resolve(f"{modname}.{funcname}")), (modname, funcname)
    for name in tracer._CACHED:
        assert hasattr(_resolve(name), "cache_info"), name
    t = tracer.Tracer()
    t.install()
    try:
        generate("cube", 2)
        assert t.layer_stats()["polytope.canonicalize.calls"] == 1
    finally:
        t.uninstall()
    for name, original in t._originals.items():
        assert _resolve(name) is original, name
