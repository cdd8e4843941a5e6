"""One fresh process of the program, timed from inside.

    python3 benchmarks/child.py SPEC RESULT

SPEC is a JSON file written by run.py.  The process imports the package
first and notes the moment it is ready; then it runs the workload's fixed
list of items, timing the whole and each item (wall and CPU time), and
writes RESULT with the timings, its resource usage and the raw outputs.
The outputs are checked by run.py, after the process has ended, so
checking costs nothing here.

With "setup_only" in SPEC the process stops once the package is imported.
"""

import sys
import time

import latpoly.cli  # the console script's module: interpreter start plus import latpoly

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_batch(spec):
    """One `latpoly batch` call with one worker thread.  The time of each
    file is taken around cli._batch_entry, the per-file work of the
    batch's worker."""
    times = []
    entry = latpoly.cli._batch_entry

    def timed_entry(path):
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            return entry(path)
        finally:
            times.append((time.perf_counter() - t0, time.thread_time() - c0))

    latpoly.cli._batch_entry = timed_entry
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = latpoly.cli.main(["batch", spec["dir"], "--out", spec["report"], "--threads", "1"])
    finally:
        latpoly.cli._batch_entry = entry
    return times, {"exit_code": code}


def run_analyze(spec):
    times = []
    outputs = []
    for path in spec["files"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        c0 = _cpu()
        with contextlib.redirect_stdout(buf):
            code = latpoly.cli.main(["analyze", path, "--json"])
        times.append((time.perf_counter() - t0, _cpu() - c0))
        outputs.append({"exit_code": code, "stdout": buf.getvalue()})
    return times, {"items": outputs}


def _fraction(x):
    return None if x is None else str(x)


def run_cayley(spec):
    from latpoly.cayley import build_strict, check_localsplit, detect
    from latpoly.polytope import VPolytope, facets

    times = []
    outputs = []
    for family in spec["families"]:
        summands = [
            VPolytope(len(verts[0]), tuple(tuple(v) for v in verts))
            for verts in family["summands"]
        ]
        s = family["s"]
        t0 = time.perf_counter()
        c0 = _cpu()
        try:
            built = build_strict(summands, s)
            hrep = facets(built)
            dec = detect(built, s)
            split = check_localsplit(summands, s)
        except Exception as err:  # an item that raises is a failed item
            times.append((time.perf_counter() - t0, _cpu() - c0))
            outputs.append({"error": repr(err)})
            continue
        times.append((time.perf_counter() - t0, _cpu() - c0))
        outputs.append({
            "built": {"dim": built.dim, "vertices": [list(v) for v in built.vertices]},
            "facets": {"dim": hrep.dim,
                       "facets": [[list(nm), _fraction(off)] for nm, off in hrep.facets]},
            "detect": None if dec is None else {
                "k": dec.k, "s": dec.s,
                "projection": [list(r) for r in dec.projection],
                "translation": list(dec.translation)},
            "localsplit": {
                "applicable": split.applicable, "k": split.k, "s": split.s,
                "summand_dims": list(split.summand_dims), "smooth": split.smooth,
                "expected": _fraction(split.expected),
                "computed_tau": _fraction(split.computed_tau),
                "computed_qcodeg": _fraction(split.computed_qcodeg),
                "verdict": split.verdict},
        })
    return times, {"items": outputs}


RUNNERS = {"corpus-batch": run_batch, "analyze-bigbox": run_analyze, "cayley-families": run_cayley}


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    result = {"ready": READY}
    if not spec.get("setup_only"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        times, outputs = RUNNERS[spec["workload"]](spec)
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_stats()
            Path(spec["spans"]).write_text(json.dumps(tracer.span_records()))
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            item_s=[wall for wall, _ in times],
            item_cpu_s=[cpu for _, cpu in times],
            outputs=outputs,
        )
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
