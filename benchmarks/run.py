"""Benchmark of latpoly: one workload, one run, one JSON line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes its inputs from the seed
under benchmarks/work/, starts the program as fresh processes
(benchmarks/child.py), checks every output against closed forms, its own
brute force and the paper's properties (benchmarks/oracle.py), and prints as
its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, measured without
tracing.  With --trace 1 the same work runs once untraced and once traced;
the metrics are the per-layer figures of the traced process and the tracing
overhead, and the spans go to benchmarks/results/.

The work of a run is fixed by --seconds through the nominal round times in
inputs.WORKLOADS, never by the clock, so every run of one length does the
same whole rounds of the same operations.  Every round of a workload holds
the same shapes, so the rounds of a run are repeated measurements of one
amount of work: the rate and the CPU time are taken from the median round,
which a few disturbed seconds on a shared machine do not move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402

SETUP_SPAWNS = 8      # setup-only processes before and again after the work
TAIL_BEYOND = 10      # samples beyond the reported tail percentile
CHILD_TIMEOUT = 170   # seconds


# --------------------------------------------------------------------------
# Fresh processes.


def spawn(spec, workdir, tag):
    """Run child.py on SPEC; returns (result dict, setup seconds)."""
    spec_path = workdir / f"{tag}.spec.json"
    result_path = workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"program process failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - start


def setup_samples(workdir, tag):
    return [spawn({"setup_only": True}, workdir, f"setup{tag}{i}")[1] for i in range(SETUP_SPAWNS)]


# --------------------------------------------------------------------------
# Workloads: each returns a list of (spec, check) per process, where check
# maps the process's result to a list of per-item mismatch lists.


def corpus_batch(workdir, seed, rounds):
    """One `latpoly batch` process per round."""
    procs = []
    for r in range(rounds):
        indir = workdir / f"corpus{r}"
        indir.mkdir()
        files = inputs.write_corpus(indir, seed, r)
        report = workdir / f"report{r}.json"
        spec = {"workload": "corpus-batch", "dir": str(indir), "report": str(report)}
        procs.append((spec, _batch_checker(files, report)))
    return procs


def _batch_checker(files, report_path):
    facts = {path: oracle.family_facts(family, tuple(params)) for path, family, params in files}

    def check(result):
        if result["outputs"]["exit_code"] not in (0, 3):
            return [["batch exited with code %d" % result["outputs"]["exit_code"]]] * len(files)
        report = json.loads(Path(report_path).read_text())
        entries = {e["input"]: e for e in report["reports"]}
        out = []
        for path, _, _ in files:
            entry = entries.get(path)
            if entry is None:
                out.append(["missing from the batch report"])
            elif "error" in entry:
                out.append([f"error: {entry['error']}"])
            else:
                out.append(oracle.check_report(entry["report"], facts[path])
                           + [v for v in report["violations"] if v.startswith(path + ":")])
        return out

    return check


def analyze_bigbox(workdir, seed, rounds):
    indir = workdir / "bigbox"
    indir.mkdir()
    files = inputs.write_bigbox(indir, seed, rounds)
    facts = {key: oracle.family_facts(key[0], key[1]) for key in {(f, tuple(p)) for _, f, p in files}}

    def check(result):
        out = []
        for (path, family, params), item in zip(files, result["outputs"]["items"]):
            if item["exit_code"] != 0:
                out.append([f"analyze exited with code {item['exit_code']}"])
                continue
            try:
                report = json.loads(item["stdout"])
            except json.JSONDecodeError as err:
                out.append([f"analyze printed no JSON: {err}"])
                continue
            bad = oracle.check_report(report, facts[(family, tuple(params))])
            if report.get("input") != path:
                bad.append("report names another input")
            out.append(bad)
        return out

    spec = {"workload": "analyze-bigbox", "files": [path for path, _, _ in files]}
    return [(spec, check)]


def cayley_families(workdir, seed, rounds):
    families = inputs.cayley_families(seed, rounds)

    def check(result):
        return [oracle.check_family(f, o) for f, o in zip(families, result["outputs"]["items"])]

    spec = {"workload": "cayley-families", "families": families}
    return [(spec, check)]


MAKERS = {
    "corpus-batch": corpus_batch,
    "analyze-bigbox": analyze_bigbox,
    "cayley-families": cayley_families,
}

ROUND_ITEMS = {
    "corpus-batch": len(inputs.CORPUS_ROUND),
    "analyze-bigbox": len(inputs.BIGBOX),
    "cayley-families": len(inputs.CAYLEY_ROUND),
}


# --------------------------------------------------------------------------


def tail(values):
    """The highest order statistic with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    return ordered[len(ordered) - 1 - TAIL_BEYOND]


def round_times(workload, results):
    """(wall, cpu) seconds of each round.  A corpus-batch process is one
    round, timed whole (the batch call, its report included); the other
    workloads run their rounds one after another in one process, and a
    round's time is the sum of its items' times."""
    if workload == "corpus-batch":
        return [(r["wall_s"], r["cpu_s"]) for r in results]
    size = ROUND_ITEMS[workload]
    out = []
    for r in results:
        walls, cpus = r["item_s"], r["item_cpu_s"]
        for i in range(0, len(walls), size):
            out.append((sum(walls[i:i + size]), sum(cpus[i:i + size])))
    return out


def run(workload, seed, seconds, trace, workdir, resultdir):
    procs = MAKERS[workload](workdir, seed, inputs.rounds_for(workload, seconds))
    # Set-up is sampled before and after the work, so that its median
    # stands for two moments of the run rather than one.
    setups = setup_samples(workdir, "a")
    results = []
    checks = []
    traced = []
    for i, (spec, check) in enumerate(procs):
        result, setup = spawn(spec, workdir, f"work{i}")
        setups.append(setup)
        results.append(result)
        checks.extend(check(result))
        if trace:
            spans = resultdir / f"spans-{workload}-{seed}-{i}.json"
            traced_result, _ = spawn(dict(spec, trace=True, spans=str(spans)), workdir, f"traced{i}")
            traced.append(traced_result)
            checks.extend(check(traced_result))
    setups += setup_samples(workdir, "b")
    attempted = len(checks)
    failed = sum(1 for bad in checks if bad)
    for bad in checks:
        for line in bad[:3]:
            print(f"mismatch: {line}", file=sys.stderr)
    items = [t for r in results for t in r["item_s"]]
    wall = sum(r["wall_s"] for r in results)
    if trace:
        metrics = layer_metrics(traced, wall)
    else:
        rounds = round_times(workload, results)
        metrics = {
            "items_per_s": (ROUND_ITEMS[workload] / statistics.median(w for w, _ in rounds), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(c for _, c in rounds), "s"),
            "max_rss_mb": (max(r["max_rss_mb"] for r in results), "MB"),
            "item_p50_ms": (1000 * statistics.median(items), "ms"),
            "item_tail_ms": (1000 * tail(items), "ms"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(traced, untraced_wall):
    """Every per-layer metric named in BENCHMARK.json, summed over the
    traced processes; a layer the workload never reaches reads 0."""
    totals = {}
    for result in traced:
        for name, value in result["layers"].items():
            totals[name] = totals.get(name, 0) + value
    traced_wall = sum(r["wall_s"] for r in traced)
    totals["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (totals.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latpoly" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'latpoly'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    resultdir = HERE / "results"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    resultdir.mkdir(exist_ok=True)
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace, workdir, resultdir)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
