"""Traced runs: where the time of each workload goes, layer by layer.

    python3 benchmarks/trace.py [--workload NAME ...] [--seed N] [--repeat]

For each workload (all three by default) this makes one run with
`--trace 1` and prints every per-layer metric and the tracing overhead (the
traced process's wall time against the untraced one on the same inputs).
With --repeat it makes a second traced run on the same seed and checks that
every count (calls, rows, points, subsets, cache hits, misses and entries)
is exactly the same; it exits with 1 if one differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-batch", "analyze-bigbox", "cayley-families")


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced run of {workload} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in args.workload or WORKLOADS:
        first = traced_run(workload, args.seed, seconds)
        print(f"== {workload} (seed {args.seed}, {first['attempted']} operations checked,"
              f" {first['failed']} failed)")
        for name, m in first["metrics"].items():
            value = m["value"]
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            print(f"  {name:42} {shown:>14} {m['unit']}")
        if args.repeat:
            second = traced_run(workload, args.seed, seconds)
            differ = [
                name for name, m in first["metrics"].items()
                if m["unit"] == "count" and second["metrics"][name]["value"] != m["value"]
            ]
            print(f"  counts repeat exactly: {'yes' if not differ else 'NO: ' + ', '.join(differ)}")
            ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
