"""Steadiness check: two sets of runs of one workload on the same code.

    python3 benchmarks/steady.py --workload NAME [--runs 10] [--first-seed 1]

Set A uses seeds first-seed .. first-seed+runs-1, set B the next `runs`
seeds.  For each end-to-end metric the command prints each set's median,
quartiles and spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles), and whether

* each spread, except that of setup_s, is within the metric's bound
  (and below a third of it, the margin the benchmark aims for);
* B's median is not worse than A's by more than the bound;
* the share of failed operations is the same in both sets.

It exits with 1 when any of these fails.  The runs are kept in
benchmarks/results/steady-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sets = []
    for s in range(2):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            runs.append(one_run(args.workload, seed, seconds))
            print(f"set {'AB'[s]} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
        sets.append(runs)
    ok = True
    print(f"{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':14} {'median A':>11} {'IQR/med A':>9} {'median B':>11} {'IQR/med B':>9} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = (summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets)
        change = (b["median"] - a["median"]) / a["median"]
        worse = change if metric["better"] == "lower" else -change
        problems = []
        notes = []
        for label, sm in (("A", a), ("B", b)):
            if name == "setup_s":
                continue
            if sm["spread"] > bound:
                problems.append(f"spread {label} over bound")
            elif sm["spread"] > bound / 3:
                notes.append(f"spread {label} over bound/3")
        if worse > bound:
            problems.append("B worse than A beyond bound")
        ok = ok and not problems
        print(f"{name:14} {a['median']:11.4f} {a['spread']:9.2%} {b['median']:11.4f} "
              f"{b['spread']:9.2%} {change:+8.2%} {bound:6.2f}  {', '.join(problems + notes) or 'ok'}")
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
    print(f"failed share: A {shares[0]:.6f}  B {shares[1]:.6f}  "
          f"{'same' if shares[0] == shares[1] else 'DIFFERENT'}")
    ok = ok and shares[0] == shares[1] and all(r["correct"] for runs in sets for r in runs)
    out = HERE / "results" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "sets": sets}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
