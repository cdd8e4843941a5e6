"""Command-line front end.

Exit codes: 0 success, 1 usage or bad parameters, 2 invalid polytope input,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .cayley import build, check_localsplit, detect, generate
from .errors import InvalidPolytope, InvariantViolation
from .fileio import (
    BATCH_FORMAT,
    REPORT_FORMAT,
    encode_rational,
    load_polytope,
    polytope_payload,
    save_polytope,
)
from .invariants import classify, codegree, degree, qcodegree
from .polytope import ensure_lattice, is_smooth, lattice_points, vertices


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="latpoly", description="Exact lattice polytope invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="report all invariants of one polytope")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--json", action="store_true", dest="as_json")

    p_cayley = sub.add_parser("cayley", help="build or detect Cayley structure")
    cayley_sub = p_cayley.add_subparsers(dest="subcommand", required=True)
    p_build = cayley_sub.add_parser("build")
    p_build.add_argument("files", nargs="+")
    p_build.add_argument("--order", type=int, default=1)
    p_build.add_argument("-o", "--output")
    p_detect = cayley_sub.add_parser("detect")
    p_detect.add_argument("file")
    p_detect.add_argument("--order", type=int, default=1)
    p_detect.add_argument("-o", "--output-dir")

    p_split = sub.add_parser("localsplit", help="check the split-family value")
    p_split.add_argument("files", nargs="+")
    p_split.add_argument("--order", type=int, required=True)

    p_gen = sub.add_parser("gen", help="generate a named family member")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*")
    p_gen.add_argument("-o", "--output")

    p_batch = sub.add_parser("batch", help="analyze every polytope file in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--out", required=True)
    p_batch.add_argument("--threads", type=int, default=1)
    return parser


def _analyze_payload(path: str) -> dict:
    loaded = load_polytope(path)
    h = loaded.need_h()
    v = loaded.need_v()
    ensure_lattice(v.vertices)
    smooth, witness = is_smooth(h)
    payload = {
        "format": REPORT_FORMAT,
        "input": str(path),
        "tool_version": __version__,
        "dim": h.dim,
        "vertex_count": len(v.vertices),
        "lattice_point_count": len(lattice_points(h)),
        "smooth": smooth,
        "smooth_witness": None if witness is None else list(witness),
        "codegree": None,
        "degree": None,
        "qcodegree": None,
        "nef_value": None,
        "q_normal": None,
        "classification_applies": None,
        "cayley": None,
        "predicted_defect": None,
    }
    if smooth:
        report = classify(h)
        payload["codegree"] = report.codegree
        payload["degree"] = report.degree
        payload["qcodegree"] = encode_rational(report.qcodegree)
        payload["nef_value"] = encode_rational(report.nef_value)
        payload["q_normal"] = report.q_normal
        payload["classification_applies"] = report.classification_applies
        if report.cayley is not None:
            dec = report.cayley
            payload["cayley"] = {
                "k": dec.k,
                "s": dec.s,
                "strict": dec.strict,
                "summand_dims": [q.dim for q in dec.summands],
            }
        payload["predicted_defect"] = report.predicted_defect
    else:
        payload["codegree"] = codegree(h)
        payload["degree"] = degree(h)
        payload["qcodegree"] = encode_rational(qcodegree(h))
    return payload


def _print_report(payload: dict, as_json: bool, wall: float) -> None:
    if as_json:
        payload = dict(payload)
        payload["wall_time_seconds"] = wall
        print(json.dumps(payload, indent=2))
        return
    lines = [
        f"input:                 {payload['input']}",
        f"dim:                   {payload['dim']}",
        f"vertices:              {payload['vertex_count']}",
        f"lattice points:        {payload['lattice_point_count']}",
        f"smooth:                {payload['smooth']}",
    ]
    if payload["smooth_witness"] is not None:
        lines.append(f"non-smooth vertex:     {tuple(payload['smooth_witness'])}")
    lines += [
        f"codegree:              {payload['codegree']}",
        f"degree:                {payload['degree']}",
        f"q-codegree:            {payload['qcodegree']}",
    ]
    if payload["smooth"]:
        lines += [
            f"nef value:             {payload['nef_value']}",
            f"q-normal:              {payload['q_normal']}",
            f"classification applies: {payload['classification_applies']}",
        ]
        if payload["cayley"] is not None:
            c = payload["cayley"]
            lines.append(
                f"cayley structure:      k={c['k']} s={c['s']} strict={c['strict']}"
                f" summand_dims={c['summand_dims']}"
            )
        if payload["predicted_defect"] is not None:
            lines.append(f"predicted defect:      {payload['predicted_defect']}")
    print("\n".join(lines))


def _cmd_analyze(args) -> int:
    start = time.perf_counter()
    payload = _analyze_payload(args.file)
    _print_report(payload, args.as_json, time.perf_counter() - start)
    return 0


def _cmd_cayley_build(args) -> int:
    summands = [load_polytope(f).need_v() for f in args.files]
    built = build(summands, args.order)
    payload = polytope_payload(vrep=built)
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_cayley_detect(args) -> int:
    p = load_polytope(args.file).need_v()
    dec = detect(p, args.order)
    if dec is None:
        print("none")
        return 0
    print(f"k: {dec.k}")
    print(f"order: {dec.s}")
    print(f"strict: {dec.strict}")
    print(f"projection: {[list(row) for row in dec.projection]}")
    print(f"translation: {list(dec.translation)}")
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for j, q in enumerate(dec.summands):
            target = outdir / f"summand_{j}.json"
            save_polytope(target, vrep=q)
            print(f"summand {j}: {target}")
    else:
        for j, q in enumerate(dec.summands):
            print(f"summand {j}: dim={q.dim} vertices={[list(v) for v in q.vertices]}")
    return 0


def _cmd_localsplit(args) -> int:
    summands = [load_polytope(f).need_v() for f in args.files]
    report = check_localsplit(summands, args.order)
    print(f"k: {report.k}")
    print(f"order: {report.s}")
    print(f"summand dims: {list(report.summand_dims)}")
    print(f"smooth: {report.smooth}")
    print(f"applicable: {report.applicable}")
    print(f"expected: {encode_rational(report.expected)}")
    if report.applicable:
        print(f"computed nef value: {encode_rational(report.computed_tau)}")
        print(f"computed q-codegree: {encode_rational(report.computed_qcodeg)}")
        print(f"verdict: {report.verdict}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "product":
        if len(args.params) != 2:
            raise _UsageError("gen product needs two polytope files")
        parts = [load_polytope(f).need_h() for f in args.params]
        h = generate("product", *parts)
    else:
        try:
            params = [int(x) for x in args.params]
        except ValueError:
            raise _UsageError(f"family parameters must be integers: {args.params}") from None
        h = generate(args.family, *params)
    payload = polytope_payload(hrep=h, vrep=vertices(h))
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _batch_entry(path: Path):
    entry = {"input": str(path)}
    violations = []
    try:
        payload = _analyze_payload(str(path))
        payload.pop("format", None)
        payload.pop("input", None)
        entry["report"] = payload
    except InvalidPolytope as err:
        entry["error"] = str(err)
    except InvariantViolation as err:
        entry["error"] = str(err)
        violations.append(f"{path}: {err}")
    return entry, violations


def _cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise _UsageError(f"{args.directory} is not a directory")
    paths = sorted(directory.glob("*.json"))
    if args.threads < 1:
        raise _UsageError("--threads must be positive")
    if paths:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(_batch_entry, paths))
    else:
        results = []
    reports = [entry for entry, _ in results]
    violations = [v for _, vs in results for v in vs]
    payload = {
        "format": BATCH_FORMAT,
        "tool_version": __version__,
        "directory": str(directory),
        "reports": reports,
        "violations": violations,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"analyzed {len(reports)} files, {len(violations)} violations -> {args.out}")
    return 3 if violations else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "cayley":
            if args.subcommand == "build":
                return _cmd_cayley_build(args)
            return _cmd_cayley_detect(args)
        if args.command == "localsplit":
            return _cmd_localsplit(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "batch":
            return _cmd_batch(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InvalidPolytope as err:
        print(f"invalid polytope: {err}", file=sys.stderr)
        return 2
    except InvariantViolation as err:
        print(f"internal invariant violation: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"invalid polytope: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
