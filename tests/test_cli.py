import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

import latpoly
from latpoly import cli, lpx, polytope
from latpoly.cayley import (
    DETECT_BUDGET,
    build,
    build_strict,
    check_localsplit,
    generate,
    lattice_point,
    segment,
)
from latpoly.cli import main
from latpoly.errors import InvalidPolytope, InvariantViolation
from latpoly.fileio import (
    load_polytope,
    parse_polytope,
    polytope_payload,
    save_polytope,
)
from latpoly.invariants import classify
from latpoly.polytope import FIBRE_BUDGET, RAY_BUDGET, VPolytope, facets, vertices
from test_invariants import _sheared_prism


def write_gen(tmp_path, name, family, *params):
    target = tmp_path / name
    h = generate(family, *params)
    save_polytope(target, hrep=h, vrep=vertices(h))
    return target


def write_point(tmp_path, name):
    target = tmp_path / name
    save_polytope(target, vrep=lattice_point())
    return target


def test_round_trip_both_presentations(tmp_path):
    h = generate("blowup", 4, 1, 3)
    v = vertices(h)
    target = tmp_path / "p.json"
    save_polytope(target, hrep=h, vrep=v)
    loaded = load_polytope(target)
    assert loaded.hrep == h
    assert loaded.vrep == v


def test_round_trip_big_integers(tmp_path):
    big = 2**60
    v = VPolytope(1, ((0,), (big,)))
    target = tmp_path / "big.json"
    save_polytope(target, vrep=v)
    raw = json.loads(target.read_text())
    assert raw["vrep"]["vertices"][1][0] == str(big)
    assert load_polytope(target).vrep == v


def test_reader_accepts_plain_and_string_numbers():
    payload = {
        "format": "latpoly/1",
        "dim": 1,
        "hrep": {"normals": [["1"], [-1]], "offsets": [0, "2"]},
        "extra_key_is_ignored": True,
    }
    loaded = parse_polytope(payload)
    assert loaded.need_v().vertices == ((0,), (2,))


def test_reader_rejects_rational_vertex(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text(
        json.dumps(
            {
                "format": "latpoly/1",
                "dim": 2,
                "vrep": {"vertices": [["1/2", 0], [1, 0], [0, 1]]},
            }
        )
    )
    with pytest.raises(InvalidPolytope):
        load_polytope(target)


def test_reader_rejects_mismatched_presentations(tmp_path):
    h = generate("simplex", 1, 2)
    target = tmp_path / "mismatch.json"
    payload = polytope_payload(hrep=h, vrep=VPolytope(2, ((0, 0), (1, 0), (1, 1))))
    target.write_text(json.dumps(payload))
    with pytest.raises(InvalidPolytope):
        load_polytope(target)
    h = generate("simplex", 2, 2)
    v = vertices(h)
    for points in (
        ((0, 0), (2, 0)),  # vertex (0, 2) missing
        ((0, 0), (0, 2), (2, 0), (2, 1)),  # (2, 1) lies outside
    ):
        target.write_text(json.dumps(polytope_payload(hrep=h, vrep=VPolytope(2, points))))
        with pytest.raises(InvalidPolytope, match="describe different polytopes"):
            load_polytope(target)
    # Listed points that are not vertices are dropped.
    extra = VPolytope(2, v.vertices + ((1, 1), (0, 1)))
    target.write_text(json.dumps(polytope_payload(hrep=h, vrep=extra)))
    assert load_polytope(target).vrep == v


MALFORMED = {
    "normals-without-offsets": {"format": "latpoly/1", "dim": 2, "hrep": {"normals": [[1, 0]]}},
    "hrep-not-an-object": {"format": "latpoly/1", "dim": 2, "hrep": 5},
    "vertices-not-rows": {"format": "latpoly/1", "dim": 2, "vrep": {"vertices": [1, 2]}},
    "offsets-too-short": {
        "format": "latpoly/1",
        "dim": 1,
        "hrep": {"normals": [[1], [-1]], "offsets": [0]},
    },
    "no-half-spaces": {"format": "latpoly/1", "dim": 1, "hrep": {"normals": [], "offsets": []}},
    "not-utf-8": b"\xff\xfe{}",
    # json.loads raises ValueError past Python's 4300-digit limit on int().
    "integer-past-digit-limit": b'{"format": "latpoly/1", "dim": ' + b"1" * 5000 + b"}",
    # and RecursionError on nesting this deep.
    "nested-too-deep": b"[" * 100000 + b"]" * 100000,
    # A segment of 10^4300 lattice points, a count str() cannot write.
    "count-past-digit-limit": {
        "format": "latpoly/1",
        "dim": 1,
        "hrep": {"normals": [[1], [-1]], "offsets": [0, "9" * 4300]},
    },
}


@pytest.mark.parametrize("content", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_exit_2(tmp_path, capsys, content):
    indir = tmp_path / "in"
    indir.mkdir()
    bad = indir / "a_bad.json"
    bad.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    write_gen(indir, "b_good.json", "simplex", 1, 2)
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid polytope: ") and err.count("\n") == 1
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    bad_entry, good_entry = json.loads(out.read_text())["reports"]
    assert bad_entry["input"] == str(bad) and "error" in bad_entry
    assert good_entry["report"]["codegree"] == 3


@pytest.mark.parametrize("family", [("simplex", 1, 3), ("blowup", 4, 1, 3)])
def test_load_and_classify_solve_no_lp(tmp_path, monkeypatch, family):
    target = tmp_path / "p.json"
    assert main(["gen", *map(str, family), "-o", str(target)]) == 0
    calls = []
    solve = lpx.solve

    def counted(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(lpx, "solve", counted)
    classify(load_polytope(target).hrep)
    assert calls == []  # the rational codegree comes from the double description


def test_analyze_blowup(tmp_path, capsys):
    target = write_gen(tmp_path, "blowup.json", "blowup", 4, 1, 3)
    assert main(["analyze", str(target), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["codegree"] == 1
    assert report["qcodegree"] == 1
    assert report["nef_value"] == 2
    assert report["q_normal"] is False
    assert report["smooth"] is True


def test_analyze_simplex_text(tmp_path, capsys):
    target = write_gen(tmp_path, "simplex.json", "simplex", 1, 3)
    assert main(["analyze", str(target)]) == 0
    out = capsys.readouterr().out
    assert "codegree:              4" in out
    assert "q-normal:              True" in out
    assert "k=3" in out


def test_analyze_non_smooth(tmp_path, capsys):
    # A Reeve tetrahedron: no interior lattice point, two in its second
    # dilate, so codegree 2 and degree 3 + 1 - 2.
    target = tmp_path / "reeve.json"
    vertices = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]]
    target.write_text(json.dumps({"format": "latpoly/1", "dim": 3, "vrep": {"vertices": vertices}}))
    assert main(["analyze", str(target), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["smooth"] is False
    assert (report["codegree"], report["degree"], report["qcodegree"]) == (2, 2, "4/3")
    assert report["nef_value"] is None and report["cayley"] is None


def test_analyze_non_smooth_text(tmp_path, capsys):
    # The order-2 Cayley sum of segments 6, 5, 3 is not smooth: the text
    # report names the witness and stops before the smooth-only lines.
    target = tmp_path / "sum.json"
    save_polytope(target, vrep=build([segment(6), segment(5), segment(3)], 2))
    assert main(["analyze", str(target)]) == 0
    assert capsys.readouterr().out == (
        f"input:                 {target}\n"
        "dim:                   3\n"
        "vertices:              6\n"
        "lattice points:        33\n"
        "smooth:                False\n"
        "non-smooth vertex:     (3, 0, 2)\n"
        "codegree:              2\n"
        "degree:                2\n"
        "q-codegree:            3/2\n"
    )


def test_report_integers_over_2_53_are_strings(tmp_path, capsys):
    big = 2**60
    indir = tmp_path / "in"
    indir.mkdir()
    segment_file = indir / "segment.json"
    save_polytope(segment_file, vrep=VPolytope(1, ((0,), (big,))))
    moved = build([segment(6), segment(5), segment(3)], 2)
    moved = VPolytope(3, tuple((x + big, y, z) for x, y, z in moved.vertices))
    sum_file = indir / "sum.json"
    save_polytope(sum_file, vrep=moved)

    assert main(["analyze", str(segment_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lattice_point_count"] == str(big + 1)
    assert main(["analyze", str(sum_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["smooth_witness"] == [str(big + 3), 0, 2]
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    reports = [entry["report"] for entry in json.loads(out.read_text())["reports"]]
    assert reports[0]["lattice_point_count"] == str(big + 1)  # segment.json sorts first
    assert reports[1]["smooth_witness"] == [str(big + 3), 0, 2]
    capsys.readouterr()

    # The text report prints the same digits, without quotes.
    assert main(["analyze", str(segment_file)]) == 0
    assert f"lattice points:        {big + 1}\n" in capsys.readouterr().out
    assert main(["analyze", str(sum_file)]) == 0
    assert f"non-smooth vertex:     ({big + 3}, 0, 2)\n" in capsys.readouterr().out


def test_analyze_rational_vertex_exit_2(tmp_path, capsys):
    target = tmp_path / "bad.json"
    target.write_text(
        json.dumps(
            {
                "format": "latpoly/1",
                "dim": 2,
                "vrep": {"vertices": [["1/2", 0], [1, 0], [0, 1]]},
            }
        )
    )
    assert main(["analyze", str(target)]) == 2


def test_analyze_missing_file_exit_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


def write_hrep(path, normals, offsets):
    payload = {"format": "latpoly/1", "dim": len(normals[0])}
    payload["hrep"] = {"normals": normals, "offsets": offsets}
    path.write_text(json.dumps(payload))
    return path


def test_analyze_long_segment(tmp_path, capsys):
    # 10^19 + 1 points pass 2^63 - 1, where len() of the fibre's range
    # overflows; past 2^53 the count is written as a string.
    for length, count in [(10**8, 10**8 + 1), (10**19, str(10**19 + 1))]:
        target = write_hrep(tmp_path / "segment.json", [[1], [-1]], [0, length])
        assert main(["analyze", str(target), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["lattice_point_count"] == count


def test_analyze_over_fibre_budget_exit_2(tmp_path, capsys):
    # The second box's first fibre, 10^19 + 1 values, overflows len().
    indir = tmp_path / "in"
    indir.mkdir()
    box = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    bad = [
        (write_hrep(indir / f"a_box{i}.json", box, [0, width, 0, height]), width)
        for i, (width, height) in enumerate([(2 * 10**6, 1), (10**19, 10**19)])
    ]
    write_gen(indir, "b_good.json", "simplex", 1, 2)
    for path, width in bad:
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid polytope: ") and err.count("\n") == 1
        assert f"passed {width + 1} fibres, budget {FIBRE_BUDGET}" in err
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    *bad_entries, good_entry = json.loads(out.read_text())["reports"]
    assert [entry["input"] for entry in bad_entries] == [str(path) for path, _ in bad]
    assert all(f"budget {FIBRE_BUDGET}" in entry["error"] for entry in bad_entries)
    assert good_entry["report"]["lattice_point_count"] == 3


def test_overlong_bad_literal_named_by_length(tmp_path, capsys):
    # A bad literal is quoted only while short; a longer one is named by its
    # length, so the error stays one short line.
    long = "9" * 4999 + "x"
    for normals, offsets, message in [
        ([[1], [-1]], [0, long], "bad rational literal of 5000 characters"),
        ([[long], [-1]], [0, 1], "bad integer literal of 5000 characters"),
        ([[1], [-1]], [0, "1/0"], "bad rational literal '1/0'"),
    ]:
        target = write_hrep(tmp_path / "bad.json", normals, offsets)
        assert main(["analyze", str(target)]) == 2
        assert capsys.readouterr().err == f"invalid polytope: {message}\n"


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name == "latpoly" or name.startswith("latpoly."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def _count_double_descriptions(monkeypatch) -> list:
    """The dims of the _extreme_rays runs from here on, all caches cleared."""
    calls = []
    original = polytope._extreme_rays

    def counted(rows, dim):
        calls.append(dim)
        return original(rows, dim)

    monkeypatch.setattr(polytope, "_extreme_rays", counted)
    _clear_package_caches()
    return calls


@pytest.mark.parametrize("kind, runs", [("hrep", 1), ("vrep", 2)])
def test_analyze_work_count(tmp_path, monkeypatch, capsys, kind, runs):
    # The double descriptions one analyze of the 10-segment prism runs, a
    # count no machine noise moves.  hrep: vertex_data only, whose cone
    # points also give the lattice count's box.  The prism is smooth and
    # Q-normal, so qc is the nef value by the rank of the shifted vertices,
    # the codegree walk takes its box from them, and the strictness of the
    # structure is read off the incidences.  A vrep file adds the hull of
    # its points, which reduce_vertices reads and facets reuses, every
    # point being a vertex.
    h = generate("lawrence", [1 + i % 2 for i in range(10)])
    target = tmp_path / "prism.json"
    save_polytope(target, **{kind: h if kind == "hrep" else vertices(h)})
    calls = _count_double_descriptions(monkeypatch)
    assert main(["analyze", str(target)]) == 0
    assert "codegree:              10\n" in capsys.readouterr().out
    assert len(calls) == runs


def _cube_sum(k, d):
    """facets(build_strict) of k + 1 unit d-cubes: dimension k + d."""
    cube = VPolytope(d, tuple(itertools.product((0, 1), repeat=d)))
    return facets(build_strict([cube] * (k + 1), 1))


@pytest.mark.parametrize("make", [lambda: _sheared_prism(20), lambda: _cube_sum(6, 5)], ids=["prism", "cubes"])
def test_classify_work_count(monkeypatch, make):
    # classify on a regime member runs only the double description behind
    # vertex_data: Q-normality, qc, the codegree walk's box and the
    # strictness of the structure all come off its vertex data.
    h = make()
    calls = _count_double_descriptions(monkeypatch)
    report = classify(h)
    assert report.classification_applies and report.cayley.strict
    assert len(calls) == 1


def test_localsplit_work_count(monkeypatch):
    # One hull per rectangle for build's reduction of each summand, one
    # hull of the sum for build_strict's fan test, which facets reuses,
    # then vertex_data for is_smooth.
    def rect(a, b):
        return VPolytope(2, ((0, 0), (0, b), (a, 0), (a, b)))

    calls = _count_double_descriptions(monkeypatch)
    check_localsplit([rect(1, 1), rect(2, 1), rect(3, 2)], 1)
    assert len(calls) == 5


def test_cayley_detect_work_count(tmp_path, monkeypatch, capsys):
    # cayley detect on a vrep of the sheared 10-segment prism runs one
    # double description: the hull of its points, which reduce_vertices
    # reads on loading and whose masks give the strictness of the structure.
    target = tmp_path / "prism.json"
    save_polytope(target, vrep=vertices(_sheared_prism(10)))
    calls = _count_double_descriptions(monkeypatch)
    assert main(["cayley", "detect", str(target)]) == 0
    out = capsys.readouterr().out
    assert "k: 9\n" in out and "strict: True\n" in out
    assert len(calls) == 1


def test_over_ray_budget_exit_2(tmp_path, capsys):
    # The unit 12-cube has 4096 vertices, over RAY_BUDGET.
    indir = tmp_path / "in"
    indir.mkdir()
    normals = [[s * int(i == j) for j in range(12)] for i in range(12) for s in (1, -1)]
    bad = write_hrep(indir / "a_cube.json", normals, [0, 1] * 12)
    write_gen(indir, "b_good.json", "simplex", 1, 2)
    message = f"kept {RAY_BUDGET + 1} rays, budget {RAY_BUDGET}"
    for argv in (["gen", "cube", "12"], ["analyze", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid polytope: ") and err.count("\n") == 1
        assert message in err
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    bad_entry, good_entry = json.loads(out.read_text())["reports"]
    assert message in bad_entry["error"]
    assert good_entry["report"]["lattice_point_count"] == 3


def test_rational_vertex_exit_2(tmp_path, capsys):
    # 0 <= x <= 1/2 has the vertex 1/2.
    indir = tmp_path / "in"
    indir.mkdir()
    bad = write_hrep(indir / "a_half.json", [[1], [-1]], [0, "1/2"])
    write_gen(indir, "b_good.json", "simplex", 1, 2)
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid polytope: non-integer vertex (") and err.count("\n") == 1
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    bad_entry, good_entry = json.loads(out.read_text())["reports"]
    assert bad_entry["error"].startswith("non-integer vertex (")
    assert good_entry["report"]["lattice_point_count"] == 3


def test_main_repeated_in_one_process(tmp_path, capsys):
    target = write_gen(tmp_path, "twodelta.json", "simplex", 2, 2)
    assert main(["analyze", str(target), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lattice_point_count"] == 6
    assert main(["analyze", str(target)]) == 0
    out = capsys.readouterr().out  # text: as_json did not carry over
    assert out.startswith("input:") and "lattice points:        6" in out
    assert main(["analyze"]) == 1
    gen = tmp_path / "gen.json"
    assert main(["gen", "simplex", "1", "2", "-o", str(gen)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(gen), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["lattice_point_count"] == 3


def test_usage_error_exit_1():
    assert main(["analyze"]) == 1
    assert main(["nosuchcommand"]) == 1


def test_parser_built_once_and_reused(tmp_path, capsys):
    assert latpoly.cli._build_parser() is latpoly.cli._build_parser()
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latpoly")
    assert main(["analyze"]) == 1
    rectangle = tmp_path / "rectangle.json"  # [0, 1] x [0, 2]: Cayley of order 1 and of order 2
    save_polytope(rectangle, vrep=VPolytope(2, ((0, 0), (0, 2), (1, 0), (1, 2))))
    assert main(["cayley", "detect", str(rectangle), "--order", "2"]) == 0
    assert "order: 2" in capsys.readouterr().out
    assert main(["cayley", "detect", str(rectangle)]) == 0
    assert "order: 1" in capsys.readouterr().out  # the default, not the last --order
    target = write_gen(tmp_path, "blowup.json", "blowup", 4, 1, 3)
    assert main(["analyze", str(target), "--json"]) == 0
    here = json.loads(capsys.readouterr().out)
    fresh = _run_python("-m", "latpoly.cli", "analyze", str(target), "--json")
    assert fresh.returncode == 0, fresh.stderr
    there = json.loads(fresh.stdout)
    del here["wall_time_seconds"], there["wall_time_seconds"]
    assert list(here.items()) == list(there.items())


def test_cli_import_skips_dataclasses_and_inspect():
    script = "import sys; before = set(sys.modules); import latpoly.cli; print(*sorted(set(sys.modules) - before))"
    done = _run_python("-S", "-c", script)  # -S: no site hook loads modules first
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "latpoly.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_internal_violation_exit_3(tmp_path, monkeypatch, capsys):
    target = write_gen(tmp_path, "simplex.json", "simplex", 1, 2)

    def boom(path):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr("latpoly.cli._analyze_payload", boom)
    assert main(["analyze", str(target)]) == 3


def test_cayley_build_points(tmp_path, capsys):
    files = [str(write_point(tmp_path, f"pt{i}.json")) for i in range(3)]
    out = tmp_path / "built.json"
    assert main(["cayley", "build", *files, "--order", "2", "-o", str(out)]) == 0
    built = load_polytope(out).need_v()
    assert built.vertices == ((0, 0), (0, 2), (2, 0))


def test_cayley_detect_none(tmp_path, capsys):
    target = write_gen(tmp_path, "twodelta2.json", "simplex", 2, 2)
    assert main(["cayley", "detect", str(target)]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_cayley_detect_prism(tmp_path, capsys):
    target = write_gen(tmp_path, "prism23.json", "lawrence", 2, 3)
    assert main(["cayley", "detect", str(target)]) == 0
    out = capsys.readouterr().out
    assert "k: 1" in out
    assert "strict: True" in out


def test_cayley_detect_over_budget_exit_2(tmp_path, capsys):
    target = tmp_path / "prism20.json"
    save_polytope(target, vrep=build([segment(1 + i % 2) for i in range(20)], 1))
    assert main(["cayley", "detect", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"invalid polytope: Cayley detection passed {2**20 - 1} steps, budget {DETECT_BUDGET}\n"
    )


@pytest.mark.parametrize("order", ["0", "-1"])
def test_cayley_detect_bad_order_exit_1(tmp_path, capsys, order):
    target = write_gen(tmp_path, "segment.json", "simplex", 1, 1)
    assert main(["cayley", "detect", str(target), "--order", order]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: width bound must be a positive integer\n"


def test_cayley_detect_writes_summands(tmp_path, capsys):
    target = write_gen(tmp_path, "prism23.json", "lawrence", 2, 3)
    outdir = tmp_path / "summands"
    assert main(["cayley", "detect", str(target), "-o", str(outdir)]) == 0
    lengths = set()
    for j in range(2):
        q = load_polytope(outdir / f"summand_{j}.json").need_v()
        lengths.add(max(v[0] for v in q.vertices) - min(v[0] for v in q.vertices))
    assert lengths == {2, 3}


def test_localsplit_five_points(tmp_path, capsys):
    files = [str(write_point(tmp_path, f"pt{i}.json")) for i in range(5)]
    assert main(["localsplit", *files, "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "applicable: True" in out
    assert "expected: 5/2" in out
    assert "verdict: True" in out


def test_localsplit_mixed_dimensions_exit_2(tmp_path, capsys):
    files = [str(write_gen(tmp_path, "square.json", "cube", 2)), str(write_gen(tmp_path, "seg.json", "cube", 1))]
    assert main(["localsplit", *files, "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid polytope: summands 0 and 1 have different normal fans\n"


def test_localsplit_not_applicable(tmp_path, capsys):
    files = [
        str(write_gen(tmp_path, "s4.json", "simplex", 4, 1)),
        str(write_gen(tmp_path, "s2a.json", "simplex", 2, 1)),
        str(write_gen(tmp_path, "s2b.json", "simplex", 2, 1)),
    ]
    assert main(["localsplit", *files, "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert "applicable: False" in out


def test_gen_blowup_file(tmp_path, capsys):
    out = tmp_path / "blowup.json"
    assert main(["gen", "blowup", "4", "1", "3", "-o", str(out)]) == 0
    loaded = load_polytope(out)
    assert loaded.need_v().vertices == (
        (0, 0, 1),
        (0, 0, 4),
        (0, 1, 0),
        (0, 4, 0),
        (1, 0, 0),
        (4, 0, 0),
    )


def test_gen_invalid_parameters_exit_1(tmp_path, capsys):
    assert main(["gen", "blowup", "1", "1", "3"]) == 1
    assert main(["gen", "simplex", "two", "2"]) == 1


def test_batch_simplices(tmp_path, capsys):
    indir = tmp_path / "in"
    indir.mkdir()
    for n in range(1, 6):
        write_gen(indir, f"simplex{n}.json", "simplex", 1, n)
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["reports"]) == 5
    assert payload["violations"] == []
    for entry in payload["reports"]:
        rep = entry["report"]
        assert Fraction(rep["nef_value"]) == rep["dim"] + 1


def test_unwritable_output_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # Reads fail inside load_polytope as invalid polytopes (exit 2); a write
    # to a missing directory is a bad parameter (exit 1), found before the
    # batch analyzes any file.
    indir = tmp_path / "in"
    indir.mkdir()
    write_gen(indir, "simplex2.json", "simplex", 1, 2)
    missing = tmp_path / "missing"
    analyzed = []
    entry = cli._batch_entry
    monkeypatch.setattr(cli, "_batch_entry", lambda path: analyzed.append(path) or entry(path))
    capsys.readouterr()
    assert main(["batch", str(indir), "--out", str(missing / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")
    assert analyzed == []
    assert main(["gen", "simplex", "1", "2", "-o", str(missing / "s.json")]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] ")
    assert not missing.exists()


def test_batch_mixed_q_normality(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    write_gen(indir, "a_twodelta2.json", "simplex", 2, 2)
    write_gen(indir, "b_blowup.json", "blowup", 4, 1, 3)
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    flags = [e["report"]["q_normal"] for e in payload["reports"]]
    assert flags == [True, False]


def test_batch_deterministic_across_threads(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    write_gen(indir, "simplex.json", "simplex", 1, 3)
    write_gen(indir, "twodelta.json", "simplex", 2, 3)
    write_gen(indir, "blowup.json", "blowup", 4, 2, 3)
    out1 = tmp_path / "r1.json"
    out8 = tmp_path / "r8.json"
    assert main(["batch", str(indir), "--out", str(out1), "--threads", "1"]) == 0
    assert main(["batch", str(indir), "--out", str(out8), "--threads", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    default = tmp_path / "default.json"
    assert main(["batch", str(indir), "--out", str(default)]) == 0
    assert default.read_bytes() == out1.read_bytes()
    assert main(["batch", str(indir), "--out", str(default), "--threads", "0"]) == 1


_BATCH_SCRIPT = """
import sys
from latpoly.cli import main

indir, out1, out2 = sys.argv[1:]
assert main(["batch", indir, "--out", out1, "--threads", "1"]) == 0
assert main(["batch", indir, "--out", out2, "--threads", "2"]) == 0
print("pool imported:", "concurrent.futures" in sys.modules)
"""


def _run_python(*args):
    """A fresh interpreter that imports this checkout's package."""
    src = str(Path(latpoly.__file__).resolve().parents[1])
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_batch_one_thread_runs_in_calling_thread(tmp_path):
    # A fresh process, so that no other test's import of concurrent.futures
    # shows: neither --threads 1 nor --threads 2 starts a pool, and both
    # write the same bytes.
    indir = tmp_path / "in"
    indir.mkdir()
    write_gen(indir, "simplex.json", "simplex", 2, 3)
    write_gen(indir, "blowup.json", "blowup", 4, 2, 3)
    write_hrep(indir / "unbounded.json", [[1, 0], [0, 1]], [0, 0])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    done = _run_python("-c", _BATCH_SCRIPT, str(indir), str(out1), str(out2))
    assert done.returncode == 0, done.stderr
    flags = [line for line in done.stdout.splitlines() if line.startswith("pool imported:")]
    assert flags == ["pool imported: False"]
    assert out1.read_bytes() == out2.read_bytes()
    assert len(json.loads(out1.read_text())["reports"]) == 3


def test_batch_empty_directory(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"] == []


GOLDEN_BATCH = Path(__file__).with_name("batch_golden.json")


def _batch_reports(tmp_path):
    """`batch --threads 1` over a small corpus written with `gen`, plus a
    non-smooth and a malformed file; the reports without their paths."""
    factors = tmp_path / "factors"
    factors.mkdir()
    indir = tmp_path / "in"
    indir.mkdir()
    assert main(["gen", "simplex", "1", "1", "-o", str(factors / "segment.json")]) == 0
    assert main(["gen", "simplex", "1", "2", "-o", str(factors / "triangle.json")]) == 0
    for name, argv in (
        ("a_simplex", ["simplex", "2", "3"]),
        ("b_blowup", ["blowup", "4", "1", "3"]),
        ("c_lawrence", ["lawrence", "1", "2", "3"]),
        ("d_cube", ["cube", "3"]),
        ("e_product", ["product", str(factors / "segment.json"), str(factors / "triangle.json")]),
    ):
        assert main(["gen", *argv, "-o", str(indir / f"{name}.json")]) == 0
    reeve = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]]
    (indir / "f_reeve.json").write_text(
        json.dumps({"format": "latpoly/1", "dim": 3, "vrep": {"vertices": reeve}})
    )
    (indir / "g_malformed.json").write_text(
        json.dumps({"format": "latpoly/1", "dim": 2, "hrep": {"normals": [[1, 0]]}})
    )
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out), "--threads", "1"]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert [entry.pop("input") for entry in reports] == [str(p) for p in sorted(indir.iterdir())]
    return reports


def test_batch_reports_match_golden(tmp_path, capsys):
    assert _batch_reports(tmp_path) == json.loads(GOLDEN_BATCH.read_text())
