import json

import pytest
from fractions import Fraction

from latpoly import lpx
from latpoly.cayley import generate, lattice_point
from latpoly.cli import main
from latpoly.errors import InvalidPolytope, InvariantViolation
from latpoly.fileio import (
    load_polytope,
    parse_polytope,
    polytope_payload,
    save_polytope,
)
from latpoly.invariants import classify
from latpoly.polytope import VPolytope, vertices


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


def test_usage_error_exit_1():
    assert main(["analyze"]) == 1
    assert main(["nosuchcommand"]) == 1


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


def test_batch_empty_directory(tmp_path):
    indir = tmp_path / "in"
    indir.mkdir()
    out = tmp_path / "report.json"
    assert main(["batch", str(indir), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["reports"] == []
