"""The contract of the package's result records: `repr` text, equality and
hashing by value, immutability, field defaults, and cache hits on equal
but separately built arguments."""

import pytest

from latpoly import lpx
from latpoly.cayley import CayleyDecomposition, LocalsplitReport, check_localsplit, detect, generate, segment
from latpoly.fileio import LoadedPolytope, load_polytope, save_polytope
from latpoly.invariants import InvariantReport, classify
from latpoly.polytope import HPolytope, VertexData, VPolytope, hpolytope, vertex_data, vertices
from latpoly.ratlin import SolveOutcome, solve_exact

RECTANGLE = ((0, 0), (0, 2), (1, 0), (1, 2))  # [0, 1] x [0, 2]


def _builds(tmp_path):
    """Two separately built instances of every record class, keyed by class."""
    path = tmp_path / "simplex.json"
    h = generate("simplex", 1, 2)
    save_polytope(path, hrep=h, vrep=vertices(h))
    twice = {}
    for _ in range(2):
        for record in (
            generate("blowup", 3, 1, 2),
            VPolytope(2, tuple(tuple(x) for x in [[0, 0], [1, 0], [0, 1]])),
            VertexData((0, 0), (0, 1), (1, 1)),
            solve_exact([[1, 0], [0, 2]], [1, 1]),
            lpx.linear_program([1, 1], [[1, 0], [0, 1]], [1, 2]),
            lpx.solve(lpx.linear_program([1, 1], [[1, 0], [0, 1]], [1, 2])),
            classify(generate("simplex", 2, 2)),
            detect(VPolytope(2, RECTANGLE), 1),
            check_localsplit([segment(1), segment(2)], 1),
            load_polytope(path),
        ):
            twice.setdefault(type(record), []).append(record)
    return twice


def test_record_reprs():
    assert repr(VPolytope(1, ((0,), (2,)))) == "VPolytope(dim=1, vertices=((0,), (2,)))"
    assert repr(hpolytope([[1], [-1]], [0, 2])) == "HPolytope(dim=1, facets=(((1,), 0), ((-1,), 2)))"
    assert repr(detect(VPolytope(2, RECTANGLE), 2)) == (
        "CayleyDecomposition(k=1, s=2, projection=((0, -1),), translation=(-2,), "
        "summands=(VPolytope(dim=1, vertices=((0,), (1,))), VPolytope(dim=1, vertices=((0,), (1,)))), "
        "strict=True)"
    )


def test_equal_records_compare_and_hash_by_value(tmp_path):
    twice = _builds(tmp_path)
    assert set(twice) == {
        HPolytope, VPolytope, VertexData, SolveOutcome, lpx.LinearProgram, lpx.LPVerdict,
        InvariantReport, CayleyDecomposition, LocalsplitReport, LoadedPolytope,
    }
    for cls, (a, b) in twice.items():
        assert a is not b, cls
        assert a == b and not a != b, cls
        assert hash(a) == hash(b), cls


def test_records_are_immutable(tmp_path):
    for cls, (record, _) in _builds(tmp_path).items():
        field = next(iter(cls.__annotations__))
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) == value, cls


def test_record_defaults():
    assert SolveOutcome("unique").point is None
    verdict = lpx.LPVerdict("infeasible")
    assert verdict.value is None and verdict.point is None


def test_loaded_polytope_derives_the_missing_presentation():
    h = generate("simplex", 1, 2)
    v = vertices(h)
    assert LoadedPolytope(2, h, None).need_v() == v
    assert LoadedPolytope(2, None, v).need_h() == h
    assert LoadedPolytope(2, h, v).need_h() is h


def test_vertex_data_hits_on_an_equal_record():
    first = generate("cube", 3)
    data = vertex_data(first)
    again = generate("cube", 3)
    assert again == first and again is not first
    before = vertex_data.cache_info()
    assert vertex_data(again) is data
    after = vertex_data.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_lawrence_rejects_a_record_argument():
    h = hpolytope([[1], [-1]], [0, 2])
    with pytest.raises(ValueError, match=r"parameter HPolytope\(dim=1, .* is not an integer"):
        generate("lawrence", h)
    with pytest.raises(ValueError, match=r"parameter VPolytope\(dim=1, .* is not an integer"):
        generate("lawrence", segment(2))
