import itertools
import math
import random

import pytest
from fractions import Fraction

from latpoly.cayley import (
    build,
    build_strict,
    check_localsplit,
    detect,
    generate,
    lattice_point,
    same_normal_fan,
    segment,
    width_candidates,
)
from latpoly.errors import InvalidPolytope
from latpoly.polytope import (
    VPolytope,
    affine_dim,
    apply_unimodular,
    facets,
    is_smooth,
    lattice_equivalent,
    reduce_vertices,
    vertices,
)
from latpoly.ratlin import dot, mat_vec, rank, smith_normal_form, solve_exact, vsub


def test_build_order_two_cayley_of_segments():
    p = build([segment(4), segment(2), segment(2)], 2)
    assert p.vertices == (
        (0, 0, 0),
        (0, 0, 2),
        (0, 2, 0),
        (2, 0, 2),
        (2, 2, 0),
        (4, 0, 0),
    )


def test_build_points_gives_dilated_simplex():
    p = build([lattice_point()] * 3, 2)
    assert p.vertices == ((0, 0), (0, 2), (2, 0))
    assert lattice_equivalent(p, vertices(generate("simplex", 2, 2))) is not None


def test_build_lawrence_prism():
    p = build([segment(2), segment(3)], 1)
    assert p.vertices == ((0, 0), (0, 1), (2, 0), (3, 1))


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build([segment(1)], 1)
    with pytest.raises(ValueError):
        build([segment(1), lattice_point()], 1)
    with pytest.raises(ValueError):
        build([segment(1), segment(1)], 0)


def test_build_strict_accepts_segments():
    p = build_strict([segment(4), segment(2), segment(2)], 2)
    assert len(p.vertices) == 6


def test_build_strict_rejects_fan_mismatch():
    tri = vertices(generate("simplex", 1, 2))
    square = vertices(generate("cube", 2))
    with pytest.raises(InvalidPolytope) as err:
        build_strict([tri, square], 1)
    assert "0 and 1" in str(err.value)


def test_build_strict_two_unit_segments():
    p = build_strict([segment(1), segment(1)], 1)
    assert lattice_equivalent(p, vertices(generate("cube", 2))) is not None


def test_width_candidates_triangle():
    tri = vertices(generate("simplex", 1, 2))
    cands = width_candidates(tri, 1)
    assert [w for w, _, _ in cands] == [(0, 1), (1, 0), (1, 1)]
    assert all(width == 1 for _, _, width in cands)


def test_width_candidates_square():
    sq = vertices(generate("cube", 2))
    cands = width_candidates(sq, 1)
    assert [w for w, _, _ in cands] == [(0, 1), (1, 0)]


def test_width_candidates_dilated_triangle_empty():
    p = vertices(generate("simplex", 2, 2))
    assert width_candidates(p, 1) == []


def _box_width_candidates(p, s):
    """Reference: scan the box that n short independent vertex differences
    d put around the functionals w with |<d, w>| <= s, keeping the
    primitive ones (first nonzero entry positive) of true width <= s."""
    n = p.dim
    verts = p.vertices
    diffs = sorted(
        (vsub(v, verts[0]) for v in verts[1:]),
        key=lambda d: (max(abs(c) for c in d), d),
    )
    chosen = []
    for d in diffs:
        if rank(chosen + [d]) > len(chosen):
            chosen.append(d)
        if len(chosen) == n:
            break
    inv = [solve_exact(chosen, [int(i == j) for i in range(n)]).point for j in range(n)]
    bounds = []
    for c in range(n):
        reach = math.floor(s * sum(abs(inv[i][c]) for i in range(n)))
        bounds.append(range(-reach, reach + 1))
    out = []
    for w in itertools.product(*bounds):
        if next((x for x in w if x), 0) <= 0 or math.gcd(*w) != 1:
            continue
        vals = [dot(w, v) for v in verts]
        if max(vals) - min(vals) <= s:
            out.append((w, min(vals), max(vals) - min(vals)))
    return sorted(out)


def test_width_candidates_match_box_reference():
    rng = random.Random(71)
    dims = set()
    for _ in range(80):
        n = rng.randint(1, 4)
        points = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 4))]
        if rng.random() < 0.5:
            u = _random_unimodular(rng, n, ops=2)
            points = [mat_vec(u, x) for x in points]
        if affine_dim(points) != n:
            continue
        p = reduce_vertices(points, n)
        for s in (1, 2):
            assert width_candidates(p, s) == _box_width_candidates(p, s)
        dims.add(n)
    assert dims == {1, 2, 3, 4}


def _sheared_rectangles(u):
    """The order-2 strict Cayley sum of four rectangles, each mapped by u."""
    rects = []
    for a, b in ((1, 1), (3, 1), (3, 2), (3, 1)):
        points = ((0, 0), (0, b), (a, 0), (a, b))
        rects.append(VPolytope(2, tuple(sorted(mat_vec(u, x) for x in points))))
    return build_strict(rects, 2)


def test_width_candidates_coordinate_independent():
    # x -> U x on the summand plane takes a functional w to U^-T w.
    u = ((0, 1), (-1, -1))
    u_inv_t = ((-1, 1), (-1, 0))  # (U^-1)^T
    base = width_candidates(_sheared_rectangles(((1, 0), (0, 1))), 2)
    expected = []
    for w, lo, width in base:
        image = mat_vec(u_inv_t, w[:2]) + w[2:]
        if next(c for c in image if c) < 0:
            image, lo = tuple(-c for c in image), -(lo + width)
        expected.append((image, lo, width))
    assert len(base) == 8
    assert width_candidates(_sheared_rectangles(u), 2) == sorted(expected)


def test_detect_dilated_triangle_none():
    assert detect(vertices(generate("simplex", 2, 2)), 1) is None


def test_detect_simplex_full_order():
    dec = detect(vertices(generate("simplex", 1, 3)), 1)
    assert dec is not None
    assert dec.k == 3
    assert dec.strict is True
    assert len(dec.summands) == 4
    assert all(len(s.vertices) == 1 for s in dec.summands)


def test_detect_lawrence_prism():
    dec = detect(vertices(generate("lawrence", 2, 3)), 1)
    assert dec is not None and dec.k == 1 and dec.strict is True
    lengths = sorted(
        max(v[0] for v in s.vertices) - min(v[0] for v in s.vertices)
        for s in dec.summands
    )
    assert lengths == [2, 3]


def test_detect_dilated_triangle_order_two():
    dec = detect(vertices(generate("simplex", 2, 2)), 2)
    assert dec is not None and dec.k == 2 and dec.s == 2
    assert all(len(s.vertices) == 1 for s in dec.summands)


def test_detect_projection_maps_vertices_to_height_pattern():
    p = vertices(generate("lawrence", 2, 3, 4))
    dec = detect(p, 1)
    assert dec is not None and dec.k == 2
    for v in p.vertices:
        image = tuple(dot(row, v) - t for row, t in zip(dec.projection, dec.translation))
        assert sum(1 for h in image if h != 0) <= 1
        assert all(h in (0, dec.s) for h in image)
    _, d, _ = smith_normal_form(dec.projection)
    assert all(d[i][i] == 1 for i in range(dec.k))


def test_detect_round_trip_random_strict_builds():
    rng = random.Random(61)
    for _ in range(12):
        count = rng.randint(2, 4)
        summands = [segment(rng.randint(1, 4)) for _ in range(count)]
        p = build_strict(summands, 1)
        dec = detect(p, 1)
        assert dec is not None
        assert dec.k >= count - 1
        rebuilt = build(dec.summands, 1)
        assert lattice_equivalent(rebuilt, p) is not None


def test_detect_invariant_under_unimodular_maps():
    rng = random.Random(67)
    base = build([lattice_point()] * 3, 2)
    for _ in range(6):
        u = _random_unimodular(rng, 2)
        t = (rng.randint(-3, 3), rng.randint(-3, 3))
        dec = detect(apply_unimodular(base, u, t), 2)
        assert dec is not None and dec.k == 2


def _random_unimodular(rng, n, ops=6):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            m[i][col] += c * m[j][col]
    return tuple(tuple(r) for r in m)


def _exhaustive_best_k(p, s):
    """Independent oracle: try every subset of oriented width functionals."""
    verts = p.vertices
    nv = len(verts)
    oriented = []
    for w, lo, width in width_candidates(p, s):
        if width != s:
            continue
        vals = [dot(w, v) - lo for v in verts]
        if any(h not in (0, s) for h in vals):
            continue
        oriented.append((w, frozenset(i for i, h in enumerate(vals) if h == s)))
        oriented.append(
            (tuple(-c for c in w), frozenset(i for i, h in enumerate(vals) if h == 0))
        )
    best = 0
    for r in range(1, len(oriented) + 1):
        for combo in itertools.combinations(oriented, r):
            classes = [c for _, c in combo]
            union = set().union(*classes)
            if sum(len(c) for c in classes) != len(union):
                continue
            if len(union) >= nv:
                continue
            _, d, _ = smith_normal_form([w for w, _ in combo])
            if all(d[i][i] == 1 for i in range(r)):
                best = max(best, r)
                break
    return best


def test_detect_matches_exhaustive_enumeration():
    cases = [
        (vertices(generate("simplex", 1, 2)), 1),
        (vertices(generate("simplex", 2, 2)), 1),
        (vertices(generate("simplex", 2, 2)), 2),
        (vertices(generate("cube", 2)), 1),
        (vertices(generate("lawrence", 2, 3)), 1),
        (build([segment(2), segment(2)], 2), 2),
    ]
    for p, s in cases:
        assert len(width_candidates(p, s)) <= 8
        dec = detect(p, s)
        got = dec.k if dec is not None else 0
        assert got == _exhaustive_best_k(p, s)


def test_localsplit_five_points_order_two():
    report = check_localsplit([lattice_point()] * 5, 2)
    assert report.applicable is True
    assert report.smooth is True
    assert report.expected == Fraction(5, 2)
    assert report.computed_tau == Fraction(5, 2)
    assert report.computed_qcodeg == Fraction(5, 2)
    assert report.verdict is True


def test_localsplit_hypothesis_fails():
    report = check_localsplit([segment(4), segment(2), segment(2)], 2)
    assert report.applicable is False
    assert report.smooth is True
    assert report.verdict is False


def test_localsplit_three_segments():
    report = check_localsplit([segment(2), segment(3), segment(4)], 1)
    assert report.applicable is True
    assert report.expected == 3
    assert report.verdict is True


def test_generate_blowup():
    p = generate("blowup", 4, 1, 3)
    assert vertices(p).vertices == (
        (0, 0, 1),
        (0, 0, 4),
        (0, 1, 0),
        (0, 4, 0),
        (1, 0, 0),
        (4, 0, 0),
    )
    assert is_smooth(p)[0] is True


def test_generate_simplex():
    p = generate("simplex", 2, 2)
    assert vertices(p).vertices == ((0, 0), (0, 2), (2, 0))


def test_generate_lawrence_matches_build():
    p = generate("lawrence", 2, 3)
    q = facets(build([segment(2), segment(3)], 1))
    assert lattice_equivalent(vertices(p), vertices(q)) is not None


def test_generate_product():
    p = generate("product", generate("simplex", 1, 1), generate("simplex", 1, 1))
    assert lattice_equivalent(vertices(p), vertices(generate("cube", 2))) is not None


def test_generate_invalid_parameters():
    with pytest.raises(ValueError):
        generate("blowup", 1, 1, 3)
    with pytest.raises(ValueError):
        generate("simplex", 0, 2)
    with pytest.raises(ValueError):
        generate("nosuch", 1)


def test_smooth_build_has_smooth_summands():
    rng = random.Random(71)
    for _ in range(8):
        count = rng.randint(2, 4)
        summands = [segment(rng.randint(1, 4)) for _ in range(count)]
        p = facets(build_strict(summands, 1))
        assert is_smooth(p)[0] is True
        for q in summands:
            assert is_smooth(facets(q))[0] is True


def test_non_smooth_build_still_has_smooth_summands():
    summands = [segment(6), segment(5), segment(3)]
    p = facets(build(summands, 2))
    assert is_smooth(p)[0] is False
    for q in summands:
        assert is_smooth(facets(q))[0] is True


def test_same_normal_fan_points_and_segments():
    assert same_normal_fan(lattice_point(), lattice_point()) is True
    assert same_normal_fan(segment(2), segment(5)) is True
    tri = vertices(generate("simplex", 1, 2))
    sq = vertices(generate("cube", 2))
    assert same_normal_fan(tri, sq) is False


def test_same_normal_fan_parallel_lower_dimensional_segments():
    a = VPolytope(2, ((0, 0), (2, 2)))
    b = VPolytope(2, ((1, 0), (4, 2)))
    c = VPolytope(2, ((0, 5), (3, 7)))
    assert same_normal_fan(a, b) is False  # directions (1,1) vs (3,2)
    assert same_normal_fan(b, c) is True  # parallel segments share the fan
