import itertools
import math
import random

import pytest
from fractions import Fraction

from latpoly import cayley
from latpoly.cayley import (
    DETECT_BUDGET,
    _functionals,
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
    facets,
    is_smooth,
    normal_fan_equal,
    reduce_vertices,
    vertices,
)
from latpoly.ratlin import dot, mat_vec, rank, smith_normal_form, solve_exact, vsub
from oracles import apply_unimodular, exhaustive_best_k, lattice_equivalent, snf_same_normal_fan


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


def test_two_valued_functionals_match_width_candidates():
    # Oriented with v_0 at the low value, a two-valued width-s functional has
    # every y_k = <v_k - v_0, w> in {0, s}: detect's y-set finds each one.
    rng = random.Random(89)
    found = 0
    dims = set()
    for _ in range(100):
        n = rng.randint(1, 5)
        s = rng.randint(1, 3)
        points = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 3))]
        if affine_dim(points) != n:
            continue
        if rng.random() < 0.5:
            u = _random_unimodular(rng, n, ops=2)
            points = [mat_vec(u, x) for x in points]
        verts = reduce_vertices(points, n).vertices
        expected = set()
        for w, lo, width in width_candidates(VPolytope(n, verts), s):
            if width == s and all(dot(w, v) - lo in (0, s) for v in verts):
                expected |= {(w, lo), (tuple(-c for c in w), -(lo + s))}
        got = set()
        for w in _functionals(verts, itertools.product((0, s), repeat=n)):
            lo = dot(w, verts[0])
            if all(dot(w, v) - lo in (0, s) for v in verts):
                got |= {(w, lo), (tuple(-c for c in w), -(lo + s))}
        assert got == expected, (verts, s)
        found += bool(expected)
        dims.add(n)
    assert dims == {1, 2, 3, 4, 5}
    assert found >= 25


def test_detect_dilated_triangle_none():
    assert detect(vertices(generate("simplex", 2, 2)), 1) is None


@pytest.mark.parametrize("s", [0, -1, 1.5])
def test_detect_rejects_bad_order(s):
    with pytest.raises(ValueError, match="width bound must be a positive integer"):
        detect(vertices(generate("lawrence", 1, 1)), s)


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


def test_detect_rejects_dimension_over_budget_at_once():
    prism = build([segment(1 + i % 2) for i in range(20)], 1)
    with pytest.raises(InvalidPolytope, match=f"passed {2**20 - 1} steps, budget {DETECT_BUDGET}"):
        detect(prism, 1)


def test_detect_counts_family_nodes_against_budget(monkeypatch):
    prism = build([segment(1), segment(2), segment(1)], 1)
    assert detect(prism, 1).k == 2
    monkeypatch.setattr(cayley, "DETECT_BUDGET", 2**3 - 1)
    with pytest.raises(InvalidPolytope, match=f"passed {2**3} steps, budget {2**3 - 1}"):
        detect(prism, 1)


def test_detect_budget_admits_dimension_15_only():
    # Dimension 15 solves its 2^15 - 1 y and still has room for a family
    # search of 15 nodes; dimension 16 is refused before any y is solved.
    assert 2**15 - 1 + 15 <= DETECT_BUDGET < 2**16 - 1


def test_detect_skips_family_that_is_not_surjective(monkeypatch):
    # The two functionals (1, -1), (1, 1) split the three vertices into
    # classes of one vertex each, but their Smith diagonal is (1, 2): Z^2
    # maps onto an index-2 sublattice, so k = 2 is rejected and k = 1 wins.
    p = VPolytope(2, ((0, 0), (1, -1), (1, 1)))
    diagonals = []

    def recording(matrix):
        out = smith_normal_form(matrix)
        diagonals.append((tuple(matrix), tuple(out[1][i][i] for i in range(len(matrix)))))
        return out

    monkeypatch.setattr(cayley, "smith_normal_form", recording)
    dec = detect(p, 2)
    assert diagonals[0] == (((1, -1), (1, 1)), (1, 2))
    assert (dec.k, dec.projection, dec.translation) == (1, ((-1, -1),), (-2,))
    assert (dec.k, dec.projection) == exhaustive_best_k(p, 2)


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


def test_detect_matches_exhaustive_enumeration():
    # The largest k, and ties go to the lexicographically smallest matrix.
    three = build([segment(1), segment(2), segment(1)], 1)
    cases = [
        (vertices(generate("simplex", 1, 2)), 1),
        (vertices(generate("simplex", 2, 2)), 1),
        (vertices(generate("simplex", 2, 2)), 2),
        (vertices(generate("cube", 2)), 1),
        (vertices(generate("lawrence", 2, 3)), 1),
        (build([segment(2), segment(2)], 2), 2),
        (build([segment(1), segment(2), segment(1)], 3), 3),
        (apply_unimodular(three, ((1, 0, 1), (0, 1, 0), (1, 1, 2)), (0, 0, 0)), 1),
    ]
    for p, s in cases:
        assert len(width_candidates(p, s)) <= 8
        dec = detect(p, s)
        got = (dec.k, dec.projection) if dec is not None else (0, None)
        assert got == exhaustive_best_k(p, s)


def test_detect_order_three_sum_of_seven_segments():
    p = build_strict([segment(l) for l in (1, 2, 3, 1, 2, 3, 1)], 3)
    dec = detect(p, 3)
    assert dec is not None and dec.k == 6 and dec.s == 3 and dec.strict is True


GOLDEN_DETECT = [
    (
        vertices(generate("simplex", 1, 3)),
        1,
        ((-1, -1, -1), (0, 0, 1), (0, 1, 0)),
        (-1, 0, 0),
        [((),)] * 4,
    ),
    (
        vertices(generate("lawrence", 2, 3, 4)),
        1,
        ((0, -1, -1), (0, 0, 1)),
        (-1, 0),
        [((0,), (3,)), ((0,), (2,)), ((0,), (4,))],
    ),
    (
        vertices(generate("simplex", 2, 2)),
        2,
        ((-1, -1), (0, 1)),
        (-2, 0),
        [((),)] * 3,
    ),
    (
        build_strict([segment(l) for l in (1, 2, 3, 1, 2, 3, 1)], 3),
        3,
        (
            (0, -1, -1, -1, -1, -1, -1),
            (0, 0, 0, 0, 0, 0, 1),
            (0, 0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0),
        ),
        (-3, 0, 0, 0, 0, 0),
        [((0,), (l,)) for l in (2, 1, 1, 3, 2, 1, 3)],
    ),
    (
        _sheared_rectangles(((0, 1), (-1, -1))),
        2,
        ((0, 0, -1, -1, -1), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0)),
        (-2, 0, 0),
        [
            ((0, -3), (0, 0), (1, -4), (1, -1)),
            ((0, -1), (0, 0), (1, -2), (1, -1)),
            ((0, -3), (0, 0), (1, -4), (1, -1)),
            ((0, -3), (0, 0), (2, -5), (2, -2)),
        ],
    ),
]


@pytest.mark.parametrize(
    "p, s, projection, translation, summands",
    GOLDEN_DETECT,
    ids=["simplex-1-3", "lawrence-2-3-4", "simplex-2-2", "seven-segments", "sheared-rectangles"],
)
def test_detect_golden_outputs(p, s, projection, translation, summands):
    dec = detect(p, s)
    assert dec is not None and dec.s == s and dec.strict is True
    assert (dec.k, dec.projection, dec.translation) == (len(projection), projection, translation)
    assert [q.vertices for q in dec.summands] == summands
    assert all(q.dim == p.dim - dec.k for q in dec.summands)


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


def test_same_normal_fan_empty_or_mixed_dimension():
    empty = VPolytope(1, ())
    assert same_normal_fan(empty, empty) is False
    assert same_normal_fan(empty, segment(2)) is False
    assert same_normal_fan(segment(2), empty) is False
    square = vertices(generate("cube", 2))
    flat = VPolytope(2, ((0, 0), (1, 0)))
    assert same_normal_fan(square, flat) is False
    assert same_normal_fan(flat, square) is False


def test_same_normal_fan_parallel_lower_dimensional_segments():
    a = VPolytope(2, ((0, 0), (2, 2)))
    b = VPolytope(2, ((1, 0), (4, 2)))
    c = VPolytope(2, ((0, 5), (3, 7)))
    assert same_normal_fan(a, b) is False  # directions (1,1) vs (3,2)
    assert same_normal_fan(b, c) is True  # parallel segments share the fan


def _flat_polytope(rng, n, basis):
    """Random lattice points spanning the affine space base + span(basis)."""
    base = tuple(rng.randint(-3, 3) for _ in range(n))
    while True:
        pts = [
            tuple(b + sum(c * d[i] for c, d in zip(coeffs, basis)) for i, b in enumerate(base))
            for coeffs in (
                [rng.randint(0, 2) for _ in basis] for _ in range(len(basis) + rng.randint(1, 3))
            )
        ]
        if affine_dim(pts) == len(basis):
            return reduce_vertices(pts, n)


def test_same_normal_fan_matches_snf_reference():
    # Lower-dimensional pairs in 2-4 dimensions: dilates and translates of
    # one polytope, other polytopes on the same direction space (also in a
    # rational change of basis of it), and polytopes on another one.
    rng = random.Random(83)
    verdicts = []
    for _ in range(300):
        n = rng.randint(2, 4)
        da = rng.randint(1, n - 1)
        while True:
            basis = [tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n)) for _ in range(da)]
            if rank(basis) == da:
                break
        a = _flat_polytope(rng, n, basis)
        kind = rng.randrange(4)
        if kind == 0:
            k = rng.randint(1, 3)
            t = tuple(rng.randint(-3, 3) for _ in range(n))
            b = VPolytope(n, tuple(sorted(tuple(k * c + s for c, s in zip(x, t)) for x in a.vertices)))
        elif kind == 1:
            b = _flat_polytope(rng, n, basis)
        elif kind == 2:
            mix = [[rng.randint(-1, 1) for _ in range(da)] for _ in range(da)]
            other = [tuple(sum(m * d[i] for m, d in zip(row, basis)) for i in range(n)) for row in mix]
            b = _flat_polytope(rng, n, other) if rank(other) == da else a
        else:
            other = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(da)]
            b = _flat_polytope(rng, n, other) if rank(other) == da else a
        verdict = same_normal_fan(a, b)
        assert verdict is snf_same_normal_fan(a, b), (a, b)
        verdicts.append(verdict)
    assert 60 <= sum(verdicts) <= 240


def _cloud(rng, n):
    """Random lattice points spanning R^n, with non-extreme points and
    repeats."""
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 6))]
        if affine_dim(pts) == n:
            return pts + rng.sample(pts, 2)


def test_mask_read_cones_match_facet_fans():
    # same_normal_fan reads the cones off the masks of the hull of the
    # Cayley sum of the pair; the reference compares the fans of vertex_data
    # of the facets of each.  Pairs in R^n are compared as they are and after
    # one injective integer map into R^(n+1) or R^(n+2), which makes them
    # lower-dimensional there.
    rng = random.Random(59)
    verdicts = []
    for _ in range(150):
        n = rng.randint(1, 3)
        a = _cloud(rng, n)
        if rng.random() < 0.5:  # a dilate and translate: the same fan
            k = rng.randint(1, 3)
            t = [rng.randint(-3, 3) for _ in range(n)]
            b = [tuple(k * c + s for c, s in zip(x, t)) for x in a]
        else:
            b = _cloud(rng, n)
        verdict = normal_fan_equal(facets(VPolytope(n, tuple(a))), facets(VPolytope(n, tuple(b))))
        assert same_normal_fan(VPolytope(n, tuple(a)), VPolytope(n, tuple(b))) is verdict
        m = n + rng.randint(1, 2)
        while True:
            cols = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
            if rank(cols) == n:
                break
        up = [VPolytope(m, tuple(tuple(dot(col, x) for col in zip(*cols)) for x in pts)) for pts in (a, b)]
        assert same_normal_fan(*up) is verdict
        verdicts.append(verdict)
    assert 40 <= sum(verdicts) <= 110


def test_build_strict_mixed_dimensions_or_empty_summand():
    # Neither can be built; both fail the fan test before the build does.
    square = vertices(generate("cube", 2))
    empty = VPolytope(2, ())
    cases = [([square, square, segment(2)], 2), ([square, empty], 1), ([empty, square, square], 1)]
    for summands, j in cases:
        with pytest.raises(InvalidPolytope, match=f"^summands 0 and {j} have different normal fans$"):
            build_strict(summands, 1)


def test_build_strict_reports_build_faults_first():
    # With a fan mismatch as well, a bad order or a non-lattice point is
    # reported: the fan test reads the hull of the sum, built first.
    tri = vertices(generate("simplex", 1, 2))
    square = vertices(generate("cube", 2))
    with pytest.raises(ValueError, match="^order must be a positive integer$"):
        build_strict([tri, square], 0)
    half = VPolytope(2, ((0, 0), (Fraction(1, 2), 0), (0, 1)))
    with pytest.raises(InvalidPolytope, match="^non-integer vertex"):
        build_strict([square, half], 1)


def test_strictness_matches_oracle():
    # detect's strict against the fans of its summands in unimodular
    # coordinates, on Cayley sums of dilates of one polytope or of unrelated
    # ones, given with repeated points and non-extreme ones (midpoints within
    # a height class, which lie on faces of P), at s = 1 and 2; then
    # build_strict's accept, or the j of its message, against the first
    # summand the oracle finds off summand 0's fan, with lower-dimensional
    # summands among them.
    rng = random.Random(71)
    tally = {True: 0, False: 0}
    rejected = set()
    for _ in range(60):
        m, k, s = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        base = _cloud(rng, m)
        summands = []
        for _ in range(k + 1):
            kind = rng.randrange(3)
            if kind == 0:
                c, t = rng.randint(1, 2), [rng.randint(-2, 2) for _ in range(m)]
                pts = [tuple(c * x + y for x, y in zip(v, t)) for v in base]
            elif kind == 1 or m == 1:
                pts = _cloud(rng, m)
            else:
                pts = [(x, x) for x, _ in base]  # flat
            summands.append(VPolytope(m, tuple(pts)))
        off = [j for j in range(1, k + 1) if not snf_same_normal_fan(summands[0], summands[j])]
        if off:
            with pytest.raises(InvalidPolytope, match=f"^summands 0 and {off[0]} have"):
                build_strict(summands, s)
            rejected.add(off[0])
        else:
            assert build_strict(summands, s) == build(summands, s)
        p = build(summands, s)
        if affine_dim(p.vertices) != p.dim:
            continue
        points = list(p.vertices) + rng.sample(p.vertices, 2)
        for a, b in itertools.combinations(p.vertices, 2):
            if a[m:] == b[m:] and all((x + y) % 2 == 0 for x, y in zip(a, b)):
                points.append(tuple((x + y) // 2 for x, y in zip(a, b)))
        rng.shuffle(points)
        dec = detect(VPolytope(p.dim, tuple(points)), s)
        assert dec.strict is all(snf_same_normal_fan(dec.summands[0], q) for q in dec.summands[1:])
        tally[dec.strict] += 1
    assert min(tally.values()) >= 10 and rejected == {1, 2}, (tally, rejected)
