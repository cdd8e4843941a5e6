import itertools
import math
import random
from fractions import Fraction

import pytest

from latpoly import lpx, polytope
from latpoly.cayley import build, generate, segment
from latpoly.errors import InvalidPolytope, InvariantViolation
from latpoly.invariants import codegree
from latpoly.polytope import (
    HPolytope,
    VPolytope,
    _lattice_fibres,
    _q,
    affine_dim,
    canonicalize,
    facets,
    hpolytope,
    contains,
    is_bounded,
    is_smooth,
    lattice_point_count,
    lattice_points,
    normal_fan_equal,
    reduce_vertices,
    shrink,
    vertex_data,
    vertices,
)
from latpoly.ratlin import UNIQUE, det, dot, primitive, solve_exact, vsub
from oracles import adjugate_u, apply_unimodular, is_empty, lattice_equivalent, random_unimodular

# Small builders used across the suite.


def simplex(d, n):
    return generate("simplex", d, n)


def blowup(d, lam, n):
    return generate("blowup", d, lam, n)


def cube(n):
    return generate("cube", n)


def test_vertices_of_triangle():
    p = simplex(1, 2)
    assert vertices(p).vertices == ((0, 0), (0, 1), (1, 0))


def test_vertices_of_blowup():
    p = blowup(4, 1, 3)
    assert vertices(p).vertices == (
        (0, 0, 1),
        (0, 0, 4),
        (0, 1, 0),
        (0, 4, 0),
        (1, 0, 0),
        (4, 0, 0),
    )


def test_vertices_unbounded_rejected():
    p = hpolytope([[1]], [0])
    with pytest.raises(InvalidPolytope):
        vertex_data(p)


def test_vertices_empty_rejected():
    p = hpolytope([[1], [-1]], [-1, 0])  # x >= 1 and x <= 0
    with pytest.raises(InvalidPolytope):
        vertex_data(p)


def test_facets_of_triangle():
    q = VPolytope(2, ((0, 0), (1, 0), (0, 1)))
    h = facets(q)
    assert h == canonicalize(hpolytope([[1, 0], [0, 1], [-1, -1]], [0, 0, 1]))


def test_facets_cayley_fig_five_facets():
    q = VPolytope(3, ((0, 0, 0), (4, 0, 0), (0, 2, 0), (2, 2, 0), (0, 0, 2), (2, 0, 2)))
    h = facets(q)
    assert len(h.facets) == 5
    assert vertices(h).vertices == tuple(sorted(q.vertices))


def test_facets_collinear_rejected():
    q = VPolytope(2, ((0, 0), (1, 1), (2, 2)))
    with pytest.raises(InvalidPolytope) as err:
        facets(q)
    assert "dimension 1" in str(err.value)


def test_round_trip_facets_vertices():
    for p in (simplex(1, 3), simplex(2, 2), blowup(4, 1, 3), cube(3), cube(5), _cross(5)):
        assert facets(vertices(p)) == p


def _padded(p, rows, rng):
    """p with random far-away rows appended up to `rows` half spaces."""
    extra = []
    while len(p.facets) + len(extra) < rows:
        normal = tuple(rng.randint(-2, 2) for _ in range(p.dim))
        if any(normal):
            extra.append((normal, rng.randint(30, 50)))
    return HPolytope(p.dim, p.facets + tuple(extra))


def test_lattice_points_counts():
    assert len(lattice_points(simplex(1, 2))) == 3
    assert len(lattice_points(simplex(2, 2))) == 6
    assert lattice_points(shrink(simplex(2, 2), 1, 1)) == ()
    # [0, 2]^5 with six redundant far-away rows.
    box = _padded(shrink(cube(5), 2, 0), 16, random.Random(5))
    assert len(lattice_points(box)) == 243


def test_lattice_points_unbounded_rejected():
    with pytest.raises(InvalidPolytope):
        lattice_points(hpolytope([[1]], [0]))
    # The slab 0 <= x_1 <= 1 has lineality and no ray with t = 0.
    slab = hpolytope([[1, 0], [-1, 0]], [0, 1])
    for enumerate_points in (lattice_points, lattice_point_count):
        with pytest.raises(InvalidPolytope, match="polytope is unbounded"):
            enumerate_points(slab)


def test_lattice_point_count_edge_cases():
    # Empty presentations, bounded and unbounded, count no points.
    assert lattice_point_count(hpolytope([[1], [-1]], [-1, 0])) == 0
    assert lattice_point_count(hpolytope([[1, 0], [-1, 0]], [-1, 0])) == 0
    assert lattice_point_count(shrink(simplex(2, 2), 1, 1)) == 0
    with pytest.raises(InvalidPolytope, match="unbounded"):
        lattice_point_count(hpolytope([[1, 0], [0, 1]], [0, 0]))
    # Dimension 1: one fibre, with rational ends, a single point, or long.
    assert lattice_point_count(hpolytope([[2], [-2]], [-1, 7])) == 3
    assert lattice_point_count(shrink(simplex(1, 1), 2, 1)) == 1
    assert list(_lattice_fibres(hpolytope([[1], [-1]], [0, 10**8]))) == [((), range(0, 10**8 + 1))]
    # Dimension 2: the fused loop alone, with an empty fibre in the middle
    # (the segment 2 x_2 = x_1 meets x_1 = 1 off the lattice).
    slab = hpolytope([[1, 0], [-1, 0], [-1, 2], [1, -2]], [0, 2, 0, 0])
    assert list(_lattice_fibres(slab)) == [((0,), range(0, 1)), ((2,), range(1, 2))]
    assert lattice_point_count(slab) == 2
    assert lattice_point_count(simplex(3, 2)) == 10


def test_lattice_point_count_budget(monkeypatch):
    box = shrink(cube(2), 2, 0)  # [0, 2]^2: three fibres of three points
    monkeypatch.setattr(polytope, "FIBRE_BUDGET", 3)
    assert lattice_point_count(box) == 9
    monkeypatch.setattr(polytope, "FIBRE_BUDGET", 2)
    with pytest.raises(InvalidPolytope, match="passed 3 fibres, budget 2"):
        lattice_point_count(box)
    assert lattice_points(box) == _box_scan(box)  # listing has no budget
    # Only the first n-1 coordinates count: a long segment is one fibre.
    assert lattice_point_count(hpolytope([[1], [-1]], [0, 10**8])) == 10**8 + 1


def test_ray_budget(monkeypatch):
    # The box [0, 7] x [0, 6] x [0, 5] keeps 8 rays in its cone's double
    # description: one per vertex.
    box = hpolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                    [0, 7, 0, 6, 0, 5])
    monkeypatch.setattr(polytope, "RAY_BUDGET", 8)
    assert not is_empty(box)
    monkeypatch.setattr(polytope, "RAY_BUDGET", 7)
    with pytest.raises(InvalidPolytope, match="kept 8 rays, budget 7"):
        is_empty(box)
    monkeypatch.undo()
    # The unit 14-cube has 16384 vertices; its double description stops at
    # the budget instead of running for minutes.
    with pytest.raises(InvalidPolytope, match=f"kept {polytope.RAY_BUDGET + 1} rays"):
        vertex_data(generate("cube", 14))


def test_lattice_point_count_budget_counts_the_walk(monkeypatch):
    # {0 <= x1 <= 1000, x1 <= x2 <= x1 + 1, x2 <= x3 <= x2 + 1}, a unimodular
    # image of [0, 1000] x [0, 1]^2: its vertex box has 1001 * 1002 fibres
    # over (x1, x2), but the walk fixes 1001 values of x1 and 2002 of x2.
    normals = [[1, 0, 0], [-1, 0, 0], [-1, 1, 0], [1, -1, 0], [0, -1, 1], [0, 1, -1]]
    sheared = hpolytope(normals, [0, 1000, 0, 1, 0, 1])
    assert lattice_point_count(sheared) == 4004
    monkeypatch.setattr(polytope, "FIBRE_BUDGET", 3003)
    assert lattice_point_count(sheared) == 4004
    monkeypatch.setattr(polytope, "FIBRE_BUDGET", 3002)
    with pytest.raises(InvalidPolytope, match="passed 3003 fibres, budget 3002"):
        lattice_point_count(sheared)


def test_shrink_segment_to_point():
    p = simplex(1, 1)
    s = shrink(p, 2, 1)
    assert vertices(s).vertices == ((1,),)
    assert lattice_points(s) == ((1,),)


def test_shrink_keeps_presentation():
    p = simplex(2, 2)
    s = shrink(p, 1, 1)
    assert len(s.facets) == len(p.facets)
    assert lattice_points(s) == ()


def test_shrink_rejects_bad_factors():
    p = simplex(1, 1)
    with pytest.raises(ValueError):
        shrink(p, 0, 1)
    with pytest.raises(ValueError):
        shrink(p, -2, 0)


def test_shrink_scaling_identity():
    rng = random.Random(3)
    for p in (simplex(1, 2), simplex(2, 3), blowup(4, 1, 3), cube(2)):
        for _ in range(6):
            a = rng.randint(1, 3)
            b = rng.randint(0, 2)
            m = rng.randint(1, 3)
            s1 = shrink(p, a, b)
            s2 = shrink(p, m * a, m * b)
            if is_empty(s1):
                assert is_empty(s2)
                continue
            scaled = tuple(sorted(tuple(m * c for c in v) for v in vertices(s1).vertices))
            assert vertices(s2).vertices == scaled


def test_shrink_zero_shift_is_dilation():
    p = blowup(4, 2, 3)
    a = 3
    dil = tuple(sorted(tuple(a * c for c in v) for v in vertices(p).vertices))
    assert vertices(shrink(p, a, 0)).vertices == dil


def test_smoothness_of_simplices():
    for n in range(1, 5):
        ok, witness = is_smooth(simplex(1, n))
        assert ok and witness is None


def test_smoothness_witness_on_cayley_square():
    # Order-2 Cayley sum of segments of lengths 6, 5, 3: singular at (3,0,2).
    q = VPolytope(3, ((0, 0, 0), (6, 0, 0), (0, 2, 0), (5, 2, 0), (0, 0, 2), (3, 0, 2)))
    ok, witness = is_smooth(facets(q))
    assert not ok
    assert witness == (3, 0, 2)


def test_smooth_cayley_square():
    q = VPolytope(3, ((0, 0, 0), (4, 0, 0), (0, 2, 0), (2, 2, 0), (0, 0, 2), (2, 0, 2)))
    ok, witness = is_smooth(facets(q))
    assert ok and witness is None


def test_smooth_rejects_non_lattice():
    p = canonicalize(hpolytope([[2, 0], [0, 1], [-2, -1]], [0, 0, 1]))
    # vertex (1/2, 0) is not integral
    with pytest.raises(InvalidPolytope):
        is_smooth(p)


def test_normal_fan_segments_and_dilation():
    assert normal_fan_equal(simplex(4, 1), simplex(2, 1)) is True
    assert normal_fan_equal(simplex(1, 2), simplex(2, 2)) is True
    assert normal_fan_equal(simplex(1, 2), cube(2)) is False


def test_normal_fan_dimension_mismatch():
    with pytest.raises(ValueError):
        normal_fan_equal(simplex(1, 2), simplex(1, 3))


def test_lattice_equivalent_found():
    tri = vertices(simplex(1, 2))
    u = ((1, 1), (0, 1))
    moved = apply_unimodular(tri, u, (3, 5))
    res = lattice_equivalent(tri, moved)
    assert res is not None
    uu, tt = res
    assert apply_unimodular(tri, uu, tt) == moved


def test_lattice_equivalent_distinguishes_dilation():
    assert lattice_equivalent(vertices(simplex(1, 2)), vertices(simplex(2, 2))) is None


def test_lattice_equivalent_recovers_order_two_cayley_of_points():
    built = VPolytope(2, ((0, 0), (2, 0), (0, 2)))
    res = lattice_equivalent(built, vertices(simplex(2, 2)))
    assert res is not None


def test_lattice_point_count_invariant_under_unimodular_maps():
    rng = random.Random(41)
    for p in (simplex(2, 2), blowup(4, 1, 3)):
        base = len(lattice_points(p))
        for _ in range(5):
            u = random_unimodular(rng, p.dim)
            t = tuple(rng.randint(-4, 4) for _ in range(p.dim))
            moved = facets(apply_unimodular(vertices(p), u, t))
            assert len(lattice_points(moved)) == base


def test_smoothness_invariant_under_unimodular_maps():
    rng = random.Random(43)
    smooth_p = blowup(4, 1, 3)
    rough_q = VPolytope(3, ((0, 0, 0), (6, 0, 0), (0, 2, 0), (5, 2, 0), (0, 0, 2), (3, 0, 2)))
    for _ in range(5):
        u = random_unimodular(rng, 3)
        t = tuple(rng.randint(-3, 3) for _ in range(3))
        assert is_smooth(facets(apply_unimodular(vertices(smooth_p), u, t)))[0] is True
        assert is_smooth(facets(apply_unimodular(rough_q, u, t)))[0] is False


def _supporting_rows(p, count, rng):
    """Redundant half spaces <w, x> >= min of <w, v> over the vertices v,
    each tight on a face of p: w is the sum of some of the normals at a
    vertex (tight on a vertex, an edge, a ridge, ...) or a random vector."""
    data = vertex_data(p)
    rows = []
    while len(rows) < count:
        if rng.random() < 0.6:
            v = rng.choice(data)
            picked = rng.sample(v.incident, rng.randint(2, len(v.incident)))
            w = tuple(map(sum, zip(*(p.facets[i][0] for i in picked))))
        else:
            w = tuple(rng.randint(-3, 3) for _ in range(p.dim))
        if any(w):
            rows.append((w, -min(dot(w, v.point) for v in data)))
    return rows


def test_canonicalize_drops_redundant_and_sorts():
    raw = hpolytope([[0, 1], [1, 0], [-1, -1], [2, 2], [1, 1]], [0, 0, 1, 5, 2])
    p = canonicalize(raw)
    assert p == simplex(1, 2)
    rng = random.Random(7)
    for n in (5, 6):
        assert canonicalize(_padded(simplex(1, n), 21, rng)) == simplex(1, n)
    for base in (cube(3), simplex(2, 3), blowup(4, 1, 3), generate("lawrence", (1, 2, 3))):
        for _ in range(8):
            rows = list(base.facets) + _supporting_rows(base, 6, rng)
            rng.shuffle(rows)
            assert canonicalize(HPolytope(base.dim, tuple(rows))) == base


def test_canonicalize_rejects_degenerate_inputs():
    with pytest.raises(InvalidPolytope):
        canonicalize(hpolytope([[1], [-1]], [-2, 1]))  # empty
    with pytest.raises(InvalidPolytope):
        canonicalize(hpolytope([[1, 0], [0, 1]], [0, 0]))  # unbounded
    with pytest.raises(InvalidPolytope):
        canonicalize(hpolytope([[1], [-1]], [0, 0]))  # single point, not full-dim


def test_reduce_vertices_filters_interior_points():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (0, 0)]
    q = reduce_vertices(pts, 2)
    assert q.vertices == ((0, 0), (0, 2), (2, 0))


def test_vertex_data_u_vectors():
    p = blowup(4, 1, 3)
    by_point = {v.point: v for v in vertex_data(p)}
    v = by_point[(1, 0, 0)]
    assert v.u is not None
    normals = [p.facets[i][0] for i in v.incident]
    for rho in normals:
        assert sum(a * b for a, b in zip(rho, v.u)) == 1


# Independent LP oracle for the exact vertex-based answers.


def _lp_rows(facets):
    return [list(normal) for normal, _ in facets], [-offset for _, offset in facets]


def _lp_bounded(p):
    """The recession cone {x : <rho_i, x> >= 0} is {0}: 2n LPs."""
    lhs = [list(normal) for normal, _ in p.facets]
    for j in range(p.dim):
        for sign in (1, -1):
            e = [sign * int(i == j) for i in range(p.dim)]
            if lpx.feasible(lhs + [e], [0] * len(lhs) + [1]):
                return False
    return True


def _lp_full_dimensional(p):
    """Some point has a positive slack t on every half space."""
    lhs = [list(normal) + [-1] for normal, _ in p.facets] + [[0] * p.dim + [-1]]
    rhs = [-offset for _, offset in p.facets] + [-1]
    out = lpx.solve(lpx.linear_program([0] * p.dim + [-1], lhs, rhs))
    return out.status == lpx.OPTIMAL and out.value < 0


def _lp_irredundant(p):
    """The half spaces not implied by all the others."""
    kept = []
    for i, (normal, offset) in enumerate(p.facets):
        others = p.facets[:i] + p.facets[i + 1 :]
        out = lpx.solve(lpx.linear_program(list(normal), *_lp_rows(others)))
        if out.status == lpx.UNBOUNDED or out.value < -offset:
            kept.append((normal, offset))
    return tuple(kept)


def _lp_box_points(p):
    """Lattice points of the box from the LP minimum and maximum of each
    coordinate, in lexicographic order."""
    lhs, rhs = _lp_rows(p.facets)
    bounds = []
    for j in range(p.dim):
        e = [int(i == j) for i in range(p.dim)]
        lo = lpx.solve(lpx.linear_program(e, lhs, rhs))
        hi = lpx.solve(lpx.linear_program([-c for c in e], lhs, rhs))
        bounds.append(range(math.ceil(lo.value), math.floor(-hi.value) + 1))
    return tuple(pt for pt in itertools.product(*bounds) if contains(p, pt))


def _primitive_rows(p):
    """Primitive normals, each with its tightest offset, sorted."""
    tight = {}
    for normal, offset in p.facets:
        g = math.gcd(*normal)
        key = tuple(c // g for c in normal)
        val = Fraction(offset, g)
        tight[key] = min(val, tight.get(key, val))
    return HPolytope(p.dim, tuple(sorted(tight.items())))


def _random_presentation(rng, max_dim=4):
    """Boxes, simplices and contradictory pairs with duplicate, scaled,
    redundant and random rows, all normals negated half of the time: bounded
    or not, empty, flat or full-dimensional."""
    n = rng.randint(1, max_dim)
    rows = []
    kind = rng.random()
    if kind < 0.4:
        for i in range(n):
            e = [int(i == j) for j in range(n)]
            rows.append((e, rng.randint(-1, 1)))
            rows.append(([-c for c in e], rng.randint(-1, 3)))
    elif kind < 0.75:
        rows = [([int(i == j) for j in range(n)], rng.randint(-1, 1)) for i in range(n)]
        rows.append(([-1] * n, rng.randint(0, 4)))
    elif kind < 0.85:
        normal = [rng.randint(-2, 2) for _ in range(n - 1)] + [1]
        offset = rng.randint(-2, 2)
        rows = [(normal, offset), ([-c for c in normal], -offset - 1)]
    for _ in range(rng.randint(0, 4)):
        rows.append(([rng.randint(-2, 2) for _ in range(n)], rng.randint(-1, 6)))
    if rows and rng.random() < 0.3:
        normal, offset = rng.choice(rows)
        rows.append(([2 * c for c in normal], 2 * offset + rng.randint(0, 2)))
    if rows and rng.random() < 0.3:
        rows.append(rng.choice(rows))
    rows = [(r, a) for r, a in rows if any(r)] or [([1] * n, 0)]
    if rng.random() < 0.5:
        rows = [([-c for c in r], a) for r, a in rows]
    rng.shuffle(rows)
    return hpolytope([r for r, _ in rows], [a for _, a in rows])


def test_vertex_answers_match_lp_oracle():
    rng = random.Random(97)
    outcomes = set()
    for _ in range(120):
        p = _random_presentation(rng)
        bounded = _lp_bounded(p)
        assert is_bounded(p) == bounded
        empty = not lpx.feasible(*_lp_rows(p.facets))
        if empty or not bounded:
            expected = "polytope is empty" if empty else "polytope is unbounded"
            with pytest.raises(InvalidPolytope, match=expected):
                vertex_data(p)
            if empty:
                assert lattice_points(p) == ()
            else:
                with pytest.raises(InvalidPolytope, match=expected):
                    lattice_points(p)
        else:
            assert lattice_points(p) == _lp_box_points(p)
            work = _primitive_rows(p)
            full = _lp_full_dimensional(work)
            expected = "canonical" if full else "polytope is not full-dimensional"
        if expected == "canonical":
            assert canonicalize(p) == HPolytope(p.dim, _lp_irredundant(work))
        else:
            with pytest.raises(InvalidPolytope, match=expected):
                canonicalize(p)
        outcomes.add((bounded, expected))
    assert len(outcomes) == 5


# Box-and-filter reference for the fibre walk in lattice_points.


def _box_scan(p):
    """Every integer point of the box spanned by the vertices of a bounded
    presentation, tested against every half space, in lexicographic order."""
    if is_empty(p):
        return ()
    verts = vertices(p).vertices
    bounds = [range(math.ceil(min(c)), math.floor(max(c)) + 1) for c in zip(*verts)]
    return tuple(pt for pt in itertools.product(*bounds) if contains(p, pt))


def _flip(p, signs):
    """The image of p under x -> (s_1 x_1, ..., s_n x_n)."""
    flipped = [(tuple(s * c for s, c in zip(signs, normal)), offset) for normal, offset in p.facets]
    return HPolytope(p.dim, tuple(flipped))


def _slab(rng):
    """A box cut by a slab c <= <a, x> <= c + w of width w <= 1: many
    prefixes have a real but no integer interval in a later coordinate.  With
    even coefficients, an odd c and w = 0 the slab holds no lattice point at
    all, though it may hold real points."""
    n = rng.randint(2, 4)
    rows = []
    for i in range(n):
        e = [int(i == j) for j in range(n)]
        rows.append((e, rng.randint(0, 2)))
        rows.append(([-c for c in e], rng.randint(1, 3)))
    if rng.random() < 0.3:
        a = [2 * rng.randint(-1, 1) for _ in range(n)]
        a[rng.randrange(1, n)] = 2
        c, w = 2 * rng.randint(-1, 1) + 1, 0
    else:
        a = [rng.randint(-3, 3) for _ in range(n)]
        a[rng.randrange(1, n)] = rng.choice((-3, -2, 2, 3))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        w = rng.choice((0, Fraction(1, 2), 1))
    rows += [(a, -c), ([-x for x in a], c + w)]
    return hpolytope([r for r, _ in rows], [b for _, b in rows])


def _members():
    return (
        [simplex(d, n) for n in range(1, 5) for d in (1, 3)]
        + [blowup(d, lam, n) for n in (2, 3) for d, lam in ((3, 1), (4, 2))]
        + [cube(n) for n in (1, 3, 4)]
    )


def test_lattice_points_match_box_scan():
    rng = random.Random(151)
    randoms = []
    while len(randoms) < 30:
        p = _random_presentation(rng, 5)
        if math.comb(len(p.facets), p.dim) <= 126 and is_bounded(p):
            shifts = [Fraction(rng.randint(-3, 3), rng.randint(2, 4)) for _ in p.facets]
            shifted = tuple((a, b + t) for (a, b), t in zip(p.facets, shifts))
            randoms.append(HPolytope(p.dim, shifted))
    assert {p.dim for p in randoms} == {1, 2, 3, 4, 5}
    shrinks = [shrink(p, k, b) for p in _members() for k, b in ((1, 1), (2, 1), (3, 1))]
    slabs = [_slab(rng) for _ in range(8)]
    cases = slabs + randoms + shrinks
    cases += [_flip(p, [rng.choice((1, -1)) for _ in range(p.dim)]) for p in cases]
    sizes = []
    for p in cases:
        points = lattice_points(p)
        expected = _box_scan(p)
        assert points == expected, p
        assert lattice_point_count(p) == len(expected), p
        assert all(r for _, r in _lattice_fibres(p)), p
        sizes.append(len(points))
    assert sizes.count(0) > 20 and max(sizes) > 100
    assert sum(not size and not is_empty(p) for p, size in zip(slabs, sizes)) >= 2

    members = _members()
    members += [_flip(p, [rng.choice((1, -1)) for _ in range(p.dim)]) for p in members]
    for p in members + [p for p in randoms if p.dim <= 3 and not is_empty(p)]:
        first = next((k for k in range(1, p.dim + 2) if _box_scan(shrink(p, k, 1))), None)
        if first is None:
            with pytest.raises(InvariantViolation):
                codegree(p)
        else:
            assert codegree(p) == first, p


def _fibres_opened(monkeypatch, p):
    """The fibres lattice_point_count opens on p: the least FIBRE_BUDGET it
    stays within."""
    budget = polytope.FIBRE_BUDGET
    low, high = 0, budget
    while low < high:
        mid = (low + high) // 2
        monkeypatch.setattr(polytope, "FIBRE_BUDGET", mid)
        try:
            lattice_point_count(p)
            high = mid
        except InvalidPolytope:
            low = mid + 1
    monkeypatch.setattr(polytope, "FIBRE_BUDGET", budget)
    return low


def _natural_and_sheared(rng):
    """Dilated simplices and blowups of dimension 4 and 5 in the coordinates
    generate gives, whose slices repeat, and sheared images of them, whose
    slices differ."""
    natural = [simplex(5, 4), simplex(3, 5), blowup(5, 2, 4), blowup(4, 1, 4)]
    sheared = []
    for p in natural:
        u = random_unimodular(rng, p.dim)
        t = tuple(rng.randint(-3, 3) for _ in range(p.dim))
        sheared.append(facets(apply_unimodular(vertices(p), u, t)))
    return natural, sheared


@pytest.mark.parametrize("memo_size", [polytope.MEMO_SIZE, 2])
def test_lattice_point_count_matches_listing_and_box_scan(monkeypatch, memo_size):
    monkeypatch.setattr(polytope, "MEMO_SIZE", memo_size)
    rng = random.Random(36)
    # Dimensions 1-5 with rational offsets and duplicate, scaled and
    # redundant rows, the members with far-away rows, and empty shrinks.
    randoms = []
    while len(randoms) < 30:
        p = _random_presentation(rng, 5)
        if math.comb(len(p.facets), p.dim) <= 126 and is_bounded(p):
            shifts = [Fraction(rng.randint(-3, 3), rng.randint(2, 4)) for _ in p.facets]
            randoms.append(HPolytope(p.dim, tuple((a, b + t) for (a, b), t in zip(p.facets, shifts))))
    assert {p.dim for p in randoms} == {1, 2, 3, 4, 5}
    padded = [_padded(p, len(p.facets) + 4, rng) for p in _members()]
    shrinks = [shrink(p, 1, k) for p in _members() for k in (1, 2)]
    assert sum(is_empty(p) for p in shrinks) >= 5
    natural, sheared = _natural_and_sheared(rng)
    for p in randoms + padded + shrinks + natural + sheared:
        count = lattice_point_count(p)
        assert count == len(lattice_points(p)) == len(_box_scan(p)), p


def test_lattice_point_count_memo_hits(monkeypatch):
    # The memo saves fibres on repeated slices and changes nothing where
    # no two prefixes share their live partial sums.
    natural, sheared = _natural_and_sheared(random.Random(36))
    with_memo = [_fibres_opened(monkeypatch, p) for p in natural + sheared]
    monkeypatch.setattr(polytope, "MEMO_SIZE", 0)
    without = [_fibres_opened(monkeypatch, p) for p in natural + sheared]
    k = len(natural)
    assert all(a < b for a, b in zip(with_memo[:k], without[:k])), (with_memo, without)
    assert with_memo[k:] == without[k:]


def test_lattice_point_count_memo_work_guard(monkeypatch):
    # simplex 19 4 has C(23, 4) = 8855 points.  Walking every fibre opens
    # 20 + 210 + 1540 = 1770 of them; with the subtree counts memoized by the
    # one live partial sum, x_1 + ... + x_k, it opens 20 + 210 + 210 = 440.
    monkeypatch.setattr(polytope, "FIBRE_BUDGET", 450)
    assert lattice_point_count(simplex(19, 4)) == 8855


def test_lattice_point_count_memo_size(monkeypatch):
    # simplex 19 4 keys each level by x_1 + ... + x_k.  With no room, or
    # room for the first key alone (0, which no other prefix reaches), the
    # walk opens every fibre; room for the 20 sums 0, ..., 19 saves 1,330.
    p = simplex(19, 4)
    for size, opened in ((0, 1770), (1, 1770), (20, 440)):
        monkeypatch.setattr(polytope, "MEMO_SIZE", size)
        assert _fibres_opened(monkeypatch, p) == opened
        assert lattice_point_count(p) == 8855


# Subset-loop and LP references for the double description conversions.


def _cofactor(rows):
    """Integer vector orthogonal to n-1 integer rows of length n, by cofactor
    expansion; zero exactly when the rows are linearly dependent."""
    n = len(rows) + 1
    return tuple((-1) ** j * det([r[:j] + r[j + 1 :] for r in rows]) for j in range(n))


def _integer_row(row):
    fracs = [Fraction(x) for x in row]
    scale = math.lcm(*(f.denominator for f in fracs))
    return tuple(int(f * scale) for f in fracs)


def _subset_vertices(p):
    """Sorted points of p cut out by n listed hyperplanes with independent
    normals: the vertices when p is bounded, none when p is empty."""
    points = set()
    for subset in itertools.combinations(p.facets, p.dim):
        out = solve_exact([a for a, _ in subset], [-b for _, b in subset])
        if out.status == UNIQUE:
            x = tuple(_q(c) for c in out.point)
            if contains(p, x):
                points.add(x)
    return sorted(points)


def _subset_facets(q):
    """Every hyperplane through n of the points with all points on one side."""
    found = set()
    for subset in itertools.combinations(q.vertices, q.dim):
        base = subset[0]
        normal = _cofactor([_integer_row(vsub(v, base)) for v in subset[1:]])
        if not any(normal):
            continue  # subset does not span a hyperplane
        normal = primitive(normal)
        level = dot(normal, base)
        vals = [dot(normal, v) for v in q.vertices]
        if all(v >= level for v in vals):
            found.add((normal, _q(-level)))
        elif all(v <= level for v in vals):
            found.add((tuple(-c for c in normal), _q(level)))
    return HPolytope(q.dim, tuple(sorted(found)))


def _lp_extreme_points(points, dim):
    """The distinct points that are no convex combination of the others,
    one LP each, in sorted order."""
    uniq = sorted(set(points))
    if len(uniq) <= 1:
        return tuple(uniq)
    keep = []
    for i, pt in enumerate(uniq):
        others = uniq[:i] + uniq[i + 1 :]
        k = len(others)
        lhs, rhs = [], []
        for c in range(dim):
            row = [o[c] for o in others]
            lhs += [row, [-x for x in row]]
            rhs += [pt[c], -pt[c]]
        lhs += [[1] * k, [-1] * k] + [[int(a == b) for b in range(k)] for a in range(k)]
        rhs += [1, -1] + [0] * k
        if not lpx.feasible(lhs, rhs):
            keep.append(pt)
    return tuple(keep)


def _cross(n):
    rows = list(itertools.product((-1, 1), repeat=n))
    return canonicalize(hpolytope(rows, [1] * len(rows)))


def _non_simple():
    """Polytopes with vertices on more than n facets: cross-polytopes,
    pyramids over a square and a cube, and Lawrence prisms with a segment
    of length 0."""
    square = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1))
    cube_pyramid = tuple(v + (0,) for v in vertices(cube(3)).vertices) + ((0, 1, 1, 1),)
    point = VPolytope(1, ((0,),))
    prisms = [
        build([segment(2), point, segment(1)], 1),
        build([segment(1), segment(3), point, segment(2)], 1),
    ]
    pyramids = [VPolytope(3, square), VPolytope(4, cube_pyramid)]
    return [_cross(3), _cross(4)] + [facets(q) for q in pyramids + prisms]


def _cayley_builds():
    """Cayley sums of segments, triangles and rectangles, orders 1 and 2."""
    tri = lambda d: VPolytope(2, ((0, 0), (d, 0), (0, d)))
    rect = lambda a, b: VPolytope(2, ((0, 0), (a, 0), (0, b), (a, b)))
    return [
        build([segment(3), segment(1), segment(2)], 2),
        build([tri(1), tri(2), tri(3)], 1),
        build([tri(2), tri(1)], 2),
        build([rect(1, 1), rect(2, 1), rect(3, 2)], 1),
        build([rect(2, 1), rect(1, 3)], 2),
    ]


def test_vertex_data_matches_subset_reference():
    rng = random.Random(211)
    randoms = []
    while len(randoms) < 40:
        p = _random_presentation(rng, 5)
        if math.comb(len(p.facets), p.dim) <= 252 and is_bounded(p):
            shifts = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in p.facets]
            randoms.append(HPolytope(p.dim, tuple((a, _q(b + t)) for (a, b), t in zip(p.facets, shifts))))
    non_simple = _non_simple()
    cayley = [facets(q) for q in _cayley_builds()]
    shrinks = [shrink(p, k, b) for p in _members() + non_simple for k, b in ((1, 1), (2, 1), (2, 3))]
    empties = 0
    for p in randoms + non_simple + cayley + shrinks:
        expected = _subset_vertices(p)
        if not expected:
            with pytest.raises(InvalidPolytope, match="polytope is empty"):
                vertex_data(p)
            empties += 1
            continue
        data = vertex_data(p)
        assert [v.point for v in data] == expected, p
        for v in data:
            tight = tuple(i for i, (a, b) in enumerate(p.facets) if dot(a, v.point) == -b)
            assert v.incident == tight, (p, v)
    assert empties > 10
    assert all(any(len(v.incident) > p.dim for v in vertex_data(p)) for p in non_simple)
    rational = [c for p in randoms if not is_empty(p) for v in vertex_data(p) for c in v.point]
    assert any(isinstance(c, Fraction) for c in rational)


def test_vertex_data_edge_u_matches_adjugate():
    # u from the edges against the adjugate, on rational, redundant and
    # non-simple presentations, shrinks, sheared images and builds.
    rng = random.Random(233)
    cases = _non_simple() + [facets(q) for q in _cayley_builds()]
    while len(cases) < 120:
        p = _random_presentation(rng, 5)
        if is_bounded(p) and not is_empty(p):
            cases.append(p)
    for p in _members():
        shifts = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in p.facets]
        cases.append(HPolytope(p.dim, tuple((a, _q(b + t)) for (a, b), t in zip(p.facets, shifts))))
        cases.append(shrink(p, 2, 1))
        cases.append(facets(apply_unimodular(vertices(p), random_unimodular(rng, p.dim), (0,) * p.dim)))
    kinds = {"none": 0, "integer": 0, "rational": 0}
    for p in cases:
        try:
            data = vertex_data(p)
        except InvalidPolytope:  # a shift or a shrink that emptied p
            continue
        for v in data:
            assert v.u == adjugate_u(p, v), (p, v)
            if v.u is None:
                kinds["none"] += 1
            else:
                kinds["integer" if all(type(c) is int for c in v.point) else "rational"] += 1
    assert min(kinds.values()) > 50, kinds


def test_facets_match_subset_reference():
    rng = random.Random(223)
    sets = [vertices(p) for p in _non_simple() + _members() if p.dim > 1] + _cayley_builds()
    randoms = []
    while len(randoms) < 40:  # full-dimensional, some points not extreme
        n = rng.randint(2, 4)
        scale = rng.randint(1, 3) if rng.random() < 0.5 else 1
        size = rng.randint(n + 1, 9)
        pts = {tuple(_q(Fraction(rng.randint(-4, 4), scale)) for _ in range(n)) for _ in range(size)}
        if affine_dim(list(pts)) == n:
            randoms.append(VPolytope(n, tuple(sorted(pts))))
    sets += randoms
    for q in sets:
        assert facets(q) == _subset_facets(q), q
    assert any(isinstance(b, Fraction) for q in sets for _, b in facets(q).facets)


def _flat(rng, n, r, k, rational):
    """k points in an r-dimensional affine subspace of R^n."""
    base = [Fraction(rng.randint(-3, 3), rng.randint(1, 3) if rational else 1) for _ in range(n)]
    dirs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
    return [
        tuple(_q(b + sum(rng.randint(-2, 2) * d[c] for d in dirs)) for c, b in enumerate(base))
        for _ in range(k)
    ]


def test_reduce_vertices_matches_lp_reference():
    rng = random.Random(227)
    sets = [
        ([(0, 0, 0), (2, 4, 6), (1, 2, 3), (3, 6, 9), (2, 4, 6)], 3),  # a segment in 3D
        # a triangle in 4D, with points inside and on an edge
        ([(0, 0, 0, 0), (4, 0, 2, 0), (0, 4, 0, 2), (2, 2, 1, 1), (1, 1, 1, 0), (2, 0, 1, 0)], 4),
        ([(Fraction(1, 2), 3)], 2),
        ([(1, 1), (1, 1)], 2),
        ([()], 0),
        ([(), ()], 0),
    ]
    for _ in range(36):
        n = rng.randint(1, 4)
        pts = _flat(rng, n, rng.randint(1, n), rng.randint(2, 6), rng.random() < 0.4)
        pts += [rng.choice(pts) for _ in range(rng.randint(0, 2))]  # duplicates
        if rng.random() < 0.5:  # an interior point, the centroid
            pts.append(tuple(_q(sum(Fraction(c) for c in col) / len(pts)) for col in zip(*pts)))
        sets.append((pts, n))
    dims = set()
    for pts, n in sets:
        got = reduce_vertices(pts, n).vertices
        assert got == _lp_extreme_points(pts, n), pts
        dims.add((n, len(got)))
    assert len(dims) > 10


@pytest.mark.parametrize("cached", ["vertex_data", "facets"])
def test_caches_are_bounded(cached):
    # Boxes [0, d] x [0, 1], one distinct argument per d, in the form each
    # cache takes.
    fn = getattr(polytope, cached)
    size = fn.cache_info().maxsize
    assert size is not None
    args = [
        hpolytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, d, 1])
        if cached == "vertex_data"
        else VPolytope(2, ((0, 0), (0, 1), (d, 0), (d, 1)))
        for d in range(1, size + 17)
    ]
    for arg in args:
        fn(arg)
    assert fn.cache_info().currsize <= size
    before = fn.cache_info()
    result = fn(args[-1])
    assert fn(args[-1]) is result
    after = fn.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
