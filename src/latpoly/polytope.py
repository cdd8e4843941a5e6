"""Polytopes in facet and vertex form, with exact conversions.

A facet presentation lists pairs (normal, offset) encoding the half space
<normal, x> >= -offset with a primitive integer inner normal.  Vertex
presentations list exact rational points.

Every conversion reads the rays of a cone from one exact double description
routine (_extreme_rays).  The cone {(x, t) : t >= 0, <normal, x> + offset t
>= 0} over a facet presentation has the vertices, with their incident half
spaces, as its rays with t > 0; emptiness, boundedness, dimension, facets
and the lattice box are read off them.  The cone {(a, b) : <a, v> + b >= 0}
over a point set has the facets of its hull as its rays.

Lattice points are enumerated fibre by fibre, as PALP does (Kreuzer and
Skarke, Comput. Phys. Commun. 157, 2004): a depth-first walk fixes x_1,
..., x_n in turn, each half space bounding the next coordinate, and every
point it reaches is a lattice point of the polytope.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import InvalidPolytope
from .ratlin import (
    adjugate,
    det,
    dot,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    vadd,
    vsub,
)

Point = tuple
Facet = tuple  # (normal, offset)


def _q(x):
    """Normalize a rational scalar, preferring plain ints."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class HPolytope:
    dim: int
    facets: tuple[Facet, ...]


@dataclass(frozen=True)
class VPolytope:
    dim: int
    vertices: tuple[Point, ...]


@dataclass(frozen=True)
class VertexData:
    point: Point
    incident: tuple[int, ...]
    u: tuple[int, ...] | None  # solves <rho_i, u> = 1 over the incident normals


def hpolytope(normals: Sequence[Sequence[int]], offsets: Sequence) -> HPolytope:
    if len(normals) != len(offsets):
        raise ValueError("normals and offsets must have equal length")
    if not normals:
        raise ValueError("need at least one half space")
    n = len(normals[0])
    if any(len(r) != n for r in normals):
        raise ValueError("mixed normal lengths")
    return HPolytope(n, tuple((tuple(int(c) for c in r), _q(a)) for r, a in zip(normals, offsets)))


def contains(p: HPolytope, x: Sequence) -> bool:
    return all(dot(normal, x) >= -offset for normal, offset in p.facets)


def _join(a, x: Sequence[int], b, y: Sequence[int]) -> tuple[int, ...]:
    """The primitive form of a x - b y."""
    return primitive([a * s - b * t for s, t in zip(x, y)])


def _extreme_rays(rows: Sequence[Sequence[int]], dim: int):
    """Double description (Motzkin et al. 1953) of the integer cone
    {y in R^dim : <r, y> >= 0 for all rows}: (rays, lineality), the cone
    being the span of `lineality` plus the cone over the rays (y, zero), y
    primitive and zero the bit mask of the rows tight at y.

    Rows are added one by one to R^dim.  A row that meets a lineality vector
    l turns l into a ray and moves the rest into the row's hyperplane along
    l.  Otherwise the rays on its nonnegative side stay and each adjacent
    pair across it is joined: two rays are adjacent exactly when no third is
    tight on every row both are tight on (Fukuda and Prodon, "Double
    description method revisited", 1996, Proposition 7).
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    for j, row in enumerate(rows):
        bit = 1 << j
        vals = [dot(row, y) for y, _ in rays]
        hit = next((l for l in lineality if dot(row, l)), None)
        if hit is not None:
            h = dot(row, hit)
            lineality = [_join(h, l, dot(row, l), hit) for l in lineality if l is not hit]
            hit = hit if h > 0 else tuple(-c for c in hit)
            rays = [(_join(abs(h), y, v, hit), zero | bit) for (y, zero), v in zip(rays, vals)]
            rays.append((hit, bit - 1))
            continue
        kept = [(y, zero | bit if v == 0 else zero) for (y, zero), v in zip(rays, vals) if v >= 0]
        pos = [(y, zero, v) for (y, zero), v in zip(rays, vals) if v > 0]
        neg = [(y, zero, v) for (y, zero), v in zip(rays, vals) if v < 0]
        masks = [zero for _, zero in rays]
        least = dim - len(lineality) - 2
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                # p and q are tight on common; an adjacent pair has no third.
                if common.bit_count() >= least and sum(common & z == common for z in masks) == 2:
                    kept.append((_join(vp, q, vq, p), common | bit))
        rays = kept
    return rays, lineality


def _lifted(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """The integer rows (l v, l) of the points v, l clearing v's denominators."""
    scales = [math.lcm(*(c.denominator for c in v)) for v in points]
    return [tuple(int(c * l) for c in v) + (l,) for v, l in zip(points, scales)]


def _cone_over(facets: Sequence[Facet], dim: int):
    """_extreme_rays of the cone {(x, t) : t >= 0, <a, x> + b t >= 0} over
    the half spaces (a, b).  Bit i of a zero mask is half space i."""
    rows = [tuple(b.denominator * c for c in a) + (b.numerator,) for a, b in facets]
    return _extreme_rays(rows + [(0,) * dim + (1,)], dim + 1)


def _point(y: tuple[int, ...]) -> Point:
    """The vertex x of a ray (x t, t) of the cone over a facet presentation."""
    t = y[-1]
    return y[:-1] if t == 1 else tuple(_q(Fraction(c, t)) for c in y[:-1])


def is_empty(p: HPolytope) -> bool:
    """True iff no ray of the cone over p has t > 0."""
    return not any(y[-1] for y, _ in _cone_over(p.facets, p.dim)[0])


def is_bounded(p: HPolytope) -> bool:
    """True iff the recession cone {x : <rho_i, x> >= 0 for all i} is {0},
    that is iff it has neither lineality nor an extreme ray."""
    rays, lineality = _extreme_rays([normal for normal, _ in p.facets], p.dim)
    return not rays and not lineality


def canonicalize(p: HPolytope) -> HPolytope:
    """Canonical facet presentation of a bounded full-dimensional polytope.

    Normals are made primitive, duplicates and redundant half spaces are
    dropped, and the list is sorted by (normal, offset).  Raises
    InvalidPolytope when the input is empty, unbounded, or lower-dimensional.
    A full-dimensional polytope has only one irredundant presentation with
    distinct primitive normals: the half spaces whose tight vertices span a
    hyperplane.
    """
    if p.dim < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    tight: dict[tuple, object] = {}
    for normal, offset in p.facets:
        g = math.gcd(*normal)
        if g == 0:
            raise InvalidPolytope("zero normal vector in facet list")
        key = tuple(c // g for c in normal)
        val = _q(Fraction(offset, g))
        if key not in tight or val < tight[key]:
            tight[key] = val
    work = HPolytope(p.dim, tuple(sorted(tight.items())))
    data = vertex_data(work)
    if affine_dim([v.point for v in data]) < p.dim:
        raise InvalidPolytope("polytope is not full-dimensional")
    kept = tuple(
        facet
        for i, facet in enumerate(work.facets)
        if affine_dim([v.point for v in data if i in v.incident]) == p.dim - 1
    )
    return HPolytope(p.dim, kept)


@lru_cache(maxsize=None)
def vertex_data(p: HPolytope) -> tuple[VertexData, ...]:
    """All vertices with their incident facet sets, sorted by point.

    Works on any bounded nonempty facet presentation, canonical or not
    (shrunk presentations keep redundant hyperplanes on purpose): the rays
    with t > 0 of the cone over p, which has no others when p is bounded.
    """
    n = p.dim
    if n < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    rays, lineality = _cone_over(p.facets, n)
    found = sorted((_point(y), zero) for y, zero in rays if y[-1])
    if not found:
        raise InvalidPolytope("polytope is empty")
    if lineality or len(found) < len(rays):
        raise InvalidPolytope("polytope is unbounded")
    data = []
    for x, zero in found:
        incident = tuple(i for i in range(len(p.facets)) if zero >> i & 1)
        u = None
        if len(incident) == n:
            d, adj = adjugate([p.facets[i][0] for i in incident])
            if abs(d) == 1:  # u = adj 1 / d
                u = tuple(d * sum(row) for row in adj)
        data.append(VertexData(x, incident, u))
    return tuple(data)


def vertices(p: HPolytope) -> VPolytope:
    return VPolytope(p.dim, tuple(v.point for v in vertex_data(p)))


def affine_dim(points: Sequence[Point]) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [vsub(x, base) for x in points[1:]]
    return rank(diffs) if diffs else 0


@lru_cache(maxsize=None)
def facets(q: VPolytope) -> HPolytope:
    """Exact convex hull of a full-dimensional vertex presentation.

    The facets are the extreme rays (a, b) of the cone of valid inequalities
    {(a, b) : <a, v> + b >= 0 for every vertex v}, whose lineality space is
    the equations of the affine hull.  The output is canonical (primitive
    inward normals, irredundant, sorted).
    """
    n = q.dim
    if n < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    rays, lineality = _extreme_rays(_lifted(q.vertices), n + 1)
    if lineality:
        raise InvalidPolytope(f"affine hull has dimension {n - len(lineality)}, expected {n}")
    found = []
    for y, _ in rays:
        g = math.gcd(*y[:-1])
        found.append((tuple(c // g for c in y[:-1]), _q(Fraction(y[-1], g))))
    return HPolytope(n, tuple(sorted(found)))


def _enumerable(p: HPolytope) -> bool:
    """Validate p for lattice point enumeration: True when p is bounded,
    False when it is empty (and unbounded), InvalidPolytope otherwise."""
    if p.dim < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    if is_bounded(p):
        return True
    if is_empty(p):
        return False
    raise InvalidPolytope("polytope is unbounded")


def _lattice_walk(p: HPolytope):
    """Integer points of a bounded presentation, generated in lexicographic
    order by a depth-first walk over the coordinates.

    Each half space <a, x> >= -b bounds x_k by
    a_k x_k >= -b - (sum of a_j x_j over the fixed j < k) - S_k,
    where S_k is the largest value of the terms j > k over the integer box
    of the vertex coordinates.  For the last coordinate in which a row has a
    nonzero coefficient S_k is 0, so that bound is the row itself: every
    point the walk reaches satisfies every half space.
    """
    n = p.dim
    points = [_point(y) for y, _ in _cone_over(p.facets, n)[0] if y[-1]]
    if not points:
        return
    lo = [math.ceil(min(col)) for col in zip(*points)]
    hi = [math.floor(max(col)) for col in zip(*points)]
    # At integer points <a, x> >= -b is <a, x> >= -floor(b).
    rows = [(normal, math.floor(offset)) for normal, offset in p.facets]
    # levels[k]: (row index, a_k, -b - S_k) for each row with a_k != 0.
    levels = [[] for _ in range(n)]
    for i, (a, b) in enumerate(rows):
        for k in range(n):
            if a[k]:
                later = zip(a[k + 1 :], lo[k + 1 :], hi[k + 1 :])
                levels[k].append((i, a[k], -b - sum(max(c * l, c * h) for c, l, h in later)))

    def fibre(k, partial):
        low, high = lo[k], hi[k]
        for i, a, c in levels[k]:
            r = c - partial[i]
            if a > 0:
                r = -(-r // a)
                if r > low:
                    low = r
            else:
                r //= a
                if r < high:
                    high = r
        return range(low, high + 1)

    def walk(k, prefix, partial):
        if k == n - 1:
            for v in fibre(k, partial):
                yield prefix + (v,)
            return
        for v in fibre(k, partial):
            extended = [s + a[k] * v for s, (a, _) in zip(partial, rows)]
            yield from walk(k + 1, prefix + (v,), extended)

    yield from walk(0, (), [0] * len(rows))


def lattice_points(p: HPolytope) -> tuple[tuple[int, ...], ...]:
    """Integer points of a bounded presentation, in lexicographic order,
    enumerated fibre by fibre (see _lattice_walk).  An empty presentation
    has none; a nonempty unbounded one is rejected."""
    return tuple(_lattice_walk(p)) if _enumerable(p) else ()


def shrink(p: HPolytope, a: int, b: int) -> HPolytope:
    """Dilate by a and move every listed hyperplane inward by b.

    The result keeps the input presentation facet by facet; shifted
    hyperplanes that become redundant or infeasible stay in the list.
    """
    if not isinstance(a, int) or a <= 0:
        raise ValueError("dilation factor must be a positive integer")
    if not isinstance(b, int) or b < 0:
        raise ValueError("inward shift must be a nonnegative integer")
    return HPolytope(p.dim, tuple((normal, _q(a * offset - b)) for normal, offset in p.facets))


def ensure_lattice(points: Sequence[Point]) -> None:
    for pt in points:
        for c in pt:
            if Fraction(c).denominator != 1:
                raise InvalidPolytope(f"non-integer vertex {pt}")


def is_smooth(p: HPolytope):
    """Whether every vertex has exactly n incident facets forming a lattice
    basis; on failure returns the lexicographically first offending vertex."""
    ensure_lattice([v.point for v in vertex_data(p)])
    for v in vertex_data(p):
        if len(v.incident) != p.dim or v.u is None:
            return False, v.point
    return True, None


def _max_cones(p: HPolytope) -> frozenset:
    """Each vertex's normal cone as the sorted tuple of its incident normals,
    which in a canonical presentation are exactly its extreme rays."""
    return frozenset(
        tuple(sorted(p.facets[i][0] for i in v.incident)) for v in vertex_data(p)
    )


def normal_fan_equal(p: HPolytope, q: HPolytope) -> bool:
    """Whether the sets of maximal normal cones coincide.

    Inputs must be canonical bounded full-dimensional presentations; a cone
    is compared as the sorted set of its primitive extreme rays.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return _max_cones(p) == _max_cones(q)


def reduce_vertices(points: Sequence[Point], dim: int) -> VPolytope:
    """Deduplicate and keep only extreme points of the given set.

    The rays of the cone over the points are the facets of their hull within
    its affine hull (whose equations are the lineality).  A point is extreme
    exactly when no other point lies on every facet through it, since points
    of the set span the smallest face holding it.
    """
    uniq = sorted({tuple(_q(c) for c in pt) for pt in points})
    if any(len(pt) != dim for pt in uniq):
        raise ValueError("point length does not match the ambient dimension")
    if len(uniq) <= 1:
        return VPolytope(dim, tuple(uniq))
    zeros = [zero for _, zero in _extreme_rays(_lifted(uniq), dim + 1)[0]]
    keep = []
    for i, pt in enumerate(uniq):
        meet = -1
        for zero in zeros:
            if zero >> i & 1:
                meet &= zero
        if meet == 1 << i:
            keep.append(pt)
    return VPolytope(dim, tuple(keep))


def apply_unimodular(q: VPolytope, u: Sequence[Sequence[int]], t: Sequence[int]) -> VPolytope:
    """Image of a vertex presentation under x -> U x + t."""
    pts = sorted(tuple(vadd(mat_vec(u, v), t)) for v in q.vertices)
    return VPolytope(q.dim, tuple(pts))


@lru_cache(maxsize=None)
def _edge_directions(q: VPolytope):
    """Primitive edge directions at every vertex, via the facet structure."""
    h = facets(q)
    data = vertex_data(h)
    incident = {v.point: frozenset(v.incident) for v in data}
    verts = [v.point for v in data]
    dirs = {v: [] for v in verts}
    n = q.dim
    for x, y in itertools.combinations(verts, 2):
        common = incident[x] & incident[y]
        normals = [h.facets[i][0] for i in common]
        r = rank(normals) if normals else 0
        if r == n - 1:
            d = primitive(vsub(y, x))
            dirs[x].append(d)
            dirs[y].append(tuple(-c for c in d))
    return verts, dirs


def lattice_equivalent(p: VPolytope, q: VPolytope):
    """Search for (U, t) with U unimodular mapping p onto q, or None.

    One vertex of p is fixed together with n independent primitive edge
    directions; every (vertex, ordered edge tuple) of q is tried as its
    image, the linear part is solved for exactly, and the full vertex map
    is verified.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    n = p.dim
    ensure_lattice(p.vertices)
    ensure_lattice(q.vertices)
    if n == 0:
        return (), ()
    verts_p, dirs_p = _edge_directions(p)
    verts_q, dirs_q = _edge_directions(q)
    if len(verts_p) != len(verts_q):
        return None
    target = set(verts_q)
    v0 = verts_p[0]
    chosen = []
    for d in dirs_p[v0]:
        if rank(chosen + [d]) > len(chosen):
            chosen.append(d)
        if len(chosen) == n:
            break
    if len(chosen) < n:
        return None
    dmat = tuple(zip(*chosen))  # columns are the chosen directions
    d, adj = adjugate(dmat)
    for w in verts_q:
        for perm in itertools.permutations(dirs_q[w], n):
            fmat = tuple(zip(*perm))
            if abs(det(fmat)) != abs(d):
                continue
            u = mat_mul(fmat, adj)  # d times the linear part
            if any(x % d for row in u for x in row):
                continue
            u = tuple(tuple(x // d for x in row) for row in u)
            t = vsub(w, mat_vec(u, v0))
            image = {tuple(vadd(mat_vec(u, v), t)) for v in verts_p}
            if image == target:
                return u, t
    return None
