"""Polytopes in facet and vertex form, with exact conversions.

A facet presentation lists pairs (normal, offset) encoding the half space
<normal, x> >= -offset with a primitive integer inner normal.  Vertex
presentations list exact rational points.  Conversions use brute force over
n-element subsets, which is exact and fast at the intended scale (dimension
at most 6, a few dozen facets or vertices).

Boundedness is decided from the normals alone (is_bounded).  Everything
else about a bounded facet presentation (emptiness, dimension, which half
spaces are facets, the box holding its lattice points) is read off the
vertices the subset loop finds.  Linear programs (lpx) remain only in
reduce_vertices, which keeps the extreme points of a point set, and in
is_empty, which runs on unbounded presentations alone to tell an empty one
apart.

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

from . import lpx
from .errors import InvalidPolytope
from .ratlin import (
    UNIQUE,
    det,
    dot,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    solve_exact,
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


def is_empty(p: HPolytope) -> bool:
    lhs = [list(normal) for normal, _ in p.facets]
    return not lpx.feasible(lhs, [-offset for _, offset in p.facets])


def _cofactor(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Integer vector orthogonal to n-1 integer rows of length n, by cofactor
    expansion; zero exactly when the rows are linearly dependent."""
    n = len(rows) + 1
    return tuple((-1) ** j * det([r[:j] + r[j + 1 :] for r in rows]) for j in range(n))


def is_bounded(p: HPolytope) -> bool:
    """True iff the recession cone {x : <rho_i, x> >= 0 for all i} is {0}.

    With normals of rank n the cone is pointed, so it is {0} exactly when it
    has no extreme ray; an extreme ray is cut out by n-1 independent normals,
    so it spans their cofactor vector, which lies in the cone up to sign.
    """
    normals = [normal for normal, _ in p.facets]
    if rank(normals) < p.dim:
        return False
    for subset in itertools.combinations(normals, p.dim - 1):
        ray = _cofactor(subset)
        if any(ray):
            vals = [dot(normal, ray) for normal in normals]
            if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
                return False
    return True


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


def _vertex_points(p: HPolytope) -> list[Point]:
    """Sorted points of p cut out by n listed hyperplanes with independent
    normals: the vertices when p is bounded, none when p is empty."""
    n = p.dim
    points = set()
    for subset in itertools.combinations(range(len(p.facets)), n):
        a = [p.facets[i][0] for i in subset]
        b = [-p.facets[i][1] for i in subset]
        out = solve_exact(a, b)
        if out.status != UNIQUE:
            continue
        x = tuple(_q(c) for c in out.point)
        if contains(p, x):
            points.add(x)
    return sorted(points)


@lru_cache(maxsize=None)
def vertex_data(p: HPolytope) -> tuple[VertexData, ...]:
    """All vertices with their incident facet sets, sorted by point.

    Works on any bounded nonempty facet presentation, canonical or not
    (shrunk presentations keep redundant hyperplanes on purpose).
    """
    n = p.dim
    if n < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    if not is_bounded(p):
        raise InvalidPolytope("polytope is empty" if is_empty(p) else "polytope is unbounded")
    points = _vertex_points(p)
    if not points:
        raise InvalidPolytope("polytope is empty")
    data = []
    for x in points:
        incident = tuple(i for i, (normal, offset) in enumerate(p.facets) if dot(normal, x) == -offset)
        u = None
        if len(incident) == n:
            normals = [p.facets[i][0] for i in incident]
            if abs(det(normals)) == 1:
                sol = solve_exact(normals, [1] * n)
                u = tuple(int(c) for c in sol.point)
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


def _integer_row(row: Sequence) -> tuple[int, ...]:
    fracs = [Fraction(x) for x in row]
    scale = math.lcm(*(f.denominator for f in fracs))
    return tuple(int(f * scale) for f in fracs)


@lru_cache(maxsize=None)
def facets(q: VPolytope) -> HPolytope:
    """Exact convex hull of a full-dimensional vertex presentation.

    Every n-element subset of vertices spanning a hyperplane is tested as a
    candidate facet; those with all vertices on one side survive.  The output
    is canonical (primitive inward normals, irredundant, sorted).
    """
    n = q.dim
    if n < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    adim = affine_dim(q.vertices)
    if adim != n:
        raise InvalidPolytope(f"affine hull has dimension {adim}, expected {n}")
    verts = q.vertices
    found = set()
    for subset in itertools.combinations(range(len(verts)), n):
        base = verts[subset[0]]
        normal = _cofactor([_integer_row(vsub(verts[i], base)) for i in subset[1:]])
        if not any(normal):
            continue  # subset does not span a hyperplane
        normal = primitive(normal)
        level = dot(normal, base)
        vals = [dot(normal, v) for v in verts]
        if all(v >= level for v in vals):
            found.add((normal, _q(-level)))
        elif all(v <= level for v in vals):
            found.add((tuple(-c for c in normal), _q(level)))
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
    points = _vertex_points(p)
    if not points:
        return
    n = p.dim
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
    """Deduplicate and keep only extreme points of the given set."""
    uniq = sorted({tuple(_q(c) for c in pt) for pt in points})
    if any(len(pt) != dim for pt in uniq):
        raise ValueError("point length does not match the ambient dimension")
    if len(uniq) <= 1:
        return VPolytope(dim, tuple(uniq))
    keep = []
    for i, pt in enumerate(uniq):
        others = uniq[:i] + uniq[i + 1 :]
        k = len(others)
        lhs = []
        rhs = []
        for c in range(dim):
            row = [o[c] for o in others]
            lhs.append(row)
            rhs.append(pt[c])
            lhs.append([-x for x in row])
            rhs.append(-pt[c])
        ones = [1] * k
        lhs.append(ones)
        rhs.append(1)
        lhs.append([-1] * k)
        rhs.append(-1)
        for j in range(k):
            e = [0] * k
            e[j] = 1
            lhs.append(e)
            rhs.append(0)
        if not lpx.feasible(lhs, rhs):
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
    absd = abs(det(dmat))
    dinv_cols = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        dinv_cols.append(solve_exact(dmat, e).point)
    dinv = tuple(tuple(dinv_cols[j][i] for j in range(n)) for i in range(n))
    for w in verts_q:
        for perm in itertools.permutations(dirs_q[w], n):
            fmat = tuple(zip(*perm))
            if abs(det(fmat)) != absd:
                continue
            u = mat_mul(fmat, dinv)
            if any(Fraction(x).denominator != 1 for row in u for x in row):
                continue
            u = tuple(tuple(int(x) for x in row) for row in u)
            t = vsub(w, mat_vec(u, v0))
            image = {tuple(vadd(mat_vec(u, v), t)) for v in verts_p}
            if image == target:
                return u, t
    return None
