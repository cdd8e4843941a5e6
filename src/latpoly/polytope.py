"""Polytopes in facet and vertex form, with exact conversions.

A facet presentation lists pairs (normal, offset) encoding the half space
<normal, x> >= -offset with a primitive integer inner normal.  Vertex
presentations list exact rational points.

Every conversion reads the rays of a cone from one exact double description
routine (_extreme_rays).  The cone {(x, t) : t >= 0, <normal, x> + offset t
>= 0} over a facet presentation has the vertices, with their incident half
spaces, as its rays with t > 0; emptiness, boundedness, dimension, facets,
the edges that give each vertex its u and the lattice box are read off
them, unless the caller has a lattice box of its own, as codegree has for
the shrinks of a smooth polytope.  The cone {(a, b) : <a, v> + b >= 0}
over a point set has the facets of its hull, within its affine hull, as its
rays and the equations of that affine hull as its lineality.

Lattice points come fibre by fibre, as in PALP (Kreuzer and Skarke,
Comput. Phys. Commun. 157, 2004): a depth-first walk fixes x_1, ...,
x_{n-1}, each half space bounding the next coordinate, and the last one
ranges over an interval of lattice points.  lattice_points lists them from
a generator of fibres.  lattice_point_count has a walk of its own that
returns integers and memoizes the count below each fixed prefix by the
partial sums of the rows still live there; FIBRE_BUDGET counts the fibres
it opens, and a memo hit opens none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import InvalidPolytope
from .ratlin import dot, identity, primitive, rank, vsub

Point = tuple
Facet = tuple  # (normal, offset)


def _q(x):
    """Normalize a rational scalar, preferring plain ints."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


class HPolytope(NamedTuple):
    dim: int
    facets: tuple[Facet, ...]


class VPolytope(NamedTuple):
    dim: int
    vertices: tuple[Point, ...]


class VertexData(NamedTuple):
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


# Rays _extreme_rays may keep: the vertices of the unit 11-cube, which takes
# about half a second of CPU to canonicalize (Python 3.11).
RAY_BUDGET = 2**11


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
    description method revisited", 1996, Proposition 7).  Once a row has
    kept more than RAY_BUDGET rays, InvalidPolytope.
    """
    lineality = list(identity(dim))
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
                    if len(kept) > RAY_BUDGET:
                        raise InvalidPolytope(
                            f"double description kept {len(kept)} rays, budget {RAY_BUDGET}"
                        )
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


# Entries each cache of this module keeps (_cone_points, vertex_data,
# _hull, facets).  Their repeat calls fall within one file or one Cayley
# family, so a long batch or library session needs only the recent ones.
CACHE_SIZE = 128


@lru_cache(maxsize=CACHE_SIZE)
def _cone_points(p: HPolytope) -> tuple[tuple[Point, int], ...]:
    """The points (x, zero mask) of the rays with t > 0 of the cone over p,
    none when p is empty.  InvalidPolytope when p is nonempty and unbounded:
    the cone then has lineality or a ray with t = 0 as well.  Cached, so
    vertex_data and the lattice walk over one p share one double
    description."""
    if p.dim < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    rays, lineality = _cone_over(p.facets, p.dim)
    found = tuple((_point(y), zero) for y, zero in rays if y[-1])
    if found and (lineality or len(found) < len(rays)):
        raise InvalidPolytope("polytope is unbounded")
    return found


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

    After deduplication a half space is a facet exactly when its set of
    tight vertices lies strictly inside no other half space's set.  A
    facet's set lies in no other: that set would be a proper face holding
    the facet, so the facet itself, and two half spaces tight on one facet
    share a normal, which deduplication excludes.  Any other set lies
    strictly inside a facet's: the empty set inside every nonempty one, and
    a lower face inside a facet holding it, which every presentation lists.
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
    masks = _facet_masks([v.incident for v in data], len(work.facets))
    if (1 << len(data)) - 1 in masks:  # an equation of the affine hull
        raise InvalidPolytope("polytope is not full-dimensional")
    kept = tuple(
        facet
        for facet, m in zip(work.facets, masks)
        if not any(m != o and m & o == m for o in masks)
    )
    return HPolytope(p.dim, kept)


def _facet_masks(incidents, count: int) -> list[int]:
    """For each of `count` half spaces, the bit mask of the vertices on it,
    bit j for the vertex whose incident half spaces are incidents[j]."""
    masks = [0] * count
    for j, incident in enumerate(incidents):
        for i in incident:
            masks[i] |= 1 << j
    return masks


@lru_cache(maxsize=CACHE_SIZE)
def vertex_data(p: HPolytope) -> tuple[VertexData, ...]:
    """All vertices with their incident facet sets, sorted by point.

    Works on any bounded nonempty facet presentation, canonical or not
    (shrunk presentations keep redundant hyperplanes on purpose): the rays
    with t > 0 of the cone over p, which has no others when p is bounded.

    A vertex v on exactly n half spaces gets u from its edges: the n - 1
    other than row i cut out an edge, whose vertices (the AND of their
    masks) are v and one w.  With e_i the primitive direction of w - v and A
    the n normals, A E = diag(<rho_i, e_i>), positive integers; A is
    unimodular exactly when all are 1, and then u = A^-1 1 = sum of the e_i.
    """
    n = p.dim
    found = sorted(_cone_points(p))
    if not found:
        raise InvalidPolytope("polytope is empty")
    incidents = [tuple(i for i in range(len(p.facets)) if zero >> i & 1) for _, zero in found]
    masks = _facet_masks(incidents, len(p.facets))
    full = (1 << len(found)) - 1
    data = []
    for j, ((x, _), incident) in enumerate(zip(found, incidents)):
        u = None
        if len(incident) == n:
            # after[i]: the AND of the masks of rows i, i + 1, ... at v.
            after = [full] * (n + 1)
            for i in range(n - 1, -1, -1):
                after[i] = after[i + 1] & masks[incident[i]]
            before, total = full, [0] * n
            for i, row in enumerate(incident):
                w = found[((before & after[i + 1]) ^ 1 << j).bit_length() - 1][0]
                before &= masks[row]
                d = [b - a for a, b in zip(x, w)]
                if not all(type(c) is int for c in d):
                    scale = math.lcm(*(c.denominator for c in d))
                    d = [int(c * scale) for c in d]
                e = primitive(d)
                if dot(p.facets[row][0], e) != 1:
                    break
                total = [a + b for a, b in zip(total, e)]
            else:
                u = tuple(total)
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


@lru_cache(maxsize=CACHE_SIZE)
def _hull(q: VPolytope) -> tuple[HPolytope, tuple[int, ...], int]:
    """The facets of the hull of a presentation of distinct points within
    its affine hull, the bit mask of the points of q on each (bit j:
    q.vertices[j]), and the number of equations of that affine hull.

    The facets are the extreme rays (a, b) of the cone of valid inequalities
    {(a, b) : <a, v> + b >= 0 for every point v}, whose lineality space is
    the equations.  With no equations they are canonical, sorted with
    primitive inward normals; otherwise each is one representative modulo
    the equations, and only its mask is meaningful.
    """
    n = q.dim
    if n < 1:
        raise InvalidPolytope("ambient dimension must be at least 1")
    rays, lineality = _extreme_rays(_lifted(q.vertices), n + 1)
    found = []
    for y, zero in rays:
        if not zero:  # 0 x + b >= 0, the one ray over a single point: no facet
            continue
        g = math.gcd(*y[:-1])
        found.append(((tuple(c // g for c in y[:-1]), _q(Fraction(y[-1], g))), zero))
    found.sort()  # by facet alone, since no two rays give one
    zeros = tuple(zero for _, zero in found)
    return HPolytope(n, tuple(f for f, _ in found)), zeros, len(lineality)


@lru_cache(maxsize=CACHE_SIZE)
def facets(q: VPolytope) -> HPolytope:
    """Exact convex hull of a full-dimensional vertex presentation, the
    facets of _hull(q).  The output is canonical (primitive inward normals,
    irredundant, sorted); a flat q, whose _hull facets are canonical only
    modulo its equations, raises InvalidPolytope."""
    h, _, equations = _hull(q)
    if equations:
        raise InvalidPolytope(f"affine hull has dimension {q.dim - equations}, expected {q.dim}")
    return h


def _extreme(zeros: Sequence[int], count: int) -> list[int]:
    """Indices of the extreme points among `count` distinct points, given the
    zero masks of the facets of their hull (within its affine hull).  A
    point is extreme exactly when no other point lies on every facet
    through it, since points of the set span the smallest face holding it."""
    out = []
    for i in range(count):
        meet = -1
        for zero in zeros:
            if zero >> i & 1:
                meet &= zero
        if meet == 1 << i:
            out.append(i)
    return out


def _fibre_setup(p: HPolytope, box=None):
    """The setup the fibre walks over a bounded presentation share: (rows,
    fibre), or None when p is empty, with rows the pairs (a, floor(b)) of
    its half spaces and fibre(k, partial, v=0) the range of x_k once x_1,
    ..., x_{k-1} are fixed, partial[i] + a_{k-1} v being row i's fixed sum.

    The box is the caller's (lo, hi), integer bounds that hold every lattice
    point of p, or else the box of the vertices of p.  Those come from
    _cone_points, whose double description of the cone over p (the one
    vertex_data reads, cached) also checks p: an unbounded p raises
    InvalidPolytope.

    A half space <a, x> >= -b bounds x_k by a_k x_k >= -b - (sum of a_j x_j
    over the fixed j < k) - S_k, S_k the largest value of the terms j > k
    over the integer vertex box.  For a row's last nonzero coefficient S_k
    is 0, so that bound is the row itself: every point of a fibre of the
    last coordinate satisfies every half space.
    """
    n = p.dim
    if box is None:
        points = [x for x, _ in _cone_points(p)]
        if not points:
            return None
        box = [math.ceil(min(col)) for col in zip(*points)], [math.floor(max(col)) for col in zip(*points)]
    lo, hi = box
    # At integer points <a, x> >= -b is <a, x> >= -floor(b).
    rows = [(normal, math.floor(offset)) for normal, offset in p.facets]
    # levels[k]: (row index, a_k, a_{k-1}, -b - S_k) for each row with a_k != 0.
    levels = [[] for _ in range(n)]
    for i, (a, b) in enumerate(rows):
        for k in range(n):
            if a[k]:
                later = zip(a[k + 1 :], lo[k + 1 :], hi[k + 1 :])
                bound = -b - sum(max(c * l, c * h) for c, l, h in later)
                levels[k].append((i, a[k], a[k - 1] if k else 0, bound))

    def fibre(k, partial, v=0):
        low, high = lo[k], hi[k]
        for i, a, e, c in levels[k]:
            r = c - partial[i] - e * v
            if a > 0:
                r = -(-r // a)
                if r > low:
                    low = r
            else:
                r //= a
                if r < high:
                    high = r
        return range(low, high + 1)

    return rows, fibre


def _lattice_fibres(p: HPolytope, box=None):
    """Fibres (prefix, r) of a bounded presentation in lexicographic order,
    r the nonempty range of the v with prefix + (v,) a lattice point: a
    depth-first walk over _fibre_setup(p, box) fixes x_1, ..., x_{n-1}, and
    the loop over x_{n-1} bounds x_n directly, adding a_{n-1} x_{n-1} per
    row.  An empty p yields nothing, an unbounded one raises InvalidPolytope
    unless a box is given.
    """
    n = p.dim
    setup = _fibre_setup(p, box)
    if setup is None:
        return
    rows, fibre = setup

    def walk(k, prefix, partial):
        values = fibre(k, partial)
        if k < n - 2:
            for v in values:
                extended = [s + a[k] * v for s, (a, _) in zip(partial, rows)]
                yield from walk(k + 1, prefix + (v,), extended)
            return
        for v in values:
            if r := fibre(n - 1, partial, v):
                yield prefix + (v,), r

    if n > 1:
        yield from walk(0, (), [0] * len(rows))
    elif r := fibre(0, [0] * len(rows)):
        yield (), r


def lattice_points(p: HPolytope) -> tuple[tuple[int, ...], ...]:
    """Integer points of a bounded presentation, in lexicographic order,
    listed from the fibres of _lattice_fibres.  An empty presentation has
    none; a nonempty unbounded one is rejected."""
    return tuple(prefix + (v,) for prefix, r in _lattice_fibres(p) for v in r)


# Fibres lattice_point_count may open, each a value it fixes in x_1, ...,
# x_{n-1} outside a memoized subtree: about 1 s at 1 us each.
FIBRE_BUDGET = 10**6
# Subtree counts lattice_point_count keeps per level within one call.
MEMO_SIZE = 2**12


def lattice_point_count(p: HPolytope) -> int:
    """Number of integer points of a bounded presentation: 0 when p is
    empty.  InvalidPolytope when p is unbounded or its walk opens more
    fibres than FIBRE_BUDGET.

    The walk over _fibre_setup(p) adds up the ranges of the last coordinate
    in place and memoizes the count below each value it fixes.  Once x_1,
    ..., x_k are fixed, that count depends only on the partial sums of the
    rows still live, those with a nonzero coefficient at k + 1 or later:
    every other row was enforced exactly at its last nonzero coefficient.
    The key is the tuple of those sums, less the rows with no fixed term
    yet, whose sums are 0.  Each level keeps up to MEMO_SIZE counts for the
    one call; a hit opens no fibre.
    """
    n = p.dim
    setup = _fibre_setup(p)
    if setup is None:
        return 0
    rows, fibre = setup
    partial = [0] * len(rows)
    if n == 1:
        r = fibre(0, partial)
        return max(r.stop - r.start, 0)  # len() overflows past 2**63 - 1
    # keyed[k]: (row index, a_{k-1}) for each row live at k with a fixed term.
    keyed = [
        [(i, a[k - 1]) for i, (a, _) in enumerate(rows) if any(a[k:]) and any(a[:k])]
        for k in range(n)
    ]
    memos = [{} for _ in range(n)]
    opened = 0

    def count(k, partial):
        nonlocal opened
        values = fibre(k, partial)
        opened += max(values.stop - values.start, 0)
        if opened > FIBRE_BUDGET:
            raise InvalidPolytope(f"lattice point count passed {opened} fibres, budget {FIBRE_BUDGET}")
        total = 0
        if k == n - 2:
            for v in values:
                r = fibre(n - 1, partial, v)
                if r:
                    total += r.stop - r.start
            return total
        memo, live = memos[k + 1], keyed[k + 1]
        for v in values:
            key = tuple([partial[i] + a * v for i, a in live])
            below = memo.get(key)
            if below is None:
                below = count(k + 1, [s + a[k] * v for s, (a, _) in zip(partial, rows)])
                if len(memo) < MEMO_SIZE:
                    memo[key] = below
            total += below
        return total

    return count(0, partial)


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
            if type(c) is not int and Fraction(c).denominator != 1:
                raise InvalidPolytope(f"non-integer vertex {pt}")


def is_smooth(p: HPolytope):
    """Whether every vertex has its u: n incident facets forming a lattice
    basis.  On failure returns the lexicographically first vertex lacking it."""
    data = vertex_data(p)
    ensure_lattice([v.point for v in data])
    for v in data:
        if v.u is None:
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

    _extreme reads the extreme points off the masks of the facets of their
    hull within its affine hull, from the _hull that facets and the fan
    tests of cayley share.  For a flat set those facets are
    representatives modulo the equations, whose masks serve all the same.
    """
    uniq = sorted({tuple(_q(c) for c in pt) for pt in points})
    if any(len(pt) != dim for pt in uniq):
        raise ValueError("point length does not match the ambient dimension")
    if len(uniq) <= 1:
        return VPolytope(dim, tuple(uniq))
    zeros = _hull(VPolytope(dim, tuple(uniq)))[1]
    return VPolytope(dim, tuple(uniq[i] for i in _extreme(zeros, len(uniq))))
