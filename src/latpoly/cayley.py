"""Generalized Cayley structure: construction over a dilated simplex of
heights, detection through lattice functionals of bounded width, the
split-family value check, and generators for the example families."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidPolytope
from .invariants import _qcodegree_smooth, nef_value
from .polytope import (
    HPolytope,
    VPolytope,
    _extreme,
    _facet_masks,
    _hull,
    _q,
    affine_dim,
    canonicalize,
    ensure_lattice,
    facets,
    hpolytope,
    is_smooth,
    reduce_vertices,
    vertex_data,
)
from .ratlin import adjugate, dot, identity, independent, mat_vec, smith_normal_form, vsub


class CayleyDecomposition(NamedTuple):
    """Projection data exhibiting P as a Cayley polytope of order s.

    The rows of `projection` span a surjection onto Z^k; after subtracting
    `translation`, every vertex of P maps into {0, s e_1, ..., s e_k}, and
    `summands` lists the k + 1 fiber polytopes in unimodular fiber
    coordinates (ambient dimension n - k).
    """

    k: int
    s: int
    projection: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]
    summands: tuple[VPolytope, ...]
    strict: bool


class LocalsplitReport(NamedTuple):
    """Outcome of the split-family value check on a strict Cayley build."""

    applicable: bool
    k: int
    s: int
    summand_dims: tuple[int, ...]
    smooth: bool
    expected: object  # (k+1)/s as an exact rational
    computed_tau: object | None
    computed_qcodeg: object | None
    verdict: bool


def segment(length: int) -> VPolytope:
    if not isinstance(length, int) or length < 1:
        raise ValueError("segment length must be a positive integer")
    return VPolytope(1, ((0,), (length,)))


def lattice_point() -> VPolytope:
    """The one-point polytope in the zero-dimensional ambient space."""
    return VPolytope(0, ((),))


def build(summands, s: int) -> VPolytope:
    """Vertices of the hull of the summands placed at heights s * e_j.

    Summand j contributes (v, s e_j) for each of its vertices, with e_0 = 0;
    non-extreme input points are dropped.  The result lives in dimension
    m + k for summands in dimension m.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("order must be a positive integer")
    k = len(summands) - 1
    if k < 1:
        raise ValueError("need at least two summands")
    m = summands[0].dim
    if any(q.dim != m for q in summands):
        raise ValueError("summands have mixed ambient dimensions")
    points = []
    for j, q in enumerate(summands):
        ensure_lattice(q.vertices)
        clean = reduce_vertices(q.vertices, m)
        height = tuple(s * int(i == j - 1) for i in range(k))
        for v in clean.vertices:
            points.append(tuple(v) + height)
    return VPolytope(m + k, tuple(sorted(set(points))))


def same_normal_fan(a: VPolytope, b: VPolytope) -> bool:
    """Fan equality for summands, allowing lower-dimensional ones with one
    direction space: _same_cones on the hull of the points (v, 0), (w, 1)."""
    if a.dim != b.dim or not a.vertices or not b.vertices:
        return False
    points = {(*v, 0) for v in a.vertices} | {(*w, 1) for w in b.vertices}
    cay = VPolytope(a.dim + 1, tuple(sorted(points)))
    classes = [sum(1 << i for i, x in enumerate(cay.vertices) if x[-1] == h) for h in (0, 1)]
    return _same_cones(_vertex_masks(cay), classes)


def build_strict(summands, s: int) -> VPolytope:
    """As build, after checking that all summands share one normal fan
    (_same_cones on the hull of the sum, which facets reuses); mixed ambient
    dimensions or an empty summand fail before the build."""
    for j in range(1, len(summands)):
        if summands[j].dim != summands[0].dim or not summands[0].vertices or not summands[j].vertices:
            raise InvalidPolytope(f"summands 0 and {j} have different normal fans")
    built = build(summands, s)
    m = summands[0].dim
    heights = [next((i + 1 for i, c in enumerate(x[m:]) if c), 0) for x in built.vertices]
    classes = [sum(1 << i for i, h in enumerate(heights) if h == j) for j in range(len(summands))]
    tight = _vertex_masks(built)
    for j in range(1, len(summands)):
        if not _same_cones(tight, (classes[0], classes[j])):
            raise InvalidPolytope(f"summands 0 and {j} have different normal fans")
    return built


def _functionals(verts, ys):
    """The primitive integer w with <v_k - v_0, w> = y_k on n short independent
    vertex differences, one per y of ys that has one: w = adj(D) y / det D for
    D the matrix of those differences, integral and primitive exactly when
    gcd(adj(D) y) = |det D|, which y = 0 never meets."""
    diffs = sorted(
        (vsub(v, verts[0]) for v in verts[1:]),
        key=lambda d: (max(abs(c) for c in d), d),
    )
    den, adj = adjugate([diffs[i] for i in independent(diffs)])
    for y in ys:
        w = mat_vec(adj, y)
        if math.gcd(*w) == abs(den):
            yield tuple(c // den for c in w)


def width_candidates(p: VPolytope, s: int):
    """All primitive integer functionals of lattice width at most s on p.

    Width at most s puts 0 and every y_k = <v_k - v_0, w> of `_functionals`
    in one interval [lo, lo + s] with -s <= lo <= 0.  Each such y,
    (s + 1)^(n + 1) - s^(n + 1) of them whatever the coordinates, is
    enumerated once, grouped by lo = min(0, min y); w is kept with first
    nonzero entry positive (one of each +- pair) and true width at most s.
    Returns (functional, min over p, width), sorted.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("width bound must be a positive integer")
    n = p.dim
    ensure_lattice(p.vertices)
    if affine_dim(p.vertices) != n:
        raise InvalidPolytope("width candidates need a full-dimensional polytope")
    verts = p.vertices
    boxes = ((lo, itertools.product(range(lo, lo + s + 1), repeat=n)) for lo in range(-s, 1))
    ys = (y for lo, box in boxes for y in box if lo == 0 or lo in y)
    out = []
    for w in _functionals(verts, ys):
        if next(c for c in w if c) < 0:
            continue
        vals = [dot(w, v) for v in verts]
        lo, hi = min(vals), max(vals)
        if hi - lo <= s:
            out.append((w, lo, hi - lo))
    out.sort()
    return out


# Steps detect may take, one per y it solves and one per node of its family
# search: about 1.5 s.  The 15-segment prism takes 32,767 y and 15 nodes.
DETECT_BUDGET = 2**15 + 2**10


def _charge(taken: int) -> None:
    if taken > DETECT_BUDGET:
        raise InvalidPolytope(f"Cayley detection passed {taken} steps, budget {DETECT_BUDGET}")


def _class_mask(verts, w, lo, s):
    """Mask of the vertices at lo + s; None, ending the scan, at a third height."""
    mask = 0
    for i, v in enumerate(verts):
        h = dot(w, v) - lo
        if h == s:
            mask |= 1 << i
        elif h:
            return None
    return mask


def _structures(verts, oriented, k, s, steps):
    """Order-s decompositions, in lexicographic order, by k rows of the sorted
    (functional, minimum, class mask) candidates `oriented` over `verts`
    whose classes are disjoint, leave some vertex at the minimum, and whose
    rows span a surjection onto Z^k (Smith form all ones).  Each node of the
    family search charges the next count of `steps` against DETECT_BUDGET.
    Yields the k + 1 class masks, the one at the minimum first, and the
    decomposition, whose strictness the caller decides by _same_cones."""
    n = len(verts[0])
    full = (1 << len(verts)) - 1

    def families(start, k, used):  # index tuples into oriented[start:]
        _charge(next(steps))
        if k == 0:
            yield ()
            return
        for idx in range(start, len(oriented) - k + 1):
            cls = oriented[idx][2]
            if not cls & used and cls | used != full:
                for rest in families(idx + 1, k - 1, used | cls):
                    yield (idx, *rest)

    for family in families(0, k, 0):
        proj = tuple(oriented[i][0] for i in family)
        _, d, v = smith_normal_form(proj)
        if any(d[i][i] != 1 for i in range(k)):
            continue
        translation = tuple(oriented[i][1] for i in family)
        masks = [oriented[i][2] for i in family]
        classes = (full ^ sum(masks), *masks)  # disjoint: the sum is the union
        summands = []
        for mask in classes:
            pts = {tuple(mat_vec(v, x)[k:]) for i, x in enumerate(verts) if mask >> i & 1}
            summands.append(VPolytope(n - k, tuple(sorted(pts))))
        yield classes, CayleyDecomposition(k, s, proj, translation, tuple(summands), False)


def detect(p: VPolytope, s: int = 1) -> CayleyDecomposition | None:
    """Search for a Cayley structure of order s on a full-dimensional
    lattice polytope, maximizing the number of heights k.

    Candidate projections are assembled from primitive functionals taking
    exactly two values, lo and lo + s, on the vertices, in either orientation.
    Oriented so that v_0 sits at lo, each has every y_k = <v_k - v_0, w> in
    {0, s}, so the 2^n - 1 nonzero y of {0, s}^n give each pair once.  The
    class of a candidate, its vertices at lo + s, is a bit mask over the
    vertex indices; the other orientation has the complementary mask.  A
    valid choice is k candidates with pairwise disjoint classes that leave
    some vertex at lo, so the vertices fall into k + 1 nonempty height
    classes, and whose rows span a surjection onto Z^k (Smith form all
    ones).  At s = 1 that test cannot fail: for v_0 at height 0 and each v_j
    in class j, the rows send v_j - v_0 to e_j.  Ties are broken toward the
    lexicographically smallest functional matrix.

    Two vertices form one atom when every candidate puts them at the same
    height.  Every height class is then a union of atoms, so k + 1 is at
    most the number of atoms, which is at most the number of vertices; k is
    also at most n, the rank of the projection, and the search for k
    starts at min(n, atoms - 1).  Past DETECT_BUDGET steps, InvalidPolytope.
    Strictness comes from _same_cones on the hull of the points, which facets
    and reduce_vertices share, once a structure is found.
    """
    n = p.dim
    ensure_lattice(p.vertices)
    if affine_dim(p.vertices) != n:
        raise InvalidPolytope("detection needs a full-dimensional polytope")
    if not isinstance(s, int) or s < 1:
        raise ValueError("width bound must be a positive integer")
    _charge(2**n - 1)
    steps = itertools.count(2**n)
    verts = tuple(dict.fromkeys(p.vertices))  # distinct, as _hull needs
    full = (1 << len(verts)) - 1
    oriented = []
    for w in _functionals(verts, itertools.product((0, s), repeat=n)):
        lo = dot(w, verts[0])
        mask = _class_mask(verts, w, lo, s)
        if mask is not None:
            oriented.append((w, lo, mask))
            oriented.append((tuple(-c for c in w), -(lo + s), full ^ mask))
    oriented.sort()  # by w alone, since no two candidates share one
    atoms = len({tuple(m >> i & 1 for _, _, m in oriented) for i in range(len(verts))})
    ks = range(min(n, atoms - 1), 0, -1)  # the first structure at the largest k
    found = next((f for k in ks for f in _structures(verts, oriented, k, s, steps)), None)
    if found is None:
        return None
    classes, dec = found
    return dec._replace(strict=_same_cones(_vertex_masks(VPolytope(n, verts)), classes))


def _facet_structure(h: HPolytope, k: int) -> CayleyDecomposition | None:
    """The first strict order-1 Cayley structure with k rows, all facet
    normals of h, in `detect`'s order; None if there is none.

    A candidate is a facet (a, b) with <a, v> + b in {0, 1} at every vertex:
    row a, minimum -b, class the vertices at 1.  Every strict structure is
    found.  Write it Cay(P_0, ..., P_k); the P_i share one fan, so each has
    dimension n - k.  Row i is minimized on the Cayley polytope of the other
    k summands, of dimension (k - 1) + (n - k) = n - 1: a facet, with inner
    normal row i, on which the row takes 0 and elsewhere 1.  Family nodes
    charge DETECT_BUDGET from 0; no y is solved.  Strictness is read off
    the facets' vertex masks from vertex_data by _same_cones, with no hull.
    """
    data = vertex_data(h)
    verts = tuple(v.point for v in data)
    tight = _facet_masks([v.incident for v in data], len(h.facets))
    candidates = ((a, -b, _class_mask(verts, a, -b, 1)) for a, b in h.facets)
    oriented = sorted(c for c in candidates if c[2] is not None)
    structures = _structures(verts, oriented, k, 1, itertools.count(1))
    strict = (dec._replace(strict=True) for classes, dec in structures if _same_cones(tight, classes))
    return next(strict, None)


def _vertex_masks(q: VPolytope) -> list[int]:
    """The masks of the facets of _hull(q), bit j for q.vertices[j], less the
    non-extreme points, each of which would add a cone of its own."""
    _, zeros, _ = _hull(q)
    extreme = sum(1 << i for i in _extreme(zeros, len(q.vertices)))
    return [zero & extreme for zero in zeros]


def _same_cones(tight, classes) -> bool:
    """Whether the listed height classes of C = Cay(P_0, ..., P_k), within
    its affine hull, see one set of cones: whether their summands share one
    normal fan.  `tight` holds the vertex masks of C's facets, `classes`
    those of the classes; points on no facet are dropped.  A point's cone
    is the set of non-height facets through it.

    A facet missing a class is the face where that class's height is 0:
    exactly the vertices outside it.  Any other facet meets every class and
    is Cay(F_0, ..., F_k), F_i the face of P_i minimized by a ray y of the
    fan S of P_0 + ... + P_k, and (v, i) is on it iff y is in the normal
    cone of P_i at v.  S refines each P_i's fan, so that cone is the cone
    over the rays of S it holds.  A class not listed has a height facet
    through every listed point.  The order s keeps every incidence; C need
    not be simple nor the summands full-dimensional.
    """
    on = 0
    for mask in tight:
        on |= mask
    outside = {on & ~c for c in classes}
    cones = [mask for mask in tight if mask not in outside]
    cone = lambda j: tuple(m >> j & 1 for m in cones)
    seen = [{cone(j) for j in range(on.bit_length()) if c & on & 1 << j} for c in classes]
    return all(s == seen[0] for s in seen[1:])


def check_localsplit(summands, s: int) -> LocalsplitReport:
    """Build the strict Cayley sum and compare its nef value and rational
    codegree against the fibration value (k+1)/s.

    The comparison applies only when the build is smooth and every summand
    satisfies dim + 1 < (k+1)/s; outside that range no claim is made.
    """
    built = build_strict(summands, s)
    k = len(summands) - 1
    dims = (affine_dim(summands[0].vertices),) * (k + 1)  # one normal fan: one dimension
    h = facets(built)
    smooth, _ = is_smooth(h)
    expected = _q(Fraction(k + 1, s))
    applicable = smooth and dims[0] + 1 < expected
    tau = None
    qc = None
    verdict = False
    if applicable:
        tau = nef_value(h)
        qc = _qcodegree_smooth(h, tau)
        verdict = qc == expected and tau == expected
    return LocalsplitReport(applicable, k, s, dims, smooth, expected, tau, qc, verdict)


def generate(family: str, *params) -> HPolytope:
    """Canonical facet presentation of a named example family member.

    Families: simplex(d, n), blowup(d, lam, n), cube(n), lawrence(lengths),
    product(p, q).
    """
    if family == "simplex":
        d, n = _int_params(params, 2)
        if d < 1 or n < 1:
            raise ValueError("simplex needs d >= 1 and n >= 1")
        normals = [*identity(n), [-1] * n]
        return canonicalize(hpolytope(normals, [0] * n + [d]))
    if family == "blowup":
        d, lam, n = _int_params(params, 3)
        if n < 2:
            raise ValueError("blowup needs ambient dimension at least 2")
        if not 1 <= lam < d:
            raise ValueError("blowup needs 1 <= lam < d")
        normals = [*identity(n), [-1] * n, [1] * n]
        return canonicalize(hpolytope(normals, [0] * n + [d, -lam]))
    if family == "cube":
        (n,) = _int_params(params, 1)
        if n < 1:
            raise ValueError("cube needs n >= 1")
        normals = [*identity(n), *(tuple(-c for c in e) for e in identity(n))]
        return canonicalize(hpolytope(normals, [0] * n + [1] * n))
    if family == "lawrence":
        if len(params) == 1 and type(params[0]) in (list, tuple):  # lengths; records are tuples too
            params = tuple(params[0])
        lengths = _int_params(params, len(params))
        if len(lengths) < 2:
            raise ValueError("lawrence needs at least two segment lengths")
        return facets(build([segment(l) for l in lengths], 1))
    if family == "product":
        if len(params) != 2 or not all(isinstance(q, HPolytope) for q in params):
            raise ValueError("product needs two facet presentations")
        a, b = params
        normals = [list(normal) + [0] * b.dim for normal, _ in a.facets]
        offsets = [offset for _, offset in a.facets]
        normals += [[0] * a.dim + list(normal) for normal, _ in b.facets]
        offsets += [offset for _, offset in b.facets]
        return canonicalize(hpolytope(normals, offsets))
    raise ValueError(f"unknown family {family!r}")


def _int_params(params, count):
    if len(params) != count:
        raise ValueError(f"expected {count} parameters, got {len(params)}")
    out = []
    for x in params:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"parameter {x!r} is not an integer")
        out.append(x)
    return tuple(out)
