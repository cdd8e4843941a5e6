"""Generalized Cayley structure: construction over a dilated simplex of
heights, detection through lattice functionals of bounded width, the
split-family value check, and generators for the example families."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidPolytope
from .invariants import nef_value, qcodegree
from .polytope import (
    HPolytope,
    VPolytope,
    _q,
    affine_dim,
    canonicalize,
    ensure_lattice,
    facets,
    hpolytope,
    is_smooth,
    normal_fan_equal,
    reduce_vertices,
)
from .ratlin import (
    adjugate,
    dot,
    invert_unimodular,
    mat_vec,
    rank,
    smith_normal_form,
    vsub,
)


@dataclass(frozen=True)
class CayleyDecomposition:
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


@dataclass(frozen=True)
class LocalsplitReport:
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


def _direction_basis(q: VPolytope):
    """Rows spanning the saturated direction lattice of the affine hull."""
    base = q.vertices[0]
    diffs = [vsub(v, base) for v in q.vertices[1:]]
    _, d, v = smith_normal_form(diffs)
    r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    return v[:r]


def _row_times(row, matrix):
    return tuple(dot(row, col) for col in zip(*matrix))


def same_normal_fan(a: VPolytope, b: VPolytope) -> bool:
    """Fan equality for summands, allowing lower-dimensional ones.

    Lower-dimensional polytopes must share their direction space; both are
    then rewritten in common unimodular coordinates on that space and the
    full-dimensional fans are compared.
    """
    if a.dim != b.dim:
        return False
    da = affine_dim(a.vertices)
    db = affine_dim(b.vertices)
    if da != db:
        return False
    if da == 0:
        return True
    if da == a.dim:
        return normal_fan_equal(facets(a), facets(b))
    rows_a = _direction_basis(a)
    rows_b = _direction_basis(b)
    if rank(list(rows_a) + list(rows_b)) != da:
        return False
    # Complete rows_a to a basis of the ambient lattice and read off the
    # first da coordinates.
    _, _, v = smith_normal_form(rows_a)
    vinv = invert_unimodular(v)
    reduced = []
    for q in (a, b):
        base = q.vertices[0]
        pts = [_row_times(vsub(x, base), vinv)[:da] for x in q.vertices]
        reduced.append(VPolytope(da, tuple(sorted(set(pts)))))
    return normal_fan_equal(facets(reduced[0]), facets(reduced[1]))


def build_strict(summands, s: int) -> VPolytope:
    """As build, after checking that all summands share one normal fan."""
    for j in range(1, len(summands)):
        if not same_normal_fan(summands[0], summands[j]):
            raise InvalidPolytope(f"summands 0 and {j} have different normal fans")
    return build(summands, s)


def width_candidates(p: VPolytope, s: int):
    """All primitive integer functionals of lattice width at most s on p.

    Take n short independent vertex differences d_k = v_k - v_0 as the rows
    of D and put y = D w.  Width at most s puts every <v, w> in one interval
    [m, m + s], which holds <v_0, w>, so 0 and every y_k lie in one interval
    [lo, lo + s] with -s <= lo <= 0.  Each such y, (s + 1)^(n + 1) - s^(n + 1)
    of them whatever the coordinates, is enumerated once, grouped by
    lo = min(0, min y), and gives an integer w = adj(D) y / det D when det D
    divides adj(D) y; w is kept when primitive, with first nonzero entry
    positive (one of each +- pair), and of true width at most s.
    Returns (functional, min over p, width), sorted.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError("width bound must be a positive integer")
    n = p.dim
    ensure_lattice(p.vertices)
    if affine_dim(p.vertices) != n:
        raise InvalidPolytope("width candidates need a full-dimensional polytope")
    verts = p.vertices
    base = verts[0]
    diffs = sorted(
        (vsub(v, base) for v in verts[1:]),
        key=lambda d: (max(abs(c) for c in d), d),
    )
    chosen = []
    for d in diffs:
        if rank(chosen + [d]) > len(chosen):
            chosen.append(d)
        if len(chosen) == n:
            break
    den, adj = adjugate(chosen)
    out = []
    for lo in range(-s, 1):
        for y in itertools.product(range(lo, lo + s + 1), repeat=n):
            if lo < 0 and lo not in y:
                continue
            w = mat_vec(adj, y)
            if any(c % den for c in w):
                continue
            w = tuple(c // den for c in w)
            nz = next((x for x in w if x != 0), None)
            if nz is None or nz < 0 or math.gcd(*w) != 1:
                continue
            vals = [dot(w, v) for v in verts]
            lo_v, hi_v = min(vals), max(vals)
            if hi_v - lo_v <= s:
                out.append((w, lo_v, hi_v - lo_v))
    out.sort()
    return out


def _snf_all_ones(rows) -> bool:
    _, d, _ = smith_normal_form(rows)
    return all(d[i][i] == 1 for i in range(len(rows)))


def detect(p: VPolytope, s: int = 1) -> CayleyDecomposition | None:
    """Search for a Cayley structure of order s on a full-dimensional
    lattice polytope, maximizing the number of heights k.

    Candidate projections are assembled from width-s functionals, used in
    either orientation; a valid choice partitions the vertices into k + 1
    nonempty height classes and spans a surjection onto Z^k.  Ties are
    broken toward the lexicographically smallest functional matrix.
    """
    n = p.dim
    ensure_lattice(p.vertices)
    if affine_dim(p.vertices) != n:
        raise InvalidPolytope("detection needs a full-dimensional polytope")
    if n == 0:
        return None
    verts = p.vertices
    nv = len(verts)
    oriented = []
    for w, lo, width in width_candidates(p, s):
        if width != s:
            continue
        vals = [dot(w, v) - lo for v in verts]
        if any(h != 0 and h != s for h in vals):
            continue
        cls = frozenset(i for i, h in enumerate(vals) if h == s)
        neg_cls = frozenset(i for i, h in enumerate(vals) if h == 0)
        oriented.append((w, lo, cls))
        oriented.append((tuple(-c for c in w), -(lo + s), neg_cls))
    oriented.sort(key=lambda entry: entry[0])

    def search(k):
        chosen = []
        used = set()

        def rec(start):
            if len(chosen) == k:
                if len(used) < nv and _snf_all_ones([w for w, _, _ in chosen]):
                    return list(chosen)
                return None
            for idx in range(start, len(oriented)):
                if len(chosen) + (len(oriented) - idx) < k:
                    return None
                w, lo, cls = oriented[idx]
                if cls & used or len(used) + len(cls) >= nv:
                    continue
                chosen.append(oriented[idx])
                used.update(cls)
                hit = rec(idx + 1)
                if hit is not None:
                    return hit
                chosen.pop()
                used.difference_update(cls)
            return None

        return rec(0)

    for k in range(min(n, nv - 1, len(oriented)), 0, -1):
        chosen = search(k)
        if chosen is None:
            continue
        proj = tuple(w for w, _, _ in chosen)
        translation = tuple(lo for _, lo, _ in chosen)
        _, _, v = smith_normal_form(proj)
        classes = [frozenset(range(nv)) - frozenset().union(*(c for _, _, c in chosen))]
        classes.extend(c for _, _, c in chosen)
        summands = []
        for cls in classes:
            pts = [tuple(mat_vec(v, verts[i])[k:]) for i in sorted(cls)]
            summands.append(VPolytope(n - k, tuple(sorted(set(pts)))))
        strict = all(same_normal_fan(summands[0], q) for q in summands[1:])
        return CayleyDecomposition(k, s, proj, translation, tuple(summands), strict)
    return None


def check_localsplit(summands, s: int) -> LocalsplitReport:
    """Build the strict Cayley sum and compare its nef value and rational
    codegree against the fibration value (k+1)/s.

    The comparison applies only when the build is smooth and every summand
    satisfies dim + 1 < (k+1)/s; outside that range no claim is made.
    """
    built = build_strict(summands, s)
    k = len(summands) - 1
    dims = tuple(affine_dim(q.vertices) for q in summands)
    h = facets(built)
    smooth, _ = is_smooth(h)
    expected = _q(Fraction(k + 1, s))
    applicable = smooth and all(d + 1 < Fraction(k + 1, s) for d in dims)
    tau = None
    qc = None
    verdict = False
    if applicable:
        qc = qcodegree(h)
        tau = nef_value(h)
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
        normals = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
        return canonicalize(hpolytope(normals, [0] * n + [d]))
    if family == "blowup":
        d, lam, n = _int_params(params, 3)
        if n < 2:
            raise ValueError("blowup needs ambient dimension at least 2")
        if not 1 <= lam < d:
            raise ValueError("blowup needs 1 <= lam < d")
        normals = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n, [1] * n]
        return canonicalize(hpolytope(normals, [0] * n + [d, -lam]))
    if family == "cube":
        (n,) = _int_params(params, 1)
        if n < 1:
            raise ValueError("cube needs n >= 1")
        normals = []
        offsets = []
        for i in range(n):
            e = [int(i == j) for j in range(n)]
            normals.append(e)
            offsets.append(0)
            normals.append([-c for c in e])
            offsets.append(1)
        return canonicalize(hpolytope(normals, offsets))
    if family == "lawrence":
        if len(params) == 1 and isinstance(params[0], (list, tuple)):
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
