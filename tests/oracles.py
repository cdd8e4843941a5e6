"""Reference geometry the tests compare the package against, and that no
runtime path of the package needs: unimodular images, lattice equivalence,
the emptiness test, and the degree of the dual variety of a smooth
polytope's toric variety."""

import itertools
import operator
import random
from fractions import Fraction
from functools import lru_cache

from latpoly.polytope import (
    HPolytope,
    VPolytope,
    _cone_over,
    ensure_lattice,
    facets,
    vertex_data,
)
from latpoly.ratlin import adjugate, det, dot, independent, mat_vec, primitive, rank, vsub


def vadd(u, v):
    return tuple(map(operator.add, u, v))


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(dot(r, c) for c in cols) for r in a)


def is_empty(p: HPolytope) -> bool:
    """True iff no ray of the cone over p has t > 0."""
    return not any(y[-1] for y, _ in _cone_over(p.facets, p.dim)[0])


def apply_unimodular(q: VPolytope, u, t) -> VPolytope:
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
    chosen = [dirs_p[v0][i] for i in independent(dirs_p[v0])]
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


def dual_degree(p: HPolytope, seed: int = 0) -> int:
    """Degree of the dual variety of the toric variety X_P of a smooth
    polytope: the sum over the faces F of (-1)^codim F (dim F + 1) Vol F,
    Vol normalised to the lattice of F (Gelfand, Kapranov and Zelevinsky,
    "Discriminants, Resultants and Multidimensional Determinants", ch. 9).
    It is 0 exactly when X_P is dual defective.

    P is simple, so the faces through a vertex v are the F_S for the sets S
    of facets through v, and the edges of F_S at v are the columns of the
    inverse normal matrix at v outside S, a basis of the lattice of F_S.
    Vol F_S is then Lawrence's sum over its vertices of
    <c, v>^m / prod(-<c, g>), m = dim F_S and g its edges at v, for any c
    with no <c, g> = 0; c is drawn from a seeded generator until it has none.
    """
    n = p.dim
    cones = []  # (vertex, incident facets, edge directions at it in that order)
    for v in vertex_data(p):
        d, adj = adjugate([p.facets[i][0] for i in v.incident])
        assert len(v.incident) == n and abs(d) == 1, "dual_degree needs a smooth polytope"
        cones.append((v.point, v.incident, [tuple(d * row[j] for row in adj) for j in range(n)]))
    rng = random.Random(seed)
    while True:
        c = [rng.randint(-10 * n, 10 * n) for _ in range(n)]
        if all(dot(c, g) for _, _, edges in cones for g in edges):
            break
    volumes = {}  # facet set S -> Vol F_S
    for x, incident, edges in cones:
        height = dot(c, x)
        for size in range(n + 1):
            for inside in itertools.combinations(range(n), size):
                term = Fraction(height ** (n - size))
                for j in range(n):
                    if j not in inside:
                        term /= -dot(c, edges[j])
                key = frozenset(incident[j] for j in inside)
                volumes[key] = volumes.get(key, 0) + term
    total = sum((-1) ** len(s) * (n - len(s) + 1) * vol for s, vol in volumes.items())
    assert total.denominator == 1
    return int(total)
