"""Reference geometry the tests compare the package against, and that no
runtime path of the package needs: unimodular images and random unimodular
maps, lattice equivalence, the emptiness test, an exhaustive Cayley search,
spannedness by definition, u by the adjugate, the degree of the dual variety
of a smooth polytope's toric variety, the h*-vector, a certificate for
each report in the classification's regime, and fan equality of summands
in unimodular coordinates."""

import itertools
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache

from latpoly.cayley import width_candidates
from latpoly.errors import InvalidPolytope
from latpoly.polytope import (
    HPolytope,
    VertexData,
    VPolytope,
    _cone_over,
    _lattice_fibres,
    affine_dim,
    contains,
    ensure_lattice,
    facets,
    is_smooth,
    lattice_point_count,
    normal_fan_equal,
    shrink,
    vertex_data,
    vertices,
)
from latpoly.ratlin import (
    adjugate,
    det,
    dot,
    identity,
    independent,
    mat_vec,
    primitive,
    rank,
    smith_normal_form,
    solve_exact,
    vsub,
)


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


def random_unimodular(rng, n, ops=6):
    """A unimodular matrix from up to `ops` random row additions of the
    identity, its rows reversed half of the time."""
    m = [list(row) for row in identity(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            m[i][col] += c * m[j][col]
    if rng.random() < 0.5:
        m.reverse()
    return tuple(tuple(r) for r in m)


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


def exhaustive_best_k(p: VPolytope, s: int):
    """Every subset of the oriented width-s functionals with two values.

    Returns the largest k with a valid family of k functionals, and the
    lexicographically smallest of that k's projections (rows sorted), or
    (0, None) when there is none."""
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
    best = (0, None)
    for r in range(1, len(oriented) + 1):
        valid = []
        for combo in itertools.combinations(oriented, r):
            classes = [c for _, c in combo]
            union = set().union(*classes)
            if sum(len(c) for c in classes) != len(union):
                continue
            if len(union) >= nv:
                continue
            _, d, _ = smith_normal_form([w for w, _ in combo])
            if all(d[i][i] == 1 for i in range(r)):
                valid.append(tuple(sorted(w for w, _ in combo)))
        if valid:
            best = (r, min(valid))
    return best


def adjugate_u(p: HPolytope, v: VertexData):
    """The u of a vertex by definition: the solution of <rho_i, u> = 1 over
    its incident normals when there are n of them and they form a lattice
    basis, d times the row sums of the adjugate (d = +-1); otherwise None."""
    if len(v.incident) != p.dim:
        return None
    d, adj = adjugate([p.facets[i][0] for i in v.incident])
    return tuple(d * sum(row) for row in adj) if abs(d) == 1 else None


def ehrhart_hstar(p: HPolytope) -> list[int]:
    """The h*-vector of a lattice polytope, h*_i = sum over j <= i of
    (-1)^j C(n + 1, j) L(i - j), from the counts L(t) of its dilates
    t = 0, ..., n.  h*_0 = 1 and every entry is nonnegative (Stanley,
    "Decompositions of rational convex polytopes", 1980), and by
    Ehrhart-Macdonald reciprocity n + 1 - deg h* is the codegree.  It walks
    dilates, never a shrink, and never reads qc."""
    n = p.dim
    counts = [1] + [
        lattice_point_count(HPolytope(n, tuple((a, t * b) for a, b in p.facets)))
        for t in range(1, n + 1)
    ]
    return [sum((-1) ** j * math.comb(n + 1, j) * counts[i - j] for j in range(i + 1)) for i in range(n + 1)]


def vertex_shift(v: VertexData, a: int, b: int) -> tuple:
    """The point a*m + b*u at a smooth vertex m with inward direction u."""
    if v.u is None:
        raise InvalidPolytope(f"vertex {v.point} is not smooth")
    return tuple(a * m + b * u for m, u in zip(v.point, v.u))


def spanned_at_vertex(p: HPolytope, v: VertexData, a: int, b: int) -> bool:
    """Whether the inward shift of the vertex of the a-th dilate by b lands
    inside shrink(p, a, b)."""
    if not isinstance(a, int) or a < 1 or not isinstance(b, int) or b < 1:
        raise ValueError("dilation and shift must be positive integers")
    return contains(shrink(p, a, b), vertex_shift(v, a, b))


def is_spanned(p: HPolytope, a: int, b: int) -> bool:
    """Whether the a-th dilate of the smooth p is b-spanned, vertex by
    vertex: the definition that nef_value's closed form is checked against."""
    smooth, witness = is_smooth(p)
    if not smooth:
        raise InvalidPolytope(f"polytope is not smooth at vertex {witness}")
    return all(spanned_at_vertex(p, v, a, b) for v in vertex_data(p))


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


def check_regime_certificate(h: HPolytope, report) -> None:
    """Assert that a classify report in the regime is certified by its own
    Cayley structure, with dot products only.

    The functionals f_i = <row_i, x> - t_i and f_0 = 1 - sum_i f_i must be
    facets of h; they sum to 1, and on the j-th dilate to j.  At a point of
    shrink(h, a, b) each is at least b, so a >= (k + 1) b: qc >= k + 1.  At
    a lattice point interior to the j-th dilate each is a positive integer,
    so j >= k + 1: c >= k + 1.  One lattice point interior to (k + 1)h then
    gives c = k + 1, hence qc = k + 1 (qc <= c), and Q-normality gives the
    nef value.  Every vertex must sit at 0 or some e_i, each value taken, so
    the rows are a Cayley structure of k + 1 summands.  The point comes from
    the package's walk; only its check is done here.
    """
    dec = report.cayley
    assert report.classification_applies and dec is not None and dec.s == 1
    k = dec.k
    assert report.codegree == report.qcodegree == report.nef_value == k + 1
    heights = set()
    for v in vertices(h).vertices:
        y = [dot(row, v) - t for row, t in zip(dec.projection, dec.translation)]
        assert all(c in (0, 1) for c in y) and sum(y) <= 1, (v, y)
        heights.add(tuple(y))
    assert len(heights) == k + 1
    rows = [(row, -t) for row, t in zip(dec.projection, dec.translation)]
    rows.append((tuple(-sum(c) for c in zip(*dec.projection)), 1 + sum(dec.translation)))
    assert all(row in h.facets for row in rows), rows
    prefix, r = next(_lattice_fibres(shrink(h, k + 1, 1)))
    point = prefix + (r[0],)
    assert all(type(c) is int for c in point)
    assert all(dot(normal, point) + (k + 1) * offset > 0 for normal, offset in h.facets)
    summands = dec.summands
    assert dec.strict is all(snf_same_normal_fan(summands[0], q) for q in summands[1:])


def snf_same_normal_fan(a: VPolytope, b: VPolytope) -> bool:
    """Fan equality of summands by definition: rewrite both polytopes in
    unimodular coordinates on the saturated direction lattice of a, a Smith
    normal form basis completed to a basis of Z^n and inverted by exact
    solves, and compare the fans of their facets."""
    if a.dim != b.dim or not a.vertices or not b.vertices:
        return False
    da = affine_dim(a.vertices)
    if da != affine_dim(b.vertices):
        return False
    if da == 0:
        return True
    if da == a.dim:
        return normal_fan_equal(facets(a), facets(b))

    def direction_basis(q):
        _, d, v = smith_normal_form([vsub(x, q.vertices[0]) for x in q.vertices[1:]])
        return v[: sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)]

    rows_a = direction_basis(a)
    if rank(list(rows_a) + list(direction_basis(b))) != da:
        return False
    _, _, v = smith_normal_form(rows_a)
    n = a.dim
    inverse_cols = [solve_exact(v, [int(i == j) for i in range(n)]).point for j in range(n)]
    reduced = []
    for q in (a, b):
        pts = {
            tuple(int(dot(vsub(x, q.vertices[0]), col)) for col in inverse_cols[:da])
            for x in q.vertices
        }
        reduced.append(VPolytope(da, tuple(sorted(pts))))
    return normal_fan_equal(facets(reduced[0]), facets(reduced[1]))
