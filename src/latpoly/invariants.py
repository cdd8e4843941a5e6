"""Codegree, degree, rational codegree, nef value, and the
high-codegree classification of smooth lattice polytopes.

All functions take a canonical bounded full-dimensional facet presentation
(see polytope.canonicalize); results are exact integers or Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidPolytope, InvariantViolation, TheoremViolation
from .polytope import (
    HPolytope,
    _cone_over,
    _lattice_fibres,
    _q,
    affine_dim,
    is_smooth,
    shrink,
    vertex_data,
)
from .ratlin import dot


def codegree(p: HPolytope, *, qc=None) -> int:
    """Smallest k such that the k-th dilate has an interior lattice point.

    p is validated once, by vertex_data (cached for every caller): it must be
    nonempty and bounded.  A shrink keeps the normals, so it is bounded too.
    The walk over each shrink stops at its first nonempty fibre.

    The walk tests shrink(p, k, 1) from k = ceil(qc) on, qc the rational
    codegree (computed here unless the caller passes it): by the definition
    of qc, that shrink has no real point at all when k < qc.

    When every vertex v has its u, the walk's box is that of the points
    k v + u_v, clipped to the box of kP, with no double description.  The
    shrink lies in their hull: y = sum c_i rho_i, c_i >= 0, over the facets
    of any vertex v bounds <y, x> >= sum c_i (1 - k a_i) = <y, k v + u_v>
    on it.
    """
    data = vertex_data(p)
    if qc is None:
        qc = qcodegree(p)
    all_u = all(v.u is not None for v in data)
    for k in range(math.ceil(qc), p.dim + 2):
        box = _shrink_box(data, k) if all_u else None
        if next(_lattice_fibres(shrink(p, k, 1), box), None) is not None:
            return k
    raise InvariantViolation(f"no interior lattice point up to dilation {p.dim + 1}")


def _shrink_box(data, k):
    """(lo, hi), the integer box of the points k v + u_v of vertex data
    that all have u, clipped to the box of k times their points."""
    shifted = [[k * c + d for c, d in zip(v.point, v.u)] for v in data]
    lo, hi = [], []
    for s, c in zip(zip(*shifted), zip(*(v.point for v in data))):
        lo.append(max(math.ceil(min(s)), math.ceil(k * min(c))))
        hi.append(min(math.floor(max(s)), math.floor(k * max(c))))
    return lo, hi


def degree(p: HPolytope) -> int:
    return p.dim + 1 - codegree(p)


def qcodegree(p: HPolytope):
    """Infimum of a/b over positive rationals with shrink(p, a, b) nonempty.

    That is 1/mu, where mu is the largest s whose adjoint polytope
    {x : <rho_i, x> + a_i >= s} is nonempty (Di Rocco, Haase, Nill and
    Paffenholz, "Polyhedral adjunction theory", arXiv:1105.2415).  The
    polyhedron {(x, s) : <rho_i, x> - s + a_i >= 0} is pointed, because the
    normals of a bounded p span, and s is bounded above on it, so mu is the
    largest s over its vertices, read off the double description.
    """
    rows = [(tuple(normal) + (-1,), offset) for normal, offset in p.facets]
    rays, lineality = _cone_over(rows, p.dim + 1)
    levels = [Fraction(y[-2], y[-1]) for y, _ in rays if y[-1]]
    if lineality or not levels or max(levels) <= 0:
        raise InvariantViolation("rational codegree: no positive adjunction level")
    return _q(1 / max(levels))


def _require_smooth(p: HPolytope) -> None:
    ok, witness = is_smooth(p)
    if not ok:
        raise InvalidPolytope(f"polytope is not smooth at vertex {witness}")


def nef_value(p: HPolytope):
    """Smallest ratio a/b such that the a-th dilate is b-spanned.

    Closed form: over every vertex m (inward direction u) and every facet j,
    the shift stays inside iff a (<rho_j, m> + a_j) >= b (1 - <rho_j, u>), so
    the threshold is the largest of the ratios (1 - <rho_j, u>) / (<rho_j, m>
    + a_j) with positive numerator; a facet through m has numerator 0.  Every
    other facet misses m, so its denominator is positive and the ratios
    compare by cross-multiplication.
    """
    _require_smooth(p)
    best_num, best_den = 0, 1
    for v in vertex_data(p):
        for normal, offset in p.facets:
            num = 1 - dot(normal, v.u)
            if num > 0:
                den = dot(normal, v.point) + offset
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
    if not best_num:
        raise InvariantViolation("no positive spanning threshold found")
    return _q(Fraction(best_num, best_den))


def is_q_normal(p: HPolytope) -> bool:
    """Whether the rational codegree equals the nef value, by _flat_shifts."""
    _require_smooth(p)
    return _flat_shifts(p, nef_value(p))


def _flat_shifts(p: HPolytope, tau) -> bool:
    """Whether the smooth p with nef value tau = a/b is Q-normal: whether the
    points a v + b u_v have affine rank below n.  nef_value puts them in
    shrink(p, a, b), which lies in their hull as in codegree, so the shrink
    is their hull.  It has an interior point exactly when qc < a/b, and
    qc <= tau always.
    """
    t = Fraction(tau)
    a, b = t.numerator, t.denominator
    points = [tuple(a * c + b * d for c, d in zip(v.point, v.u)) for v in vertex_data(p)]
    return affine_dim(points) < p.dim


def _qcodegree_smooth(p: HPolytope, tau):
    """qcodegree(p) for a smooth p with nef value tau, which is tau on a
    Q-normal p."""
    return tau if _flat_shifts(p, tau) else qcodegree(p)


class InvariantReport(NamedTuple):
    dim: int
    codegree: int
    degree: int
    qcodegree: object  # int | Fraction
    nef_value: object
    q_normal: bool
    classification_applies: bool
    cayley: object | None  # CayleyDecomposition when the classification applies
    predicted_defect: int | None


def classify(p: HPolytope) -> InvariantReport:
    """Full invariant report for a smooth polytope.

    When the polytope is q-normal with codegree c at least (n+3)/2, a strict
    Cayley decomposition with k + 1 = c must exist, and then k > n/2; its
    absence is a hard error, never a silent miss.  Every strict structure
    has facet normals for rows (see cayley._facet_structure), so the search
    over those finds one exactly when one exists.  The predicted dual
    defect 2*codegree - 2 - n is reported exactly in that case.

    On a Q-normal p every answer comes off vertex_data's one double
    description; otherwise qcodegree runs its lifted one.
    """
    _require_smooth(p)
    n = p.dim
    tau = nef_value(p)
    qc = _qcodegree_smooth(p, tau)
    c = codegree(p, qc=qc)
    d = n + 1 - c
    if not (qc <= c <= n + 1):
        raise InvariantViolation(f"codegree bounds violated: {qc} vs {c} vs {n + 1}")
    if not (tau > c - 1 and tau >= qc):
        raise InvariantViolation(f"nef value bounds violated: tau={tau}, c={c}, qc={qc}")
    q_normal = qc == tau
    applies = q_normal and 2 * c >= n + 3
    decomposition = None
    defect = None
    if applies:
        from .cayley import _facet_structure

        decomposition = _facet_structure(p, c - 1)
        if decomposition is None:
            raise TheoremViolation(
                f"q-normal polytope with codegree {c} in dimension {n} lacks the"
                " forced strict Cayley structure"
            )
        defect = 2 * c - 2 - n
    return InvariantReport(n, c, d, qc, tau, q_normal, applies, decomposition, defect)
