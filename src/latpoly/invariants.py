"""Codegree, degree, rational codegree, spannedness, nef value, and the
high-codegree classification of smooth lattice polytopes.

All functions take a canonical bounded full-dimensional facet presentation
(see polytope.canonicalize); results are exact integers or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidPolytope, InvariantViolation, TheoremViolation
from .polytope import (
    HPolytope,
    VertexData,
    _cone_over,
    _enumerable,
    _lattice_walk,
    _q,
    contains,
    is_smooth,
    shrink,
    vertex_data,
    vertices,
)
from .ratlin import dot


def codegree(p: HPolytope) -> int:
    """Smallest k such that the k-th dilate has an interior lattice point.

    p is validated once: a shrink keeps the normals, so it is bounded exactly
    when p is, and the walk for each k stops at its first point.
    """
    if _enumerable(p):
        for k in range(1, p.dim + 2):
            if next(_lattice_walk(shrink(p, k, 1)), None) is not None:
                return k
    raise InvariantViolation(f"no interior lattice point up to dilation {p.dim + 1}")


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
    _require_smooth(p)
    return all(spanned_at_vertex(p, v, a, b) for v in vertex_data(p))


def nef_value(p: HPolytope):
    """Smallest ratio a/b such that the a-th dilate is b-spanned.

    Closed form: over every vertex m (inward direction u) and every facet j
    not through m, the shift stays inside iff a (<rho_j, m> + a_j) >=
    b (1 - <rho_j, u>), so the threshold is the largest of the ratios
    (1 - <rho_j, u>) / (<rho_j, m> + a_j) with positive numerator.
    """
    _require_smooth(p)
    best = None
    for v in vertex_data(p):
        inc = set(v.incident)
        for j, (normal, offset) in enumerate(p.facets):
            if j in inc:
                continue
            num = 1 - dot(normal, v.u)
            if num <= 0:
                continue
            den = dot(normal, v.point) + offset
            ratio = Fraction(num) / den
            if best is None or ratio > best:
                best = ratio
    if best is None or best <= 0:
        raise InvariantViolation("no positive spanning threshold found")
    return _q(best)


def is_q_normal(p: HPolytope) -> bool:
    _require_smooth(p)
    return qcodegree(p) == nef_value(p)


@dataclass(frozen=True)
class InvariantReport:
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

    When the polytope is q-normal with codegree at least (n+3)/2, a strict
    Cayley decomposition with k + 1 = codegree and k > n/2 must exist; its
    absence is a hard error, never a silent miss.  The predicted dual defect
    2*codegree - 2 - n is reported exactly in that case.
    """
    _require_smooth(p)
    n = p.dim
    c = codegree(p)
    d = n + 1 - c
    qc = qcodegree(p)
    tau = nef_value(p)
    if not (qc <= c <= n + 1):
        raise InvariantViolation(f"codegree bounds violated: {qc} vs {c} vs {n + 1}")
    if not (tau > c - 1 and tau >= qc):
        raise InvariantViolation(f"nef value bounds violated: tau={tau}, c={c}, qc={qc}")
    q_normal = qc == tau
    applies = q_normal and 2 * c >= n + 3
    decomposition = None
    defect = None
    if applies:
        from .cayley import detect

        decomposition = detect(vertices(p), 1)
        if (
            decomposition is None
            or not decomposition.strict
            or decomposition.k + 1 != c
            or 2 * decomposition.k <= n
        ):
            raise TheoremViolation(
                f"q-normal polytope with codegree {c} in dimension {n} lacks the"
                f" forced strict Cayley structure (found {decomposition})"
            )
        defect = 2 * c - 2 - n
    return InvariantReport(n, c, d, qc, tau, q_normal, applies, decomposition, defect)
