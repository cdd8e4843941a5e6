import random

import pytest
from fractions import Fraction

from test_polytope import _random_presentation

from latpoly import cayley
from latpoly.cayley import build, detect, generate, segment
from latpoly.errors import InvalidPolytope, TheoremViolation
from latpoly.invariants import (
    classify,
    codegree,
    degree,
    is_q_normal,
    nef_value,
    qcodegree,
)
from latpoly.polytope import (
    HPolytope,
    _q,
    canonicalize,
    facets,
    hpolytope,
    lattice_points,
    shrink,
    vertex_data,
    vertices,
)
from oracles import (
    apply_unimodular,
    check_regime_certificate,
    is_spanned,
    random_unimodular,
    spanned_at_vertex,
    vertex_shift,
)


def simplex(d, n):
    return generate("simplex", d, n)


def blowup(d, lam, n):
    return generate("blowup", d, lam, n)


def test_codegree_examples():
    assert codegree(simplex(1, 3)) == 4
    assert codegree(simplex(2, 4)) == 3
    assert codegree(blowup(4, 1, 3)) == 1


def test_codegree_rejects_unbounded():
    # A quadrant, and a flat ray whose every shrink is empty.
    for normals, offsets in (([[1, 0], [0, 1]], [0, 0]), ([[1, 0], [-1, 0], [0, 1]], [0, 0, 0])):
        with pytest.raises(InvalidPolytope, match="polytope is unbounded"):
            codegree(hpolytope(normals, offsets))


def test_degree_examples():
    for n in range(1, 5):
        assert degree(simplex(1, n)) == 0
    assert degree(generate("lawrence", 2, 3)) == 1
    assert degree(simplex(2, 4)) == 2


def test_qcodegree_examples():
    assert qcodegree(simplex(2, 4)) == Fraction(5, 2)
    assert qcodegree(simplex(1, 2)) == 3
    assert qcodegree(blowup(4, 1, 3)) == 1


def _lp_qcodegree(p):
    """Reference: the least t with <rho_i, y> + t a_i >= 1 for every facet,
    solved as a linear program."""
    from latpoly import lpx

    lhs = [list(normal) + [offset] for normal, offset in p.facets]
    out = lpx.solve(lpx.linear_program([0] * p.dim + [1], lhs, [1] * len(lhs)))
    assert out.status == lpx.OPTIMAL
    return _q(out.value)


def test_qcodegree_matches_lp_reference():
    rng = random.Random(97)
    checked = set()
    for _ in range(120):
        p = _random_presentation(rng)
        try:
            h = canonicalize(p)
        except InvalidPolytope:
            continue
        # The raw presentation, its canonical form, and a rational dilate
        # and translate of the latter.
        ratio = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(h.dim)]
        moved = HPolytope(h.dim, tuple(
            (normal, _q(ratio * offset - sum(a * c for a, c in zip(normal, shift))))
            for normal, offset in h.facets
        ))
        for q in (p, h, moved):
            got = qcodegree(q)
            expected = _lp_qcodegree(q)
            assert got == expected and type(got) is type(expected)
            checked.add((q.dim, type(got)))
    assert {d for d, _ in checked} == {1, 2, 3, 4} and len({t for _, t in checked}) == 2


def test_spanned_at_vertex_blowup_failure():
    p = blowup(4, 1, 3)
    v = {w.point: w for w in vertex_data(p)}[(1, 0, 0)]
    assert vertex_shift(v, 1, 1) == (0, 1, 1)
    assert spanned_at_vertex(p, v, 1, 1) is False


def test_spanned_at_vertex_blowup_variant():
    p = blowup(4, 2, 3)
    by_point = {w.point: w for w in vertex_data(p)}
    for corner in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        v = by_point[corner]
        assert vertex_shift(v, 1, 1) == (1, 1, 1)
        assert spanned_at_vertex(p, v, 1, 1) is True


def test_spanned_at_vertex_segment():
    p = simplex(1, 1)
    v = {w.point: w for w in vertex_data(p)}[(0,)]
    assert vertex_shift(v, 2, 1) == (1,)
    assert spanned_at_vertex(p, v, 2, 1) is True


def test_is_spanned_examples():
    assert is_spanned(blowup(4, 1, 3), 1, 1) is False
    assert is_spanned(blowup(4, 2, 3), 1, 1) is True
    assert is_spanned(simplex(1, 2), 3, 1) is True


def test_nef_value_examples():
    assert nef_value(blowup(4, 1, 3)) == 2
    assert nef_value(simplex(1, 2)) == 3
    assert nef_value(simplex(2, 2)) == Fraction(3, 2)


def test_nef_value_rejects_non_smooth():
    q = facets(
        # Order-2 Cayley sum of segments of lengths 6, 5, 3 is not smooth.
        build([segment(6), segment(5), segment(3)], 2)
    )
    with pytest.raises(InvalidPolytope):
        nef_value(q)


def test_q_normal_examples():
    assert is_q_normal(simplex(2, 2)) is True
    assert is_q_normal(blowup(4, 1, 3)) is False
    assert is_q_normal(simplex(1, 3)) is True


def test_classify_triple_segment_prism():
    p = facets(build([segment(1), segment(1), segment(1)], 1))
    report = classify(p)
    assert report.codegree == 3
    assert report.classification_applies is True
    assert report.cayley is not None and report.cayley.k == 2
    assert report.cayley.strict is True
    assert report.predicted_defect == 1


@pytest.mark.parametrize("lengths", [
    (1, 2, 1, 2, 1, 2),
    (3, 1, 2, 1, 1, 2),
    (1, 1, 1, 1, 1, 1, 1),
    (1, 2, 1, 2, 1, 2, 1, 2),
    (1, 2, 1, 2, 1, 2, 1, 2, 1),
])
def test_classify_strict_lawrence_prisms_high_codegree(lengths):
    # The theorem's regime: dimension n = m, codegree m and k = m - 1 for m
    # segments.  classify searches the facet normals for k = m - 1 only.
    # detect gets there by its atom bound: nine segments give it 510
    # oriented candidates, whose disjoint families it would exhaust at
    # k = 9 without that bound.
    p = generate("lawrence", lengths)
    report = classify(p)
    n = len(lengths)
    c = report.codegree
    assert report.classification_applies is True
    assert report.cayley.k + 1 == c == n
    assert report.cayley.strict is True
    assert report.predicted_defect == 2 * c - 2 - n
    assert detect(vertices(p), 1) == report.cayley


def _sheared_prism(m):
    """The Lawrence prism of m segments (1, 2, 1, 2, ...) after four seeded
    row additions."""
    prism = build([segment(1 + i % 2) for i in range(m)], 1)
    return facets(apply_unimodular(prism, random_unimodular(random.Random(m), m, 4), (0,) * m))


@pytest.mark.parametrize("m", [12, 16, 20])
def test_classify_sheared_prisms_past_detect(m):
    # detect passes its budget on all three: at 12 segments in the family
    # search over about 2^12 candidates, from 16 on before any y is solved.
    report = classify(_sheared_prism(m))
    assert report.classification_applies is True
    assert report.codegree == m
    assert report.cayley.k == m - 1 and report.cayley.strict is True


@pytest.mark.parametrize("m", [20, 40, 60])
def test_sheared_prism_regime_certificate(m):
    # Past every enumerating oracle: the certificate checks the walk's
    # start at ceil(qc) with dot products only.
    h = _sheared_prism(m)
    check_regime_certificate(h, classify(h))


def test_classify_matches_detect_on_sheared_prisms():
    for m in range(3, 11):
        h = _sheared_prism(m)
        assert repr(classify(h).cayley) == repr(detect(vertices(h), 1)), m


def test_classify_does_not_call_detect(monkeypatch):
    def refuse(*args):
        raise AssertionError("classify called detect")

    monkeypatch.setattr(cayley, "detect", refuse)
    report = classify(generate("lawrence", 1, 1, 1))
    assert report.cayley.k == 2 and report.cayley.strict is True


def test_classify_charges_family_nodes_against_budget(monkeypatch):
    # Three nodes reach the first family of two rows; no 2^n is charged.
    p = generate("lawrence", 1, 2, 1)
    monkeypatch.setattr(cayley, "DETECT_BUDGET", 3)
    assert classify(p).cayley.k == 2
    monkeypatch.setattr(cayley, "DETECT_BUDGET", 2)
    with pytest.raises(InvalidPolytope, match="^Cayley detection passed 3 steps, budget 2$"):
        classify(p)


def test_classify_without_strict_structure_raises(monkeypatch):
    monkeypatch.setattr(cayley, "_same_cones", lambda tight, classes: False)
    with pytest.raises(TheoremViolation, match="codegree 3 in dimension 3 lacks the forced"):
        classify(generate("lawrence", 1, 1, 1))


def test_classify_dilated_simplex_no_claim():
    report = classify(simplex(2, 5))
    assert report.codegree == 3
    assert report.q_normal is True
    assert report.classification_applies is False
    assert report.cayley is None
    assert report.predicted_defect is None


def test_classify_unit_simplex():
    report = classify(simplex(1, 4))
    assert report.codegree == 5
    assert report.degree == 0
    assert report.classification_applies is True
    assert report.cayley.k == 4
    assert all(len(s.vertices) == 1 for s in report.cayley.summands)
    assert report.predicted_defect == 4


def test_codegree_against_interior_point_scan():
    # Independent oracle: scan dilations and look for a lattice point
    # strictly inside every facet of the dilate.
    for p in (simplex(1, 3), simplex(2, 3), blowup(4, 1, 3), generate("lawrence", 2, 3)):
        n = p.dim
        expect = None
        for k in range(1, n + 2):
            dilated = shrink(p, k, 0)
            strict = [
                pt
                for pt in lattice_points(dilated)
                if all(
                    sum(a * b for a, b in zip(normal, pt)) > -offset
                    for normal, offset in dilated.facets
                )
            ]
            if strict:
                expect = k
                break
        assert codegree(p) == expect


def test_qcodegree_against_pair_scan():
    from latpoly import lpx

    for p in (simplex(2, 3), blowup(4, 1, 3)):
        t = Fraction(qcodegree(p))
        s = shrink(p, t.numerator, t.denominator)
        lhs = [list(normal) for normal, _ in s.facets]
        rhs = [-offset for _, offset in s.facets]
        assert lpx.feasible(lhs, rhs)
        for b in range(1, 13):
            for a in range(1, (t.numerator * b) // t.denominator + 1):
                if Fraction(a, b) >= t:
                    continue
                s = shrink(p, a, b)
                lhs = [list(normal) for normal, _ in s.facets]
                rhs = [-offset for _, offset in s.facets]
                assert not lpx.feasible(lhs, rhs)


def test_nef_value_boundary_probes():
    for p in (simplex(1, 2), simplex(2, 2), blowup(4, 1, 3)):
        tau = Fraction(nef_value(p))
        assert is_spanned(p, tau.numerator, tau.denominator) is True
        # Largest candidate denominator bounds how close a competing ratio
        # can sit below tau.
        dens = []
        for v in vertex_data(p):
            for j, (normal, offset) in enumerate(p.facets):
                if j not in v.incident:
                    dens.append(sum(a * b for a, b in zip(normal, v.point)) + offset)
        big = 2 * max(dens)
        assert is_spanned(p, tau.numerator * big - 1, tau.denominator * big) is False
