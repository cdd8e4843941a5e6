"""End-to-end acceptance suite.

One test per criterion; every equality below is exact (no tolerances).
Each test prints a PASS line once all of its assertions hold, so running
with -v -s gives a one-line verdict per criterion.
"""

import itertools
import math
import random

import pytest
from fractions import Fraction

from latpoly import lpx
from latpoly.cayley import (
    build,
    build_strict,
    check_localsplit,
    detect,
    generate,
    lattice_point,
    segment,
    width_candidates,
)
from latpoly.cayley import _class_mask, _same_cones, _structures
from latpoly.invariants import (
    _shrink_box,
    classify,
    codegree,
    degree,
    is_q_normal,
    nef_value,
    qcodegree,
)
from latpoly.polytope import (
    VPolytope,
    _facet_masks,
    _lattice_fibres,
    affine_dim,
    facets,
    is_smooth,
    lattice_point_count,
    lattice_points,
    reduce_vertices,
    shrink,
    vertex_data,
    vertices,
)
from latpoly.ratlin import dot
from test_polytope import _box_scan
from oracles import (
    adjugate_u,
    apply_unimodular,
    check_regime_certificate,
    dual_degree,
    ehrhart_hstar,
    exhaustive_best_k,
    is_spanned,
    lattice_equivalent,
    random_unimodular,
    snf_same_normal_fan,
    spanned_at_vertex,
    vertex_shift,
)


def _report(name):
    print(f"[acceptance] {name}: PASS")


def unit_square():
    return vertices(generate("cube", 2))


def rectangle(a, b):
    return VPolytope(2, ((0, 0), (0, b), (a, 0), (a, b)))


def transformed(h, u, t):
    return facets(apply_unimodular(vertices(h), u, t))


@pytest.fixture(scope="module")
def strict_builds():
    """Smooth strict order-1 builds: all small Lawrence prisms plus sums of
    unit squares, keyed by the number of heights k."""
    out = []
    for count in range(2, 6):  # n = count <= 5
        for lengths in itertools.combinations_with_replacement(range(1, 5), count):
            summands = [segment(l) for l in lengths]
            out.append((f"prism{lengths}", summands, facets(build_strict(summands, 1))))
    for count in range(2, 5):
        summands = [unit_square()] * count
        out.append((f"squares x{count}", summands, facets(build_strict(summands, 1))))
    return out


@pytest.fixture(scope="module")
def corpus(strict_builds):
    members = [(name, h) for name, _, h in strict_builds]
    for n in range(1, 7):
        members.append((f"2simplex{n}", generate("simplex", 2, n)))
    for n in range(2, 5):
        for d in range(2, 6):
            for lam in range(1, d):
                members.append((f"blowup({d},{lam},{n})", generate("blowup", d, lam, n)))
    return members


@pytest.fixture(scope="module")
def corpus_reports(corpus):
    return [(name, h, classify(h)) for name, h in corpus]


@pytest.fixture(scope="module")
def sheared(corpus_reports):
    """(image, report of the member) for every tenth corpus member, each
    sheared by the unimodular map seeded with its index in the corpus."""
    return [
        (transformed(h, random_unimodular(random.Random(i), h.dim), (0,) * h.dim), report)
        for i, (_, h, report) in enumerate(corpus_reports)
        if i % 10 == 0
    ]


@pytest.fixture(scope="module")
def products():
    """generate("product", a, b) of dimension at most 6, with its factors:
    simplices, blowups, a square, a Lawrence prism and the non-smooth
    order-2 build."""
    factors = [
        generate("simplex", 1, 1),
        generate("simplex", 3, 1),
        generate("simplex", 1, 2),
        generate("simplex", 2, 2),
        generate("blowup", 3, 1, 2),
        generate("cube", 2),
        generate("lawrence", 1, 2),
        generate("simplex", 2, 3),
        generate("blowup", 4, 2, 3),
        facets(build([segment(6), segment(5), segment(3)], 2)),
    ]
    pairs = itertools.combinations_with_replacement(factors, 2)
    return [(a, b, generate("product", a, b)) for a, b in pairs if a.dim + b.dim <= 6]


def test_simplex_family():
    for n in range(1, 6):
        p = generate("simplex", 1, n)
        assert codegree(p) == n + 1
        assert qcodegree(p) == n + 1
        assert nef_value(p) == n + 1
        assert degree(p) == 0
        dec = detect(vertices(p), 1)
        assert dec is not None and dec.k == n and dec.strict
        assert len(dec.summands) == n + 1
        assert all(len(s.vertices) == 1 for s in dec.summands)
    _report("simplex family")


def test_dilated_simplex_family():
    for n in range(1, 7):
        p = generate("simplex", 2, n)
        assert codegree(p) == -((n + 1) // -2)  # ceil((n+1)/2)
        assert qcodegree(p) == Fraction(n + 1, 2)
        if n >= 2:
            assert nef_value(p) == Fraction(n + 1, 2)
        assert detect(vertices(p), 1) is None
        dec = detect(vertices(p), 2)
        assert dec is not None and dec.k == n
    _report("dilated simplex family")


def test_blowup_example():
    p = generate("blowup", 4, 1, 3)
    assert codegree(p) == 1
    assert qcodegree(p) == 1
    assert nef_value(p) == 2
    assert is_q_normal(p) is False
    assert is_spanned(p, 1, 1) is False
    v = {w.point: w for w in vertex_data(p)}[(1, 0, 0)]
    assert spanned_at_vertex(p, v, 1, 1) is False
    assert vertex_shift(v, 1, 1) == (0, 1, 1)

    variant = generate("blowup", 4, 2, 3)
    assert is_spanned(variant, 1, 1) is True
    by_point = {w.point: w for w in vertex_data(variant)}
    for corner in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        assert vertex_shift(by_point[corner], 1, 1) == (1, 1, 1)
    _report("blow-up example")


def test_smoothness_witnesses():
    rough = facets(build([segment(6), segment(5), segment(3)], 2))
    ok, witness = is_smooth(rough)
    assert not ok and witness == (3, 0, 2)

    nice = facets(build([segment(4), segment(2), segment(2)], 2))
    ok, witness = is_smooth(nice)
    assert ok and witness is None
    _report("smoothness witnesses")


def test_cayley_classification_both_directions(strict_builds, corpus_reports):
    # Every smooth strict order-1 build with k > n/2 is q-normal with
    # codegree k + 1.
    checked_forward = 0
    for name, summands, h in strict_builds:
        assert is_smooth(h)[0], name
        k = len(summands) - 1
        n = h.dim
        if 2 * k > n:
            assert is_q_normal(h), name
            assert codegree(h) == k + 1, name
            checked_forward += 1
    assert checked_forward >= 100

    # Conversely classify() hard-fails unless a qualifying strict
    # decomposition exists whenever q-normality and big codegree hold.  It
    # searches only the facet normals and finds what the exhaustive detect
    # finds.
    applied = 0
    for name, h, report in corpus_reports:
        if report.classification_applies:
            dec = report.cayley
            assert repr(dec) == repr(detect(vertices(h), 1)), name
            assert dec is not None and dec.strict, name
            assert dec.k + 1 == report.codegree, name
            assert 2 * dec.k > report.dim, name
            assert report.predicted_defect == 2 * report.codegree - 2 - report.dim, name
            applied += 1
    assert applied >= 100
    _report("high-codegree classification, both directions")


def test_regime_certificates(corpus_reports):
    # The scaling oracle for every corpus member in the regime.
    applied = 0
    for name, h, report in corpus_reports:
        if report.classification_applies:
            check_regime_certificate(h, report)
            applied += 1
    assert applied >= 100
    _report("regime certificates")


def test_split_family_sweep():
    rng = random.Random(97)
    cases = []
    for _ in range(35):
        k = rng.randint(2, 4)
        cases.append(([segment(rng.randint(1, 4)) for _ in range(k + 1)], 1))
    for _ in range(8):
        cases.append(
            ([rectangle(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(4)], 1)
        )
    for _ in range(8):
        s = rng.randint(2, 3)
        count = rng.randint(s + 1, s + 3)
        cases.append(([lattice_point()] * count, s))
    qualifying = 0
    for summands, s in cases:
        report = check_localsplit(summands, s)
        k = len(summands) - 1
        assert report.smooth, (summands, s)
        assert report.applicable, (summands, s)
        assert report.expected == Fraction(k + 1, s)
        assert report.verdict, (summands, s)
        assert report.computed_tau == Fraction(k + 1, s)
        assert report.computed_qcodeg == Fraction(k + 1, s)
        qualifying += 1
    assert qualifying >= 50
    _report("split family sweep")


def test_inequality_suite(corpus_reports):
    for name, h, report in corpus_reports:
        n = report.dim
        c = report.codegree
        tau = report.nef_value
        qc = report.qcodegree
        assert tau > c - 1, name
        assert tau >= qc, name
        assert qc <= c <= n + 1, name
        if tau > n:
            # Only the unit simplex reaches past n.
            assert tau == n + 1, name
            assert (
                lattice_equivalent(vertices(h), vertices(generate("simplex", 1, n)))
                is not None
            ), name
    _report("inequality suite")


def _interior_scan_codegree(p):
    n = p.dim
    for k in range(1, n + 2):
        dilated = shrink(p, k, 0)
        for pt in lattice_points(dilated):
            if all(dot(normal, pt) > -offset for normal, offset in dilated.facets):
                return k
    return None


def test_oracle_equivalences():
    polys = [
        generate("simplex", 1, 3),
        generate("simplex", 2, 3),
        generate("blowup", 4, 1, 3),
        generate("blowup", 5, 2, 3),
        generate("lawrence", 2, 3),
        generate("lawrence", 1, 2, 3),
    ]
    for p in polys:
        # codegree alone computes qc; classify passes its own in.
        assert codegree(p) == classify(p).codegree == _interior_scan_codegree(p)

    for p in (generate("simplex", 1, 2), generate("simplex", 2, 3),
              generate("blowup", 4, 1, 3), generate("lawrence", 2, 3)):
        t = Fraction(qcodegree(p))
        s = shrink(p, t.numerator, t.denominator)
        assert lpx.feasible(*_rows(s))
        for b in range(1, 13):
            for a in range(1, -((t.numerator * b) // -t.denominator)):
                if Fraction(a, b) >= t:
                    continue
                assert not lpx.feasible(*_rows(shrink(p, a, b)))

    for p in (generate("simplex", 1, 2), generate("simplex", 2, 2),
              generate("blowup", 4, 1, 3), generate("blowup", 4, 2, 3),
              generate("lawrence", 2, 3),
              facets(build([segment(4), segment(2), segment(2)], 2))):
        tau = Fraction(nef_value(p))
        assert is_spanned(p, tau.numerator, tau.denominator) is True
        dens = []
        for v in vertex_data(p):
            for j, (normal, offset) in enumerate(p.facets):
                if j not in v.incident:
                    dens.append(dot(normal, v.point) + offset)
        big = 2 * max(dens)
        assert is_spanned(p, tau.numerator * big - 1, tau.denominator * big) is False

    detect_cases = [
        (vertices(generate("simplex", 1, 2)), 1),
        (vertices(generate("simplex", 1, 3)), 1),
        (vertices(generate("simplex", 2, 2)), 1),
        (vertices(generate("simplex", 2, 2)), 2),
        (unit_square(), 1),
        (vertices(generate("lawrence", 2, 3)), 1),
        (build([segment(2), segment(2)], 2), 2),
    ]
    for q, s in detect_cases:
        assert len(width_candidates(q, s)) <= 8
        dec = detect(q, s)
        assert (dec.k if dec is not None else 0) == exhaustive_best_k(q, s)[0]
    _report("oracle equivalences")


def _rows(p):
    return [list(normal) for normal, _ in p.facets], [-offset for _, offset in p.facets]


def test_unimodular_invariance_fuzz():
    rng = random.Random(137)
    bases = [
        generate("simplex", 1, 2),
        generate("simplex", 1, 3),
        generate("simplex", 2, 2),
        generate("simplex", 2, 3),
        generate("blowup", 4, 1, 3),
        generate("blowup", 4, 2, 3),
        generate("lawrence", 2, 3),
        generate("lawrence", 2, 3, 4),
        generate("cube", 2),
        facets(build([segment(6), segment(5), segment(3)], 2)),
    ]
    cases = 0
    for h in bases:
        n = h.dim
        smooth0 = is_smooth(h)[0]
        c0 = codegree(h)
        d0 = degree(h)
        qc0 = qcodegree(h)
        tau0 = nef_value(h) if smooth0 else None
        dec0 = detect(vertices(h), 1)
        k0 = dec0.k if dec0 is not None else 0
        for _ in range(11):
            u = random_unimodular(rng, n)
            t = tuple(rng.randint(-4, 4) for _ in range(n))
            moved = transformed(h, u, t)
            assert is_smooth(moved)[0] == smooth0
            assert codegree(moved) == c0
            assert degree(moved) == d0
            assert qcodegree(moved) == qc0
            if smooth0:
                assert nef_value(moved) == tau0
            dec = detect(vertices(moved), 1)
            assert (dec.k if dec is not None else 0) == k0
            cases += 1
    assert cases >= 100
    _report("unimodular invariance fuzz")


def test_smooth_builds_have_smooth_summands(strict_builds):
    for name, summands, h in strict_builds:
        assert is_smooth(h)[0], name
        for q in summands:
            assert is_smooth(facets(q))[0] is True, name

    smooth_order2 = [segment(4), segment(2), segment(2)]
    h2 = facets(build(smooth_order2, 2))
    assert is_smooth(h2)[0] is True
    for q in smooth_order2:
        assert is_smooth(facets(q))[0] is True

    rough = [segment(6), segment(5), segment(3)]
    h3 = facets(build(rough, 2))
    assert is_smooth(h3)[0] is False
    for q in rough:
        assert is_smooth(facets(q))[0] is True
    _report("summand smoothness")


def test_dual_degree_oracle(corpus_reports):
    # Delta_2 is dual defective; 2 Delta_2 gives the degree 3 of the
    # discriminant of ternary quadrics, and the 3-cube the degree 4 of
    # Cayley's hyperdeterminant.
    assert dual_degree(generate("simplex", 1, 2)) == 0
    assert dual_degree(generate("simplex", 2, 2)) == 3
    assert dual_degree(generate("cube", 3)) == 4
    assert dual_degree(generate("cube", 3), seed=1) == 4
    # Where the classification applies, classify predicts a dual defect
    # 2c - 2 - n >= 1, so the dual variety is not a hypersurface.
    applied = 0
    for name, h, report in corpus_reports:
        if report.classification_applies:
            assert report.predicted_defect >= 1, name
            assert dual_degree(h) == 0, name
            applied += 1
    assert applied >= 100
    _report("dual defect against the GKZ degree")


def test_vertex_data_routes(corpus, sheared, products):
    # Each answer classify reads off vertex_data against its general route,
    # on the corpus, sheared images of every tenth member, and products.
    # u from the edges against the adjugate; Q-normality from the rank of
    # the shifted vertices against qcodegree(p) == nef_value(p); the walk
    # in the box of the points k v + u_v against _box_scan, or on sheared
    # images, whose boxes are too large to scan, against the walk in the
    # box of each shrink's own double description.  Each k from below
    # ceil(qc) to the codegree is tried: the walk's range.
    members = [h for _, h in corpus] + [h for _, _, h in products]
    images = [h for h, _ in sheared]
    q_normal = {True: 0, False: 0}
    empty = {True: 0, False: 0}
    for h, is_image in [(h, False) for h in members] + [(h, True) for h in images]:
        data = vertex_data(h)
        assert all(v.u == adjugate_u(h, v) for v in data), h
        if not is_smooth(h)[0]:
            continue
        qc = qcodegree(h)
        verdict = is_q_normal(h)
        assert verdict is (qc == nef_value(h)), h
        q_normal[verdict] += 1
        for k in range(max(1, math.ceil(qc) - 1), codegree(h) + 1):
            s = shrink(h, k, 1)
            fibres = _lattice_fibres(s, _shrink_box(data, k))
            if is_image:
                none = next(fibres, None) is None
                assert none is (next(_lattice_fibres(s), None) is None), (h, k)
            else:
                points = tuple(prefix + (v,) for prefix, r in fibres for v in r)
                assert points == _box_scan(s), (h, k)
                none = not points
            empty[none] += 1
    assert min(q_normal.values()) >= 10 and min(empty.values()) >= 100, (q_normal, empty)
    _report("vertex data routes against the general routes")


def _facet_row_verdicts(h, k):
    """(incidence verdict, oracle verdict) of every facet-row structure of h
    with k rows, in the order of _structures; the oracle compares the fans
    of the summands in unimodular coordinates."""
    data = vertex_data(h)
    verts = tuple(v.point for v in data)
    tight = _facet_masks([v.incident for v in data], len(h.facets))
    candidates = ((a, -b, _class_mask(verts, a, -b, 1)) for a, b in h.facets)
    oriented = sorted(c for c in candidates if c[2] is not None)
    return [
        (_same_cones(tight, classes), all(snf_same_normal_fan(dec.summands[0], q) for q in dec.summands[1:]))
        for classes, dec in _structures(verts, oriented, k, 1, itertools.count(1))
    ]


def test_incidence_strictness(corpus_reports):
    # Strictness read off the incidences against the fans of the summands
    # in unimodular coordinates, on every facet-row structure, at every k,
    # of the corpus members in the regime, of smooth builds of four
    # triangles or four trapezoids of mixed sizes, and of builds of polygons
    # with different fans, as many vertices each, which are neither smooth
    # nor strict.  Most structures below the codegree are not strict.
    rng = random.Random(41)
    triangle = lambda a: VPolytope(2, ((0, 0), (a, 0), (0, a)))
    trapezoid = lambda a, b: VPolytope(2, ((0, 0), (a + b, 0), (0, b), (a, b)))
    builds = [[triangle(rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
    builds += [[trapezoid(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(4)] for _ in range(4)]
    cases = [h for _, h, report in corpus_reports if report.classification_applies]
    cases += [facets(build(summands, 1)) for summands in builds]
    assert all(is_smooth(h)[0] for h in cases)
    quads = [
        VPolytope(2, ((0, 0), (1, 0), (0, 1), (1, 1))),
        trapezoid(1, 1),
        VPolytope(2, ((0, 0), (1, 0), (1, 1), (2, 1))),
        VPolytope(2, ((0, 0), (2, 0), (1, 1), (1, -1))),
    ]
    cases += [facets(build(pair, 1)) for pair in itertools.combinations(quads, 2)]
    tally = {True: 0, False: 0}
    for h in cases:
        for k in range(1, h.dim + 1):
            for cones, fans in _facet_row_verdicts(h, k):
                assert cones is fans, (h, k)
                tally[fans] += 1
    assert min(tally.values()) >= 500, tally
    _report("strictness from the incidences")


def test_ehrhart_oracle(corpus_reports, sheared):
    # The codegree by a third route: n + 1 - deg h*, from counts of dilates
    # alone, on the corpus and sheared images of every tenth member.
    cases = [(h, report.codegree) for _, h, report in corpus_reports]
    cases += [(h, report.codegree) for h, report in sheared]
    for h, c in cases:
        hstar = ehrhart_hstar(h)
        assert hstar[0] == 1 and min(hstar) >= 0, (h, hstar)
        degree = max(i for i, x in enumerate(hstar) if x)
        assert h.dim + 1 - degree == c, (h, hstar, c)
    _report("Ehrhart h* against the codegree")


def test_batyrev_nill():
    # Batyrev and Nill (Moscow Math. J. 7, 2007): a lattice polytope has
    # degree at most 1 exactly when it is a Lawrence prism, which detect
    # finds with k >= n - 1 (a unimodular simplex has k = n), or the
    # exceptional simplex conv(0, 2e_1, 2e_2, e_3, ..., e_n) up to lattice
    # equivalence.  On hulls of random points of {0, 1, 2}^n, n = 2..5, far
    # from the smooth corpus, and on sheared Lawrence prisms of 2-6 segments.
    rng = random.Random(5)
    cases = []
    for n in range(2, 6):
        while len(cases) < 80 * (n - 1):
            pts = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 4))]
            if affine_dim(pts) == n:
                cases.append(reduce_vertices(pts, n))
    for m in range(2, 7):
        for _ in range(3):
            prism = build([segment(rng.randint(1, 3)) for _ in range(m)], 1)
            cases.append(apply_unimodular(prism, random_unimodular(rng, m, 4), (0,) * m))
    tally = {"prism": 0, "exceptional": 0, "other": 0}
    for q in cases:
        n = q.dim
        dec = detect(q, 1)
        prism = dec is not None and dec.k >= n - 1
        corners = [(0,) * n, (2,) + (0,) * (n - 1), (0, 2) + (0,) * (n - 2)]
        corners += [tuple(int(i == j) for i in range(n)) for j in range(2, n)]
        exceptional = VPolytope(n, tuple(sorted(corners)))
        special = len(q.vertices) == n + 1 and lattice_equivalent(q, exceptional) is not None
        assert (degree(facets(q)) <= 1) is (prism or special), q
        tally["prism" if prism else "exceptional" if special else "other"] += 1
    assert tally["exceptional"] >= 5 and min(tally["prism"], tally["other"]) >= 50, tally
    _report("Batyrev-Nill")


def test_dickenstein_nill(corpus_reports, products):
    # Dickenstein and Nill (Math. Res. Lett. 17, 2010): a smooth polytope
    # with 2c >= n + 3 is dual defective, hence Q-normal.
    reports = [report for _, _, report in corpus_reports]
    reports += [classify(h) for _, _, h in products if is_smooth(h)[0]]
    high = [r for r in reports if 2 * r.codegree >= r.dim + 3]
    assert all(r.q_normal for r in high)
    assert len(high) >= 100 and any(not r.q_normal for r in reports)
    _report("Dickenstein-Nill")


def test_product_identities(products):
    # For P x Q: the lattice points multiply; c and qc are the larger of the
    # factors'; P x Q is smooth exactly when both are, and then its nef
    # value is the larger one.  classify reads qc and Q-normality off the
    # shifted vertices of the product, the factors by their own routes.
    smooth = 0
    for a, b, h in products:
        assert lattice_point_count(h) == lattice_point_count(a) * lattice_point_count(b)
        expect_c = max(codegree(a), codegree(b))
        expect_qc = max(qcodegree(a), qcodegree(b))
        assert is_smooth(h)[0] is (is_smooth(a)[0] and is_smooth(b)[0]), (a, b)
        if is_smooth(h)[0]:
            report = classify(h)
            assert (report.codegree, report.qcodegree) == (expect_c, expect_qc), (a, b)
            assert report.nef_value == max(nef_value(a), nef_value(b)), (a, b)
            assert report.q_normal is (report.qcodegree == report.nef_value)
            smooth += 1
        else:
            assert (codegree(h), qcodegree(h)) == (expect_c, expect_qc), (a, b)
    assert smooth >= 30 and len(products) - smooth >= 5
    _report("product identities")
