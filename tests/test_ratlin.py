import random

import pytest
from fractions import Fraction

from latpoly.ratlin import (
    NO_SOLUTION,
    NON_UNIQUE,
    UNIQUE,
    adjugate,
    det,
    dot,
    identity,
    independent,
    primitive,
    rank,
    smith_normal_form,
    solve_exact,
)
from oracles import mat_mul


def test_primitive_examples():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 5)) == (0, 1)
    assert primitive((-4, -6)) == (-2, -3)


def test_primitive_zero_vector_rejected():
    with pytest.raises(ValueError):
        primitive((0, 0, 0))


def test_primitive_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        v = tuple(rng.randint(-30, 30) for _ in range(n))
        if all(c == 0 for c in v):
            continue
        p = primitive(v)
        assert primitive(p) == p


def test_unimodular_examples():
    assert abs(det(identity(3))) == 1
    # Edge vectors at the singular vertex of a non-smooth Cayley sum.
    assert abs(det(((-1, 0, 0), (1, 1, -1), (3, 0, -2)))) != 1
    assert abs(det(((1, 1), (0, 1)))) == 1


def test_unimodular_dimension_mismatch():
    with pytest.raises(ValueError):
        det(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        det(((1, 0), (0, 1), (1, 1)))


def test_unimodular_invariance_under_permutation_and_sign():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        vs = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        base = abs(det(vs))
        perm = vs[:]
        rng.shuffle(perm)
        flipped = [tuple(-c for c in v) if rng.random() < 0.5 else v for v in perm]
        assert abs(det(flipped)) == base


def test_dot_examples():
    assert dot((1, -2, 3), (4, 5, 6)) == 12
    assert dot((Fraction(1, 2), 3), (4, Fraction(1, 3))) == 3
    assert dot((), ()) == 0
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
        dot((1, 2), (1, 2, 3))


def test_det_small_cases():
    assert det(()) == 1
    assert det(((5,),)) == 5
    assert det(((1, 2), (3, 4))) == -2
    assert det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24


def test_snf_identity():
    u, d, v = smith_normal_form(identity(2))
    assert d == identity(2)
    assert mat_mul(mat_mul(u, d), v) == identity(2)


def test_snf_diag_2_3():
    a = ((2, 0), (0, 3))
    u, d, v = smith_normal_form(a)
    assert d == ((1, 0), (0, 6))
    assert mat_mul(mat_mul(u, d), v) == a
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_unimodular_input():
    a = ((1, 1), (0, 1))
    _, d, _ = smith_normal_form(a)
    assert d == ((1, 0), (0, 1))


def test_snf_random_reconstruction():
    rng = random.Random(23)
    for _ in range(150):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = tuple(tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(m))
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, d), v) == a
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


def test_solve_exact_verdicts():
    out = solve_exact(identity(2), (3, 4))
    assert out.status == UNIQUE
    assert out.point == (3, 4)

    assert solve_exact(((1, 0), (1, 0)), (0, 1)).status == NO_SOLUTION
    assert solve_exact(((1, 1),), (2,)).status == NON_UNIQUE


def test_solve_exact_fractional():
    out = solve_exact(((2, 0), (0, 4)), (1, 1))
    assert out.status == UNIQUE
    assert out.point == (Fraction(1, 2), Fraction(1, 4))


def test_adjugate_small_cases():
    assert adjugate(()) == (1, ())
    assert adjugate(((5,),)) == (5, ((1,),))
    assert adjugate(((-1,),)) == (-1, ((1,),))
    assert adjugate(((0,),)) == (0, None)
    assert adjugate(((1, 2), (3, 4))) == (-2, ((4, -2), (-3, 1)))
    # A zero pivot forces a row swap.
    assert adjugate(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    with pytest.raises(ValueError):
        adjugate(((1, 0, 0), (0, 1, 0)))


def test_adjugate_random():
    rng = random.Random(31)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            a[i] = [rng.choice((-2, 1, 3)) * x for x in a[j]]
        d, adj = adjugate(a)
        assert d == det(a)
        if d == 0:
            singular += 1
            assert adj is None
        else:
            assert mat_mul(a, adj) == tuple(tuple(d * x for x in r) for r in identity(n))
    assert singular >= 40



def test_adjugate_cofactors_random():
    # adj A by definition: entry (i, j) is (-1)^(i+j) times the minor of A
    # without row j and column i.
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        d, adj = adjugate(a)
        if d == 0:
            assert adj is None
            continue
        minor = lambda i, j: [r[:i] + r[i + 1 :] for k, r in enumerate(a) if k != j]
        assert adj == tuple(tuple((-1) ** (i + j) * det(minor(i, j)) for j in range(n)) for i in range(n))


def _unskipped_adjugate(rows):
    """adjugate without its skip, for A whose pivots need no row swap, with
    the number of row updates that left their row unchanged."""
    n = len(rows)
    m = [list(r) + list(e) for r, e in zip(rows, identity(n))]
    prev = 1
    unchanged = 0
    for k in range(n):
        top = m[k]
        for i in range(n):
            if i != k:
                new = [(top[k] * x - m[i][k] * y) // prev for x, y in zip(m[i], top)]
                unchanged += new == m[i]
                m[i] = new
        prev = top[k]
    return prev, tuple(tuple(r[n:]) for r in m), unchanged


def test_adjugate_sparse_unit_pivots():
    # Facet normals at a vertex are sparse with pivots +-1, so most row
    # updates are the identity and are skipped.  Unit lower triangular: every
    # pivot is 1 and no row swaps; shuffled copies with rows negated take
    # the swapping path and pivots of both signs.
    rng = random.Random(41)
    updates = unchanged = 0
    for _ in range(60):
        n = rng.randint(2, 24)
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in rng.sample(range(i), min(i, 2)):
                a[i][j] = rng.choice((-1, 1))
        d, adj = adjugate(a)
        assert abs(d) == 1 and d == det(a)
        assert mat_mul(a, adj) == tuple(tuple(d * x for x in r) for r in identity(n))
        ref_d, ref_adj, same = _unskipped_adjugate(a)
        assert (d, adj) == (ref_d, ref_adj)
        updates += n * (n - 1)
        unchanged += same
        rng.shuffle(a)
        a = [[-x for x in r] if rng.random() < 0.5 else r for r in a]
        d, adj = adjugate(a)
        assert d == det(a)
        assert mat_mul(a, adj) == tuple(tuple(d * x for x in r) for r in identity(n))
    assert 4 * unchanged > 3 * updates, (unchanged, updates)


def _fraction_rank(rows):
    """Reference: Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_matches_fraction_reference():
    assert rank([]) == 0
    assert rank([(0, 0), (0, 0)]) == 0
    assert rank([(1, 2), (2, 4), (Fraction(1, 2), 1)]) == 1
    rng = random.Random(37)
    seen = set()
    for _ in range(500):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(0, 7)):
            kind = rng.random()
            if rows and kind < 0.15:
                rows.append(rng.choice(rows))  # duplicate
            elif len(rows) > 1 and kind < 0.3:
                x, y = rng.sample(rows, 2)  # dependent
                a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
                rows.append(tuple(a * p + b * q for p, q in zip(x, y)))
            elif kind < 0.4:
                rows.append((0,) * ncols)
            else:
                rows.append(tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.4
                    else rng.randint(-4, 4)
                    for _ in range(ncols)
                ))
        r = rank(rows)
        assert r == _fraction_rank(rows)
        assert independent(rows) == [
            i for i in range(len(rows)) if _fraction_rank(rows[: i + 1]) > _fraction_rank(rows[:i])
        ]
        seen.add(r)
    assert seen == set(range(7))
