"""Exact integer and rational linear algebra on plain tuples.

Vectors are tuples of Python ints (or Fractions where stated), matrices are
sequences of row vectors.  Everything is arbitrary precision; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def mat_vec(rows: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(r, v) for r in rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    cols = list(zip(*b))
    return tuple(tuple(dot(r, c) for c in cols) for r in a)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def primitive(v: Sequence[int]) -> IntVector:
    """Divide an integer vector by the gcd of its entries, keeping the sign."""
    g = math.gcd(*v) if v else 0
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(c // g for c in v)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(rows: Sequence[Sequence[int]]):
    """(det A, adj A) of a square integer matrix, adj A = det A * A^-1, by
    fraction-free Gauss-Jordan elimination on [A | I] with row swaps
    (Bareiss, Math. Comp. 22, 1968): every update divides exactly by the
    previous pivot.  adj A is None when A is singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("adjugate needs a square matrix")
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(top[k] * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = top[k]
    # With P the row swaps, [A | I] is now [det(PA) I | det(PA) A^-1].
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in m)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a rational matrix, by fraction-free elimination: each row is
    scaled to integers, reduced against the rows kept so far, and kept,
    divided by the gcd of its entries, when it does not vanish."""
    kept = []  # (pivot column, row), zero at the pivots of earlier rows
    for r in rows:
        scale = math.lcm(*(x.denominator for x in r))  # ints and Fractions
        v = [int(x * scale) for x in r]
        for c, b in kept:
            f = v[c]
            if f:
                v = [b[c] * x - f * y for x, y in zip(v, b)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            g = math.gcd(*v)
            kept.append((c, [x // g for x in v]))
            if len(kept) == len(v):
                break
    return len(kept)


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict of an exact linear solve: unique point, none, or many."""

    status: str  # "unique" | "no-solution" | "non-unique"
    point: tuple[Fraction, ...] | None = None


UNIQUE = "unique"
NO_SOLUTION = "no-solution"
NON_UNIQUE = "non-unique"


def solve_exact(a: Sequence[Sequence], b: Sequence) -> SolveOutcome:
    """Solve A x = b over the rationals with an exact verdict."""
    nrows = len(a)
    if len(b) != nrows:
        raise ValueError("right-hand side length mismatch")
    ncols = len(a[0]) if nrows else 0
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if m[i][ncols] != 0:
            return SolveOutcome(NO_SOLUTION)
    if len(pivots) < ncols:
        return SolveOutcome(NON_UNIQUE)
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return SolveOutcome(UNIQUE, tuple(x))


def invert_unimodular(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (integer entries)."""
    n = len(rows)
    cols = []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        out = solve_exact(rows, e)
        if out.status != UNIQUE:
            raise ValueError("matrix is singular")
        cols.append(out.point)
    inv = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    if any(x.denominator != 1 for r in inv for x in r):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in r) for r in inv)


def smith_normal_form(a: Sequence[Sequence[int]]):
    """Decompose A = U * D * V with U, V unimodular and D diagonal.

    D has nonnegative diagonal entries d_1 | d_2 | ... (trailing zeros last).
    Pivots are chosen as the smallest absolute nonzero entry, ties broken in
    row-major order, so the transform pair is reproducible.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0 or n == 0 or any(len(r) != n for r in a):
        raise ValueError("need a nonempty rectangular matrix")
    d = [list(r) for r in a]
    u = [list(r) for r in identity(m)]
    v = [list(r) for r in identity(n)]

    # Elementary steps keep U * D * V equal to the input matrix.
    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        for r in u:
            r[i] = -r[i]

    def row_add(i, j, c):
        # D[i] += c * D[j]
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        for r in u:
            r[j] -= c * r[i]

    def col_add(i, j, c):
        # D[:, i] += c * D[:, j]
        for r in d:
            r[i] += c * r[j]
        v[j] = [x - c * y for x, y in zip(v[j], v[i])]

    def diagonalize(start):
        for t in range(start, min(m, n)):
            while True:
                piv = None
                for i in range(t, m):
                    for j in range(t, n):
                        if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                            piv = (i, j)
                if piv is None:
                    return
                if piv != (t, t):
                    if piv[0] != t:
                        row_swap(t, piv[0])
                    if piv[1] != t:
                        col_swap(t, piv[1])
                dirty = False
                for i in range(t + 1, m):
                    if d[i][t] != 0:
                        row_add(i, t, -(d[i][t] // d[t][t]))
                        dirty = dirty or d[i][t] != 0
                for j in range(t + 1, n):
                    if d[t][j] != 0:
                        col_add(j, t, -(d[t][j] // d[t][t]))
                        dirty = dirty or d[t][j] != 0
                if not dirty:
                    break

    diagonalize(0)
    # Enforce the divisibility chain, re-eliminating after each fix.
    while True:
        for i in range(min(m, n)):
            if d[i][i] < 0:
                row_neg(i)
        bad = None
        for i in range(min(m, n) - 1):
            if d[i][i] != 0 and d[i + 1][i + 1] % d[i][i] != 0:
                bad = i
                break
        if bad is None:
            break
        col_add(bad, bad + 1, 1)
        diagonalize(bad)

    return (
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in d),
        tuple(tuple(r) for r in v),
    )
