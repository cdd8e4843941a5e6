"""Exact rational linear programming.

Two-phase primal simplex over Fractions with Bland's anti-cycling rule.
Problems are stated as: minimize c . x subject to A x >= b, x free.
Free variables are split as x = x+ - x-, surplus variables close the gap.

Callers: none at run time; every geometric question, the rational codegree
included, is answered exactly by the double description in polytope.  The
package still loads it, as the independent LP oracle of the tests and the
module that benchmarks/tracer.py wraps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LinearProgram(NamedTuple):
    objective: tuple[Fraction, ...]
    lhs: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]


class LPVerdict(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def linear_program(objective: Sequence, lhs: Sequence[Sequence], rhs: Sequence) -> LinearProgram:
    nvar = len(objective)
    if len(lhs) != len(rhs) or any(len(r) != nvar for r in lhs):
        raise ValueError("inconsistent linear program shape")
    return LinearProgram(
        tuple(Fraction(x) for x in objective),
        tuple(tuple(Fraction(x) for x in r) for r in lhs),
        tuple(Fraction(x) for x in rhs),
    )


class _Tableau:
    """Simplex tableau with explicit cost rows, all entries Fractions."""

    def __init__(self, rows, rhs, basis, costs):
        self.rows = rows          # m lists of length ncols
        self.rhs = rhs            # m Fractions, kept nonnegative
        self.basis = basis        # basic variable index per row
        self.costs = costs        # list of (reduced-cost row, objective value)

    def pivot(self, r, s):
        piv = self.rows[r][s]
        inv = _ONE / piv
        self.rows[r] = [x * inv for x in self.rows[r]]
        self.rhs[r] = self.rhs[r] * inv
        prow = self.rows[r]
        pr = self.rhs[r]
        for i, row in enumerate(self.rows):
            if i != r and row[s] != 0:
                f = row[s]
                self.rows[i] = [x - f * y for x, y in zip(row, prow)]
                self.rhs[i] -= f * pr
        for k, (crow, cval) in enumerate(self.costs):
            if crow[s] != 0:
                f = crow[s]
                self.costs[k] = ([x - f * y for x, y in zip(crow, prow)], cval - f * pr)
        self.basis[r] = s

    def run(self, cost_index, allowed):
        """Minimize the given cost row with Bland's rule.

        Returns "optimal" or "unbounded".  Only columns in `allowed` may
        enter the basis.
        """
        while True:
            crow = self.costs[cost_index][0]
            enter = next((j for j in allowed if crow[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, enter)


def solve(lp: LinearProgram) -> LPVerdict:
    """Exact verdict for: minimize c . x subject to A x >= b, x free."""
    m = len(lp.lhs)
    nvar = len(lp.objective)
    if m == 0:
        # Whole space; the optimum is zero iff the objective vanishes.
        if any(c != 0 for c in lp.objective):
            return LPVerdict(UNBOUNDED)
        return LPVerdict(OPTIMAL, _ZERO, tuple([_ZERO] * nvar))

    # Columns: x+ (nvar), x- (nvar), surplus (m), artificial (m).
    nsplit = 2 * nvar
    ncols = nsplit + m
    rows = []
    rhs = []
    for i in range(m):
        row = [_ZERO] * (ncols + m)
        sign = -1 if lp.rhs[i] < 0 else 1
        for j, a in enumerate(lp.lhs[i]):
            row[j] = Fraction(sign * a)
            row[nvar + j] = Fraction(-sign * a)
        row[nsplit + i] = Fraction(-sign)
        row[ncols + i] = _ONE
        rows.append(row)
        rhs.append(Fraction(sign * lp.rhs[i]))

    # Phase-one costs: sum of artificials, reduced against the initial basis.
    p1 = [_ZERO] * (ncols + m)
    p1val = _ZERO
    for i in range(m):
        for j in range(ncols):
            p1[j] -= rows[i][j]
        p1val -= rhs[i]
    # Phase-two costs: the real objective on the split variables.
    p2 = [_ZERO] * (ncols + m)
    for j, c in enumerate(lp.objective):
        p2[j] = Fraction(c)
        p2[nvar + j] = Fraction(-c)

    t = _Tableau(rows, rhs, list(range(ncols, ncols + m)), [(p1, p1val), (p2, _ZERO)])
    t.run(0, range(ncols + m))
    if -t.costs[0][1] != 0:  # phase-one optimum is -cval
        return LPVerdict(INFEASIBLE)

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if t.basis[i] < ncols:
            keep.append(i)
            continue
        s = next((j for j in range(ncols) if t.rows[i][j] != 0), None)
        if s is None:
            continue  # redundant constraint row
        t.pivot(i, s)
        keep.append(i)
    t.rows = [t.rows[i] for i in keep]
    t.rhs = [t.rhs[i] for i in keep]
    t.basis = [t.basis[i] for i in keep]

    status = t.run(1, range(ncols))
    if status == UNBOUNDED:
        return LPVerdict(UNBOUNDED)
    x = [_ZERO] * ncols
    for i, b in enumerate(t.basis):
        x[b] = t.rhs[i]
    point = tuple(x[j] - x[nvar + j] for j in range(nvar))
    return LPVerdict(OPTIMAL, -t.costs[1][1], point)


def feasible(lhs: Sequence[Sequence], rhs: Sequence) -> bool:
    """True iff {x : A x >= b} is nonempty."""
    if len(lhs) != len(rhs):
        raise ValueError("inconsistent system shape")
    if not lhs:
        return True
    nvar = len(lhs[0])
    return solve(linear_program([0] * nvar, lhs, rhs)).status != INFEASIBLE
