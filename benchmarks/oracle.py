"""What the program's outputs must be, decided without the program.

Three kinds of check:

* closed forms for the families that have them (see README.md for the
  derivations);
* a brute-force scan of the integer box over the exact vertices, against
  the benchmark's own inequalities for the construction, where no closed
  form is used.  It calls neither `lpx` nor `lattice_points`;
* the paper's properties, which every report must satisfy.

All invariants checked here are unchanged by unimodular changes of
coordinates, so they are computed on the family in its base coordinates.
Each check function returns a list of mismatch messages, empty when the
output is right.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _ceil(x):
    return math.ceil(Fraction(x))


# --------------------------------------------------------------------------
# The benchmark's own description of a Cayley sum of same-fan summands.


def cayley_rows(fan_offsets, normals, s):
    """Inequalities coeffs . (y, h) + const >= 0 of the order-s Cayley sum.

    Summand j is {y : <rho, y> >= -a_j(rho)} for the shared normals rho;
    it sits at height s e_j (summand 0 at height 0).  Because the summands
    share one normal fan, the fibre over h is the Minkowski combination
    sum_j lambda_j P_j, whose offsets are the lambda-weighted offsets.
    """
    k = len(fan_offsets) - 1
    m = len(normals[0])
    rows = []
    for r, rho in enumerate(normals):
        a = [offsets[r] for offsets in fan_offsets]
        rows.append((tuple(s * c for c in rho) + tuple(a[j] - a[0] for j in range(1, k + 1)), s * a[0]))
    for i in range(k):
        rows.append((tuple(int(j == m + i) for j in range(m + k)), 0))
    rows.append((tuple([0] * m + [-1] * k), s))
    return rows


def cayley_vertices(summand_vertices, s):
    k = len(summand_vertices) - 1
    out = set()
    for j, verts in enumerate(summand_vertices):
        height = tuple(s * int(i == j - 1) for i in range(k))
        out.update(tuple(v) + height for v in verts)
    return sorted(out)


def brute_force(rows, verts, dim):
    """Lattice point count and codegree by scanning integer boxes.

    The k-th dilate's interior lattice points satisfy coeffs . x + k const
    >= 1, since both sides are integers.
    """
    def scan(k, slack):
        lo = [min(v[c] for v in verts) * k for c in range(dim)]
        hi = [max(v[c] for v in verts) * k for c in range(dim)]
        box = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        return (
            x for x in box
            if all(sum(c * xi for c, xi in zip(co, x)) + k * const >= slack for co, const in rows)
        )

    count = sum(1 for _ in scan(1, 0))
    codegree = next((k for k in range(1, dim + 2) if next(scan(k, 1), None) is not None), None)
    return count, codegree


# --------------------------------------------------------------------------
# Facts of the corpus families.

_SEGMENT_NORMALS = [(1,), (-1,)]
_SQUARE_NORMALS = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def family_facts(family, params):
    """Known facts of one family member: dim, vertex_count,
    lattice_point_count and, where known, codegree, qcodegree, nef_value."""
    if family == "simplex":
        d, n = params
        qc = Fraction(n + 1, d)
        return {"dim": n, "vertex_count": n + 1, "lattice_point_count": math.comb(n + d, n),
                "codegree": _ceil(qc), "qcodegree": qc, "nef_value": qc}
    if family == "blowup":
        d, lam, n = params
        qc = max(Fraction(n + 1, d), Fraction(2, d - lam))
        return {"dim": n, "vertex_count": 2 * n,
                "lattice_point_count": math.comb(n + d, n) - math.comb(n + lam - 1, n),
                "codegree": max(_ceil(Fraction(n + 1, d)), _ceil(Fraction(2, d - lam))),
                "qcodegree": qc, "nef_value": max(qc, Fraction(n - 1, lam))}
    if family == "prism":
        c = len(params)
        facts = {"dim": c, "vertex_count": 2 * c,
                 "lattice_point_count": sum(l + 1 for l in params)}
        if c >= 3:
            facts.update(codegree=c, qcodegree=Fraction(c), nef_value=Fraction(c))
        else:
            rows = cayley_rows([(0, l) for l in params], _SEGMENT_NORMALS, 1)
            verts = cayley_vertices([[(0,), (l,)] for l in params], 1)
            facts["lattice_point_count"], facts["codegree"] = _checked_brute(
                rows, verts, c, facts["lattice_point_count"])
        return facts
    if family == "squares":
        (count,) = params
        square = [(0, 0), (0, 1), (1, 0), (1, 1)]
        rows = cayley_rows([(0, 0, 1, 1)] * count, _SQUARE_NORMALS, 1)
        verts = cayley_vertices([square] * count, 1)
        points, codeg = brute_force(rows, verts, count + 1)
        return {"dim": count + 1, "vertex_count": 4 * count,
                "lattice_point_count": points, "codegree": codeg}
    raise ValueError(f"unknown family {family!r}")


def _checked_brute(rows, verts, dim, closed_count):
    points, codeg = brute_force(rows, verts, dim)
    if points != closed_count:
        raise AssertionError(f"brute force finds {points} points, closed form {closed_count}")
    return points, codeg


# --------------------------------------------------------------------------
# Checking an analyze report (one entry of a batch report, or analyze --json).


def check_report(report, facts):
    bad = []

    def want(key, value):
        got = report.get(key)
        if isinstance(value, Fraction):
            try:
                got = Fraction(got)
            except (TypeError, ValueError):
                pass
        if got != value:
            bad.append(f"{key}: got {report.get(key)!r}, expected {value}")

    for key in ("dim", "vertex_count", "lattice_point_count", "codegree", "qcodegree", "nef_value"):
        if key in facts:
            want(key, facts[key])
    if report.get("smooth") is not True:
        bad.append("every input is smooth, report says not")
        return bad
    try:
        n = report["dim"]
        c = report["codegree"]
        qc = Fraction(report["qcodegree"])
        tau = Fraction(report["nef_value"])
    except (KeyError, TypeError, ValueError) as err:
        return bad + [f"malformed report: {err!r}"]
    if not qc <= c <= n + 1:
        bad.append(f"qc <= c <= n+1 fails: {qc}, {c}, {n + 1}")
    if not (tau > c - 1 and tau >= qc):
        bad.append(f"tau > c-1 and tau >= qc fail: tau={tau}, c={c}, qc={qc}")
    want("degree", n + 1 - c)
    want("q_normal", qc == tau)
    applies = qc == tau and 2 * c >= n + 3
    want("classification_applies", applies)
    cay = report.get("cayley")
    if applies:
        if not isinstance(cay, dict):
            bad.append("classification applies but no Cayley structure reported")
        else:
            k = cay.get("k")
            if not (cay.get("strict") is True and k + 1 == c and 2 * k > n and cay.get("s") == 1):
                bad.append(f"forced Cayley structure wrong: {cay}")
        want("predicted_defect", 2 * c - 2 - n)
    elif cay is not None or report.get("predicted_defect") is not None:
        bad.append("Cayley structure reported where the classification does not apply")
    return bad


# --------------------------------------------------------------------------
# Checking one Cayley family: build_strict, facets, detect, check_localsplit.


def _rank(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# Rays of the common normal fan of each summand kind.
_FAN_RAYS = {"segment": 2, "rectangle": 4, "triangle": 3}


def check_family(family, out):
    """`family` as made by inputs.cayley_families, `out` as recorded by
    child.run_cayley."""
    if "error" in out:
        return [f"raised {out['error']}"]
    bad = []
    s = family["s"]
    summands = family["summands"]
    j = len(summands)
    k = j - 1
    m = len(summands[0][0])
    n = m + k
    verts = cayley_vertices(summands, s)
    built = out["built"]
    if [tuple(v) for v in built["vertices"]] != verts or built["dim"] != n:
        return ["build_strict vertices differ from the construction"]
    # facets: each is a valid primitive inequality, tight on an affinely
    # (n-1)-dimensional set of vertices; there are as many as the
    # construction has facets, so none is missing.
    fan_size = _FAN_RAYS[family["kind"]]
    found = out["facets"]["facets"]
    if out["facets"]["dim"] != n or len(found) != k + 1 + fan_size:
        bad.append(f"facets: {len(found)} facets, expected {k + 1 + fan_size}")
    for normal, offset in found:
        offset = Fraction(offset)
        vals = [sum(a * b for a, b in zip(normal, v)) + offset for v in verts]
        tight = [v for v, x in zip(verts, vals) if x == 0]
        diffs = [[a - b for a, b in zip(v, tight[0])] for v in tight[1:]] if tight else []
        if min(vals) < 0 or math.gcd(*normal) != 1 or _rank(diffs) != n - 1:
            bad.append(f"facets: {normal}, {offset} is not a facet")
    # detect: every vertex lands in {0, s e_1, ..., s e_k'} with k' >= k.
    dec = out["detect"]
    if dec is None or dec["k"] < k or dec["s"] != s:
        bad.append(f"detect found {dec and dec['k']} heights, expected at least {k}")
    else:
        kk = dec["k"]
        allowed = {tuple([0] * kk)} | {tuple(s * int(i == r) for i in range(kk)) for r in range(kk)}
        for v in verts:
            image = tuple(
                sum(a * b for a, b in zip(row, v)) - t
                for row, t in zip(dec["projection"], dec["translation"])
            )
            if image not in allowed:
                bad.append(f"detect maps vertex {v} to {image}")
                break
    # check_localsplit: where it applies, both values are (k+1)/s.
    split = out["localsplit"]
    expected = Fraction(k + 1, s)
    if (split["k"], split["s"], split["summand_dims"], Fraction(split["expected"])) != (k, s, [m] * j, expected):
        bad.append(f"localsplit header wrong: {split}")
    if s == 1 and not split["smooth"]:
        bad.append("order-1 build of smooth same-fan summands reported not smooth")
    if split["applicable"] != (split["smooth"] and m + 1 < expected):
        bad.append("localsplit applicability wrong")
    if split["applicable"] and not (
        split["verdict"]
        and Fraction(split["computed_tau"]) == expected
        and Fraction(split["computed_qcodeg"]) == expected
    ):
        bad.append(f"localsplit verdict false: {split}")
    return bad
