"""Seeded inputs for the three workloads.

Every input is drawn from `--seed` alone, so the same seed gives the same
files and families.  A run is made of rounds, and every round of a
workload holds the same shapes in the same order: the same polytopes and
families, each in a fixed change of coordinates of its own.  The seed
draws only a translation for each input.  A
translation changes no cost the program pays (`width_candidates`, for
one, works on vertex differences), while a seeded linear change of
coordinates would: one shear can make `classify` on a five-segment prism,
or `detect` on a Cayley family, several times slower on some seeds and not
others.  So a run's work is the same from seed to seed, and no two items
of one run are the same input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path

# Per workload: nominal seconds of one round on the reference machine and
# the fewest rounds a run makes (40 item samples, so that a tail percentile
# with ten samples beyond it exists).  A run of S seconds makes
# max(min_rounds, round(S / round_s)) rounds, whatever the speed of the
# machine.
WORKLOADS = {
    "corpus-batch": {"round_s": 4.3, "min_rounds": 5},
    "analyze-bigbox": {"round_s": 6.0, "min_rounds": 5},
    "cayley-families": {"round_s": 7.0, "min_rounds": 4},
}


def rounds_for(workload, seconds):
    w = WORKLOADS[workload]
    return max(w["min_rounds"], round(seconds / w["round_s"]))


# --------------------------------------------------------------------------
# Unimodular changes of coordinates, kept together with their inverses.


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(key, n, shears, signed=True):
    """A permutation of coordinates (with random signs if `signed`) followed
    by `shears` elementary shears with coefficient +-1, drawn from the
    string `key`.  Returns (U, U^-1) as lists of integer rows."""
    rng = random.Random(key)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) if signed else 1 for _ in range(n)]
    u = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    uinv = [[u[j][i] for j in range(n)] for i in range(n)]  # orthogonal
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        e = _identity(n)
        e[i][j] = c
        einv = _identity(n)
        einv[i][j] = -c
        u = _mat_mul(e, u)
        uinv = _mat_mul(uinv, einv)
    return u, uinv


def transform_h(facets, uinv, t):
    """Facets <rho, x> >= -a of P, rewritten for U P + t."""
    out = []
    for normal, offset in facets:
        row = [sum(normal[k] * uinv[k][j] for k in range(len(normal))) for j in range(len(normal))]
        out.append((row, offset - sum(r * c for r, c in zip(row, t))))
    return out


def transform_v(points, u, t):
    return sorted(
        tuple(sum(r * c for r, c in zip(row, p)) + tc for row, tc in zip(u, t))
        for p in points
    )


# --------------------------------------------------------------------------
# corpus-batch: members of the acceptance corpus of the test suite.


def acceptance_corpus():
    """The 160 members as (name, family, params), in the suite's order:
    strict Lawrence prisms, sums of unit squares, simplex 2 n, blowups."""
    out = []
    for count in range(2, 6):
        for lengths in itertools.combinations_with_replacement(range(1, 5), count):
            out.append(("prism-" + "-".join(map(str, lengths)), "prism", lengths))
    for count in range(2, 5):
        out.append((f"squares-{count}", "squares", (count,)))
    for n in range(1, 7):
        out.append((f"simplex-2-{n}", "simplex", (2, n)))
    for n in range(2, 5):
        for d in range(2, 6):
            for lam in range(1, d):
                out.append((f"blowup-{d}-{lam}-{n}", "blowup", (d, lam, n)))
    return out


# One batch: eight members from all four families, in their fixed
# coordinates.  Two cost about 0.1 s, three about 0.3 s, the sum of two
# squares 0.4 s, the four-segment prism 0.65 s and the five-segment prism
# (where the classification applies and `detect` runs) 1.5 s.  Over seven
# batches the median file falls inside the 0.3 s group and the tail (ten
# files beyond it) inside the four-segment prisms, not on the edge between
# two groups of costs.
CORPUS_ROUND = [
    "simplex-2-3",
    "blowup-3-1-2",
    "prism-1-3-3",
    "prism-2-2-4",
    "blowup-5-2-3",
    "squares-2",
    "prism-1-2-2-4",
    "prism-1-2-2-3-4",
]


def corpus_members():
    """CORPUS_ROUND as (name, family, params)."""
    by_name = {name: (name, family, params) for name, family, params in acceptance_corpus()}
    return [by_name[name] for name in CORPUS_ROUND]


# --------------------------------------------------------------------------
# analyze-bigbox: dilated simplices and blowups with large integer boxes.

# One round: boxes of 2.9 * 10^4 to 1.6 * 10^5 points, 0.4 to 0.9 s per
# call, most of them dimension-4 simplices, whose loading is cheap next to
# their box.  Over five rounds the three cheapest members fill the bottom
# 15 of 40 calls, so the median call falls in the middle of the next ten
# (`simplex 9 5` twice, about 0.7 s) and the tail (ten calls beyond it) in
# the middle of the ten above (`simplex 19 4` twice, about 0.8 s).  Each
# of these groups is one member in two places, so that neither statistic
# sits on the edge between two members' costs.
BIGBOX = [
    ("simplex", (15, 4)),
    ("simplex", (16, 4)),
    ("blowup", (12, 4, 4)),
    ("simplex", (9, 5)),
    ("simplex", (9, 5)),
    ("simplex", (19, 4)),
    ("simplex", (19, 4)),
    ("blowup", (17, 6, 4)),
]


# --------------------------------------------------------------------------
# cayley-families: strict Cayley sums of summands sharing one normal fan.

# One round of families: (summand kind, sizes, order s, skewed?).
#
# * Four families cost 0.2 s or less and five 0.3-0.45 s, so over four
#   rounds the median family falls inside that group of twenty rather than
#   on its edge.
# * The four four-rectangle families cost 1.0-1.3 s each, mostly in facets
#   (C(16, 5) vertex subsets).  Over four rounds they are the top 16 of 52
#   items, and the tail percentile (ten samples beyond it) falls inside
#   that group.
# * The sizes are fixed, not drawn: drawn sizes spread the costs, and with
#   them the median and the tail, from seed to seed.
# * A skewed family is shown after a fixed unimodular change with one
#   shear.  Only small order-1 families are skewed: on larger or order-2
#   families one shear can make the box of width_candidates, and so detect,
#   100 to 1000 times slower (see CHANGES.md).  For the same reason there
#   are no families of six segments (detect takes 1-30 s on them, by
#   lengths) and no order-2 families of four rectangles.
CAYLEY_ROUND = [
    ("segment", [(3,), (1,), (2,), (2,), (4,)], 1, False),
    ("segment", [(1,), (3,), (2,), (4,)], 2, False),
    ("triangle", [(1,), (2,), (3,)], 1, True),
    ("triangle", [(3,), (1,), (2,)], 2, False),
    ("triangle", [(2,), (1,), (3,), (1,)], 1, False),
    ("triangle", [(2,), (3,), (1,), (2,)], 1, False),
    ("rectangle", [(1, 1), (2, 1), (3, 2)], 1, True),
    ("rectangle", [(2, 1), (1, 3), (2, 2)], 2, False),
    ("rectangle", [(2, 1), (1, 2), (3, 1)], 1, False),
    ("rectangle", [(1, 2), (2, 1), (3, 3), (1, 1)], 1, False),
    ("rectangle", [(2, 2), (1, 3), (3, 1), (2, 1)], 1, False),
    ("rectangle", [(3, 2), (1, 1), (2, 3), (1, 2)], 1, False),
    ("rectangle", [(1, 3), (3, 2), (2, 2), (1, 1)], 1, False),
]


def summand_vertices(kind, size):
    if kind == "segment":
        (length,) = size
        return [(0,), (length,)]
    if kind == "rectangle":
        a, b = size
        return [(0, 0), (0, b), (a, 0), (a, b)]
    if kind == "triangle":
        (t,) = size
        return [(0, 0), (0, t), (t, 0)]
    raise ValueError(kind)


def cayley_families(seed, rounds):
    """`rounds` copies of CAYLEY_ROUND, each family with its own seeded
    translation, so no two families of a run share a summand and no family
    rides on another's cache entries."""
    out = []
    for r in range(rounds):
        for pos, (kind, sizes, s, skewed) in enumerate(CAYLEY_ROUND):
            index = r * len(CAYLEY_ROUND) + pos
            rng = random.Random(f"cayley:{seed}:{index}")
            m = 1 if kind == "segment" else 2
            u, uinv = unimodular(f"cayley-coordinates:{kind}:{sizes}:{s}", m, shears=1 if skewed else 0)
            t = [3 * index + rng.randint(0, 2)] + [rng.randint(-3, 3) for _ in range(m - 1)]
            out.append({
                "index": index,
                "kind": kind,
                "s": s,
                "sizes": [list(z) for z in sizes],
                "u": u,
                "uinv": uinv,
                "t": t,
                "summands": [transform_v(summand_vertices(kind, z), u, t) for z in sizes],
            })
    return out


# --------------------------------------------------------------------------
# Writing the files.  These helpers use the package itself (generate,
# vertices, save_polytope), as `latpoly gen` does; only the coordinate
# change is the benchmark's own.


def _base_polytope(family, params):
    from latpoly.cayley import build_strict, generate
    from latpoly.polytope import facets, vertices

    if family == "prism":
        return generate("lawrence", *params)
    if family == "squares":
        (count,) = params
        return facets(build_strict([vertices(generate("cube", 2))] * count, 1))
    return generate(family, *params)


def _save_moved(path, h, verts, coordinates, rng):
    """Save H and its vertices after the change of coordinates
    `coordinates` = (U, U^-1) and a translation drawn from `rng` in
    [-3, 3]^n."""
    from latpoly.fileio import save_polytope
    from latpoly.polytope import VPolytope, hpolytope

    n = h.dim
    u, uinv = coordinates
    t = [rng.randint(-3, 3) for _ in range(n)]
    normals, offsets = zip(*transform_h(h.facets, uinv, t))
    moved_v = VPolytope(n, tuple(transform_v(verts, u, t)))
    save_polytope(path, hrep=hpolytope(normals, offsets), vrep=moved_v)


def write_corpus(directory, seed, r):
    """Round `r`: one file per member of CORPUS_ROUND.  The member at place
    i keeps one change of coordinates in every round and every run (a
    signed permutation and one shear); the seed draws its translation.
    Returns (path, family, params)."""
    from latpoly.polytope import vertices

    out = []
    for pos, (name, family, params) in enumerate(corpus_members()):
        index = r * len(CORPUS_ROUND) + pos
        h = _base_polytope(family, params)
        coordinates = unimodular(f"corpus-coordinates:{name}", h.dim, shears=1)
        path = directory / f"{index:03d}-{name}.json"
        _save_moved(path, h, vertices(h).vertices, coordinates,
                    random.Random(f"corpus:{seed}:{index}"))
        out.append((str(path), family, list(params)))
    return out


def write_bigbox(directory, seed, rounds):
    """`rounds` passes over BIGBOX, in the coordinates `generate` gives,
    each file with its own seeded translation.  No linear change of
    coordinates: a sign flip alone changes the box that lattice_points
    scans, and its cost up to threefold (see CHANGES.md).  Returns
    (path, family, params)."""
    from latpoly.cayley import generate
    from latpoly.polytope import vertices

    bases = [(h, vertices(h).vertices) for h in (generate(f, *p) for f, p in BIGBOX)]
    out = []
    for r in range(rounds):
        for pos, (family, params) in enumerate(BIGBOX):
            index = r * len(BIGBOX) + pos
            h, verts = bases[pos]
            identity = _identity(h.dim)
            path = directory / f"{index:03d}-{family}-{'-'.join(map(str, params))}.json"
            _save_moved(path, h, verts, (identity, identity), random.Random(f"bigbox:{seed}:{index}"))
            out.append((str(path), family, list(params)))
    return out


def main(argv=None):
    """Write one run's inputs to a directory, as run.py would make them."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    args.out.mkdir(parents=True, exist_ok=True)
    rounds = rounds_for(args.workload, args.seconds)
    if args.workload == "corpus-batch":
        for r in range(rounds):
            (args.out / f"corpus{r}").mkdir(exist_ok=True)
            write_corpus(args.out / f"corpus{r}", args.seed, r)
    elif args.workload == "analyze-bigbox":
        write_bigbox(args.out, args.seed, rounds)
    else:
        families = cayley_families(args.seed, rounds)
        (args.out / "families.json").write_text(json.dumps(families, indent=1) + "\n")
    print(f"wrote {args.workload} inputs for seed {args.seed} to {args.out}")


if __name__ == "__main__":
    main()
