"""The benchmark's workloads: CLI argument lists, input files and output checks.

Inputs derive from the seed alone; spflag sees only argv and the flag files
written here.  The work in each round does not depend on the seed beyond the
random flag entries and sample points, so runs at different seeds cost about
the same.  Checks compare against `oracles`, never against stored output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from oracles import (
    at_q1,
    check_weyl_invariant,
    evaluate_terms,
    is_isotropic,
    parse_matrix,
    require,
    rref,
    terms_by_weight,
    weyl_dim_a,
    weyl_dim_c,
)

WORKLOADS = ("characters", "localization", "geometry")

# Weights whose Weyl oracle runs in under about 1 s at the seed commit; (0,1,1,1)
# (5 s) and (1,1,1,1) (11 s) would leave a single round per run.
CHAR_WEIGHTS = {
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 0)],
    4: [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0),
        (2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1),
    ],
}
ABL_WEIGHTS = [(1, 0, 0), (0, 1, 1), (1, 1, 1)]
ABL_SEEDS_PER_WEIGHT = 2
ABL_TRIALS = 5
FIXED_POINTS_N = 4
FLAG_NS = (3, 4)
FLAGS_PER_D = 2
DISCREPANCY_NS = range(1, 7)
ENUM_LIMIT = 4  # spflag's soft limit; --force is passed above it


@dataclass
class Op:
    cls: str  # command class; its latencies are summed into `<cls>_s`
    argv: list[str]
    rc: int  # expected exit code
    check: Callable[[str, dict], None]  # (stdout, shared context) -> raises CheckFailed
    points: int = 0  # evaluation points an abl-verify report must hold


def lam_arg(lam) -> str:
    return ",".join(map(str, lam))


def all_d(n: int) -> list[tuple[int, ...]]:
    return [tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """One round of operations; writes any input files into `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    return {"characters": characters, "localization": localization, "geometry": geometry}[name](
        rng, workdir
    )


# ---------------------------------------------------------------------------
# characters: polytope route against the Weyl route


def characters(rng: random.Random, workdir: str) -> list[Op]:
    weights = [lam for n in sorted(CHAR_WEIGHTS) for lam in CHAR_WEIGHTS[n]]
    rng.shuffle(weights)
    ops = []
    for lam in weights:
        n, arg = len(lam), lam_arg(lam)
        dim = weyl_dim_c(lam)
        force = ["--force"] if n + 1 > ENUM_LIMIT else []
        ops += [
            Op("weyl", ["weyl", "--n", str(n), "--lambda", arg], 0, _check_weyl(lam, dim)),
            Op("qchar", ["qchar", "--n", str(n), "--lambda", arg], 0, _check_qchar(lam, dim)),
            Op("dim", ["dim", "--n", str(n), "--lambda", arg], 0, _check_int(dim)),
            Op(
                "dim",
                ["dim", "--system", "A", "--n", str(n + 1), "--lambda", arg, *force],
                0,
                _check_int(weyl_dim_a(lam)),
            ),
        ]
    return ops


def _check_int(expected: int):
    def check(out: str, ctx: dict) -> None:
        require(out.strip() == str(expected), f"printed {out.strip()!r}, expected {expected}")

    return check


def _check_weyl(lam, dim: int):
    def check(out: str, ctx: dict) -> None:
        doc = json.loads(out)
        require(doc["dimension"] == dim, f"dimension {doc['dimension']}, expected {dim}")
        terms = terms_by_weight(doc["terms"])
        require(all(q == 0 for q, _ in terms), "weyl terms carry a q-grading")
        chars = at_q1(terms)
        require(sum(chars.values()) == dim, "weyl multiplicities do not sum to the dimension")
        check_weyl_invariant(chars)
        ctx[("weyl", lam)] = chars

    return check


def _check_qchar(lam, dim: int):
    def check(out: str, ctx: dict) -> None:
        terms = terms_by_weight(json.loads(out)["terms"])
        require(sum(terms.values()) == dim, "qchar multiplicities do not sum to the dimension")
        require(at_q1(terms) == ctx[("weyl", lam)], "qchar at q = 1 differs from weyl")

    return check


# ---------------------------------------------------------------------------
# localization: fixed-point sum against the graded character


def localization(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for lam in ABL_WEIGHTS:
        for _ in range(ABL_SEEDS_PER_WEIGHT):
            argv = ["abl-verify", "--n", str(len(lam)), "--lambda", lam_arg(lam),
                    "--trials", str(ABL_TRIALS), "--seed", str(rng.randrange(2**31))]
            ops.append(Op("abl_verify", argv, 0, _check_abl(lam, argv), ABL_TRIALS))
    twin = ops[rng.randrange(len(ops))]
    ops.append(Op("abl_verify_threads", twin.argv + ["--threads", "2"], 0,
                  _check_same_as(twin.argv), ABL_TRIALS))
    ops.append(Op("fixed_points", ["fixed-points", "--n", str(FIXED_POINTS_N)], 0,
                  _check_fixed_points(FIXED_POINTS_N)))
    return ops


def _check_abl(lam, argv):
    def check(out: str, ctx: dict) -> None:
        report = json.loads(out)
        require(report["matched"] is True, "report is not matched")
        require(report["trials"] == ABL_TRIALS > 0, f"trials {report['trials']}")
        require(len(report["points"]) == ABL_TRIALS, "wrong number of points")
        terms = ctx["qchar"](lam)
        for p in report["points"]:
            require(p["equal"] is True, "a point is not equal")
            zs = [Fraction(z) for z in p["z"]]
            value = evaluate_terms(terms, zs, Fraction(p["q"]))
            require(Fraction(p["abl"]) == value, "abl value differs from the qchar terms")
            require(Fraction(p["character"]) == value, "character differs from the qchar terms")
        ctx[tuple(argv)] = out

    return check


def _check_same_as(argv):
    def check(out: str, ctx: dict) -> None:
        require(out == ctx[tuple(argv)], "--threads 2 report differs from --threads 1")

    return check


def _check_fixed_points(n: int):
    # The tower positions (i, j), 1 <= j < 2n and i <= min(j, 2n - j), in the
    # documented key order; S_{i,j} is an i-subset of {1..i} + {j+1..2n}.
    pairs = sorted((i, j) for j in range(1, 2 * n) for i in range(1, min(j, 2 * n - j) + 1))
    keys = [f"{i},{j}" for i, j in pairs]
    sizes = [i for i, _ in pairs]
    ambients = [frozenset([*range(1, i + 1), *range(j + 1, 2 * n + 1)]) for i, j in pairs]
    seen: set[bytes] = set()

    def collection(items):
        if items[0][0] == "command":
            return dict(items)
        names, sets = zip(*items)
        require(list(names) == keys, f"collection keys {names}")
        canon = list(map(sorted, map(frozenset, sets)))
        require(canon == list(sets), "index sets are not sorted and repeat-free")
        require(list(map(len, canon)) == sizes, "some |S_{i,j}| differs from i")
        require(all(map(frozenset.issuperset, ambients, sets)), "some S_{i,j} leaves its ambient")
        seen.add(hashlib.blake2b(repr(sets).encode(), digest_size=16).digest())
        return None

    def check(out: str, ctx: dict) -> None:
        seen.clear()
        # The hook keeps one digest per collection instead of the parsed
        # document, so checking adds little to the run's peak memory.
        doc = json.loads(out, object_pairs_hook=collection)
        total = 2 ** (n * n)
        require(doc["count"] == total, f"count {doc['count']}")
        require(len(doc["collections"]) == total, "wrong number of collections")
        require(len(seen) == total, f"only {len(seen)} distinct collections")
        seen.clear()

    return check


# ---------------------------------------------------------------------------
# geometry: lift and membership on random open-cell flags, discrepancy ledgers


def open_cell_flag(n: int, d, rng: random.Random) -> list[list[list[Fraction]]]:
    """Basis rows of V_k (k in d) for a random point of the open cell.

    X = -J S with S symmetric and zero on and below the anti-diagonal is a
    random strictly lower element of sp_2n (J X = S is symmetric), and V_k is
    spanned by w_c + sum_{r > k} X[r][c] w_r for c <= k.
    """
    two_n = 2 * n
    s = [[Fraction(0)] * two_n for _ in range(two_n)]
    for a in range(two_n):
        for b in range(a, two_n - 1 - a):
            s[a][b] = s[b][a] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    x = [[-(1 if r < n else -1) * s[two_n - 1 - r][c] for c in range(two_n)] for r in range(two_n)]
    spaces = []
    for k in d:
        rows = []
        for c in range(k):
            v = [Fraction(0)] * two_n
            v[c] = Fraction(1)
            for r in range(k, two_n):
                v[r] = x[r][c]
            rows.append(v)
        spaces.append(rows)
    return spaces


def non_member(spaces, n: int, d, rng: random.Random):
    """Replace the largest V_k (k >= 2) by a space whose projection away from
    coordinates k+1..2n-k contains w_1, ..., w_{k-1} and w_2n: it pairs w_1
    with w_2n, so the degenerate Grassmannian test must fail."""
    two_n = 2 * n
    pos = max(p for p, k in enumerate(d) if k >= 2)
    k = d[pos]
    middle = range(k, two_n - k)  # 0-indexed coordinates k+1..2n-k
    rows = []
    for lead in [*range(k - 1), two_n - 1]:
        v = [Fraction(0)] * two_n
        v[lead] = Fraction(1)
        for c in middle:
            v[c] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        rows.append(v)
    projected = [[0 if c in middle else x for c, x in enumerate(v)] for v in rows]
    require(not is_isotropic(projected, n), "constructed non-member is isotropic")
    return spaces[:pos] + [rows] + spaces[pos + 1 :]


def _write_flag(path: str, n: int, d, spaces) -> None:
    doc = {"n": n, "d": list(d), "spaces": [[[str(x) for x in row] for row in m] for m in spaces]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def geometry(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for n in FLAG_NS:
        for d in all_d(n):
            for copy in range(FLAGS_PER_D):
                spaces = open_cell_flag(n, d, rng)
                path = os.path.join(workdir, f"flag-{n}-{lam_arg(d)}-{copy}.json")
                _write_flag(path, n, d, spaces)
                ops.append(Op("lift", ["lift", "--input", path], 0, _check_lift(n, d, spaces)))
                ops.append(Op("check_geometry", ["check-geometry", "--input", path], 0,
                              _check_member(n, d, True)))
            if max(d) >= 2:
                path = os.path.join(workdir, f"nonmember-{n}-{lam_arg(d)}.json")
                _write_flag(path, n, d, non_member(spaces, n, d, rng))
                ops.append(Op("check_geometry", ["check-geometry", "--input", path], 1,
                              _check_member(n, d, False)))
    for n in DISCREPANCY_NS:
        force = ["--force"] if n > ENUM_LIMIT else []
        for d in all_d(n):
            ops.append(Op("discrepancy", ["discrepancy", "--n", str(n), "--d", lam_arg(d), *force],
                          0, _check_discrepancy))
    return ops


def _check_lift(n: int, d, spaces):
    anchors = {k: rref(m) for k, m in zip(d, spaces)}

    def inside(small, big) -> bool:
        return len(rref(big + small)) == len(big)

    def check(out: str, ctx: dict) -> None:
        comps = {}
        for key, rows in json.loads(out)["spaces"].items():
            i, j = map(int, key.split(","))
            m = parse_matrix(rows, 2 * n)
            require(len(m) == i and len(rref(m)) == i, f"V_{key} does not have dimension {i}")
            require(all(r[c] == 0 for r in m for c in range(i, j)), f"V_{key} leaves W_{key}")
            comps[(i, j)] = m
        for k, want in anchors.items():
            require(comps.get((k, k)) == want, f"V_{k},{k} differs from the input V_{k}")
        # The resolution conditions: nested columns, rows compatible with
        # the projection away from w_{j+1}, isotropy on the anti-diagonal.
        for (i, j), v in comps.items():
            if (i + 1, j) in comps:
                require(inside(v, comps[(i + 1, j)]), f"V_{i},{j} is not inside V_{i + 1},{j}")
            if (i, j + 1) in comps:
                projected = [[0 if c == j else x for c, x in enumerate(r)] for r in v]
                require(inside(projected, comps[(i, j + 1)]),
                        f"the projection of V_{i},{j} is not inside V_{i},{j + 1}")
            if i + j == 2 * n:
                require(is_isotropic(v, n), f"V_{i},{j} is not isotropic")

    return check


def _check_member(n: int, d, member: bool):
    def check(out: str, ctx: dict) -> None:
        doc = json.loads(out)
        require(doc["member"] is member, f"member is {doc['member']}, expected {member}")
        require(doc["dims"] == list(d), f"dims {doc['dims']}")

    return check


def _check_discrepancy(out: str, ctx: dict) -> None:
    doc = json.loads(out)
    require(doc["canonical_identity"] is True, "canonical identity fails")
    require(doc["rows"], "empty discrepancy table")
    for row in doc["rows"]:
        require(row["b"] >= 1, f"b_{row['i']},{row['j']} = {row['b']}")
        require((row["b"] == 1) == (not row["exceptional"]),
                f"b_{row['i']},{row['j']} = {row['b']} with exceptional = {row['exceptional']}")

