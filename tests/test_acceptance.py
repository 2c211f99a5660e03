"""Acceptance suite: one check per criterion, exact tolerances, timed budgets.

Run under pytest (``pytest tests/test_acceptance.py -v -s``) or standalone
(``python3 tests/test_acceptance.py``); either way each criterion prints one
PASS/FAIL line.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as Q
from functools import cache
from itertools import combinations, product

from spflag.bundles import (
    discrepancy_b,
    is_exceptional,
    solve_b,
    verify_canonical_identity,
)
from spflag.charring import weyl_character, weyl_dimension
from spflag.fixedpoints import (
    abl_character,
    abl_verify,
    is_admissible,
)
from spflag.geometry import (
    FlagPoint,
    in_resolution,
    in_sp_flag_a,
    in_sp_grass_a,
    lift,
    project_away,
)
from spflag.polytope import (
    dimension,
    graded_character,
    lattice_points,
    polytope_spec,
)
from spflag.rootsys import TypeC, radical_pairs

from support import (
    all_d,
    at_q1,
    coordinate_span,
    fixed_points,
    isotropy_transport_check,
    perp,
    phi_point_embed,
    random_isotropic,
    random_sl_flag,
    random_sp_flag,
    realization,
    sigma_involution,
)


def weights_up_to(n: int, total: int):
    out = [
        m for m in product(range(total + 1), repeat=n) if sum(m) <= total
    ]
    return sorted(out)


def _report(num: int, description: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {description} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def test_criterion_1_dimension_oracle():
    start = time.time()
    ok = True
    for n, total in ((2, 3), (3, 2), (4, 2)):
        for lam in weights_up_to(n, total):
            ok = ok and dimension(lam, TypeC(n)) == weyl_dimension(lam, n)
    ok = ok and dimension((1, 1, 1, 1), TypeC(4)) == weyl_dimension((1, 1, 1, 1), 4)
    ok = ok and dimension((1, 0), TypeC(2)) == 4
    ok = ok and dimension((0, 1), TypeC(2)) == 5
    ok = ok and dimension((1, 1), TypeC(2)) == 16
    ok = ok and dimension((0, 1, 0), TypeC(3)) == 14
    _report(1, "lattice-point count equals Weyl dimension", ok, time.time() - start, 60)


def test_criterion_2_character_oracle():
    start = time.time()
    ok = True
    for n, total in ((2, 3), (3, 2), (4, 2)):
        for lam in weights_up_to(n, total):
            lhs = at_q1(graded_character(lam, TypeC(n)))
            ok = ok and lhs == weyl_character(lam, n)
    rho = at_q1(graded_character((1, 1, 1, 1), TypeC(4)))
    ok = ok and rho == weyl_character((1, 1, 1, 1), 4)
    _report(2, "graded character at q=1 equals Weyl character", ok, time.time() - start, 120)


def _abl_matches(cases) -> bool:
    """The localization polynomial equals the graded character term for term,
    and one sampled abl_verify per n (20 exact trials, 3 from n = 4) agrees."""
    ok = all(abl_character(lam, n) == graded_character(lam, TypeC(n)) for n, lam in cases)
    for n in sorted({n for n, _ in cases}):
        lam = max(lam for m, lam in cases if m == n)
        report = abl_verify(lam, n, trials=20 if n < 4 else 3, seed=20_000 + n)
        ok = ok and report["matched"] and all(r["equal"] for r in report["points"])
    return ok


def test_criterion_3_localization_identity():
    start = time.time()
    ok = all(
        abl_character((m,), 1) == {(k, m - 2 * k): 1 for k in range(m + 1)}
        for m in range(6)
    )
    cases = [(2, lam) for lam in weights_up_to(2, 2)]
    cases += [(3, (1, 0, 0)), (3, (0, 1, 0)), (3, (0, 0, 1))]
    ok = ok and _abl_matches(cases)
    _report(3, "fixed-point sum equals graded character as polynomials", ok, time.time() - start, 600)


def test_criterion_3_localization_identity_n4():
    start = time.time()
    cases = [(4, lam) for lam in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))]
    cases += [(5, tuple(int(k == i) for k in range(5))) for i in range(5)]
    ok = _abl_matches(cases)
    _report(3, "fixed-point sum equals graded character at n = 4 and 5", ok, time.time() - start, 600)


def test_criterion_4_fixed_point_census():
    start = time.time()
    ok = True
    for n, expected in ((1, 2), (2, 16), (3, 512)):
        colls = list(fixed_points(n))
        ok = ok and len(colls) == expected
        for coll in colls:
            ok = ok and is_admissible(coll, n)
            ok = ok and in_resolution(realization(coll, n))
    _report(4, "census 2/16/512, admissible, realizations in resolution", ok, time.time() - start, 120)


def test_criterion_5_discrepancy_suite():
    start = time.time()
    ok = True
    for n in (1, 2, 3, 4):
        for d in all_d(n):
            pairs = radical_pairs(d, n)
            solved = solve_b(d, n)
            closed = {(i, j): discrepancy_b(i, j, d, n) for (i, j) in pairs}
            for (i, j), b in closed.items():
                ok = ok and b >= 1
                ok = ok and (b == 1) == (not is_exceptional(i, j, d, n))
                ok = ok and solved[(i, j)] == b
            identity_ok, _ = verify_canonical_identity(d, n, closed)
            ok = ok and identity_ok
    for n in (2, 3, 4):
        d = tuple(range(1, n + 1))
        for (i, j) in radical_pairs(d, n):
            a = discrepancy_b(i, j, d, n) - 1
            ok = ok and (a == 1) == (j >= n and i + j < 2 * n)
    _report(5, "discrepancies positive, =1 iff non-exceptional, identity holds", ok, time.time() - start, 30)


def test_criterion_6_geometry_round_trips():
    start = time.time()
    ok = True
    rng = random.Random(606)
    for n in (1, 2, 3):
        for d in all_d(n):
            for _ in range(100):
                flag = random_sp_flag(d, n, rng)
                res = lift(flag, n)
                back = tuple(res.spaces[dl, dl] for dl in res.d)
                ok = ok and res.d == flag.d and back == flag.spaces
    for _ in range(50):
        spaces = random_sl_flag(6, rng)
        ok = ok and sigma_involution(sigma_involution(spaces)) == spaces
        n = 3
        flag = random_sp_flag((1, 2, 3), n, rng)
        ext = list(flag.spaces) + [perp(flag.spaces[n - 1 - k], n) for k in range(1, n)]
        fixed = sigma_involution(ext) == ext
        flagcond = all(
            ext[i].contains(project_away(ext[i - 1], [i + 1]))
            for i in range(1, 2 * n - 1)
        )
        trunc = in_sp_flag_a(FlagPoint((1, 2, 3), tuple(ext[:n])), n)
        ok = ok and fixed and flagcond and trunc
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        u = random_isotropic(n, k, rng)
        s = Q(rng.randint(1, 9), rng.randint(1, 9))
        ok = ok and isotropy_transport_check(u, s, n, k)
    _report(6, "lift round-trips x100 per (n,d), sigma^2=id x50, transport x30", ok, time.time() - start, 60)


def test_criterion_7_polytope_embedding():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        for lam in weights_up_to(n, 2):
            spec = polytope_spec(lam, TypeC(n))
            images = set()
            for point in lattice_points(spec):
                image, _ = phi_point_embed(point, lam, n)  # raises on violation
                images.add(image)
            ok = ok and len(images) == dimension(lam, TypeC(n))
    _report(7, "symplectic points embed into the type-A polytope", ok, time.time() - start, 120)


def _coordinate_members(d: tuple[int, ...], n: int) -> list[FlagPoint]:
    """Coordinate flags (w_{S_1}, ..., w_{S_k}) of SpF^a_d: each w_S passes
    the Grassmannian test, and S_l without d_l < x <= d_{l+1} lies in S_{l+1}."""

    @cache
    def space(s):
        return coordinate_span(s, 2 * n)

    level = [()]
    for l, k in enumerate(d):
        grass = [s for s in combinations(range(1, 2 * n + 1), k) if in_sp_grass_a(space(s), k, n)]
        level = [
            sets + (s,)
            for sets in level
            for s in grass
            if not sets or {x for x in sets[-1] if not d[l - 1] < x <= k} <= set(s)
        ]
    return [FlagPoint(d, tuple(map(space, sets))) for sets in level]


# The coordinate members at n = 4 for each d with a gap d_{l+1} - d_l > 1.
GAP_MEMBERS_4 = {(1, 3): 164, (1, 4): 88, (2, 4): 164, (1, 2, 4): 460, (1, 3, 4): 488}
# Every GAP_STRIDE-th of those members is lifted, keeping this near 5 s.
GAP_STRIDE = 4


def test_criterion_8_gap_coordinate_lifts():
    start = time.time()
    ok = True
    n = 4
    gap = [d for d in all_d(n) if any(b - a > 1 for a, b in zip(d, d[1:]))]
    ok = ok and sorted(gap) == sorted(GAP_MEMBERS_4)
    members = []
    for d in gap:
        flags = _coordinate_members(d, n)
        ok = ok and len(flags) == GAP_MEMBERS_4[d]
        members += flags
    for flag in members[::GAP_STRIDE]:
        ok = ok and in_sp_flag_a(flag, n)
        if ok:
            res = lift(flag, n)
            ok = FlagPoint(res.d, tuple(res.spaces[dl, dl] for dl in res.d)) == flag
    _report(8, f"lift every {GAP_STRIDE}th of the 1,364 gap-d coordinate members at n = 4", ok, time.time() - start, 60)


ALL = [
    test_criterion_1_dimension_oracle,
    test_criterion_2_character_oracle,
    test_criterion_3_localization_identity,
    test_criterion_3_localization_identity_n4,
    test_criterion_4_fixed_point_census,
    test_criterion_5_discrepancy_suite,
    test_criterion_6_geometry_round_trips,
    test_criterion_7_polytope_embedding,
    test_criterion_8_gap_coordinate_lifts,
]


if __name__ == "__main__":
    failures = 0
    for check in ALL:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"  -> {exc}")
    raise SystemExit(1 if failures else 0)
