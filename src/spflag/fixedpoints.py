"""Torus fixed points of the resolution and the localization character sum.

A fixed point is an admissible collection S = (S_{i,j}) of index sets,
S_{i,j} inside {1..i, j+1..2n} of size i, nested along columns, compatible
with the projections, and self-paired-free on the anti-diagonal.  There are
exactly two choices at every step of the tower, so 2^(n^2) collections.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .charring import LaurentPoly, RationalPoint, _divide_by_binomial, evaluate_monomial
from .geometry import ResolutionPoint, Subspace
from .polytope import graded_character
from .rootsys import TypeC, index_pairs

Pair = tuple[int, int]
Collection = dict[Pair, frozenset[int]]
State = tuple[frozenset[int], ...]  # the live components before a tower step

_PRIMES = (2, 3, 5, 7, 11, 13, 17)


class DenominatorZeroError(ArithmeticError):
    """Sampling found too few points at which no localization denominator vanishes."""


def _ambient(i: int, j: int, n: int) -> frozenset[int]:
    return frozenset(range(1, i + 1)) | frozenset(range(j + 1, 2 * n + 1))


def _pool(coll: Collection, i: int, j: int, n: int) -> list[int]:
    """The candidates for the new element at (i,j), sorted, given the earlier
    components S_{i-1,j} and S_{i,j+1}.  Raises ValueError unless there are
    exactly two, which signals a corrupted collection."""
    prev = coll.get((i - 1, j), frozenset())
    if i + j < 2 * n:
        pool = (coll[(i, j + 1)] | {j + 1}) - prev
    else:
        partners = {2 * n + 1 - l for l in prev}
        pool = _ambient(i, j, n) - prev - partners
    if len(pool) != 2:
        raise ValueError(f"candidate set at ({i},{j}) has size {len(pool)}, not 2")
    return sorted(pool)


def enumerate_fixed_points(n: int) -> list[Collection]:
    """All admissible collections, built in tower order."""
    order = index_pairs(TypeC(n))
    out: list[Collection] = []

    def walk(partial: Collection, pos: int) -> None:
        if pos == len(order):
            out.append(dict(partial))
            return
        i, j = order[pos]
        prev = partial.get((i - 1, j), frozenset())
        for x in _pool(partial, i, j, n):
            partial[(i, j)] = prev | {x}
            walk(partial, pos + 1)
            del partial[(i, j)]

    walk({}, 0)
    return out


def is_admissible(coll: Collection, n: int) -> bool:
    """Direct check of the three fixed-point conditions on a full collection."""
    order = index_pairs(TypeC(n))
    if set(coll) != set(order):
        return False
    for i, j in order:
        s = coll[(i, j)]
        if len(s) != i or not s <= _ambient(i, j, n):
            return False
        if (i + 1, j) in coll and not s <= coll[(i + 1, j)]:
            return False
        if (i, j + 1) in coll and not s <= coll[(i, j + 1)] | {j + 1}:
            return False
        if i + j == 2 * n and any(2 * n + 1 - l in s for l in s):
            return False
    return True


def ab_pair(coll: Collection, i: int, j: int, n: int) -> tuple[int, int]:
    """The pair (a,b) at (i,j): S_{i,j} = S_{i-1,j} + {a}, b the sibling choice.

    Raises ValueError when the candidate set does not have exactly two
    elements split one-in/one-out, which signals a corrupted collection.
    """
    pool = _pool(coll, i, j, n)
    prev = coll.get((i - 1, j), frozenset())
    here = coll[(i, j)]
    inside = [x for x in pool if x in here]
    outside = [x for x in pool if x not in here]
    if len(inside) != 1 or len(outside) != 1 or here != prev | {inside[0]}:
        raise ValueError(f"collection is inconsistent at ({i},{j})")
    return inside[0], outside[0]


def basis_weight(l: int, n: int) -> tuple[int, ...]:
    """Torus weight of w_l: eps_l for l <= n, -eps_{2n+1-l} beyond."""
    w = [0] * n
    if l <= n:
        w[l - 1] = 1
    else:
        w[2 * n - l] = -1
    return tuple(w)


def wtq_component(s: frozenset[int], i: int, n: int) -> tuple[tuple[int, ...], int]:
    """Extended weight of the wedge point: torus weight plus the number of
    indices above i, which is its degree for the grading operator."""
    if len(s) != i:
        raise ValueError(f"component of size {len(s)} at level {i}")
    w = [0] * n
    qdeg = 0
    for l in s:
        bw = basis_weight(l, n)
        w = [a + b for a, b in zip(w, bw)]
        if l > i:
            qdeg += 1
    return tuple(w), qdeg


def abl_numerator_weight(
    coll: Collection, m_vec: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], int]:
    """Extended weight of the image line; depends only on the diagonal sets."""
    w = [0] * n
    qdeg = 0
    for i, m in enumerate(m_vec, start=1):
        if m:
            cw, cq = wtq_component(coll[(i, i)], i, n)
            w = [a + m * b for a, b in zip(w, cw)]
            qdeg += m * cq
    return tuple(w), qdeg


def denominator_deltas(coll: Collection, n: int) -> list[tuple[tuple[int, ...], int]]:
    """Extended weights wtq(S'_{i,j}) - wtq(S_{i,j}) over all positions."""
    return [_delta(*ab_pair(coll, i, j, n), i, n) for i, j in index_pairs(TypeC(n))]


def _delta(a: int, b: int, i: int, n: int) -> tuple[tuple[int, ...], int]:
    """Extended weight change at level i when the sibling b replaces a."""
    wa, wb = basis_weight(a, n), basis_weight(b, n)
    return tuple(y - x for x, y in zip(wa, wb)), (b > i) - (a > i)


@cache
def _tower(n: int) -> tuple[tuple, frozenset]:
    """Forward pass over the tower in `index_pairs` order.

    A state before a step holds the live components, those a later step still
    reads through `_pool`.  Per step (i,j), lists one edge per distinct state:
    the state, its branch (S_{i,j}, state after) for a and for b, and
    Delta(a,b).  Also returns the set of these edge weights.
    """
    order = index_pairs(TypeC(n))
    last_read: dict[Pair, int] = {}
    for pos, (i, j) in enumerate(order):
        last_read[(i - 1, j)] = pos
        if i + j < 2 * n:
            last_read[(i, j + 1)] = pos
    steps = []
    keys: dict[State, None] = {(): None}
    live: list[Pair] = []
    for pos, (i, j) in enumerate(order):
        after = [p for p in live + [(i, j)] if last_read.get(p, -1) > pos]
        edges = []
        for key in keys:
            coll = dict(zip(live, key))
            prev = coll.get((i - 1, j), frozenset())
            a, b = _pool(coll, i, j, n)
            branches = []
            for x in (a, b):
                here = coll[(i, j)] = prev | {x}
                branches.append((here, tuple(coll[p] for p in after)))
            edges.append((key, tuple(branches), _delta(a, b, i, n)))
        steps.append((i, j, tuple(edges)))
        keys, live = dict.fromkeys(s for _, branches, _ in edges for _, s in branches), after
    return tuple(steps), frozenset(delta for *_, edges in steps for *_, delta in edges)


def abl_character(m_vec: tuple[int, ...], n: int) -> LaurentPoly:
    """The localization sum as an exact Laurent polynomial in q, z_1..z_n.

    Pushes forward down the tower of `_tower`, last step first.  At a step
    with branches a, b and Delta = Delta(a,b), let g(x) be the value of the
    state after choosing x, times e^{m_i wtq(S_ii)} at a diagonal (i,i); the
    two terms g(a)/(1 - e^Delta) + g(b)/(1 - e^-Delta) sum to
    (g(a) - e^Delta g(b)) / (1 - e^Delta), one exact `_divide_by_binomial`.
    Exponent vectors are (q, z_1..z_n); an inexact step raises ArithmeticError.
    """
    steps, _ = _tower(n)
    zero = (0,) * (n + 1)
    values: dict[State, dict[tuple[int, ...], int]] = {(): {zero: 1}}
    for i, j, edges in reversed(steps):
        pushed = {}
        for key, branches, (dz, dq) in edges:
            num: dict[tuple[int, ...], int] = {}
            for (here, state), sign, shift in zip(branches, (1, -1), (zero, (dq, *dz))):
                if i == j and m_vec[i - 1]:
                    w, qdeg = wtq_component(here, i, n)
                    shift = tuple(s + m_vec[i - 1] * e for s, e in zip(shift, (qdeg, *w)))
                for e, c in values[state].items():
                    e = tuple(u + v for u, v in zip(e, shift))
                    num[e] = num.get(e, 0) + sign * c
            num = {e: c for e, c in num.items() if c}
            pushed[key] = _divide_by_binomial(num, (-dq, *(-e for e in dz)))
        values = pushed
    return LaurentPoly(n, {(e[0], e[1:]): c for e, c in values[()].items()})


def _sum_defined_at(pt: RationalPoint, n: int) -> bool:
    """True iff no factor 1 - e^Delta of the localization sum vanishes at pt."""
    return all(evaluate_monomial(pt, *delta) != 1 for delta in _tower(n)[1])


def sample_point(n: int, rng: random.Random) -> RationalPoint:
    """Random small-height rational point, preferring distinct primes."""
    need = n + 1
    if 2 * need <= len(_PRIMES):
        picks = rng.sample(_PRIMES, 2 * need)
    else:
        picks = [rng.choice(_PRIMES) for _ in range(2 * need)]
    coords = [Fraction(picks[2 * k], picks[2 * k + 1]) for k in range(need)]
    return RationalPoint(tuple(coords[:n]), coords[n])


def abl_verify(m_vec: tuple[int, ...], n: int, trials: int, seed: int) -> dict:
    """Compare the localization sum with the polytope character at random
    rational points; on systematic mismatch retry once with inverted
    variables and report which convention matched.

    The sum is built once by `abl_character`; a sampled point at which it is
    undefined collection by collection is skipped.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    gc = graded_character(tuple(m_vec), TypeC(n))
    abl = abl_character(tuple(m_vec), n)
    points: list[RationalPoint] = []
    attempts = 0
    while len(points) < trials:
        attempts += 1
        if attempts > 50 * trials + 50:
            raise DenominatorZeroError("could not sample points avoiding denominator zeros")
        pt = sample_point(n, rng)
        if _sum_defined_at(pt, n):
            points.append(pt)
    character = [gc.evaluate(pt) for pt in points]

    def rows_for(values: list[Fraction]) -> list[dict]:
        return [
            {
                "z": [str(z) for z in pt.zs],
                "q": str(pt.q),
                "abl": str(lhs),
                "character": str(rhs),
                "equal": lhs == rhs,
            }
            for pt, lhs, rhs in zip(points, values, character)
        ]

    rows = rows_for([abl.evaluate(pt) for pt in points])
    convention = "direct"
    if not all(r["equal"] for r in rows):
        inv_rows = rows_for([abl.evaluate(pt.inverted()) for pt in points])
        if all(r["equal"] for r in inv_rows):
            rows, convention = inv_rows, "inverted"
    return {
        "n": n,
        "lambda": list(m_vec),
        "trials": trials,
        "seed": seed,
        "points": rows,
        "matched": all(r["equal"] for r in rows),
        "convention": convention,
    }


def realization(coll: Collection, n: int) -> ResolutionPoint:
    """Coordinate resolution point spanned by the indexed basis vectors."""
    spaces = {
        ij: Subspace.coordinate(s, 2 * n) for ij, s in coll.items()
    }
    return ResolutionPoint(n, tuple(range(1, n + 1)), spaces)
