"""Torus fixed points of the resolution and the localization character sum.

A fixed point is an admissible collection S = (S_{i,j}) of index sets,
S_{i,j} inside {1..i, j+1..2n} of size i, nested along columns, compatible
with the projections, and self-paired-free on the anti-diagonal.  There are
exactly two choices at every step of the tower, so 2^(n^2) collections.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .charring import LaurentPoly, RationalPoint, evaluate_monomial
from .geometry import ResolutionPoint, Subspace
from .polytope import graded_character
from .rootsys import TypeC, index_pairs

Pair = tuple[int, int]
Collection = dict[Pair, frozenset[int]]

_PRIMES = (2, 3, 5, 7, 11, 13, 17)


class DenominatorZeroError(ArithmeticError):
    """A localization denominator vanished; resample the evaluation point."""


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


def abl_evaluate(
    m_vec: tuple[int, ...],
    pt: RationalPoint,
    n: int,
    inverted: bool = False,
) -> Fraction:
    """Exact value of the localization sum at a rational point.

    The sum runs over the tower in `index_pairs` order.  The two branches at
    (i,j) divide by 1 - e^Delta(a,b), and at a diagonal (i,i) the branch also
    multiplies by e^{m_i wtq(S_ii)}; each factor reads only S_{i-1,j} and
    S_{i,j+1}, so partial sums are merged on the components a later step
    still reads.  Every edge of the tower is evaluated whatever m_vec is, so
    DenominatorZeroError is raised exactly when some factor 1 - e^Delta of
    some collection vanishes at the point; callers resample.  With
    inverted=True the whole sum is read in the variables z -> 1/z, q -> 1/q.
    """
    if len(pt.zs) != n:
        raise ValueError("point dimension mismatch")
    if inverted:
        pt = pt.inverted()
    order = index_pairs(TypeC(n))
    last_read: dict[Pair, int] = {}
    for pos, (i, j) in enumerate(order):
        last_read[(i - 1, j)] = pos
        if i + j < 2 * n:
            last_read[(i, j + 1)] = pos
    # states: the live components before a step -> sum of the partial products
    states: dict[tuple[frozenset[int], ...], Fraction] = {(): Fraction(1)}
    live: list[Pair] = []
    for pos, (i, j) in enumerate(order):
        after = [p for p in live + [(i, j)] if last_read.get(p, -1) > pos]
        merged: dict[tuple[frozenset[int], ...], Fraction] = {}
        for key, value in states.items():
            coll = dict(zip(live, key))
            prev = coll.get((i - 1, j), frozenset())
            pool = _pool(coll, i, j, n)
            for a, b in (pool, pool[::-1]):
                factor = 1 - evaluate_monomial(pt, *_delta(a, b, i, n))
                if factor == 0:
                    raise DenominatorZeroError(f"denominator vanished at {pt}")
                here = coll[(i, j)] = prev | {a}
                term = value / factor
                if i == j and m_vec[i - 1]:
                    term *= evaluate_monomial(pt, *wtq_component(here, i, n)) ** m_vec[i - 1]
                nxt = tuple(coll[p] for p in after)
                merged[nxt] = merged.get(nxt, 0) + term
        states, live = merged, after
    return sum(states.values(), Fraction(0))


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

    A sampled point at which some denominator vanishes is skipped.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    gc = graded_character(tuple(m_vec), TypeC(n))
    points: list[RationalPoint] = []
    direct: list[Fraction] = []
    attempts = 0
    while len(points) < trials:
        attempts += 1
        if attempts > 50 * trials + 50:
            raise DenominatorZeroError(
                "could not sample points avoiding denominator zeros"
            )
        pt = sample_point(n, rng)
        try:
            direct.append(abl_evaluate(m_vec, pt, n))
        except DenominatorZeroError:
            continue
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

    rows = rows_for(direct)
    convention = "direct"
    if not all(r["equal"] for r in rows):
        inv_rows = rows_for([abl_evaluate(m_vec, pt, n, inverted=True) for pt in points])
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


def sl2_closed_form_check(m: int) -> bool:
    """Symbolic n=1 identity: the two-point localization sum equals
    sum_k q^k z^{m-2k}, checked after clearing denominators."""

    def mono(e, q=0):
        return LaurentPoly.monomial(1, 1, (e,), q)

    one = LaurentPoly.one(1)
    target = LaurentPoly(1, {(k, (m - 2 * k,)): Fraction(1) for k in range(m + 1)})
    # summand denominators 1 - q z^-2 and 1 - q^-1 z^2
    d1 = one - mono(-2, 1)
    d2 = one - mono(2, -1)
    lhs = mono(m) * d2 + mono(-m, m) * d1
    return lhs == target * d1 * d2
