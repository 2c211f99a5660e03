"""Torus fixed points of the resolution and the localization character sum.

A fixed point is an admissible collection S = (S_{i,j}) of index sets,
S_{i,j} inside {1..i, j+1..2n} of size i, nested along columns, compatible
with the projections, and self-paired-free on the anti-diagonal.  There are
exactly two choices at every step of the tower, so 2^(n^2) collections.

`_tower(n)` is the one description of that tower, a table whose steps are
listed last first and whose states are numbered: `iter_fixed_points` walks
it and `abl_character` pushes the localization sum down it, read once per
(n, width) into `_packed_tower` with each row's shifts packed.  `ab_pair`,
`denominator_deltas`, `abl_numerator_weight` and `is_admissible` check one
collection on its own, the reference the tests compare the tower against.

The push-down packs each exponent e into one int, P(e) = sum_k e_k 2^(w k)
with signed digits (`_pack`), at the least width w that keeps every vector it
forms apart (`_packing_width`) given the bound `_exponent_bound`; a shift is
then one int addition, and the exact division by 1 - e^{-alpha}
(`_divide_by_binomial`) runs on packed exponents.  `_unpack` turns them back
into tuples once, at the end, so the character is a `Terms` dict like the
polytope's.  A sample point is its coordinate tuple, in exponent order.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import cache
from math import prod
from typing import Any

from .charring import Exponent, Terms
from .polytope import graded_character
from .rootsys import TypeC, index_pairs

Pair = tuple[int, int]
Collection = dict[Pair, frozenset[int]]
Point = tuple[Fraction, ...]  # (q, z_1, ..., z_n), in exponent order

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


def iter_fixed_points(n: int, label: Callable[[Pair, frozenset[int]], Any]) -> Iterator[list]:
    """Yield each admissible collection in tower order, as one list of labels
    in sorted-key order, rewritten in place for the next collection.

    The table of `_tower(n)` is read once, so the candidate rule runs once
    per edge, not per node, into a tree of labelled branches that an explicit
    stack walks; `label((i,j), S_{i,j})` is called once per tower branch.
    """
    keys = sorted(index_pairs(TypeC(n)))
    slots = {key: pos for pos, key in enumerate(keys)}
    # Row k of a step becomes the pair of branches (slot, label, the branches
    # below it) of state k, b first so the stack pops a first.
    below: list = [None]
    for i, j, rows in _tower(n):
        slot = slots[(i, j)]
        below = [
            ((slot, label((i, j), here_b), below[after_b]),
             (slot, label((i, j), here_a), below[after_a]))
            for here_a, after_a, here_b, after_b, _ in rows
        ]
    parts: list = [None] * len(keys)
    stack = list(below[0])
    while stack:
        slot, part, children = stack.pop()
        parts[slot] = part
        if children:
            stack.extend(children)
        else:
            yield parts


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


def wtq_component(s: frozenset[int], i: int, n: int) -> Exponent:
    """Extended weight (q, z_1..z_n) of the wedge point: the number of indices
    above i, which is its degree for the grading operator, then the torus weight."""
    if len(s) != i:
        raise ValueError(f"component of size {len(s)} at level {i}")
    w = [0] * (n + 1)
    for l in s:
        w = [a + b for a, b in zip(w, (l > i, *basis_weight(l, n)))]
    return tuple(w)


def abl_numerator_weight(coll: Collection, m_vec: tuple[int, ...], n: int) -> Exponent:
    """Extended weight of the image line; depends only on the diagonal sets."""
    w = [0] * (n + 1)
    for i, m in enumerate(m_vec, start=1):
        if m:
            w = [a + m * b for a, b in zip(w, wtq_component(coll[(i, i)], i, n))]
    return tuple(w)


def denominator_deltas(coll: Collection, n: int) -> list[Exponent]:
    """Extended weights wtq(S'_{i,j}) - wtq(S_{i,j}) over all positions."""
    return [_delta(*ab_pair(coll, i, j, n), i, n) for i, j in index_pairs(TypeC(n))]


def _delta(a: int, b: int, i: int, n: int) -> Exponent:
    """Extended weight change at level i when the sibling b replaces a."""
    wa, wb = basis_weight(a, n), basis_weight(b, n)
    return ((b > i) - (a > i), *(y - x for x, y in zip(wa, wb)))


@cache
def _tower(n: int) -> tuple[tuple[int, int, tuple], ...]:
    """The fixed-point tower: one forward pass in `index_pairs` order, and the
    only place that applies the candidate rule `_pool` to build collections.

    A state before a step holds the live components, those a later step still
    reads through `_pool`, and the distinct states before a step are numbered
    from 0 in the order they are reached.  The steps are listed last first:
    step (i,j) is `(i, j, rows)`, and row k is state k's edge
    `(S_{i,j} for a, state after a, S_{i,j} for b, state after b, Delta(a,b))`.
    A state after is a row number of the step listed just before, and 0 after
    the last step; the last-listed step has one row, for the empty state.
    """
    order = index_pairs(TypeC(n))
    last_read: dict[Pair, int] = {}
    for pos, (i, j) in enumerate(order):
        last_read[(i - 1, j)] = pos
        if i + j < 2 * n:
            last_read[(i, j + 1)] = pos
    State = tuple[frozenset[int], ...]  # the live components before a step
    steps = []
    numbers: dict[State, int] = {(): 0}
    live: list[Pair] = []
    for pos, (i, j) in enumerate(order):
        after = [p for p in live + [(i, j)] if last_read.get(p, -1) > pos]
        following: dict[State, int] = {}
        rows = []
        for key in numbers:
            coll = dict(zip(live, key))
            prev = coll.get((i - 1, j), frozenset())
            a, b = _pool(coll, i, j, n)
            branches: list = []
            for x in (a, b):
                here = coll[(i, j)] = prev | {x}
                branches += here, following.setdefault(tuple(coll[p] for p in after), len(following))
            rows.append((*branches, _delta(a, b, i, n)))
        steps.append((i, j, tuple(rows)))
        numbers, live = following, after
    return tuple(reversed(steps))


def _exponent_bound(m_vec: tuple[int, ...], n: int) -> int:
    """A bound on every coordinate of every exponent `abl_character` forms.

    Each term of a state's value lies in the convex hull of the sums, over
    the steps below it, of m_i wtq(S_ii) at each diagonal step and of 0 or
    Delta at each step: a numerator adds one of them, and a quotient stays
    between its line's ends.  A coordinate of wtq(S_ii) is within +-i (the
    q-part counts at most i indices, a z-part is within +-1) and one of Delta
    within +-2, so every coordinate is within sum_i m_i i + 2 n^2.
    """
    return sum(i * m for i, m in enumerate(m_vec, start=1)) + 2 * n * n


def _packing_width(bound: int) -> int:
    """Field width w of the packed exponent P(e) = sum_k e_k 2^(w k).

    `_divide_by_binomial` forms the exponents, each coordinate within
    +-bound, and line bases, each coordinate within +-(2 bound + 1).  P is
    injective on the vectors with coordinates within +-r exactly when
    2^w > 2r, so w is the least width with 2^w > 2 (2 bound + 1); then
    2^(w-1) > bound too, the bias at which every digit of an exponent reads
    back.
    """
    return (4 * bound + 2).bit_length()


def _pack(e: Exponent, width: int) -> int:
    """P(e) = sum_k e_k 2^(width k), with signed digits; P is linear."""
    return sum(x << (width * k) for k, x in enumerate(e))


def _unpack(terms: dict[int, int], width: int, length: int) -> dict[Exponent, int]:
    """The terms keyed by exponents e of `length` coordinates in place of P(e).

    Each coordinate must lie within +-(2^(width-1) - 1): it is one digit of
    P(e) + P(bias, .., bias) read by shift and mask, less the bias 2^(width-1).
    """
    bias = 1 << (width - 1)
    mask = (1 << width) - 1
    offset = _pack((bias,) * length, width)
    shifts = range(0, width * length, width)
    return {tuple((x + offset >> s & mask) - bias for s in shifts): c for x, c in terms.items()}


@cache
def _line_reader(alpha: Exponent, width: int) -> tuple[int, int, int, int, int, int]:
    """For `_divide_by_binomial`: P(alpha), alpha_t, and the offset, shift,
    mask and bias that read digit t of a packed exponent.  Raises ValueError
    unless alpha is nonzero with entries within +-2."""
    top = max(map(abs, alpha))
    if not 0 < top <= 2:
        raise ValueError(f"cannot divide by 1 - e^-{alpha}")
    t = next(k for k, a in enumerate(alpha) if abs(a) == top)
    bias = 1 << (width - 1)
    return _pack(alpha, width), alpha[t], _pack((bias,) * (t + 1), width), width * t, (1 << width) - 1, bias


def _divide_by_binomial(num: dict[int, int], alpha: Exponent, width: int) -> dict[int, int]:
    """Exact quotient num / (1 - e^{-alpha}) of integer Laurent polynomials
    whose exponents are packed by `_pack` at `width`.

    alpha is a nonzero exponent tuple with entries within +-2, of either
    sign, and width is `_packing_width(bound)` for a bound on every
    coordinate of num's exponents.  The terms fall on lines e + k*alpha.
    With t the first coordinate at which |alpha_t| is largest, the line
    index is k = e_t // alpha_t, e_t being one digit of e read by shift and
    mask with the bias added.  The line base e - k*alpha is one int
    subtraction, and its coordinates stay within +-(2 bound + 1), where P is
    injective.  On each line the quotient at k is the sum of the
    coefficients at k and above, so it is one running sum from the top of
    the line down; it lies between the line's ends, so within the bound.
    The division is exact iff every line sums to zero; otherwise this raises
    ArithmeticError.
    """
    step, at, biased, shift, mask, bias = _line_reader(alpha, width)
    lines: dict[int, dict[int, int]] = {}
    for e, c in num.items():
        k = ((e + biased >> shift & mask) - bias) // at
        lines.setdefault(e - k * step, {})[k] = c
    quo: dict[int, int] = {}
    for base, line in lines.items():
        bottom = min(line)
        total = 0
        for k in range(max(line), bottom, -1):
            total += line.get(k, 0)
            if total:
                quo[base + k * step] = total
        if total + line[bottom]:
            raise ArithmeticError(f"inexact Laurent division by 1 - e^-{alpha}")
    return quo


@cache
def _packed_tower(n: int, width: int) -> tuple[tuple[int, tuple], ...]:
    """`_tower(n)` with each row's shifts packed at `width`.

    Step (i,j) becomes `(i if i == j else 0, rows)`, row k
    `(after a, after b, P(wtq(S_ii)) for a, for b, P(Delta), -Delta)`; the
    wtq parts are 0 off the diagonal.
    """
    packed = []
    for i, j, rows in _tower(n):
        packed_rows = []
        for here_a, after_a, here_b, after_b, delta in rows:
            wa, wb = (_pack(wtq_component(here, i, n), width) if i == j else 0 for here in (here_a, here_b))
            packed_rows.append((after_a, after_b, wa, wb, _pack(delta, width), tuple(-d for d in delta)))
        packed.append((i if i == j else 0, tuple(packed_rows)))
    return tuple(packed)


def abl_character(m_vec: tuple[int, ...], n: int) -> Terms:
    """The localization sum as an exact Laurent polynomial in q, z_1..z_n.

    Pushes forward down the tower of `_tower`, last step first.  At a step
    with branches a, b and Delta = Delta(a,b), let g(x) be the value of the
    state after choosing x, times e^{m_i wtq(S_ii)} at a diagonal (i,i); the
    two terms g(a)/(1 - e^Delta) + g(b)/(1 - e^-Delta) sum to
    (g(a) - e^Delta g(b)) / (1 - e^Delta), one exact `_divide_by_binomial`.
    An inexact step raises ArithmeticError.  Every exponent is one int,
    packed by `_pack` at the width that `_exponent_bound(m_vec, n)` fixes, so
    a shift is one int addition; the terms are unpacked once, at the end.
    """
    width = _packing_width(_exponent_bound(m_vec, n))
    values: list[dict[int, int]] = [{0: 1}]
    for i, rows in _packed_tower(n, width):
        m = m_vec[i - 1] if i else 0
        pushed = []
        for after_a, after_b, wa, wb, delta, alpha in rows:
            shift = m * wa
            num = {e + shift: c for e, c in values[after_a].items()}
            shift = delta + m * wb
            for e, c in values[after_b].items():
                e += shift
                num[e] = num.get(e, 0) - c
            pushed.append(_divide_by_binomial(num, alpha, width))
        values = pushed
    return _unpack(values[0], width, n + 1)


def _tower_deltas(n: int) -> set[Exponent]:
    """Every Delta of the tower: the exponents of the localization denominators."""
    return {row[-1] for *_, rows in _tower(n) for row in rows}


def _sum_defined_at(pt: Point, deltas: set[Exponent]) -> bool:
    """True iff no factor 1 - e^Delta, Delta in `deltas`, vanishes at pt.

    With coordinates x_k = a_k / b_k, e^Delta = 1 iff the product of a_k^d_k
    over d_k > 0 and b_k^-d_k over d_k < 0 equals the same product with a
    and b swapped: one comparison of integers, with no Fraction built.
    """
    coords = [(x.numerator, x.denominator) for x in pt]
    for delta in deltas:
        lhs = rhs = 1
        for (a, b), d in zip(coords, delta):
            if d > 0:
                lhs *= a**d
                rhs *= b**d
            elif d < 0:
                lhs *= b**-d
                rhs *= a**-d
        if lhs == rhs:
            return False
    return True


def sample_point(n: int, rng: random.Random) -> Point:
    """Random rational point (q, z_1, ..., z_n), each a ratio of two primes <= 17.

    The 2(n+1) primes are distinct only for n <= 2.  For n >= 3 they are drawn
    with replacement, so a coordinate can be 1 and coordinates can repeat, and
    about 40% of draws at n = 3 fail the screen of `abl_verify`.
    """
    need = n + 1
    if 2 * need <= len(_PRIMES):
        picks = rng.sample(_PRIMES, 2 * need)
    else:
        picks = [rng.choice(_PRIMES) for _ in range(2 * need)]
    coords = [Fraction(picks[2 * k], picks[2 * k + 1]) for k in range(need)]
    return (coords[n], *coords[:n])


def evaluate(terms: Terms, pt: Point) -> Fraction:
    """Exact value of a character at a point, summed in integers.

    With x = a/b at a coordinate whose exponents range over lo..hi, a term
    times a^-lo b^hi is the integer c a^(e-lo) b^(hi-e); the integer sum is
    scaled back once.
    """
    lo = [min(col) for col in zip(*terms)]
    hi = [max(col) for col in zip(*terms)]
    if terms and len(lo) != len(pt):
        raise ValueError("point dimension mismatch")
    powers = [
        [x.numerator**k * x.denominator ** (h - l - k) for k in range(h - l + 1)]
        for x, l, h in zip(pt, lo, hi)
    ]
    total = 0
    for e, c in terms.items():
        for p, x, l in zip(powers, e, lo):
            c *= p[x - l]
        total += c
    return Fraction(total) * prod(
        Fraction(x.numerator) ** l * Fraction(x.denominator) ** -h
        for x, l, h in zip(pt, lo, hi)
    )


def abl_verify(m_vec: tuple[int, ...], n: int, trials: int, seed: int) -> dict:
    """Compare the localization sum with the polytope character as exact
    Laurent polynomials, and report the values at random rational points.

    `matched` comes from polynomial equality alone; both sides are in the
    direct convention, which the document's `convention` names.  On a match
    a row's two values are the character's value, on a mismatch the
    localization sum is evaluated too.  A sampled point at which the sum is
    undefined collection by collection is skipped.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    gc = graded_character(tuple(m_vec), TypeC(n))
    abl = abl_character(tuple(m_vec), n)
    matched = abl == gc
    deltas = _tower_deltas(n)
    points: list[Point] = []
    attempts = 0
    while len(points) < trials:
        attempts += 1
        if attempts > 50 * trials + 50:
            raise DenominatorZeroError("could not sample points avoiding denominator zeros")
        pt = sample_point(n, rng)
        if _sum_defined_at(pt, deltas):
            points.append(pt)
    rows = []
    for pt in points:
        rhs = evaluate(gc, pt)
        lhs = rhs if matched else evaluate(abl, pt)
        rows.append(
            {
                "z": [str(z) for z in pt[1:]],
                "q": str(pt[0]),
                "abl": str(lhs),
                "character": str(rhs),
                "equal": lhs == rhs,
            }
        )
    return {
        "n": n,
        "lambda": list(m_vec),
        "trials": trials,
        "seed": seed,
        "points": rows,
        "matched": matched,
        "convention": "direct",
    }
