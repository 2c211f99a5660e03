"""Formal line-bundle ledgers on the resolution tower.

Everything here is free-abelian-group bookkeeping: a bundle is an integer
vector over the determinant bundles omega_{i,j}, (i,j) in P_d, tensor product
is addition.  The divisor classes O(Z_{i,j}) expand into that basis, and
`divisor_terms` is the one place that expansion is stated.  The anticanonical
comparison determines the discrepancy coefficients b_{i,j}, and two
independent routes compute them: a closed form and a triangular solve in
column order.  The formulas indexed by d = (d_1, ..., d_k) read it with
d_0 = 0 and, where a last term is needed, one closing term d_{k+1}.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from .rootsys import TypeC, boundary_pairs, index_pairs, radical_pairs

Pair = tuple[int, int]
Ledger = dict[Pair, int]


def divisor_terms(i: int, j: int, n: int) -> Iterator[tuple[Pair, int]]:
    """The terms ((a, b), coefficient) of O(Z_{i,j}) in the omega basis, the
    one place its expansion is stated: omega_{i,j} - omega_{i-1,j}
    - omega_{i,j+1} + omega_{i-1,j+1}, with omega_{i-1,j} counted twice on the
    wall i + j = 2n.

    An index that is not a root pair (i-1 = 0, or (i, j+1) past the wall) is
    omitted, so the keys are distinct and the coefficients nonzero.
    """
    yield (i, j), 1
    if i > 1:
        yield (i - 1, j), -2 if i + j == 2 * n else -1
        yield (i - 1, j + 1), 1
    if i + j < 2 * n:
        yield (i, j + 1), -1


def tilde_omega(d: tuple[int, ...], n: int) -> Ledger:
    """Anticanonical exponents d_{l+1} - d_{l-1} at (d_l, d_l), read with d_0 = 0
    and d_{k+1} = 2n+1-d_k (for k = 1, the index of the isotropic Grassmannian)."""
    dd = (0, *d, 2 * n + 1 - d[-1])
    return {(dl, dl): dd[l + 1] - dd[l - 1] for l, dl in enumerate(d, start=1)}


def nonexceptional_pairs(d: tuple[int, ...], n: int) -> frozenset[Pair]:
    """Divisors whose image keeps full dimension: (d_l+1, d_m-1) for m >= l+2
    and (d_l+1, 2n-d_l-1) for l < k, read with d_0 = 0, that lie in P_d."""
    d = tuple(d)
    dd = (0, *d)
    out = {(a + 1, b - 1) for l, a in enumerate(dd) for b in dd[l + 2 :]}
    out |= {(a + 1, 2 * n - a - 1) for a in dd[:-1]}
    return frozenset(out & radical_pairs(d, n))


def is_exceptional(i: int, j: int, d: tuple[int, ...], n: int) -> bool:
    if (i, j) not in radical_pairs(tuple(d), n):
        raise ValueError(f"({i},{j}) is not in P_d")
    return (i, j) not in nonexceptional_pairs(tuple(d), n)


def discrepancy_b(i: int, j: int, d: tuple[int, ...], n: int) -> int:
    """Closed-form discrepancy coefficient b_{i,j}, read with d_0 = 0.

    `below` is the largest d_l < i; left of column d_k, d_s is the least d_s > j.
    From column d_k on, `prev` is the largest d_l < 2n-j.
    """
    d = tuple(d)
    if (i, j) not in radical_pairs(d, n):
        raise ValueError(f"({i},{j}) is not in P_d")
    dd = (0, *d)
    below = dd[bisect_left(d, i)]
    if j < d[-1]:
        return d[bisect_right(d, j)] - below - j + i - 1
    prev = dd[bisect_left(d, 2 * n - j)]
    if i == 2 * n - j:
        return i - prev
    return 2 * n - prev - below - j + i


def _lhs_vector(d: tuple[int, ...], n: int) -> Ledger:
    """tilde_omega minus one omega per boundary pair; a key may hold 0."""
    out: Ledger = dict(tilde_omega(d, n))
    for ij in boundary_pairs(d, n):
        out[ij] = out.get(ij, 0) - 1
    return out


def solve_b(d: tuple[int, ...], n: int) -> dict[Pair, int]:
    """Triangular solve for the b_{i,j} over P_d in reversed `index_pairs` order.

    Matching the omega_{i,j} coefficient on both sides of the comparison
    determines each b from already-known neighbours; this is the independent
    oracle for discrepancy_b.
    """
    d = tuple(d)
    pairs = radical_pairs(d, n)
    lhs = _lhs_vector(d, n)
    b: dict[Pair, int] = {}
    for i, j in reversed(index_pairs(TypeC(n))):
        if (i, j) not in pairs:
            continue
        val = lhs.get((i, j), 0)
        if (i + 1, j) in pairs:
            val += (2 if i + 1 + j == 2 * n else 1) * b[(i + 1, j)]
        if (i, j - 1) in pairs:
            val += b[(i, j - 1)]
        if (i + 1, j - 1) in pairs:
            val -= b[(i + 1, j - 1)]
        b[(i, j)] = val
    return b


def verify_canonical_identity(
    d: tuple[int, ...], n: int, b: dict[Pair, int]
) -> tuple[bool, Ledger]:
    """Check the anticanonical comparison with the coefficients `b`, the
    closed-form `discrepancy_b` of every pair of P_d (as `discrepancy_table`
    holds them).

    Expands sum b_{i,j} O(Z_{i,j}) by `divisor_terms` and subtracts the
    boundary/diagonal side; returns (True, {}) on exact match, else (False,
    residual vector).  An omega index outside P_d raises ValueError.
    """
    d = tuple(d)
    pairs = radical_pairs(d, n)
    sums: Ledger = {}
    for i, j in pairs:
        coeff = b[(i, j)]
        for key, val in divisor_terms(i, j, n):
            if key not in pairs:
                raise ValueError(f"omega index ({key[0]},{key[1]}) demanded outside P_d")
            sums[key] = sums.get(key, 0) + coeff * val
    for key, val in _lhs_vector(d, n).items():
        sums[key] = sums.get(key, 0) - val
    residual = {key: val for key, val in sums.items() if val}
    return (not residual), residual


def discrepancy_table(d: tuple[int, ...], n: int) -> list[dict]:
    """Rows (i, j, b, exceptional) sorted by (i, j), ready for CSV/JSON.

    `exceptional` is `is_exceptional`, read off one `nonexceptional_pairs`.
    """
    d = tuple(d)
    keep = nonexceptional_pairs(d, n)
    return [
        {"i": i, "j": j, "b": discrepancy_b(i, j, d, n), "exceptional": (i, j) not in keep}
        for i, j in sorted(radical_pairs(d, n))
    ]
