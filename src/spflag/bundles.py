"""Formal line-bundle ledgers on the resolution tower.

Everything here is free-abelian-group bookkeeping: a bundle is an integer
vector over the determinant bundles omega_{i,j}, (i,j) in P_d, tensor product
is addition.  The divisor classes O(Z_{i,j}) expand into that basis, the
anticanonical comparison determines the discrepancy coefficients b_{i,j}, and
two independent routes compute them: a closed form and a triangular solve in
column order.  The formulas indexed by d = (d_1, ..., d_k) read it with
d_0 = 0 and, where a last term is needed, one closing term d_{k+1}.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .rootsys import TypeC, boundary_pairs, index_pairs, radical_pairs

Pair = tuple[int, int]
Ledger = dict[Pair, int]


def _add(ledger: Ledger, key: Pair, val: int) -> None:
    s = ledger.get(key, 0) + val
    if s:
        ledger[key] = s
    else:
        ledger.pop(key, None)


def divisor_class(i: int, j: int, d: tuple[int, ...], n: int) -> Ledger:
    """Expansion of O(Z_{i,j}) in the omega basis: omega_{i,j} - omega_{i-1,j}
    - omega_{i,j+1} + omega_{i-1,j+1}, with omega_{i-1,j} counted twice on the
    wall i + j = 2n.

    Indices that are not valid root pairs (j+1 past the wall, or i-1 = 0) are
    simply omitted; every surviving index is required to lie in P_d.
    """
    d = tuple(d)
    pairs = radical_pairs(d, n)
    if (i, j) not in pairs:
        raise ValueError(f"({i},{j}) is not in P_d")
    out: Ledger = {}

    def put(a: int, b: int, val: int) -> None:
        if a < 1 or a > b or a + b > 2 * n:
            return
        if (a, b) not in pairs:
            raise ValueError(f"omega index ({a},{b}) demanded outside P_d")
        _add(out, (a, b), val)

    put(i, j, 1)
    put(i - 1, j, -2 if i + j == 2 * n else -1)
    put(i, j + 1, -1)
    put(i - 1, j + 1, 1)
    return out


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
    out: Ledger = dict(tilde_omega(d, n))
    for ij in boundary_pairs(d, n):
        _add(out, ij, -1)
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

    Expands sum b_{i,j} O(Z_{i,j}) and subtracts the boundary/diagonal side;
    returns (True, {}) on exact match, else (False, residual vector).
    """
    d = tuple(d)
    residual: Ledger = {}
    for i, j in radical_pairs(d, n):
        coeff = b[(i, j)]
        for key, val in divisor_class(i, j, d, n).items():
            _add(residual, key, coeff * val)
    for key, val in _lhs_vector(d, n).items():
        _add(residual, key, -val)
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
