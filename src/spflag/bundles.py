"""Formal line-bundle ledgers on the resolution tower.

Everything here is free-abelian-group bookkeeping: a bundle is an integer
vector over the determinant bundles omega_{i,j}, (i,j) in P_d, tensor product
is addition.  The divisor classes O(Z_{i,j}) expand into that basis, the
anticanonical comparison determines the discrepancy coefficients b_{i,j}, and
two independent routes compute them: a closed-form case list and a triangular
solve in column order.
"""

from __future__ import annotations

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
    """Expansion of O(Z_{i,j}) in the omega basis.

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
    if i == 1:
        put(1, j + 1, -1)
    elif i + j < 2 * n:
        put(i - 1, j, -1)
        put(i, j + 1, -1)
        put(i - 1, j + 1, 1)
    else:
        put(i - 1, j, -2)
        put(i - 1, j + 1, 1)
    return out


def tilde_omega(d: tuple[int, ...], n: int) -> Ledger:
    """Anticanonical exponents on the diagonal indices (d_l, d_l).

    For a single index the first and last factors collide and the exponent is
    2n+1-d_1 (with d_0 = 0), matching the classical index of the isotropic
    Grassmannian.
    """
    d = tuple(d)
    k = len(d)
    if k == 1:
        return {(d[0], d[0]): 2 * n + 1 - d[0]}
    out: Ledger = {(d[0], d[0]): d[1], (d[-1], d[-1]): 2 * n + 1 - d[-1] - d[-2]}
    for l in range(1, k - 1):
        _add(out, (d[l], d[l]), d[l + 1] - d[l - 1])
    return out


def nonexceptional_pairs(d: tuple[int, ...], n: int) -> frozenset[Pair]:
    """Divisors whose image keeps full dimension."""
    d = tuple(d)
    k = len(d)
    out = {(1, 2 * n - 1)}
    for m in range(1, k):
        out.add((1, d[m] - 1))
    for l in range(k):
        for m in range(l + 2, k):
            out.add((d[l] + 1, d[m] - 1))
    for l in range(k - 1):
        out.add((d[l] + 1, 2 * n - d[l] - 1))
    return frozenset(out & radical_pairs(d, n))


def is_exceptional(i: int, j: int, d: tuple[int, ...], n: int) -> bool:
    if (i, j) not in radical_pairs(tuple(d), n):
        raise ValueError(f"({i},{j}) is not in P_d")
    return (i, j) not in nonexceptional_pairs(tuple(d), n)


def discrepancy_b(i: int, j: int, d: tuple[int, ...], n: int) -> int:
    """Closed-form discrepancy coefficient b_{i,j} (with d_0 = 0).

    Exactly one case of the region split applies: columns left of d_k, the
    band between d_k and the anti-diagonal wall, and the wall region where the
    anti-diagonal entry i = 2n-j is its own case.
    """
    d = tuple(d)
    if (i, j) not in radical_pairs(d, n):
        raise ValueError(f"({i},{j}) is not in P_d")
    k = len(d)
    dd = (0,) + d  # dd[l] = d_l with d_0 = 0

    def band(i0: int) -> int:
        """l with d_l + 1 <= i0 <= d_{l+1}."""
        for l in range(k):
            if dd[l] + 1 <= i0 <= dd[l + 1]:
                return l
        raise ValueError(f"row {i0} matches no case")

    if j < d[-1]:
        for s in range(2, k + 1):
            if dd[s - 1] <= j <= dd[s] - 1:
                return dd[s] - dd[band(i)] - j + i - 1
        raise ValueError(f"column {j} matches no case")
    if j < 2 * n - d[-1]:
        return 2 * n - d[-1] - dd[band(i)] - j + i
    for s in range(1, k + 1):
        if 2 * n - dd[s] <= j <= 2 * n - dd[s - 1] - 1:
            if i == 2 * n - j:
                return 2 * n - j - dd[s - 1]
            if dd[s - 1] + 1 <= i <= dd[s] - 1:
                return 2 * n - 2 * dd[s - 1] - j + i
            for l in range(1, s):
                if dd[l - 1] + 1 <= i <= dd[l]:
                    return 2 * n - dd[s - 1] - dd[l - 1] - j + i
    raise ValueError(f"({i},{j}) matches no case")


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
