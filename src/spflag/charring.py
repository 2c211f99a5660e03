"""Weyl oracles for sp_2n, and the term dicts that characters are.

A character is an integer Laurent polynomial in q and z_1..z_k, stored
sparsely as `Terms`, {(q, z_1, ..., z_k) exponent vector: int}, with no zero
coefficient kept, so two characters are equal iff their dicts are.  The
variable convention is z_i = e^{eps_i}; conversion to the omega-exponent
convention happens only in the CLI output.

The Weyl dimension is the product formula.  The Weyl character comes from
Freudenthal's recursion over the dominant weights below the highest weight,
read from the root system and the inner product alone; every division in it
is exact, and a non-integral or non-positive quotient raises ArithmeticError.
"""

from __future__ import annotations

from itertools import permutations, product

from .rootsys import TypeC, index_pairs, pairing, root_weight, weight_of

Exponent = tuple[int, ...]  # (q, z_1, ..., z_k)
Terms = dict[Exponent, int]  # a character: every coefficient nonzero


def rho(n: int) -> tuple[int, ...]:
    """Half-sum of positive roots of sp_2n in epsilon coordinates: (n,...,1)."""
    return tuple(range(n, 0, -1))


def weyl_dimension(m_vec: tuple[int, ...], n: int) -> int:
    """Dimension of the sp_2n module of highest weight sum m_i omega_i."""
    system = TypeC(n)
    lam = weight_of(tuple(m_vec), system)
    r = rho(n)
    top = bot = 1
    for i, j in index_pairs(system):
        w = root_weight(i, j, system)
        top *= sum((l + rr) * x for l, rr, x in zip(lam, r, w))
        bot *= sum(rr * x for rr, x in zip(r, w))
    dimension, remainder = divmod(top, bot)
    if remainder or dimension <= 0:
        raise ArithmeticError(f"Weyl dimension came out non-integral: {top}/{bot}")
    return dimension


def _dominant_weights_below(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Dominant weights mu <= lam of sp_2n, by increasing height of lam - mu.

    In epsilon coordinates mu is dominant iff it is nonincreasing and >= 0, and
    lam - mu is a sum of simple roots iff its partial sums s_1..s_n are >= 0
    and s_n is even; its height is s_1 + ... + s_{n-1} + s_n / 2.
    """
    found: list[tuple[int, tuple[int, ...]]] = []
    stack = [((), lam[0], 0, 0)]  # (prefix of mu, cap on the next entry, s_k, s_1 + .. + s_k)
    while stack:
        mu, cap, s, h = stack.pop()
        k = len(mu)
        if k == len(lam):
            if s % 2 == 0:
                found.append((h - s + s // 2, mu))
            continue
        for x in range(min(cap, s + lam[k]) + 1):
            stack.append(((*mu, x), x, s + lam[k] - x, h + s + lam[k] - x))
    return [mu for _, mu in sorted(found)]


def weyl_character(m_vec: tuple[int, ...], n: int) -> Terms:
    """Character of the sp_2n module as the terms of a q-free Laurent polynomial.

    Freudenthal's formula gives the multiplicity of each dominant weight mu of
    V(lambda) from those of the dominant weights above it:
        m(mu) (|lambda+rho|^2 - |mu+rho|^2)
            = 2 sum_{alpha>0} sum_{k>=1} m(mu + k alpha) (mu + k alpha, alpha),
    with m(lambda) = 1.  Multiplicities are Weyl-invariant, so each m(mu + k
    alpha) is read at the dominant representative (the absolute values sorted
    down), and each alpha-string, being unbroken, stops at its first zero.  The
    division must be exact with a positive quotient; otherwise this raises
    ArithmeticError.  Each dominant weight's multiplicity is then spread over
    its signed-permutation orbit, with q-exponent 0.
    """
    if any(m < 0 for m in m_vec):
        raise ValueError(f"highest weight {m_vec} is not dominant")
    system = TypeC(n)
    lam = weight_of(tuple(m_vec), system)
    r = rho(n)
    alphas = [root_weight(i, j, system) for i, j in index_pairs(system)]

    def norm_rho(mu: tuple[int, ...]) -> int:
        return sum((x + y) ** 2 for x, y in zip(mu, r))

    top = norm_rho(lam)
    mult = {lam: 1}
    for mu in _dominant_weights_below(lam)[1:]:  # lam itself comes first
        total = 0
        for alpha in alphas:
            v = tuple(x + a for x, a in zip(mu, alpha))
            while m := mult.get(tuple(sorted(map(abs, v), reverse=True)), 0):
                total += m * pairing(v, alpha)
                v = tuple(x + a for x, a in zip(v, alpha))
        m, rest = divmod(2 * total, top - norm_rho(mu))
        if rest or m <= 0:
            raise ArithmeticError(f"Freudenthal quotient at {mu} is not a positive integer")
        mult[mu] = m
    terms: Terms = {}
    for mu, m in mult.items():
        for p in set(permutations(mu)):
            for v in product(*((x, -x) if x else (0,) for x in p)):
                terms[(0, *v)] = m
    return terms


def eps_to_omega(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Rewrite an epsilon-exponent vector in fundamental-weight exponents."""
    n = len(exps)
    return tuple(exps[k] - (exps[k + 1] if k + 1 < n else 0) for k in range(n))
