"""Independent references the benchmark checks spflag's CLI outputs against.

Nothing here imports spflag: dimensions come from the Weyl product formula,
characters are evaluated term by term, and subspaces are compared through a
separate reduced row echelon form.  Every function raises `CheckFailed` with a
short reason, or returns normally.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class CheckFailed(Exception):
    """An output disagrees with an independent computation or a required property."""


def require(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


# ---------------------------------------------------------------------------
# dimensions


def weyl_dim_c(m_vec: tuple[int, ...]) -> int:
    """Dimension of the sp_2n module with highest weight sum m_i omega_i.

    Product over the positive roots e_a - e_b, e_a + e_b (a < b) and 2 e_a of
    <lambda + rho, alpha> / <rho, alpha>, with lambda_a = m_a + ... + m_n and
    rho = (n, ..., 1) in epsilon coordinates.
    """
    n = len(m_vec)
    lam = [sum(m_vec[a:]) for a in range(n)]
    rho = list(range(n, 0, -1))
    shifted = [l + r for l, r in zip(lam, rho)]
    out = Fraction(1)
    for a in range(n):
        out *= Fraction(2 * shifted[a], 2 * rho[a])
        for b in range(a + 1, n):
            out *= Fraction(shifted[a] - shifted[b], rho[a] - rho[b])
            out *= Fraction(shifted[a] + shifted[b], rho[a] + rho[b])
    require(out.denominator == 1, f"non-integral type C dimension {out}")
    return int(out)


def weyl_dim_a(m_vec: tuple[int, ...]) -> int:
    """Dimension of the sl_{r+1} module with highest weight sum m_i omega_i:
    the product over a < b of (m_a + ... + m_{b-1} + b - a) / (b - a)."""
    r = len(m_vec)
    out = Fraction(1)
    for a in range(r + 1):
        for b in range(a + 1, r + 1):
            out *= Fraction(sum(m_vec[a:b]) + b - a, b - a)
    require(out.denominator == 1, f"non-integral type A dimension {out}")
    return int(out)


# ---------------------------------------------------------------------------
# characters


def terms_by_weight(terms: list[dict]) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """JSON terms as {(q, weight): multiplicity}, rejecting repeated keys."""
    out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for t in terms:
        key = (int(t["q"]), tuple(int(x) for x in t["weight"]))
        require(key not in out, f"repeated term {key}")
        mult = Fraction(t["mult"])
        require(mult != 0, f"zero multiplicity at {key}")
        out[key] = mult
    return out


def at_q1(terms: dict) -> dict[tuple[int, ...], Fraction]:
    """Sum the multiplicities over the q-grading; drop cancelled weights."""
    out: dict[tuple[int, ...], Fraction] = {}
    for (_, w), c in terms.items():
        out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def signed_orbit_size(w: tuple[int, ...]) -> int:
    """Number of distinct vectors obtained from w by permuting and sign changes."""
    counts: dict[int, int] = {}
    for x in w:
        counts[abs(x)] = counts.get(abs(x), 0) + 1
    perms = factorial(len(w))
    for c in counts.values():
        perms //= factorial(c)
    return perms * 2 ** sum(1 for x in w if x)


def check_weyl_invariant(chars: dict[tuple[int, ...], Fraction]) -> None:
    """Multiplicities are constant on signed-permutation orbits, and every
    orbit that occurs is complete."""
    orbits: dict[tuple[int, ...], list[Fraction]] = {}
    for w, c in chars.items():
        orbits.setdefault(tuple(sorted(abs(x) for x in w)), []).append(c)
    for rep, mults in orbits.items():
        require(len(set(mults)) == 1, f"multiplicities differ on the orbit of {rep}")
        require(
            len(mults) == signed_orbit_size(rep),
            f"orbit of {rep} has {len(mults)} of {signed_orbit_size(rep)} weights",
        )


def evaluate_terms(terms: dict, zs: list[Fraction], q: Fraction) -> Fraction:
    """Exact value of sum mult * q^k * prod z_i^{w_i}."""
    total = Fraction(0)
    for (k, w), c in terms.items():
        val = c * q**k
        for z, e in zip(zs, w):
            val *= z**e
        total += val
    return total


# ---------------------------------------------------------------------------
# linear algebra


def rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form with zero rows dropped."""
    work = [list(r) for r in rows]
    out = []
    col = 0
    ncols = len(work[0]) if work else 0
    while work and col < ncols:
        piv = next((r for r in work if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        work.remove(piv)
        piv = [x / piv[col] for x in piv]
        work = [[a - r[col] * b for a, b in zip(r, piv)] for r in work]
        out = [[a - r[col] * b for a, b in zip(r, piv)] for r in out]
        out.append(piv)
        col += 1
    return out


def parse_matrix(rows: list[list[str]], width: int) -> list[list[Fraction]]:
    require(all(len(r) == width for r in rows), f"matrix rows must have length {width}")
    return [[Fraction(x) for x in r] for r in rows]


def is_isotropic(rows: list[list[Fraction]], n: int) -> bool:
    """Whether the span pairs to zero under <w_a, w_{2n+1-a}> = +1 (a <= n), -1 (a > n)."""
    two_n = 2 * n

    def form(u, v):
        return sum(
            (1 if a < n else -1) * u[a] * v[two_n - 1 - a] for a in range(two_n)
        )

    return all(form(u, v) == 0 for k, u in enumerate(rows) for v in rows[k + 1 :])
