"""Positive-root combinatorics for sl_m and sp_2n in epsilon coordinates.

Weights live in the epsilon basis throughout: for sp_2n the simple roots are
eps_i - eps_{i+1} (i < n) and 2 eps_n, and the fundamental weight omega_d is
eps_1 + ... + eps_d; P_d, the roots pairing positively with some omega_{d_l},
is read from the indices alone (`radical_pairs`).  Type A is handled at the gl
level (length-m epsilon vectors, sum unconstrained).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class TypeA:
    """Root system of sl_m, m >= 2."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"TypeA needs m >= 2, got {self.m}")


@dataclass(frozen=True)
class TypeC:
    """Root system of sp_2n, n >= 1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"TypeC needs n >= 1, got {self.n}")


RootSystem = TypeA | TypeC


def rank(system: RootSystem) -> int:
    return system.m - 1 if isinstance(system, TypeA) else system.n


def num_vars(system: RootSystem) -> int:
    """Length of epsilon-coordinate weight vectors for the system."""
    return system.m if isinstance(system, TypeA) else system.n


def is_valid_pair(i: int, j: int, system: RootSystem) -> bool:
    if isinstance(system, TypeA):
        return 1 <= i <= j <= system.m - 1
    return 1 <= i <= j and i + j <= 2 * system.n


def index_pairs(system: RootSystem) -> tuple[tuple[int, int], ...]:
    """The positive roots alpha_{i,j} as index pairs (i, j), each once: n^2 in
    type C(n), m(m-1)/2 in type A(m); in type C the range is i <= j,
    i + j <= 2n.  Columns j run descending and i ascending within a column.

    This order is a topological order in which (i-1,j) and (i,j+1) always
    precede (i,j): the one tower order.  Lattice points are ordered by it, and
    the fixed-point tower `fixedpoints._tower` is built in it and lists its
    steps reversed; `geometry.lift` and `bundles.solve_b` read it reversed,
    restricted to P_d, and `polytope.dimension` and `graded_character` walk
    the lattice points in it reversed.
    """
    pairs = []
    if isinstance(system, TypeA):
        jmax = system.m - 1
        for j in range(jmax, 0, -1):
            for i in range(1, j + 1):
                pairs.append((i, j))
    else:
        two_n = 2 * system.n
        for j in range(two_n - 1, 0, -1):
            for i in range(1, min(j, two_n - j) + 1):
                pairs.append((i, j))
    return tuple(pairs)


def root_weight(i: int, j: int, system: RootSystem) -> tuple[int, ...]:
    """Epsilon coordinates of the positive root alpha_{i,j}."""
    if isinstance(system, TypeA):
        w = [0] * system.m
        w[i - 1] += 1
        w[j] -= 1
        return tuple(w)
    n = system.n
    w = [0] * n
    if j < n:
        w[i - 1] += 1
        w[j] -= 1
    elif j == 2 * n - i:
        w[i - 1] = 2
    else:
        w[i - 1] += 1
        w[2 * n - j - 1] += 1
    return tuple(w)


def weight_of(m_vec: tuple[int, ...], system: RootSystem) -> tuple[int, ...]:
    """Epsilon coordinates of lambda = sum_i m_i omega_i."""
    if len(m_vec) != rank(system):
        raise ValueError(f"expected {rank(system)} coefficients, got {len(m_vec)}")
    nv = num_vars(system)
    out = [0] * nv
    for d, m in enumerate(m_vec, start=1):
        for k in range(d):
            out[k] += m
    return tuple(out)


def pairing(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Standard dot product on epsilon coordinates."""
    return sum(x * y for x, y in zip(a, b, strict=True))


@lru_cache(maxsize=None)
def radical_pairs(d: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    """Index pairs of P_d: the roots alpha_{i,j} with some d_l in i..j.

    These are the roots that pair positively with some omega_{d_l}: for
    j < n, alpha_{i,j} = eps_i - eps_{j+1} pairs to 1 with omega_d iff
    i <= d <= j, and for j >= n, alpha_{i,j} has nonnegative entries and
    pairs positively iff i <= d, where d <= n <= j.
    """
    check_d(d, n)
    return frozenset(
        (i, j) for i, j in index_pairs(TypeC(n)) if any(i <= dl <= j for dl in d)
    )


@lru_cache(maxsize=None)
def boundary_pairs(d: tuple[int, ...], n: int) -> frozenset[tuple[int, int]]:
    """The subset B_d of P_d: up each column d_m from row d_{m-1}+1, then along
    row d_m out to column d_{m+1}, read with d_0 = 0 and d_{k+1} = 2n-d_k."""
    check_d(d, n)
    dd = (0, *d, 2 * n - d[-1])
    out = set()
    for m in range(1, len(d) + 1):
        out.update((i, dd[m]) for i in range(dd[m - 1] + 1, dd[m] + 1))
        out.update((dd[m], j) for j in range(dd[m] + 1, dd[m + 1] + 1))
    return frozenset(out)


def check_d(d: tuple[int, ...], n: int) -> None:
    """Raise ValueError unless d is a nonempty strictly increasing list in 1..n."""
    if len(d) == 0:
        raise ValueError("empty index list d")
    if list(d) != sorted(set(d)) or d[0] < 1 or d[-1] > n:
        raise ValueError(f"d must be strictly increasing within 1..{n}, got {d}")
