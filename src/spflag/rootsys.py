"""Positive-root combinatorics for sp_2n and its Levi gl_n, in epsilon coordinates.

Weights live in the epsilon basis throughout: for sp_2n the simple roots are
eps_i - eps_{i+1} (i < n) and 2 eps_n, and the fundamental weight omega_d is
eps_1 + ... + eps_d; P_d, the roots pairing positively with some omega_{d_l},
is read from the indices alone (`radical_pairs`).

One rule states the positive roots of both systems.  Number the basis of
C^2n as w_1..w_2n, with torus weights eps_1..eps_n, -eps_n..-eps_1
(`basis_weight`).  A root is an index pair (i, j) with i <= j, i + j <= 2n
and j at most the last column, and alpha_{i,j} = wt(w_i) - wt(w_{j+1}).  The
last column is 2n - 1 for sp_2n (type C(n)) and n - 1 for sl_n (type A(n)),
which is handled at the gl_n level (length-n epsilon vectors, sum
unconstrained): type A(n) is the part j < n of type C(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import sub


@dataclass(frozen=True)
class TypeA:
    """Root system of sl_n, n >= 2: the gl_n Levi of sp_2n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"TypeA needs n >= 2, got {self.n}")


@dataclass(frozen=True)
class TypeC:
    """Root system of sp_2n, n >= 1."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"TypeC needs n >= 1, got {self.n}")


RootSystem = TypeA | TypeC


def _last_column(system: RootSystem) -> int:
    """The largest j of a pair (i, j): n - 1 in type A(n), 2n - 1 in type C(n)."""
    return system.n - 1 if isinstance(system, TypeA) else 2 * system.n - 1


def rank(system: RootSystem) -> int:
    """The number of simple roots, the pairs (i, i)."""
    return min(system.n, _last_column(system))


def index_pairs(system: RootSystem) -> tuple[tuple[int, int], ...]:
    """The positive roots alpha_{i,j} as index pairs (i, j), each once: the
    pairs with i <= j, i + j <= 2n and j at most the last column, n^2 in type
    C(n) and n(n-1)/2 in type A(n).  Columns j run descending and i ascending
    within a column.

    This order is a topological order in which (i-1,j) and (i,j+1) always
    precede (i,j): the one tower order.  Lattice points are ordered by it, and
    the fixed-point tower `fixedpoints._tower` is built in it and lists its
    steps reversed; `geometry.lift` and `bundles.solve_b` read it reversed,
    restricted to P_d, and `polytope.dimension` and `graded_character` walk
    the lattice points in it reversed.
    """
    two_n = 2 * system.n
    pairs = []
    for j in range(_last_column(system), 0, -1):
        for i in range(1, min(j, two_n - j) + 1):
            pairs.append((i, j))
    return tuple(pairs)


def basis_weight(l: int, n: int) -> tuple[int, ...]:
    """Torus weight of w_l: eps_l for l <= n, -eps_{2n+1-l} beyond."""
    w = [0] * n
    if l <= n:
        w[l - 1] = 1
    else:
        w[2 * n - l] = -1
    return tuple(w)


def root_weight(i: int, j: int, system: RootSystem) -> tuple[int, ...]:
    """Epsilon coordinates of the positive root alpha_{i,j} = wt(w_i) - wt(w_{j+1})."""
    return tuple(map(sub, basis_weight(i, system.n), basis_weight(j + 1, system.n)))


def weight_of(m_vec: tuple[int, ...], system: RootSystem) -> tuple[int, ...]:
    """Epsilon coordinates of lambda = sum_i m_i omega_i."""
    if len(m_vec) != rank(system):
        raise ValueError(f"expected {rank(system)} coefficients, got {len(m_vec)}")
    out = [0] * system.n
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
