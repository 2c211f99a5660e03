"""Dyck-path inequalities, lattice-point enumeration and graded characters.

A path starts at a simple root and moves alpha_{p,q} -> alpha_{p,q+1} or
alpha_{p+1,q}.  In type A it must end on the diagonal; in type C it may end
on the diagonal (j <= n-1) or on the anti-diagonal i+j = 2n, where alpha_{n,n}
counts as anti-diagonal so that the single-root path (alpha_{n,n}) bounds
s_{n,n} by m_n.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from operator import add, sub

from .charring import LaurentPoly
from .rootsys import (
    Root,
    RootSystem,
    TypeA,
    TypeC,
    is_valid_pair,
    positive_roots,
    rank,
    root_weight,
    weight_of,
)

DyckPath = tuple[Root, ...]
LatticePoint = tuple[int, ...]


class EmbeddingError(ValueError):
    """The image of a lattice point violates a type-A inequality."""


def _is_end(i: int, j: int, system: RootSystem) -> bool:
    if isinstance(system, TypeA):
        return i == j
    return (i == j and j <= system.n - 1) or i + j == 2 * system.n


def dyck_paths(system: RootSystem) -> tuple[DyckPath, ...]:
    """All Dyck paths of the system, in depth-first order from each start."""
    out: list[DyckPath] = []

    def extend(path: list[tuple[int, int]]) -> None:
        p, q = path[-1]
        if _is_end(p, q, system):
            out.append(tuple(Root(a, b, system) for a, b in path))
        for step in ((p, q + 1), (p + 1, q)):
            if is_valid_pair(*step, system):
                path.append(step)
                extend(path)
                path.pop()

    for i in range(1, rank(system) + 1):
        extend([(i, i)])
    return tuple(out)


def _path_bound(path: DyckPath, m_vec: tuple[int, ...], system: RootSystem) -> int:
    start = path[0].i
    p, q = path[-1].pair
    if isinstance(system, TypeC) and p + q == 2 * system.n:
        end = system.n
    else:
        end = q
    return sum(m_vec[start - 1 : end])


@dataclass(frozen=True)
class PolytopeSpec:
    """Inequality system cut out by the Dyck paths of one dominant weight.

    `roots` fixes the coordinate order of lattice points; each inequality is
    (indices into roots, bound) and duplicates are removed.
    """

    system: RootSystem
    lam: tuple[int, ...]
    roots: tuple[Root, ...]
    inequalities: tuple[tuple[frozenset[int], int], ...]


def polytope_spec(m_vec: tuple[int, ...], system: RootSystem) -> PolytopeSpec:
    m_vec = tuple(m_vec)
    if len(m_vec) != rank(system) or any(m < 0 for m in m_vec):
        raise ValueError(f"need {rank(system)} nonnegative coefficients, got {m_vec}")
    roots = positive_roots(system)
    pos = {r: k for k, r in enumerate(roots)}
    seen: dict[tuple[frozenset[int], int], None] = {}
    for path in dyck_paths(system):
        support = frozenset(pos[r] for r in path)
        seen[(support, _path_bound(path, m_vec, system))] = None
    return PolytopeSpec(system, m_vec, roots, tuple(seen))


def _walk(spec: PolytopeSpec, steps: list, start: tuple) -> Iterator[tuple[int, ...]]:
    """Yield start + sum_k s_k steps[k] for each lattice point s, in lexicographic order.

    An odometer over spec.roots in O(#roots + #inequalities) state: the last level
    below its cap (its least slack) goes up by one, and the levels after it reset.
    """
    nroots, ineqs = len(spec.roots), spec.inequalities
    by_root = [[i for i, (sup, _) in enumerate(ineqs) if k in sup] for k in range(nroots)]
    if not all(by_root):
        raise AssertionError("every root must appear in some inequality")
    slack = [bound for _, bound in ineqs]
    cap = [min(map(slack.__getitem__, rows)) for rows in by_root]
    point, acc = [0] * nroots, start
    while True:
        yield acc
        k = nroots - 1
        while k >= 0 and point[k] == cap[k]:
            v, point[k] = point[k], 0
            if v:
                for idx in by_root[k]:
                    slack[idx] += v
                acc = tuple(map(sub, acc, [v * x for x in steps[k]]))
            k -= 1
        if k < 0:
            return
        point[k] += 1
        for idx in by_root[k]:
            slack[idx] -= 1
        acc = tuple(map(add, acc, steps[k]))
        for j in range(k + 1, nroots):
            cap[j] = min(map(slack.__getitem__, by_root[j]))


def lattice_points(spec: PolytopeSpec) -> list[LatticePoint]:
    """All integer points, in lexicographic order with respect to spec.roots."""
    nroots = len(spec.roots)
    units = [tuple(int(a == k) for a in range(nroots)) for k in range(nroots)]
    return list(_walk(spec, units, (0,) * nroots))


def dimension(m_vec: tuple[int, ...], system: RootSystem) -> int:
    spec = polytope_spec(m_vec, system)
    return sum(1 for _ in _walk(spec, [()] * len(spec.roots), ()))


def graded_character(m_vec: tuple[int, ...], system: RootSystem) -> LaurentPoly:
    """PBW-graded character: each point contributes q^(sum s) z^(lambda - sum s_a alpha)."""
    spec = polytope_spec(m_vec, system)
    steps = [(1, *(-x for x in root_weight(r))) for r in spec.roots]
    lam_eps = weight_of(spec.lam, system)
    return LaurentPoly(len(lam_eps), Counter(_walk(spec, steps, (0, *lam_eps))))


def phi_point_embed(
    point: LatticePoint, m_vec: tuple[int, ...], n: int
) -> tuple[LatticePoint, PolytopeSpec]:
    """Push a type-C(n) lattice point into the type-A(2n) polytope.

    The sp weight is reread as an sl_2n weight with vanishing tail.  Returns
    the image point together with the target spec; raises EmbeddingError if
    any type-A inequality fails (which signals an implementation bug).
    """
    c_roots = positive_roots(TypeC(n))
    if len(point) != len(c_roots):
        raise ValueError("point length does not match the type C root count")
    lam_a = tuple(m_vec) + (0,) * (n - 1)
    spec_a = polytope_spec(lam_a, TypeA(2 * n))
    values = {r.pair: v for r, v in zip(c_roots, point)}
    image = tuple(values.get(r.pair, 0) for r in spec_a.roots)
    for support, bound in spec_a.inequalities:
        total = sum(image[k] for k in support)
        if total > bound:
            raise EmbeddingError(
                f"image violates a type-A inequality: sum {total} > bound {bound}"
            )
    return image, spec_a
