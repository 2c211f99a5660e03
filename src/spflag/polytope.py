"""Dyck-path inequalities, lattice-point enumeration and graded characters.

A path starts at a simple root and moves alpha_{p,q} -> alpha_{p,q+1} or
alpha_{p+1,q} within `index_pairs`.  It may end on the diagonal (j <= n-1) or
on the anti-diagonal i+j = 2n, where alpha_{n,n} counts as anti-diagonal so
that the single-root path (alpha_{n,n}) bounds s_{n,n} by m_n.  One rule
serves both systems: type A(n) has no pair on the anti-diagonal, so there
every path ends on the diagonal.

The lattice points are walked one line at a time over the free roots only.
A root that lies in an inequality of bound 0 is 0 at every point, so it is
fixed there.  The last free root, in the order walked, runs over a whole
line 0..c at once, where c is its least slack; an odometer over the other
free roots moves from line to line.  `dimension` adds c + 1 per line and
builds no point; `lattice_points` and `graded_character` expand each line
by that root's step.  The cost follows the number of lines, not of points
or of roots.

Only `lattice_points` walks the roots in `index_pairs` order, so that its
points come out in lexicographic order.  `dimension` and `graded_character`
are a sum over lines and a Counter, so they walk the roots reversed,
columns ascending: there fewer levels of the odometer reach a cap of 0 and
have to be carried, and a line is longer (at rho, n = 4: 28,672 lines
against 51,808).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import add, sub

from .charring import Terms
from .rootsys import RootSystem, index_pairs, rank, root_weight, weight_of

LatticePoint = tuple[int, ...]


def _dyck_pairs(system: RootSystem) -> list[tuple[tuple[int, int], ...]]:
    """All Dyck paths as tuples of index pairs, in depth-first order from each start."""
    out: list[tuple[tuple[int, int], ...]] = []
    n, roots = system.n, set(index_pairs(system))

    def extend(path: list[tuple[int, int]]) -> None:
        p, q = path[-1]
        if (p == q and q < n) or p + q == 2 * n:
            out.append(tuple(path))
        for step in ((p, q + 1), (p + 1, q)):
            if step in roots:
                path.append(step)
                extend(path)
                path.pop()

    for i in range(1, rank(system) + 1):
        extend([(i, i)])
    return out


@dataclass(frozen=True)
class PolytopeSpec:
    """Inequality system cut out by the Dyck paths of one dominant weight.

    `roots`, the index pairs of the positive roots in `index_pairs` order,
    fixes the coordinate order of lattice points; each inequality is
    (indices into roots, bound), one per Dyck path (a path is its support).
    """

    system: RootSystem
    lam: tuple[int, ...]
    roots: tuple[tuple[int, int], ...]
    inequalities: tuple[tuple[frozenset[int], int], ...]


def polytope_spec(m_vec: tuple[int, ...], system: RootSystem) -> PolytopeSpec:
    """The path from alpha_{start,start} to alpha_{p,q} bounds its sum by
    m_start + ... + m_end, where end = q, or n if the path ends on the
    anti-diagonal p + q = 2n."""
    m_vec = tuple(m_vec)
    if len(m_vec) != rank(system) or any(m < 0 for m in m_vec):
        raise ValueError(f"need {rank(system)} nonnegative coefficients, got {m_vec}")
    roots = index_pairs(system)
    pos = {ij: k for k, ij in enumerate(roots)}
    inequalities = []
    for path in _dyck_pairs(system):
        (start, _), (p, q) = path[0], path[-1]
        end = system.n if p + q == 2 * system.n else q
        inequalities.append((frozenset(map(pos.__getitem__, path)), sum(m_vec[start - 1 : end])))
    return PolytopeSpec(system, m_vec, roots, tuple(inequalities))


def _walk(
    spec: PolytopeSpec, order: Iterable[int], steps: list, start: tuple
) -> Iterator[tuple[tuple, int, tuple]]:
    """Yield one (acc, c, step) per line of lattice points, in lexicographic
    order with respect to `order`, a sequence of every root index.

    A root in an inequality of bound 0 is 0 at every point; the others are the
    free roots, taken in `order`.  A line fixes every free root but the last
    one, which ranges over 0..c: its points are acc, acc + step, ...,
    acc + c step, where acc is start + sum_k s_k steps[k] over the fixed
    coordinates and step is the last free root's entry of steps (indexed by
    root, not by place in `order`).  An odometer over the other free roots in
    O(#roots + #inequalities) state moves from line to line: the last level
    below its cap (its least slack) goes up by one, and the levels after it
    reset.  With no free root there is one line, start alone, with c = 0.
    """
    ineqs = spec.inequalities
    by_root = [[i for i, (sup, _) in enumerate(ineqs) if k in sup] for k in range(len(spec.roots))]
    if not all(by_root):
        raise AssertionError("every root must appear in some inequality")
    slack = [bound for _, bound in ineqs]
    cap = [min(map(slack.__getitem__, rows)) for rows in by_root]
    free = [k for k in order if cap[k]]
    if not free:
        yield start, 0, ()
        return
    rows, cap = [by_root[k] for k in free], [cap[k] for k in free]
    steps = [steps[k] for k in free]
    last = len(free) - 1
    point, acc = [0] * last, start
    while True:
        yield acc, cap[last], steps[last]
        k = last - 1
        while k >= 0 and point[k] == cap[k]:
            v, point[k] = point[k], 0
            if v:
                for idx in rows[k]:
                    slack[idx] += v
                acc = tuple(map(sub, acc, [v * x for x in steps[k]]))
            k -= 1
        if k < 0:
            return
        point[k] += 1
        for idx in rows[k]:
            slack[idx] -= 1
        acc = tuple(map(add, acc, steps[k]))
        for j in range(k + 1, last + 1):
            cap[j] = min(map(slack.__getitem__, rows[j]))


def _points(
    spec: PolytopeSpec, order: Iterable[int], steps: list, start: tuple
) -> Iterator[tuple[int, ...]]:
    """Every point of every line of `_walk`, in its order."""
    for acc, c, step in _walk(spec, order, steps, start):
        yield acc
        for _ in range(c):
            acc = tuple(map(add, acc, step))
            yield acc


def lattice_points(spec: PolytopeSpec) -> Iterator[LatticePoint]:
    """Yield every integer point, in lexicographic order with respect to spec.roots."""
    nroots = len(spec.roots)
    units = [tuple(int(a == k) for a in range(nroots)) for k in range(nroots)]
    return _points(spec, range(nroots), units, (0,) * nroots)


def dimension(m_vec: tuple[int, ...], system: RootSystem) -> int:
    """The number of lattice points, one term per line of the reversed walk."""
    spec = polytope_spec(m_vec, system)
    nroots = len(spec.roots)
    return sum(c + 1 for _, c, _ in _walk(spec, reversed(range(nroots)), [()] * nroots, ()))


def graded_character(m_vec: tuple[int, ...], system: RootSystem) -> Terms:
    """PBW-graded character: each point contributes q^(sum s) z^(lambda - sum s_a alpha)."""
    spec = polytope_spec(m_vec, system)
    steps = [(1, *(-x for x in root_weight(i, j, spec.system))) for i, j in spec.roots]
    lam_eps = weight_of(spec.lam, system)
    return Counter(_points(spec, reversed(range(len(steps))), steps, (0, *lam_eps)))
