"""Fixtures and references that the tests share, kept out of the library.

The random generators, the flat-family and involution checks, the
polytope-point embedding and the coordinate realization of a fixed point are
what the acceptance suite checks the paper's lemmas with; no command runs
them.  `in_sp_grass_a_respan` is the earlier route of the degenerate isotropy
test, which `geometry.in_sp_grass_a` is compared against.  `times`, `at_q1`,
`signed_permutation` and `coordinate_span` are the Laurent products, the q = 1
specialization, the variable substitutions and the coordinate subspaces that
the checks need and no command runs; the Laurent polynomials are `Terms`
dicts, as the library's characters are.  `divisor_class` is the ledger of one
divisor, built on `bundles.divisor_terms`, that the bundle tests read.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction as Q

from spflag.bundles import divisor_terms
from spflag.charring import Exponent, Terms
from spflag.fixedpoints import Collection, Point, iter_fixed_points
from spflag.geometry import (
    FlagPoint,
    QMatrix,
    ResolutionPoint,
    Subspace,
    _pairing,
    is_isotropic,
    project_away,
    rref,
    symplectic_form,
)
from spflag.polytope import LatticePoint, PolytopeSpec, polytope_spec
from spflag.rootsys import TypeA, TypeC, index_pairs, radical_pairs


def fixed_points(n: int) -> Iterator[Collection]:
    """Each admissible collection in tower order, as a dict from (i,j) to S_{i,j}."""
    return (dict(parts) for parts in iter_fixed_points(n, lambda key, s: (key, s)))


def divisor_class(i: int, j: int, d: tuple[int, ...], n: int) -> dict[tuple[int, int], int]:
    """O(Z_{i,j}) in the omega basis as a ledger: the terms of
    `divisor_terms`, each index required to lie in P_d, as is (i, j)."""
    pairs = radical_pairs(tuple(d), n)
    if (i, j) not in pairs:
        raise ValueError(f"({i},{j}) is not in P_d")
    out = dict(divisor_terms(i, j, n))
    for a, b in out:
        if (a, b) not in pairs:
            raise ValueError(f"omega index ({a},{b}) demanded outside P_d")
    return out


def in_sp_grass_a_respan(u: Subspace, k: int, n: int) -> bool:
    """pr_{1,3}(U) is J-isotropic, tested on the span of the projected rows."""
    if u.dim != k:
        raise ValueError(f"expected a {k}-dimensional subspace, got dim {u.dim}")
    middle = range(k + 1, 2 * n - k + 1)
    return is_isotropic(project_away(u, middle), n)


def _dense(c):
    """The 2n x 2n matrix of the form with anti-diagonal c."""
    size = len(c)
    return tuple(
        tuple(c[r] if r + col == size - 1 else 0 for col in range(size)) for r in range(size)
    )


def root_vector_matrix(i: int, j: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Lowering operator f_{i,j} of sp_2n as a 2n x 2n integer matrix."""
    m = [[0] * (2 * n) for _ in range(2 * n)]
    if j == 2 * n - i:
        m[2 * n - i][i - 1] = 1
    elif j < n:
        m[j][i - 1] = 1
        m[2 * n - i][2 * n - j - 1] = -1
    else:
        m[j][i - 1] = 1
        m[2 * n - i][2 * n - j - 1] = 1
    return tuple(tuple(row) for row in m)


class EmbeddingError(ValueError):
    """The image of a lattice point violates a type-A inequality."""


def phi_point_embed(
    point: LatticePoint, m_vec: tuple[int, ...], n: int
) -> tuple[LatticePoint, PolytopeSpec]:
    """Push a type-C(n) lattice point into the type-A(2n) polytope.

    The sp weight is reread as an sl_2n weight with vanishing tail.  Returns
    the image point together with the target spec; raises EmbeddingError if
    any type-A inequality fails (which signals an implementation bug).
    """
    c_roots = index_pairs(TypeC(n))
    if len(point) != len(c_roots):
        raise ValueError("point length does not match the type C root count")
    lam_a = tuple(m_vec) + (0,) * (n - 1)
    spec_a = polytope_spec(lam_a, TypeA(2 * n))
    values = dict(zip(c_roots, point))
    image = tuple(values.get(ij, 0) for ij in spec_a.roots)
    for support, bound in spec_a.inequalities:
        total = sum(image[k] for k in support)
        if total > bound:
            raise EmbeddingError(
                f"image violates a type-A inequality: sum {total} > bound {bound}"
            )
    return image, spec_a


def times(a: dict[Exponent, int], b: dict[Exponent, int]) -> dict[Exponent, int]:
    """The product of two Laurent polynomials given as term dicts."""
    out: dict[Exponent, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def at_q1(p: Terms) -> Terms:
    """p with q = 1: the coefficients summed over q-exponents."""
    out: Terms = {}
    for (_, *z), c in p.items():
        out[(0, *z)] = out.get((0, *z), 0) + c
    return {e: c for e, c in out.items() if c}


def signed_permutation(p: Terms, perm, signs) -> Terms:
    """p with z_{k+1} -> z_{perm[k]+1}^{signs[k]}: a term's exponent
    (q, e_1, ..., e_n) moves to (q, signs[0] e_{perm[0]+1}, ...)."""
    return {(q, *(s * z[k] for k, s in zip(perm, signs))): c for (q, *z), c in p.items()}


def evaluate_monomial(pt: Point, exps: Exponent) -> Q:
    """Value of q^exps[0] * prod z_i^exps[i] at the point (q, z_1, ..., z_n)."""
    val = Q(1)
    for x, e in zip(pt, exps):
        if e:
            val *= x**e
    return val


def all_d(n: int) -> list[tuple[int, ...]]:
    """All nonempty strictly increasing index lists in {1..n}."""
    out: list[tuple[int, ...]] = []
    for mask in range(1, 1 << n):
        out.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    return sorted(out, key=lambda t: (len(t), t))


def coordinate_span(indices, ambient: int) -> Subspace:
    """Span of the basis vectors w_l for l in indices (1-indexed)."""
    return Subspace.span([tuple(int(c == l) for c in range(1, ambient + 1)) for l in indices], ambient)


def realization(coll: Collection, n: int) -> ResolutionPoint:
    """Coordinate resolution point spanned by the indexed basis vectors."""
    spaces = {
        ij: coordinate_span(s, 2 * n) for ij, s in coll.items()
    }
    return ResolutionPoint(n, tuple(range(1, n + 1)), spaces)


def perp(u: Subspace, n: int, c=None) -> Subspace:
    """Orthogonal complement for the form c (default J), of dimension
    2n - dim u when c is nondegenerate: the kernel of the forms <row, .>."""
    c = c if c is not None else symplectic_form(n)
    return Subspace.kernel([_pairing(row, c) for row in u.rows], 2 * n)


def in_divisor(p: ResolutionPoint, i: int, j: int) -> bool:
    """Membership in Z_{i,j}: the component sits on the section."""
    n = p.n
    if i == 1:
        target = coordinate_span([j + 1], 2 * n)
    else:
        target = p.spaces[(i - 1, j + 1)].sum(coordinate_span([j + 1], 2 * n))
    return p.spaces[(i, j)] == target


def plucker_top_nonzero(u: Subspace, i: int) -> bool:
    """Whether the Pluecker coordinate p_{1..i} does not vanish."""
    if u.dim != i:
        raise ValueError("dimension mismatch")
    if i == 0:
        return True
    return len(rref(row[:i] for row in u.rows)) == i


def sigma_involution(spaces: list[Subspace]) -> list[Subspace]:
    """(V_1,...,V_{2n-1}) -> (V_{2n-1}^perp,...,V_1^perp)."""
    if not spaces:
        raise ValueError("empty flag")
    two_n = spaces[0].ambient
    if len(spaces) != two_n - 1:
        raise ValueError("expected a complete flag of 2n-1 subspaces")
    n = two_n // 2
    for k, v in enumerate(spaces, start=1):
        if v.dim != k:
            raise ValueError(f"dim V_{k} = {v.dim}")
    return [perp(v, n) for v in reversed(spaces)]


def flat_family_form(s, n: int, k: int) -> tuple[Q, ...]:
    """The degenerating form J_s, by its anti-diagonal 1..1, s..s, -s..-s, -1..-1
    (k, n-k, n-k and k entries)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    s = Q(s)
    return (Q(1),) * k + (s,) * (n - k) + (-s,) * (n - k) + (Q(-1),) * k


def eta_matrix(s, n: int, k: int) -> QMatrix:
    """Diagonal one-parameter subgroup scaling the middle 2(n-k) coordinates."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    s = Q(s)
    diag = [Q(1)] * k + [s] * (2 * (n - k)) + [Q(1)] * k
    return tuple(
        tuple(diag[r] if r == c else Q(0) for c in range(2 * n)) for r in range(2 * n)
    )


def apply_matrix(m: QMatrix, u: Subspace) -> Subspace:
    vecs = [
        tuple(sum(m[r][c] * x for c, x in enumerate(row)) for r in range(len(m)))
        for row in u.rows
    ]
    return Subspace.span(vecs, u.ambient)


def isotropy_transport_check(u: Subspace, s, n: int, k: int) -> bool:
    """U isotropic for J_1 implies eta(1/s) U isotropic for J_{s^2}."""
    s = Q(s)
    if s == 0:
        raise ValueError("transport needs s != 0")
    if not is_isotropic(u, n, flat_family_form(1, n, k)):
        raise ValueError("input subspace is not J_1-isotropic")
    moved = apply_matrix(eta_matrix(1 / s, n, k), u)
    return is_isotropic(moved, n, flat_family_form(s * s, n, k))


def sp_lower_matrix(coeffs: dict[tuple[int, int], Q], n: int) -> QMatrix:
    """Strictly lower matrix sum c_alpha f_alpha in sp_2n, alpha by index pair."""
    m = [[Q(0)] * (2 * n) for _ in range(2 * n)]
    for (i, j), c in coeffs.items():
        for r, row in enumerate(root_vector_matrix(i, j, n)):
            for col, x in enumerate(row):
                if x:
                    m[r][col] += c * x
    return tuple(tuple(row) for row in m)


def unipotent_flag(gamma: QMatrix, d: tuple[int, ...], n: int) -> FlagPoint:
    """Open-cell flag point: V_k is spanned by w_c + sum_{r>k} gamma_{rc} w_r."""
    spaces = []
    for k in d:
        vecs = []
        for c in range(k):
            v = [Q(0)] * (2 * n)
            v[c] = Q(1)
            for r in range(k, 2 * n):
                v[r] = Q(gamma[r][c])
            vecs.append(tuple(v))
        spaces.append(Subspace.span(vecs, 2 * n))
    return FlagPoint(tuple(d), tuple(spaces))


def random_sp_flag(d: tuple[int, ...], n: int, rng: random.Random) -> FlagPoint:
    coeffs = {
        ij: Q(rng.randint(-9, 9), rng.randint(1, 5)) for ij in index_pairs(TypeC(n))
    }
    return unipotent_flag(sp_lower_matrix(coeffs, n), d, n)


def random_sl_flag(two_n: int, rng: random.Random) -> list[Subspace]:
    """Random complete degenerate sl flag from a strictly lower matrix."""
    if two_n % 2:
        raise ValueError(f"ambient dimension must be even, got {two_n}")
    gamma = [[Q(0)] * two_n for _ in range(two_n)]
    for r in range(two_n):
        for c in range(r):
            gamma[r][c] = Q(rng.randint(-9, 9), rng.randint(1, 5))
    return list(unipotent_flag(gamma, tuple(range(1, two_n)), two_n // 2).spaces)


def random_subspace(ambient: int, k: int, rng: random.Random) -> Subspace:
    """Random k-dimensional subspace of Q^ambient, 0 <= k <= ambient."""
    if not 0 <= k <= ambient:
        raise ValueError(f"no {k}-dimensional subspace of Q^{ambient}")
    while True:
        vecs = [
            tuple(Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ambient))
            for _ in range(k)
        ]
        u = Subspace.span(vecs, ambient)
        if u.dim == k:
            return u


def random_isotropic(n: int, k: int, rng: random.Random) -> Subspace:
    """Random k-dimensional J_1-isotropic subspace of Q^{2n}, 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"no {k}-dimensional isotropic subspace of Q^{2 * n}")
    current = Subspace.zero(2 * n)
    while current.dim < k:
        room = perp(current, n)
        for _ in range(50):
            v = [0] * (2 * n)
            for row in room.rows:
                c = rng.randint(-5, 5)
                if c:
                    v = [a + c * b for a, b in zip(v, row)]
            cand = current.sum(Subspace.span([tuple(v)], 2 * n))
            if cand.dim == current.dim + 1 and is_isotropic(cand, n):
                current = cand
                break
        else:
            raise RuntimeError("failed to extend an isotropic subspace")
    return current
