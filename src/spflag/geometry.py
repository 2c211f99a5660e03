"""Exact rational linear algebra for degenerate symplectic flag varieties.

A subspace of W = Q^{2n} is stored as its reduced row echelon form with each
row scaled to a primitive int vector whose pivot is positive.  That form is
unique, so equality of subspaces is equality of int matrices.  Elimination,
membership and isotropy run over Python ints; elimination and membership
share one reduction step, `_reduce` (see `rref`).  Fractions are built only to
order the candidates of `_extend_choice` by their RREF over Fraction
(`Subspace.fraction_rows`).  Flag files hold rational entries: `cleared`
reads a row of them as ints, and `Subspace.text_rows` writes the RREF in
them.
Coordinates are 1-indexed in the public API, matching the basis w_1..w_2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .rootsys import TypeC, index_pairs, radical_pairs

Q = Fraction
# Rows of `rref`, `nullspace` and `Subspace`; `fraction_rows` gives QMatrix.
Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]
QMatrix = tuple[tuple[Q, ...], ...]


class LiftError(ValueError):
    """No resolution point over the flag point: some component's lower bound
    does not fit inside its upper bound (see `lift`)."""


# ---------------------------------------------------------------------------
# matrix kernel


def cleared(row) -> list[int]:
    """A row of rationals p/q, given as int pairs (p, q) with q > 0, scaled by
    the lcm of the q: an int vector with the same span."""
    scale = lcm(*[q for _, q in row])
    return [p * (scale // q) for p, q in row]


def _integral(row) -> list[int]:
    """The row as an int vector with the same span (`cleared`).  Entries must
    be int or Fraction."""
    types = set(map(type, row))
    if types == {int}:
        return list(row)
    if not types <= {int, Q}:
        bad = (types - {int, Q}).pop()
        raise TypeError(f"matrix entries must be int or Fraction, got {bad.__name__}")
    return cleared([(x.numerator, x.denominator) for x in row])


def _reduce(rows, pivots, v):
    """v eliminated against RREF rows: v <- p*v - v[c]*row for each row with
    pivot p in column c.  The result is zero iff v lies in the rows' span."""
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            p = row[c]
            v = [p * a - f * b for a, b in zip(v, row)]
    return v


def rref(rows, start: Matrix = ()) -> Matrix:
    """Reduced row echelon form of `start` and `rows` together, zero rows
    dropped, each row a primitive int vector with a positive pivot: the form
    `Subspace` stores.  `start` must be in that form already; only `rows` are
    eliminated, over Python ints (fraction-free, as in Bareiss 1968).  Each
    row, cleared of denominators, is `_reduce`d against the form so far and
    dropped if nothing is left; otherwise it is made primitive with pivot
    p > 0 in column c, and each earlier row r with r[c] != 0 becomes
    p*r - r[c]*row (a `_reduce` by the new row, keeping r's pivot positive)
    divided by its gcd.  Rows, `start`'s included, must have equal length and
    int or Fraction entries."""
    work = list(start)
    pivots = list(pivot_columns(start))
    new = [_integral(row) for row in rows]
    if len({len(row) for row in work[:1] + new}) > 1:
        raise ValueError("rows of unequal length")
    for v in new:
        v = _reduce(work, pivots, v)
        if not any(v):
            continue
        c = next(c for c, x in enumerate(v) if x)
        g = gcd(*v) if v[c] > 0 else -gcd(*v)
        v = [a // g for a in v]
        for k, r in enumerate(work):
            if r[c]:
                r = _reduce((v,), (c,), r)
                g = gcd(*r)
                work[k] = [a // g for a in r] if g > 1 else r
        work.append(v)
        pivots.append(c)
    return tuple(tuple(row) for _, row in sorted(zip(pivots, work)))


def pivot_columns(red: Matrix) -> tuple[int, ...]:
    """Column of the leading entry of each row of a matrix in RREF."""
    return tuple(next(c for c, x in enumerate(row) if x != 0) for row in red)


def _unit_vectors(indices, ambient: int) -> list[tuple[int, ...]]:
    """w_l for l in indices (1-indexed); read as forms, the coordinates w_l^*."""
    return [tuple(int(c == l - 1) for c in range(ambient)) for l in indices]


def nullspace(rows, ncols: int) -> list[Vector]:
    """Basis of the right kernel as int vectors, one per free column f of the
    RREF: L at f and -row[f]*(L // row[p]) at the pivot column p of each row,
    L the lcm of the pivots.  No rows give the unit basis of Q^ncols."""
    rows = list(rows)
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"rows must have length {ncols}")
    red = rref(rows)
    pivots = pivot_columns(red)
    scale = lcm(*(row[p] for row, p in zip(red, pivots)))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (scale // row[p])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Row space of an exact rational matrix, canonicalized by `rref`.

    `rows` is the RREF with each row scaled to a primitive int vector whose
    pivot is positive.  The form is unique, so equality reads it; membership
    and isotropy are tested on it."""

    __slots__ = ("rows", "pivots", "ambient")

    def __init__(self, rows: Matrix, ambient: int):
        self.rows = rows
        self.pivots = pivot_columns(rows)
        self.ambient = ambient

    @classmethod
    def span(cls, vectors, ambient: int) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        return cls(rref(vectors), ambient)

    @classmethod
    def kernel(cls, forms, ambient: int) -> "Subspace":
        """The vectors on which every linear form in `forms` vanishes."""
        return cls(rref(nullspace(forms, ambient)), ambient)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls((), ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def fraction_rows(self) -> QMatrix:
        """The RREF over Fraction, in which `lift` orders candidate spaces:
        each entry a of a row with pivot p becomes a/p."""
        return tuple(tuple(Q(a, row[p]) for a in row) for row, p in zip(self.rows, self.pivots))

    def text_rows(self) -> list[list[str]]:
        """`fraction_rows` as strings, in which `lift` writes spaces, built
        without Fractions: each entry a of a row with pivot p > 0 is a/p in
        lowest terms, as str(Fraction(a, p)) writes it."""
        out = []
        for row, c in zip(self.rows, self.pivots):
            p = row[c]
            out.append(
                [f"{a // g}" if (g := gcd(a, p)) == p else f"{a // g}/{p // g}" for a in row]
            )
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def contains_vector(self, v) -> bool:
        """Whether v lies in the subspace: `_reduce` against `rows` leaves 0."""
        if len(v) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return not any(_reduce(self.rows, self.pivots, v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        return Subspace(rref(other.rows, self.rows), self.ambient)

    def annihilator(self) -> list[Vector]:
        """A basis of the linear forms that vanish on the subspace."""
        return nullspace(self.rows, self.ambient)


def _zeroed(v, kill) -> tuple:
    return tuple(0 if (c + 1) in kill else x for c, x in enumerate(v))


def project_away(u: Subspace, coords) -> Subspace:
    """Image under the projection that zeroes the given 1-indexed coordinates."""
    kill = set(coords)
    return Subspace.span([_zeroed(row, kill) for row in u.rows], u.ambient)


def _contains_projection(big: Subspace, small: Subspace, kill) -> bool:
    """Whether big contains the image of small under the projection zeroing
    the 1-indexed coordinates `kill`: each row of small, zeroed, lies in big."""
    return all(big.contains_vector(_zeroed(row, kill)) for row in small.rows)


# ---------------------------------------------------------------------------
# symplectic structure
#
# A form pairs w_l only with w_{2n+1-l}, so it is stored as its anti-diagonal
# c: <w_l, w_{2n+1-l}> = c_l (1-indexed; c_l is c[l-1]).


def symplectic_form(n: int) -> tuple[int, ...]:
    """J with <w_i, w_{2n+1-i}> = 1 for i <= n and -1 for i > n."""
    return (1,) * n + (-1,) * n


def _pairing(v, c) -> tuple:
    """The linear form <v, .> of the form c: c ⊙ v reversed."""
    return tuple(a * x for a, x in zip(c, v))[::-1]


def _projected_form(c, kill) -> tuple:
    """The form (x, y) -> <Px, Py> for the projection P zeroing the 1-indexed
    coordinates `kill`: c with c_l zeroed wherever l or 2n+1-l is in kill."""
    size = len(c)
    return tuple(0 if l in kill or size + 1 - l in kill else x for l, x in enumerate(c, 1))


def form_value(u, v, c):
    return sum(f * x for f, x in zip(_pairing(u, c), v))


def is_isotropic(u: Subspace, n: int, c=None) -> bool:
    """Whether the form c (default J) vanishes on u: the rows of u pair to
    zero under c."""
    c = c if c is not None else symplectic_form(n)
    rows = u.rows
    return all(form_value(rows[a], b, c) == 0 for a in range(len(rows)) for b in rows[a + 1:])


# ---------------------------------------------------------------------------
# membership tests


def in_sp_grass_a(u: Subspace, k: int, n: int) -> bool:
    """Degenerate symplectic Grassmannian test: pr_{1,3}(U) is isotropic, that
    is, U is isotropic under J projected away from the middle coordinates
    k+1..2n-k, the degenerate form J_0 with anti-diagonal 1..1, 0..0, -1..-1."""
    if u.dim != k:
        raise ValueError(f"expected a {k}-dimensional subspace, got dim {u.dim}")
    return is_isotropic(u, n, _projected_form(symplectic_form(n), range(k + 1, 2 * n - k + 1)))


@dataclass(frozen=True)
class FlagPoint:
    """Collection (V_{d_1},...,V_{d_k}) of subspaces of Q^{2n}, dim V_{d_l} = d_l."""

    d: tuple[int, ...]
    spaces: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        if len(self.d) != len(self.spaces):
            raise ValueError("number of spaces does not match d")
        for dl, v in zip(self.d, self.spaces):
            if v.dim != dl:
                raise ValueError(f"V_{dl} has dimension {v.dim}, not {dl}")


def in_sp_flag_a(flag: FlagPoint, n: int) -> bool:
    """Each space passes the Grassmannian test and projected inclusions hold."""
    for dl, v in zip(flag.d, flag.spaces):
        if not in_sp_grass_a(v, dl, n):
            return False
    for l in range(len(flag.d) - 1):
        lo, hi = flag.d[l], flag.d[l + 1]
        if not _contains_projection(flag.spaces[l + 1], flag.spaces[l], range(lo + 1, hi + 1)):
            return False
    return True


@dataclass(frozen=True)
class ResolutionPoint:
    """Collection V_{i,j}, (i,j) in P_d, with V_{i,j} inside W_{i,j}."""

    n: int
    d: tuple[int, ...]
    spaces: dict[tuple[int, int], Subspace]


def _in_w(v: Subspace, i: int, j: int) -> bool:
    """V ⊆ W_{i,j} = span(w_1..w_i, w_{j+1}..w_2n): RREF rows vanish on i+1..j."""
    return not any(x for row in v.rows for x in row[i:j])


def in_resolution(p: ResolutionPoint) -> bool:
    n = p.n
    pairs = radical_pairs(tuple(p.d), n)
    if set(p.spaces) != set(pairs):
        raise ValueError("resolution point shape does not match P_d")
    for (i, j), v in p.spaces.items():
        if v.dim != i or not _in_w(v, i, j):
            return False
    for i, j in pairs:
        v = p.spaces[(i, j)]
        if (i + 1, j) in pairs and not p.spaces[(i + 1, j)].contains(v):
            return False
        if (i, j + 1) in pairs and not _contains_projection(p.spaces[(i, j + 1)], v, {j + 1}):
            return False
        if i + j == 2 * n and not is_isotropic(v, n):
            return False
    return True


# ---------------------------------------------------------------------------
# lift


def _extend_choice(lower: Subspace, bound, form, i: int, j: int, n: int) -> Subspace:
    """Grow `lower` to dimension i inside the upper bound of `lift`, taking the
    valid one-vector extension with the least Fraction RREF, for determinism
    (int rows order differently).  Only here is the bound a kernel of forms:
    w_{i+1}^*..w_j^*, ann(V) with the coordinates `kill` zeroed for each
    (V, kill) in `bound`, and the pairings <c, .> under `form` = J_M for each
    row c of the current space, which keep it isotropic under J_M."""
    forms = _unit_vectors(range(i + 1, j + 1), 2 * n)
    forms += [_zeroed(f, kill) for v, kill in bound for f in v.annihilator()]
    current = lower
    while current.dim < i:
        pairing = [_pairing(c, form) for c in current.rows]
        feasible = Subspace.kernel(forms + pairing, 2 * n)
        grown = [Subspace(rref([x], current.rows), 2 * n) for x in feasible.rows]
        candidates = [s for s in grown if s.dim > current.dim]
        if not candidates:
            raise LiftError(f"no valid component at ({i},{j})")
        current = min(candidates, key=Subspace.fraction_rows)
    return current


def lift(flag: FlagPoint, n: int) -> ResolutionPoint:
    """Resolution point over a flag point, from one bound per component.

    Components are fixed in reversed `index_pairs` order (j increasing, i
    decreasing inside a column), skipping pairs outside P_d.  The lower bound
    of (i, j) is pr_j V_{k,j-1} for the largest k <= i with (k, j-1) in P_d,
    plus the anchor V_{d_l} at (d_l, d_l).  The upper bound is W_{i,j},
    isotropy under J_M, and V_{i+1,j}.  J_M is J with c_l zeroed wherever l
    or 2n+1-l lies in M = {j+1..2n-i}, so V is J_M-isotropic exactly when P·V
    is J-isotropic for the projection P zeroing M.  At the foot of a column,
    where V_{i+1,j} does not exist, the last bound is instead the preimage
    {x : pr_{j+1..d_l} x in V_{d_l}} of each anchor with d_l > j.  If the
    lower bound has dimension at most i and lies in the upper bound,
    `_extend_choice` grows it to dimension i; otherwise LiftError reports
    incompatible constraints at (i,j).  On every coordinate flag at n <= 3,
    and on every coordinate member at n = 4, this raises exactly when
    `in_sp_flag_a` rejects the flag.
    """
    d = tuple(flag.d)
    pairs = radical_pairs(d, n)
    j_form = symplectic_form(n)
    anchors = dict(zip(d, flag.spaces))
    spaces: dict[tuple[int, int], Subspace] = {}
    for i, j in reversed(index_pairs(TypeC(n))):
        if (i, j) not in pairs:
            continue
        left = next((spaces[k, j - 1] for k in range(i, 0, -1) if (k, j - 1) in spaces), None)
        lower = Subspace.zero(2 * n) if left is None else project_away(left, [j])
        if i == j and i in anchors:
            lower = lower.sum(anchors[i])
        above = spaces.get((i + 1, j))
        if above is not None:
            bound = [(above, set())]
        else:
            bound = [(v, set(range(j + 1, dl + 1))) for dl, v in anchors.items() if dl > j]
        form = _projected_form(j_form, range(j + 1, 2 * n - i + 1))
        if not (
            lower.dim <= i
            and _in_w(lower, i, j)
            and all(_contains_projection(v, lower, kill) for v, kill in bound)
            and is_isotropic(lower, n, form)
        ):
            raise LiftError(f"incompatible constraints at ({i},{j})")
        spaces[(i, j)] = _extend_choice(lower, bound, form, i, j, n) if lower.dim < i else lower
    point = ResolutionPoint(n, d, spaces)
    if not in_resolution(point):
        raise LiftError("constructed point fails the resolution conditions")
    return point
