import random
from fractions import Fraction as Q
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spflag import geometry
from spflag.geometry import (
    FlagPoint,
    LiftError,
    ResolutionPoint,
    Subspace,
    _contains_projection,
    _in_w,
    _pairing,
    _projected_form,
    _unit_vectors,
    form_value,
    in_resolution,
    in_sp_flag_a,
    in_sp_grass_a,
    is_isotropic,
    lift,
    nullspace,
    project_away,
    rref,
    symplectic_form,
)
from spflag.rootsys import TypeC, index_pairs, radical_pairs

from support import (
    _dense,
    all_d,
    apply_matrix,
    coordinate_span,
    eta_matrix,
    fixed_points,
    flat_family_form,
    in_divisor,
    in_sp_grass_a_respan,
    isotropy_transport_check,
    perp,
    plucker_top_nonzero,
    random_isotropic,
    random_sl_flag,
    random_sp_flag,
    random_subspace,
    realization,
    sigma_involution,
    sp_lower_matrix,
)


def w(ambient, *ls):
    return coordinate_span(ls, ambient)


def vec(*xs):
    return tuple(Q(x) for x in xs)


def mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def mat_transpose(a):
    return tuple(zip(*a))


def _dense_form_value(u, v, j_mat):
    """<u, v> = u·J·v on the dense matrix: the reference for form_value."""
    total = Q(0)
    for a, row in zip(u, j_mat):
        if a:
            total += a * sum(x * y for x, y in zip(row, v))
    return total


# --- linear algebra kernel ---------------------------------------------------


def _fraction_rref(rows):
    """Gauss-Jordan over Fraction, zero rows dropped: the reference for rref."""
    work = [list(map(Q, row)) for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((k for k in range(r, len(work)) if work[k][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][col]
        work[r] = [x * inv for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][col] != 0:
                f = work[k][col]
                work[k] = [a - f * b for a, b in zip(work[k], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r])


def _fraction_residual(u: Subspace, v):
    """v after elimination against the Fraction RREF rows of u."""
    v = list(map(Q, v))
    for row, p in zip(u.fraction_rows(), u.pivots):
        f = v[p]
        v = [a - f * b for a, b in zip(v, row)]
    return v


kernel_check = settings(derandomize=True, database=None, deadline=None, max_examples=300)
small_entry = st.one_of(
    st.integers(-3, 3), st.builds(Q, st.integers(-9, 9), st.integers(1, 6))
)
# Numerators and denominators of 40 to 45 digits.
huge_entry = st.builds(Q, st.integers(-10**45, 10**45), st.integers(10**39, 10**45))


@st.composite
def matrices(draw):
    """(rows, ncols): int-only, small-Fraction or huge-Fraction rows, then
    zero rows, duplicates and multiples of drawn rows mixed in."""
    ncols = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([st.integers(-3, 3), small_entry, huge_entry]))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    extra = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2)), max_size=3))
    for k, scale in extra:
        rows.append([x * scale for x in rows[k]] if k < len(rows) else [0] * ncols)
    return draw(st.permutations(rows)), ncols


def _rref_as_fractions(rows):
    """`rref` of the rows, checked to be ints, read as its Fraction RREF."""
    red = rref(rows)
    assert all(type(x) is int for row in red for x in row)
    return Subspace(red, len(red[0]) if red else 0).fraction_rows()


@kernel_check
@given(matrices())
def test_rref_matches_the_fraction_reference(matrix):
    rows, _ = matrix
    assert _rref_as_fractions(rows) == _fraction_rref(rows)


def test_rref_edge_cases_match_the_fraction_reference():
    big = Q(10**41 + 7, 3 * 10**40 + 1)
    for rows in (
        [], [[0]], [[5]], [[0], [3], [-2]], [[0, 0], [0, 0]], [[1, 2], [1, 2], [2, 4]],
        [[2, 4, 6], [1, 0, 3]], [[big, 1, -big], [big, 1, -big], [1, big, 0]],
    ):
        assert _rref_as_fractions(rows) == _fraction_rref(rows), rows


@kernel_check
@given(matrices(), st.data())
def test_contains_vector_is_a_zero_fraction_residual(matrix, data):
    rows, ncols = matrix
    u = Subspace.span(rows, ncols)
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(small_entry, min_size=len(rows), max_size=len(rows)))
        v = [sum((c * row[k] for c, row in zip(coeffs, rows)), Q(0)) for k in range(ncols)]
    else:
        v = data.draw(st.lists(small_entry, min_size=ncols, max_size=ncols))
    assert u.contains_vector(v) == (not any(_fraction_residual(u, v)))


@kernel_check
@given(matrices())
def test_rows_are_primitive_scalings_of_the_fraction_rref(matrix):
    rows, ncols = matrix
    u = Subspace.span(rows, ncols)
    reference = _fraction_rref(rows)
    assert len(u.rows) == len(reference)
    for ints, row, p in zip(u.rows, reference, u.pivots):
        assert all(type(a) is int for a in ints)
        assert gcd(*ints) == 1 and ints[p] > 0
        assert all(a == x * ints[p] for a, x in zip(ints, row))


@kernel_check
@given(matrices())
def test_nullspace_is_an_int_basis_of_the_kernel(matrix):
    rows, ncols = matrix
    basis = nullspace(rows, ncols)
    assert all(type(x) is int for v in basis for x in v)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows for v in basis)
    assert len(basis) == ncols - len(_fraction_rref(rows))
    assert len(rref(basis)) == len(basis)


def test_kernel_rejects_ragged_rows_and_foreign_entries():
    # A row whose length differs from `start`'s is ragged too, zero or not.
    for rows, start in (
        ([[0], [1, 2]], ()), ([[1, 0], [0]], ()), ([[0, 1, 0]], ((1, 0),)), ([[0]], ((1, 0),)),
    ):
        with pytest.raises(ValueError):
            rref(rows, start)
    with pytest.raises(ValueError):
        nullspace([[1, 2, 3]], 2)
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            rref([[1, bad]])


@kernel_check
@given(matrices(), st.data())
def test_rref_canonical(matrix, data):
    # The span of rows permuted and scaled by nonzero rationals, with the sum
    # of two of them added, is the same subspace.
    rows, ncols = matrix
    nonzero = st.builds(Q, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    scales = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    moved = [[c * x for x in row] for c, row in zip(scales, rows)]
    if len(rows) > 1:
        moved.append([a + b for a, b in zip(rows[0], rows[1])])
    a, b = Subspace.span(rows, ncols), Subspace.span(data.draw(st.permutations(moved)), ncols)
    assert a == b
    assert a.dim == len(_fraction_rref(rows))


@kernel_check
@given(matrices(), st.data())
def test_rref_extends_an_echelon_form_and_sum_reuses_it(matrix, data):
    rows, ncols = matrix
    k = data.draw(st.integers(0, len(rows)))
    head, tail = rows[:k], rows[k:]
    assert rref(tail, rref(head)) == rref(rows)
    a, b = Subspace.span(head, ncols), Subspace.span(tail, ncols)
    assert a.sum(b) == Subspace.span(a.rows + b.rows, ncols)


def test_sum_of_spaces_in_different_ambients_is_refused():
    # The zero space has no row for `rref` to check a length against.
    for a, b in ((w(2, 1, 2), w(4, 1, 2)), (w(4, 1), w(2, 1)), (Subspace.zero(2), w(4, 1))):
        with pytest.raises(ValueError):
            a.sum(b)


def test_contains_vector_refuses_a_vector_of_another_length():
    # `_reduce` zips a longer vector down to the ambient.
    with pytest.raises(ValueError, match="ambient"):
        Subspace.span([(1, 0)], 2).contains_vector((1, 0, 5, 0))


def test_sum_intersection():
    def meet(a, b):
        return Subspace.kernel(a.annihilator() + b.annihilator(), a.ambient)

    u = w(4, 1, 2)
    v = w(4, 2, 3)
    assert u.sum(v) == w(4, 1, 2, 3)
    assert meet(u, v) == w(4, 2)
    assert meet(u, w(4, 3, 4)).dim == 0
    rng = random.Random(4)
    for ambient in (4, 6):
        zero, whole = Subspace.zero(ambient), w(ambient, *range(1, ambient + 1))
        spaces = [zero, whole] + [
            random_subspace(ambient, rng.randint(0, ambient), rng) for _ in range(8)
        ]
        # Random spaces meet generically; a sum meets its summands in them.
        spaces.append(spaces[2].sum(spaces[3]))
        for a in spaces:
            for b in spaces:
                both = meet(a, b)
                assert a.contains(both) and b.contains(both)
                assert both.dim == a.dim + b.dim - a.sum(b).dim
                assert both == meet(b, a)
        assert meet(zero, whole) == zero and meet(whole, whole) == whole


@pytest.mark.parametrize("k", [-1, 5])
def test_random_subspace_rejects_an_impossible_dimension(k):
    with pytest.raises(ValueError):
        random_subspace(4, k, random.Random(0))


@pytest.mark.parametrize("k", [-1, 3])
def test_random_isotropic_rejects_an_impossible_dimension(k):
    with pytest.raises(ValueError):
        random_isotropic(2, k, random.Random(0))


def test_projection():
    u = Subspace.span([vec(1, 1, 0, 0)], 4)
    assert project_away(u, [2]) == w(4, 1)
    assert project_away(w(4, 2), [2]).dim == 0


# --- symplectic structure ----------------------------------------------------


def test_symplectic_form_n1():
    assert _dense(symplectic_form(1)) == ((0, 1), (-1, 0))


@pytest.mark.parametrize("n", range(1, 6))
def test_symplectic_form_antisymmetric(n):
    j = _dense(symplectic_form(n))
    t = mat_transpose(j)
    assert all(t[a][b] == -j[a][b] for a in range(2 * n) for b in range(2 * n))


@pytest.mark.parametrize("n", range(1, 5))
def test_symplectic_form_unimodular(n):
    j = _dense(symplectic_form(n))
    minus_one = tuple(tuple(-1 if r == c else 0 for c in range(2 * n)) for r in range(2 * n))
    assert mat_mul(j, j) == minus_one


def _random_vector(size, rng):
    return tuple(Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_anti_diagonal_forms_match_the_dense_matrix(n):
    # form_value, _pairing and perp against u·J·v on the dense matrix, for J
    # and for J_s at s = 0, 1/2, 3 and every k.
    rng = random.Random(60 + n)
    forms = [symplectic_form(n)] + [
        flat_family_form(s, n, k) for s in (0, Q(1, 2), 3) for k in range(n + 1)
    ]
    for c in forms:
        j_mat = _dense(c)
        for _ in range(4):
            u, v = _random_vector(2 * n, rng), _random_vector(2 * n, rng)
            assert form_value(u, v, c) == _dense_form_value(u, v, j_mat)
            assert _pairing(u, c) == mat_mul((u,), j_mat)[0]
            space = random_subspace(2 * n, rng.randint(0, 2 * n), rng)
            assert perp(space, n, c) == Subspace.kernel(mat_mul(space.rows, j_mat), 2 * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projected_form_isotropy_is_isotropy_after_projection(n):
    # For every (i, j): u is J_M-isotropic iff P·u is J-isotropic, P zeroing
    # M = {j+1..2n-i}.
    rng = random.Random(80 + n)
    seen = set()
    for i, j in index_pairs(TypeC(n)):
        middle = range(j + 1, 2 * n - i + 1)
        form = _projected_form(symplectic_form(n), middle)
        spaces = [random_subspace(2 * n, rng.randint(1, 2 * n), rng) for _ in range(4)]
        spaces += [w(2 * n, *rng.sample(range(1, 2 * n + 1), 2)) for _ in range(4)]
        for u in spaces:
            direct = is_isotropic(project_away(u, middle), n)
            assert is_isotropic(u, n, form) == direct, (i, j, u.rows)
            seen.add(direct)
    assert seen == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contains_projection_is_containment_of_the_projection(n):
    rng = random.Random(90 + n)
    seen = set()
    for _ in range(30):
        kill = set(rng.sample(range(1, 2 * n + 1), rng.randint(0, 2 * n)))
        small = random_subspace(2 * n, rng.randint(0, 2 * n), rng)
        big = rng.choice([
            random_subspace(2 * n, rng.randint(0, 2 * n), rng),
            project_away(small, kill).sum(random_subspace(2 * n, rng.randint(0, 1), rng)),
            w(2 * n, *(l for l in range(1, 2 * n + 1) if l not in kill)),
        ])
        direct = big.contains(project_away(small, kill))
        assert _contains_projection(big, small, kill) == direct
        seen.add(direct)
    assert seen == {True, False}


def test_isotropy_basics():
    assert is_isotropic(w(4, 1), 2)
    assert not is_isotropic(w(4, 1, 4), 2)


def test_perp_involution_random():
    for n in (1, 2, 3):
        whole = w(2 * n, *range(1, 2 * n + 1))
        assert perp(Subspace.zero(2 * n), n) == whole
        assert perp(whole, n) == Subspace.zero(2 * n)
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 3)
        u = random_subspace(2 * n, rng.randint(0, 2 * n), rng)
        assert perp(u, n).dim == 2 * n - u.dim
        assert perp(perp(u, n), n) == u


# --- membership tests ----------------------------------------------------------


def test_grass_coordinate_spaces():
    for n in (2, 3):
        for k in range(1, n + 1):
            assert in_sp_grass_a(w(2 * n, *range(1, k + 1)), k, n)


def test_grass_any_line():
    u = Subspace.span([vec(1, 0, 0, 1)], 4)
    assert in_sp_grass_a(u, 1, 2)


def test_grass_k_equals_n_is_lagrangian_test():
    # at k = n the projection is the identity, so the test is plain isotropy
    assert not in_sp_grass_a(w(4, 2, 3), 2, 2)
    u = Subspace.span([vec(1, 0, 0, 1), vec(0, 1, 1, 0)], 4)
    assert is_isotropic(u, 2) and in_sp_grass_a(u, 2, 2)


def test_grass_projection_can_forgive():
    # span(w3,w4) is not isotropic in sp_6, but its truncation to the
    # outer coordinates vanishes, so the degenerate test passes
    u = w(6, 3, 4)
    assert not is_isotropic(u, 3)
    assert in_sp_grass_a(u, 2, 3)


def test_grass_dimension_mismatch():
    with pytest.raises(ValueError):
        in_sp_grass_a(w(4, 1), 2, 2)


def test_flag_coordinate():
    flag = FlagPoint((1, 2), (w(4, 1), w(4, 1, 2)))
    assert in_sp_flag_a(flag, 2)


def test_flag_false_example():
    flag = FlagPoint((1, 2), (w(4, 2), w(4, 2, 3)))
    assert not in_sp_flag_a(flag, 2)


def test_flag_projected_inclusion_violation():
    # V_1 = span(w1) projects to itself under pr_2, not inside span(w3, w4)
    flag = FlagPoint((1, 2), (w(4, 1), w(4, 3, 4)))
    assert not in_sp_flag_a(flag, 2)


def test_flag_parabolic_projection_range():
    # d = (1,3): pr_2 pr_3 applied to V_1
    u = Subspace.span([vec(0, 1, 1, 0, 0, 0)], 6)
    v3 = w(6, 1, 2, 3)
    flag = FlagPoint((1, 3), (u, v3))
    # projection of u kills both coordinates, inclusion trivially holds
    assert in_sp_flag_a(flag, 3)


def test_in_resolution_highest_weight():
    n = 2
    spaces = {
        (1, 1): w(4, 1),
        (1, 2): w(4, 1),
        (1, 3): w(4, 1),
        (2, 2): w(4, 1, 2),
    }
    assert in_resolution(ResolutionPoint(n, (1, 2), spaces))


def test_in_resolution_violation():
    n = 2
    spaces = {
        (1, 1): w(4, 1),
        (1, 2): w(4, 3),
        (1, 3): w(4, 1),
        (2, 2): w(4, 1, 2),
    }
    assert not in_resolution(ResolutionPoint(n, (1, 2), spaces))


def test_in_resolution_shape_mismatch():
    with pytest.raises(ValueError):
        in_resolution(ResolutionPoint(2, (1, 2), {(1, 1): w(4, 1)}))


# --- lift ----------------------------------------------------------------------


def test_lift_coordinate_flag():
    flag = FlagPoint((1, 2), (w(4, 1), w(4, 1, 2)))
    res = lift(flag, 2)
    assert tuple(res.spaces[dl, dl] for dl in res.d) == flag.spaces
    assert all(v == w(4, *range(1, i + 1)) for (i, _), v in res.spaces.items())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_round_trip_random(n):
    rng = random.Random(100 + n)
    for d in all_d(n):
        for _ in range(10):
            flag = random_sp_flag(d, n, rng)
            assert in_sp_flag_a(flag, n)
            res = lift(flag, n)
            assert in_resolution(res)
            back = tuple(res.spaces[dl, dl] for dl in res.d)
            assert res.d == flag.d and back == flag.spaces
            assert all(plucker_top_nonzero(v, i) for (i, _), v in res.spaces.items())


def test_extend_choice_takes_the_least_fraction_rref():
    # Inside V, span((1,1,0,0)) grows to A = span((1,0,0,-1/3), (0,1,0,1/3))
    # or to span((1,1,0,0), (0,0,1,0)).  A has the least Fraction RREF; on
    # primitive int rows, (1,1,0,0) < (3,0,0,-1) would take the other.
    v = Subspace.span([vec(1, 1, 0, 0), vec(0, 0, 1, 0), vec(3, 0, 0, -1)], 4)
    lower = Subspace.span([vec(1, 1, 0, 0)], 4)
    a = Subspace.span([vec(3, 0, 0, -1), vec(0, 3, 0, 1)], 4)
    assert geometry._extend_choice(lower, [(v, set())], (0,) * 4, 2, 2, 2) == a


def test_lift_error_on_nonmember():
    flag = FlagPoint((1, 2), (w(4, 2), w(4, 2, 3)))
    with pytest.raises(LiftError):
        lift(flag, 2)


def test_lift_deterministic_on_degenerate_fiber():
    # coordinate flag for d = (2): the fiber over it is positive-dimensional,
    # the choice must still be reproducible
    flag = FlagPoint((2,), (w(4, 1, 2),))
    r1 = lift(flag, 2)
    r2 = lift(flag, 2)
    assert r1.spaces == r2.spaces


@pytest.mark.parametrize("n,members", [(1, 2), (2, 18), (3, 228)])
def test_lift_iff_member_on_coordinate_flags(n, members):
    # Every coordinate flag, for every d: lift raises exactly on the flags
    # in_sp_flag_a rejects, and projects back to the others.  `members` counts
    # the flags it accepts.
    count = 0
    for d in all_d(n):
        for sets in product(*(combinations(range(1, 2 * n + 1), k) for k in d)):
            flag = FlagPoint(d, tuple(w(2 * n, *s) for s in sets))
            member = in_sp_flag_a(flag, n)
            try:
                res = lift(flag, n)
            except LiftError:
                assert not member, (d, sets)
            else:
                back = FlagPoint(res.d, tuple(res.spaces[dl, dl] for dl in res.d))
                assert member and back == flag, (d, sets)
            count += member
    assert count == members


def _exp_nilpotent(m, size: int):
    """exp(m), the sum of m^k / k!, for a nilpotent size x size matrix."""
    out = term = tuple(tuple(Q(int(r == c)) for c in range(size)) for r in range(size))
    for k in range(1, size):
        term = tuple(tuple(x / k for x in row) for row in mat_mul(term, m))
        out = tuple(tuple(a + b for a, b in zip(p, q)) for p, q in zip(out, term))
    return out


def _orbit_point(sets, d, n, rng) -> FlagPoint:
    """V_{d_l} = exp(sum of c_α f_α over α with <α, ω_{d_l}> > 0) · w_{S_l},
    with one random c_α per root shared by every l."""
    coeffs = {ij: Q(rng.randint(-3, 3), rng.randint(1, 2)) for ij in index_pairs(TypeC(n))}
    spaces = []
    for dl, s in zip(d, sets):
        radical = radical_pairs((dl,), n)
        nil = sp_lower_matrix({ij: c for ij, c in coeffs.items() if ij in radical}, n)
        spaces.append(apply_matrix(_exp_nilpotent(nil, 2 * n), w(2 * n, *s)))
    return FlagPoint(d, tuple(spaces))


@pytest.mark.parametrize("n,per_d", [(3, 20), (4, 4)])
def test_lift_iff_member_on_orbit_points(n, per_d):
    # Orbit points of coordinate members, for every d with a gap
    # d_{l+1} - d_l > 1: some are members and some are not, and lift raises
    # exactly on the non-members.
    rng = random.Random(70 + n)
    outcomes = set()
    for d in all_d(n):
        if all(b - a == 1 for a, b in zip(d, d[1:])):
            continue
        for _ in range(per_d):
            sets = [rng.sample(range(1, 2 * n + 1), k) for k in d]
            while not in_sp_flag_a(FlagPoint(d, tuple(w(2 * n, *s) for s in sets)), n):
                sets = [rng.sample(range(1, 2 * n + 1), k) for k in d]
            flag = _orbit_point(sets, d, n, rng)
            member = in_sp_flag_a(flag, n)
            try:
                res = lift(flag, n)
            except LiftError:
                assert not member, (d, sets)
            else:
                back = FlagPoint(res.d, tuple(res.spaces[dl, dl] for dl in res.d))
                assert member and back == flag, (d, sets)
            outcomes.add(member)
    assert outcomes == {True, False}


def _random_inside(u: Subspace, k: int, rng) -> Subspace:
    """Span of k random combinations of the rows of u."""
    vecs = []
    for _ in range(k):
        v = [Q(0)] * u.ambient
        for row in u.rows:
            c = rng.randint(-3, 3)
            v = [a + c * b for a, b in zip(v, row)]
        vecs.append(tuple(v))
    return Subspace.span(vecs, u.ambient)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_in_w_and_contains_is_the_kernel_of_forms(n):
    # The kernel of w_{i+1}^*..w_j^* and ann(V) is W_{i,j} ∩ V, so testing
    # containment in it equals testing _in_w and V.contains.
    rng = random.Random(40 + n)
    seen = set()
    for _ in range(6):
        v = random_subspace(2 * n, rng.randint(0, 2 * n), rng)
        for i in range(1, 2 * n):
            for j in range(i, 2 * n - i + 1):
                forms = _unit_vectors(range(i + 1, j + 1), 2 * n) + v.annihilator()
                meet = Subspace.kernel(forms, 2 * n)
                in_w = w(2 * n, *range(1, i + 1), *range(j + 1, 2 * n + 1))
                for source in (w(2 * n, *range(1, 2 * n + 1)), in_w, v, meet):
                    u = _random_inside(source, rng.randint(0, 2), rng)
                    direct = _in_w(u, i, j) and v.contains(u)
                    assert meet.contains(u) == direct
                    seen.add(direct)
    assert seen == {True, False}


def test_in_resolution_makes_no_rref_call(monkeypatch):
    rng = random.Random(13)
    points = [lift(random_sp_flag(d, n, rng), n) for n in (2, 3) for d in all_d(n)]
    calls = []
    rref = geometry.rref

    def counted_rref(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(geometry, "rref", counted_rref)
    for point in points:
        assert in_resolution(point)
    assert calls == []


def test_in_sp_flag_a_makes_no_rref_call(monkeypatch):
    # The Grassmannian test reads U's rows under the degenerate form J_0, so
    # no projected subspace is re-spanned; members and non-members alike.
    rng = random.Random(13)
    flags = [(random_sp_flag(d, n, rng), n) for n in (2, 3) for d in all_d(n)]
    flags += [
        (FlagPoint(d, tuple(w(4, *s) for s in sets)), 2)
        for d in all_d(2)
        for sets in product(*(combinations(range(1, 5), k) for k in d))
    ]
    calls = []
    rref = geometry.rref

    def counted_rref(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(geometry, "rref", counted_rref)
    verdicts = {in_sp_flag_a(flag, n) for flag, n in flags}
    assert verdicts == {False, True}
    assert calls == []


def test_lift_makes_a_pinned_number_of_rref_calls(monkeypatch):
    # One rref call per feasible row of each choice, with the current space
    # as `start`, makes 403 on these lifts; a containment test, a span and a
    # sum per new row made 423.
    rng = random.Random(13)
    flags = [(random_sp_flag(d, n, rng), n) for n in (2, 3, 4) for d in all_d(n)]
    calls = []
    rref = geometry.rref

    def counted_rref(*args):
        calls.append(1)
        return rref(*args)

    monkeypatch.setattr(geometry, "rref", counted_rref)
    for flag, n in flags:
        lift(flag, n)
    assert len(calls) == 403


def test_lift_calls_kernel_only_to_choose(monkeypatch):
    # Each call to Subspace.kernel records whether _extend_choice is running.
    calls, choosing = [], []
    kernel, extend = Subspace.kernel.__func__, geometry._extend_choice

    def counted_kernel(cls, forms, ambient):
        calls.append(bool(choosing))
        return kernel(cls, forms, ambient)

    def counted_extend(*args):
        choosing.append(True)
        try:
            return extend(*args)
        finally:
            choosing.pop()

    monkeypatch.setattr(Subspace, "kernel", classmethod(counted_kernel))
    monkeypatch.setattr(geometry, "_extend_choice", counted_extend)
    rng = random.Random(11)
    for n in (2, 3, 4):
        lift(random_sp_flag(tuple(range(1, n + 1)), n, rng), n)
        assert calls == [], f"open-cell lift at n = {n} made kernel calls"
        lift(random_sp_flag((n,), n, rng), n)
        assert calls and all(calls)
        calls.clear()


# --- open cell and divisors ------------------------------------------------------


def test_plucker_criterion_on_coordinate_points():
    n = 2
    for coll in fixed_points(n):
        point = realization(coll, n)
        open_cell = all(plucker_top_nonzero(v, i) for (i, _), v in point.spaces.items())
        hits_divisor = any(in_divisor(point, i, j) for (i, j) in point.spaces)
        assert open_cell == (not hits_divisor)


def test_random_open_cell_avoids_divisors():
    rng = random.Random(5)
    for _ in range(10):
        flag = random_sp_flag((1, 2), 2, rng)
        res = lift(flag, 2)
        assert all(plucker_top_nonzero(v, i) for (i, _), v in res.spaces.items())
        assert not any(in_divisor(res, i, j) for (i, j) in res.spaces)


# --- involution ------------------------------------------------------------------


def test_sigma_squared_random():
    rng = random.Random(17)
    for _ in range(20):
        spaces = random_sl_flag(6, rng)
        assert sigma_involution(sigma_involution(spaces)) == spaces


def test_random_sl_flag_needs_even_ambient():
    with pytest.raises(ValueError):
        random_sl_flag(5, random.Random(0))


def test_sigma_fixes_coordinate_flag():
    spaces = [w(4, *range(1, i + 1)) for i in range(1, 4)]
    assert sigma_involution(spaces) == spaces


def test_sigma_preserves_degenerate_flag_conditions():
    rng = random.Random(23)
    for _ in range(10):
        spaces = random_sl_flag(6, rng)
        image = sigma_involution(spaces)
        for i in range(1, 5):
            proj = project_away(image[i - 1], [i + 1])
            assert image[i].contains(proj)


def test_sigma_fixed_points_truncate_to_symplectic():
    rng = random.Random(29)
    n = 3
    for _ in range(10):
        flag = random_sp_flag((1, 2, 3), n, rng)
        spaces = list(flag.spaces) + [
            perp(flag.spaces[n - 1 - k], n) for k in range(1, n)
        ]
        # extension is a degenerate sl flag point and sigma-fixed
        for i in range(1, 2 * n - 1):
            proj = project_away(spaces[i - 1], [i + 1])
            assert spaces[i].contains(proj)
        assert sigma_involution(spaces) == spaces
        assert in_sp_flag_a(FlagPoint((1, 2, 3), tuple(spaces[:n])), n)


# --- flat family -------------------------------------------------------------------


def test_j1_is_standard_form():
    for n, k in ((1, 1), (2, 1), (2, 2), (3, 2)):
        std = tuple(tuple(Q(x) for x in row) for row in _dense(symplectic_form(n)))
        assert _dense(flat_family_form(1, n, k)) == std


def test_eta_conjugation_identity():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        s = Q(rng.randint(1, 9), rng.randint(1, 9))
        eta = eta_matrix(s, n, k)
        lhs = mat_mul(mat_transpose(eta), mat_mul(_dense(flat_family_form(1, n, k)), eta))
        assert lhs == _dense(flat_family_form(s * s, n, k))


@pytest.mark.parametrize("n,k", [(1, 2), (2, -1), (3, 4)])
def test_flat_family_rejects_k_outside_0_to_n(n, k):
    with pytest.raises(ValueError):
        flat_family_form(1, n, k)
    with pytest.raises(ValueError):
        eta_matrix(1, n, k)


def test_transport_check_random():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        u = random_isotropic(n, k, rng)
        s = Q(rng.randint(1, 9), rng.randint(1, 9))
        assert isotropy_transport_check(u, s, n, k)


def test_j0_isotropy_is_grass_membership():
    # in_sp_grass_a tests U under the degenerate form J_0 of the flat family;
    # the reference re-spans pr_{1,3}(U) and tests it under J.  Random spaces
    # mostly fail, isotropic ones and open-cell flag spaces pass.
    rng = random.Random(41)
    spaces = []
    for _ in range(30):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        spaces.append((random_subspace(2 * n, k, rng), k, n))
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            spaces.append((random_isotropic(n, k, rng), k, n))
        for d in all_d(n):
            spaces += [(v, k, n) for k, v in zip(d, random_sp_flag(d, n, rng).spaces)]
    verdicts = set()
    for u, k, n in spaces:
        member = in_sp_grass_a(u, k, n)
        assert member == is_isotropic(u, n, flat_family_form(0, n, k))
        assert member == in_sp_grass_a_respan(u, k, n)
        verdicts.add(member)
    assert verdicts == {False, True}
