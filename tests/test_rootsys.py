import pytest

from spflag.geometry import symplectic_form
from spflag.rootsys import (
    TypeA,
    TypeC,
    boundary_pairs,
    index_pairs,
    is_valid_pair,
    pairing,
    radical_pairs,
    rank,
    root_weight,
    weight_of,
)

from support import _dense, all_d, root_vector_matrix


def pairs(system):
    """The index pairs, checked to be exactly those `is_valid_pair` accepts."""
    found = set(index_pairs(system))
    box = range(-1, 2 * rank(system) + 3)
    assert found == {(i, j) for i in box for j in box if is_valid_pair(i, j, system)}
    return found


def test_positive_roots_c1():
    assert pairs(TypeC(1)) == {(1, 1)}


def test_positive_roots_c2():
    assert pairs(TypeC(2)) == {(1, 1), (2, 2), (1, 2), (1, 3)}
    assert not is_valid_pair(2, 3, TypeC(2))


def test_positive_roots_a3():
    assert pairs(TypeA(3)) == {(1, 1), (2, 2), (1, 2)}
    assert not is_valid_pair(1, 3, TypeA(3))


@pytest.mark.parametrize("n", range(1, 7))
def test_type_c_count(n):
    assert len(pairs(TypeC(n))) == len(index_pairs(TypeC(n))) == n * n


@pytest.mark.parametrize("m", range(2, 7))
def test_type_a_count(m):
    assert len(pairs(TypeA(m))) == len(index_pairs(TypeA(m))) == m * (m - 1) // 2


def test_root_order_is_topological():
    seen = set()
    for i, j in index_pairs(TypeC(3)):
        if i > 1:
            assert (i - 1, j) in seen
        if i + j + 1 <= 6 and j + 1 >= i:
            assert (i, j + 1) in seen
        seen.add((i, j))


def test_root_weight_c2():
    c2 = TypeC(2)
    assert root_weight(1, 3, c2) == (2, 0)
    assert root_weight(1, 2, c2) == (1, 1)
    assert root_weight(1, 1, c2) == (1, -1)
    assert root_weight(2, 2, c2) == (0, 2)


def test_root_weight_sums_simple_roots():
    n = 3
    c = TypeC(n)
    simple = [root_weight(i, i if i < n else n, c) for i in range(1, n)]
    simple.append(root_weight(n, n, c))
    # alpha_{1,2} = alpha_1 + alpha_2
    expect = tuple(a + b for a, b in zip(simple[0], simple[1]))
    assert root_weight(1, 2, c) == expect


def test_root_vector_matrix_examples():
    def e(r, c, size):
        m = [[0] * size for _ in range(size)]
        m[r - 1][c - 1] = 1
        return m

    def add(a, b, sign=1):
        return tuple(
            tuple(x + sign * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )

    assert root_vector_matrix(1, 1, 1) == tuple(
        tuple(row) for row in e(2, 1, 2)
    )
    assert root_vector_matrix(1, 1, 2) == add(e(2, 1, 4), e(4, 3, 4), -1)
    assert root_vector_matrix(1, 2, 2) == add(e(3, 1, 4), e(4, 2, 4), 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_root_vectors_in_sp(n):
    j = _dense(symplectic_form(n))
    for p, q in index_pairs(TypeC(n)):
        f = root_vector_matrix(p, q, n)
        # f^T J + J f = 0
        size = 2 * n
        for a in range(size):
            for b in range(size):
                lhs = sum(f[k][a] * j[k][b] for k in range(size))
                rhs = sum(j[a][k] * f[k][b] for k in range(size))
                assert lhs + rhs == 0


def test_phi_embed():
    # The index-preserving embedding of C(n) roots into A(2n): every type-C
    # index pair is a type-A(2n) root.
    c2 = index_pairs(TypeC(2))
    assert len(c2) == 4
    assert all(is_valid_pair(i, j, TypeA(4)) for i, j in c2)
    assert set(c2) <= set(index_pairs(TypeA(4)))


def test_weights_of_lambda():
    assert weight_of((1, 0), TypeC(2)) == (1, 0)
    assert weight_of((0, 1), TypeC(2)) == (1, 1)
    assert weight_of((2, 3), TypeC(2)) == (5, 3)


def test_radical_full():
    for n in range(1, 5):
        assert len(radical_pairs(tuple(range(1, n + 1)), n)) == n * n


def test_radical_examples_n2():
    assert radical_pairs((1,), 2) == frozenset({(1, 1), (1, 2), (1, 3)})
    assert radical_pairs((2,), 2) == frozenset({(1, 2), (2, 2), (1, 3)})


def test_radical_matches_bruteforce_pairing():
    # P_d by its definition, on every d at n <= 6: the roots that pair
    # positively with some omega_{d_l} = eps_1 + ... + eps_{d_l}.
    for n in range(1, 7):
        system = TypeC(n)
        for d in all_d(n):
            omegas = [tuple(int(k < dl) for k in range(n)) for dl in d]
            expect = {
                (i, j)
                for i, j in index_pairs(system)
                if any(pairing(root_weight(i, j, system), omega) > 0 for omega in omegas)
            }
            assert radical_pairs(d, n) == frozenset(expect), d


def _column_loop(d, n):
    """The P_d order the lift and the triangular solve used before reading
    `index_pairs`: columns j ascending, i from the column's largest down."""
    p = radical_pairs(d, n)
    out = []
    for j in sorted({j for _, j in p}):
        top = max(i for i, jj in p if jj == j)
        out.extend((i, j) for i in range(top, 0, -1) if (i, j) in p)
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_reversed_index_pairs_is_the_column_loop_on_every_p_d(n):
    for mask in range(1, 1 << n):
        d = tuple(i + 1 for i in range(n) if mask >> i & 1)
        p = radical_pairs(d, n)
        walked = [ij for ij in reversed(index_pairs(TypeC(n))) if ij in p]
        assert walked == _column_loop(d, n)
        # every column of P_d is {1..max}, so no pair of a column is skipped
        for j in {j for _, j in p}:
            column = {i for i, jj in p if jj == j}
            assert column == set(range(1, max(column) + 1))


def test_radical_rejects_empty():
    with pytest.raises(ValueError):
        radical_pairs((), 2)


def test_boundary_examples():
    assert boundary_pairs((1,), 1) == frozenset({(1, 1)})
    assert boundary_pairs((1, 2), 2) == frozenset({(1, 1), (1, 2), (2, 2)})
    assert boundary_pairs((2,), 2) == frozenset({(1, 2), (2, 2)})


@pytest.mark.parametrize("n", range(1, 6))
def test_boundary_subset_and_characterization(n):
    for mask in range(1, 1 << n):
        d = tuple(i + 1 for i in range(n) if mask >> i & 1)
        p = radical_pairs(d, n)
        b = boundary_pairs(d, n)
        assert b <= p
        # exactly those (i0,j0) in P_d with (i0+1, j0-1) outside P_d
        expect = {(i, j) for (i, j) in p if (i + 1, j - 1) not in p}
        assert b == expect
