import pytest

from spflag import bundles
from spflag.bundles import (
    discrepancy_b,
    discrepancy_table,
    is_exceptional,
    nonexceptional_pairs,
    solve_b,
    tilde_omega,
    verify_canonical_identity,
)
from spflag.rootsys import radical_pairs

from support import all_d, divisor_class


def test_divisor_class_cases_n2():
    # row 1 with the short column at the wall: single term
    assert divisor_class(1, 3, (1, 2), 2) == {(1, 3): 1}
    # anti-diagonal case
    assert divisor_class(2, 2, (1, 2), 2) == {(2, 2): 1, (1, 2): -2, (1, 3): 1}
    # generic row-1 case
    assert divisor_class(1, 1, (1, 2), 2) == {(1, 1): 1, (1, 2): -1}


def test_divisor_class_generic_interior():
    out = divisor_class(2, 3, (1, 2, 3), 3)
    assert out == {(2, 3): 1, (1, 3): -1, (2, 4): -1, (1, 4): 1}


def test_divisor_class_requires_membership():
    with pytest.raises(ValueError):
        divisor_class(1, 1, (2,), 2)


def test_tilde_omega_complete_is_two():
    for n in (1, 2, 3, 4):
        d = tuple(range(1, n + 1))
        assert tilde_omega(d, n) == {(i, i): 2 for i in range(1, n + 1)}


def test_tilde_omega_single_index():
    # Lagrangian Grassmannian of sp_4 has index 3
    assert tilde_omega((2,), 2) == {(2, 2): 3}
    # projective space P^{2n-1} has index 2n
    assert tilde_omega((1,), 3) == {(1, 1): 6}


def test_discrepancy_spot_values():
    assert discrepancy_b(2, 2, (1, 2), 2) == 1
    assert discrepancy_b(1, 1, (1, 2), 2) == 1
    assert discrepancy_b(1, 3, (1, 2), 2) == 1
    # the lone exceptional divisor of the complete n=2 tower
    assert discrepancy_b(1, 2, (1, 2), 2) == 2
    # single-index towers
    assert discrepancy_b(1, 1, (1,), 2) == 3
    assert discrepancy_b(1, 2, (2,), 2) == 3
    assert discrepancy_b(2, 2, (2,), 2) == 2
    assert discrepancy_b(1, 3, (2,), 2) == 1


def test_discrepancy_membership_required():
    with pytest.raises(ValueError):
        discrepancy_b(2, 2, (1,), 2)


def test_exceptional_complete_case():
    n = 2
    d = (1, 2)
    assert is_exceptional(1, 2, d, n)
    assert not is_exceptional(1, 3, d, n)
    assert not is_exceptional(1, 1, d, n)
    assert not is_exceptional(2, 2, d, n)


def test_exceptional_parabolic_example():
    n = 2
    d = (1,)
    assert nonexceptional_pairs(d, n) == frozenset({(1, 3)})
    assert is_exceptional(1, 1, d, n) and is_exceptional(1, 2, d, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complete_case_list_matches_closed_criterion(n):
    d = tuple(range(1, n + 1))
    got = nonexceptional_pairs(d, n)
    expect = {
        (i, j) for (i, j) in radical_pairs(d, n) if j < n or i + j == 2 * n
    }
    assert got == expect


# The next three run over every d at n = 1..8.  `solve_b` reads `tilde_omega`
# and `boundary_pairs`, the identity reads `divisor_terms`, the one place the
# expansion of O(Z_{i,j}) is stated, and the closed form `discrepancy_b` reads
# none of them.
@pytest.mark.parametrize("n", range(1, 9))
def test_solve_matches_closed_form(n):
    for d in all_d(n):
        sb = solve_b(d, n)
        for (i, j) in radical_pairs(d, n):
            assert sb[(i, j)] == discrepancy_b(i, j, d, n), (n, d, (i, j))


@pytest.mark.parametrize("n", range(1, 9))
def test_b_positive_and_one_iff_nonexceptional(n):
    for d in all_d(n):
        for (i, j) in radical_pairs(d, n):
            b = discrepancy_b(i, j, d, n)
            assert b >= 1
            assert (b == 1) == (not is_exceptional(i, j, d, n))


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_identity(n):
    for d in all_d(n):
        b = {(i, j): discrepancy_b(i, j, d, n) for i, j in radical_pairs(d, n)}
        ok, residual = verify_canonical_identity(d, n, b)
        assert ok and not residual, (n, d, residual)


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_identity_catches_a_wrong_b(n):
    # One b raised by 1 leaves exactly that divisor's class as the residual.
    for d in all_d(n):
        closed = {(r["i"], r["j"]): r["b"] for r in discrepancy_table(d, n)}
        for i, j in radical_pairs(d, n):
            ok, residual = verify_canonical_identity(d, n, {**closed, (i, j): closed[(i, j)] + 1})
            assert not ok and residual == divisor_class(i, j, d, n), (n, d, (i, j))


def test_canonical_identity_refuses_an_index_outside_p_d(monkeypatch):
    # P_d without (1, 2): the class of (1, 1) demands omega_{1,2}.
    d, n = (1, 2), 2
    pairs = radical_pairs(d, n)
    b = {ij: 1 for ij in pairs}
    monkeypatch.setattr(bundles, "radical_pairs", lambda d, n: pairs - {(1, 2)})
    with pytest.raises(ValueError, match=r"omega index \(1,2\) demanded outside P_d"):
        verify_canonical_identity(d, n, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complete_case_discrepancy_pattern(n):
    d = tuple(range(1, n + 1))
    for (i, j) in radical_pairs(d, n):
        a = discrepancy_b(i, j, d, n) - 1
        assert (a == 1) == (j >= n and i + j < 2 * n)
        assert a in (0, 1)


def test_discrepancy_table_shape():
    rows = discrepancy_table((1, 2), 2)
    assert [tuple(r[k] for k in ("i", "j")) for r in rows] == [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
    ]
    assert all(set(r) == {"i", "j", "b", "exceptional"} for r in rows)


def test_discrepancy_table_rows_agree_with_the_per_pair_api():
    # The table reads `exceptional` off one `nonexceptional_pairs` per table.
    for n in range(1, 7):
        for d in all_d(n):
            rows = discrepancy_table(d, n)
            assert [(r["i"], r["j"]) for r in rows] == sorted(radical_pairs(d, n))
            for r in rows:
                assert r["b"] == discrepancy_b(r["i"], r["j"], d, n)
                assert r["exceptional"] == is_exceptional(r["i"], r["j"], d, n), (n, d)


def test_all_d():
    assert all_d(2) == [(1,), (2,), (1, 2)]
    assert len(all_d(4)) == 15
