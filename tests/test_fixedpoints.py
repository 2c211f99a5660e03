import json
import random
from fractions import Fraction as Q
from itertools import islice, zip_longest

import pytest

from spflag import fixedpoints
from spflag.charring import LaurentPoly, RationalPoint, evaluate_monomial
from spflag.cli import run
from spflag.fixedpoints import (
    DenominatorZeroError,
    ab_pair,
    abl_character,
    abl_numerator_weight,
    abl_verify,
    denominator_deltas,
    enumerate_fixed_points,
    is_admissible,
    realization,
    sample_point,
    wtq_component,
)
from spflag.geometry import in_resolution
from spflag.rootsys import TypeC, index_pairs


def test_count_n1():
    colls = enumerate_fixed_points(1)
    assert len(colls) == 2
    assert {coll[(1, 1)] for coll in colls} == {frozenset({1}), frozenset({2})}


@pytest.mark.parametrize("n,count", [(1, 2), (2, 16), (3, 512)])
def test_counts(n, count):
    colls = enumerate_fixed_points(n)
    assert len(colls) == count
    assert len({frozenset(coll.items()) for coll in colls}) == count


def _walk_each_node(n):
    """The tower walk that applies the candidate rule at every search node:
    the reference for the walk over the `_tower` table."""
    order = index_pairs(TypeC(n))

    def walk(partial, pos):
        if pos == len(order):
            yield dict(partial)
            return
        i, j = order[pos]
        prev = partial.get((i - 1, j), frozenset())
        for x in fixedpoints._pool(partial, i, j, n):
            partial[(i, j)] = prev | {x}
            yield from walk(partial, pos + 1)
            del partial[(i, j)]

    return walk({}, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iter_fixed_points_equals_the_walk_at_each_node(n):
    count = 0
    for got, want in zip_longest(fixedpoints.iter_fixed_points(n), _walk_each_node(n)):
        assert got == want
        count += 1
    assert count == 2 ** (n * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labelled_walk_lists_the_components_in_sorted_key_order(n):
    keys = sorted(index_pairs(TypeC(n)))
    labelled = fixedpoints.iter_fixed_points(n, lambda key, s: s)
    count = 0
    for parts, coll in zip_longest(labelled, fixedpoints.iter_fixed_points(n)):
        assert parts == [coll[k] for k in keys]
        count += 1
    assert count == 2 ** (n * n)


def test_iter_fixed_points_n5_prefix_equals_the_walk_at_each_node():
    # 25 levels on the explicit stack; the first 4,096 collections share
    # their first 13 components and cover every choice below them.
    got = islice(fixedpoints.iter_fixed_points(5), 4096)
    want = islice(_walk_each_node(5), 4096)
    count = 0
    for a, b in zip_longest(got, want):
        assert a == b
        count += 1
    assert count == 4096


@pytest.mark.parametrize("n,edges", [(1, 1), (2, 9), (3, 74), (4, 697)])
def test_label_runs_once_per_tower_branch(n, edges):
    calls = 0

    def label(key, s):
        nonlocal calls
        calls += 1
        return key, s

    assert sum(1 for _ in fixedpoints.iter_fixed_points(n, label)) == 2 ** (n * n)
    assert calls == 2 * edges


@pytest.mark.parametrize("n,edges", [(1, 1), (2, 9), (3, 74), (4, 697)])
def test_pool_runs_once_per_tower_edge(monkeypatch, n, edges):
    calls = 0
    real = fixedpoints._pool

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(fixedpoints, "_pool", counting)
    fixedpoints._tower.cache_clear()
    try:
        assert sum(1 for _ in fixedpoints.iter_fixed_points(n)) == 2 ** (n * n)
        assert calls == edges
        assert sum(len(step[2]) for step in fixedpoints._tower(n)) == edges
    finally:
        fixedpoints._tower.cache_clear()


def test_all_admissible():
    for n in (1, 2, 3):
        for coll in enumerate_fixed_points(n):
            assert is_admissible(coll, n)


def test_admissible_matches_exhaustive_coordinate_points_n2():
    """Admissible collections = coordinate-span points of the resolution."""
    from itertools import combinations, product

    n = 2
    order = index_pairs(TypeC(n))
    pools = []
    for i, j in order:
        ambient = sorted(set(range(1, i + 1)) | set(range(j + 1, 2 * n + 1)))
        pools.append([frozenset(c) for c in combinations(ambient, i)])
    admissible = {
        tuple(sorted((ij, tuple(sorted(s))) for ij, s in coll.items()))
        for coll in enumerate_fixed_points(n)
    }
    count = 0
    for assignment in product(*pools):
        coll = dict(zip(order, assignment))
        point = realization(coll, n)
        member = in_resolution(point, (1, 2), n)
        key = tuple(sorted((ij, tuple(sorted(s))) for ij, s in coll.items()))
        assert member == (key in admissible)
        count += member
    assert count == 16


def test_ab_pair_n1():
    assert ab_pair({(1, 1): frozenset({1})}, 1, 1, 1) == (1, 2)
    assert ab_pair({(1, 1): frozenset({2})}, 1, 1, 1) == (2, 1)


def test_ab_pair_generic_example():
    n = 2
    coll = {
        (1, 3): frozenset({4}),
        (1, 2): frozenset({3}),
    }
    # candidate pool S_{1,3} + {3} = {3,4}; a is the element of S_{1,2}
    assert ab_pair(coll, 1, 2, n) == (3, 4)


def test_ab_pair_properties():
    for n in (1, 2, 3):
        for coll in enumerate_fixed_points(n):
            for i, j in index_pairs(TypeC(n)):
                a, b = ab_pair(coll, i, j, n)
                assert a in coll[(i, j)]
                assert b not in coll[(i, j)]


def test_ab_pair_corrupted_collection_raises():
    # n=3 with S_{2,3} containing the partner pair {2,5}: no valid pool at (3,3)
    n = 3
    coll = {(2, 3): frozenset({2, 5}), (3, 3): frozenset({1, 2, 5})}
    with pytest.raises(ValueError):
        ab_pair(coll, 3, 3, n)


def test_sibling_collections_exist():
    for n in (1, 2, 3):
        order = index_pairs(TypeC(n))
        colls = enumerate_fixed_points(n)

        def key(coll, depth):
            return tuple(tuple(sorted(coll[ij])) for ij in order[:depth])

        prefixes = {depth: {key(c, depth) for c in colls} for depth in range(len(order) + 1)}
        for coll in colls:
            for pos, (i, j) in enumerate(order):
                a, b = ab_pair(coll, i, j, n)
                sibling_set = coll[(i, j)] - {a} | {b}
                sibling_key = key(coll, pos) + (tuple(sorted(sibling_set)),)
                assert sibling_key in prefixes[pos + 1]


def test_wtq_component():
    assert wtq_component(frozenset({1, 2}), 2, 2) == (0, 1, 1)
    assert wtq_component(frozenset({2}), 1, 1) == (1, -1)
    assert wtq_component(frozenset({3}), 1, 2) == (1, 0, -1)
    with pytest.raises(ValueError):
        wtq_component(frozenset({1, 2}), 1, 2)


def test_numerator_weight():
    n = 2
    highest = {
        (1, 3): frozenset({1}),
        (1, 2): frozenset({1}),
        (2, 2): frozenset({1, 2}),
        (1, 1): frozenset({1}),
    }
    lam = (2, 1)
    assert abl_numerator_weight(highest, lam, n) == (0, 3, 1)
    assert abl_numerator_weight(highest, (0, 0), n) == (0, 0, 0)


def test_numerator_n1():
    assert abl_numerator_weight({(1, 1): frozenset({2})}, (1,), 1) == (1, -1)


def test_unique_qdeg_zero_collection_for_regular_weight():
    for n in (1, 2, 3):
        lam = (1,) * n
        zero_q = [
            coll
            for coll in enumerate_fixed_points(n)
            if abl_numerator_weight(coll, lam, n)[0] == 0
        ]
        assert len(zero_q) == 1
        highest = zero_q[0]
        assert all(s == frozenset(range(1, i + 1)) for (i, _), s in highest.items())


def test_denominator_deltas_shape():
    n = 2
    for coll in enumerate_fixed_points(n):
        deltas = denominator_deltas(coll, n)
        assert len(deltas) == n * n


def test_abl_evaluate_n1_spot():
    pt = RationalPoint((Q(2),), Q(3))
    assert abl_character((1,), 1).evaluate(pt) == Q(7, 2)


def test_abl_evaluate_zero_weight_is_one():
    for n in (1, 2, 3, 4):
        assert abl_character((0,) * n, n) == LaurentPoly.one(n)


def test_abl_denominator_zero_raises(monkeypatch):
    # every sampled point lies where 1 - q z^-2 vanishes
    monkeypatch.setattr(fixedpoints, "sample_point", lambda n, rng: RationalPoint((Q(1),), Q(1)))
    with pytest.raises(DenominatorZeroError):
        abl_verify((1,), 1, 3, seed=0)


def test_sl2_closed_form():
    for m in range(6):
        closed = LaurentPoly(1, {(k, m - 2 * k): 1 for k in range(m + 1)})
        assert abl_character((m,), 1) == closed


def test_abl_verify_matches_direct():
    report = abl_verify((3,), 1, 20, seed=5)
    assert report["matched"] and report["convention"] == "direct"
    assert len(report["points"]) == 20
    report = abl_verify((0, 1), 2, 10, seed=6)
    assert report["matched"] and report["convention"] == "direct"


def _brute_sum(m_vec, pt, n, colls, inverted=False):
    """The localization sum collection by collection, as the reference."""
    if inverted:
        pt = pt.inverted()
    total = Q(0)
    for coll in colls:
        value = evaluate_monomial(pt, abl_numerator_weight(coll, m_vec, n))
        for delta in denominator_deltas(coll, n):
            factor = 1 - evaluate_monomial(pt, delta)
            if factor == 0:
                raise DenominatorZeroError(f"denominator vanished at {pt}")
            value /= factor
        total += value
    return total


@pytest.mark.parametrize("n", [1, 2, 3])
def test_abl_evaluate_equals_brute_force_sum(n):
    colls = enumerate_fixed_points(n)
    weights = [(0,) * n, (1,) * n, tuple(range(n, 0, -1)), (0,) * (n - 1) + (2,)]
    polys = {m_vec: abl_character(m_vec, n) for m_vec in weights}
    rng = random.Random(100 + n)
    points = [sample_point(n, rng) for _ in range(6)]
    screened = []
    for pt in points:
        defined = fixedpoints._sum_defined_at(pt, fixedpoints._tower_deltas(n))
        screened.append(not defined)
        for m_vec in weights:
            for inverted in (False, True):
                try:
                    want = _brute_sum(m_vec, pt, n, colls, inverted=inverted)
                except DenominatorZeroError:
                    assert not defined, (m_vec, pt, inverted)
                    continue
                assert defined, (m_vec, pt, inverted)
                got = polys[m_vec].evaluate(pt.inverted() if inverted else pt)
                assert got == want, (m_vec, pt, inverted)
    if n == 3:
        # the sample holds points on both sides of the screen
        assert any(screened) and not all(screened)


def _patch_character(monkeypatch, change):
    real = fixedpoints.graded_character
    monkeypatch.setattr(
        fixedpoints, "graded_character", lambda m_vec, system: change(real(m_vec, system))
    )


def test_abl_verify_retries_in_inverted_variables(monkeypatch):
    _patch_character(monkeypatch, lambda gc: gc.invert_variables())
    report = abl_verify((1, 0), 2, 4, seed=2)
    assert report["matched"] and report["convention"] == "inverted"
    assert len(report["points"]) == 4


def test_abl_verify_reports_a_mismatch_in_both_conventions(monkeypatch, capsys):
    _patch_character(monkeypatch, lambda gc: gc * 2)
    report = abl_verify((1, 0), 2, 4, seed=2)
    assert not report["matched"] and report["convention"] == "direct"
    assert not any(r["equal"] for r in report["points"])
    rc = run(["abl-verify", "--n", "2", "--lambda", "1,0", "--trials", "4", "--seed", "2"])
    assert rc == 1 and json.loads(capsys.readouterr().out) == report


def test_abl_verify_match_is_not_decided_by_the_sampled_points(monkeypatch, capsys):
    # 3q - 2 vanishes at q = 2/3, the only point ever sampled, so every row
    # agrees although the polynomials differ.
    monkeypatch.setattr(
        fixedpoints, "sample_point", lambda n, rng: RationalPoint((Q(5, 7),), Q(2, 3))
    )
    _patch_character(monkeypatch, lambda gc: gc + LaurentPoly(1, {(1, 0): 3, (0, 0): -2}))
    report = abl_verify((1,), 1, 3, 0)
    assert not report["matched"]
    assert len(report["points"]) == 3 and all(r["equal"] for r in report["points"])
    rc = run(["abl-verify", "--n", "1", "--lambda", "1", "--trials", "3", "--seed", "0"])
    assert rc == 1 and json.loads(capsys.readouterr().out) == report


def test_abl_verify_rejects_zero_trials():
    with pytest.raises(ValueError):
        abl_verify((1,), 1, 0, seed=0)


def test_abl_verify_zero_weight():
    report = abl_verify((0, 0), 2, 5, seed=7)
    assert report["matched"]
    assert all(r["abl"] == "1" for r in report["points"])


def test_realizations_pass_in_resolution():
    for n in (1, 2):
        d = tuple(range(1, n + 1))
        for coll in enumerate_fixed_points(n):
            assert in_resolution(realization(coll, n), d, n)
