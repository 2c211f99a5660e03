import json
import random
from fractions import Fraction as Q
from itertools import islice, product, zip_longest

import pytest

from spflag import fixedpoints
from spflag.charring import weyl_character
from spflag.cli import run
from spflag.fixedpoints import (
    DenominatorZeroError,
    ab_pair,
    abl_character,
    abl_numerator_weight,
    abl_verify,
    denominator_deltas,
    evaluate,
    is_admissible,
    sample_point,
    wtq_component,
)
from spflag.geometry import in_resolution
from spflag.polytope import graded_character
from spflag.rootsys import TypeA, TypeC, index_pairs, weight_of

from support import evaluate_monomial, fixed_points, realization
from test_golden import GOLDEN
from test_polytope import CHARACTERS_WEIGHTS


def test_count_n1():
    colls = list(fixed_points(1))
    assert len(colls) == 2
    assert {coll[(1, 1)] for coll in colls} == {frozenset({1}), frozenset({2})}


@pytest.mark.parametrize("n,count", [(1, 2), (2, 16), (3, 512)])
def test_counts(n, count):
    colls = list(fixed_points(n))
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
    for got, want in zip_longest(fixed_points(n), _walk_each_node(n)):
        assert got == want
        count += 1
    assert count == 2 ** (n * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labelled_walk_lists_the_components_in_sorted_key_order(n):
    keys = sorted(index_pairs(TypeC(n)))
    labelled = fixedpoints.iter_fixed_points(n, lambda key, s: s)
    count = 0
    for parts, coll in zip_longest(labelled, fixed_points(n)):
        assert parts == [coll[k] for k in keys]
        count += 1
    assert count == 2 ** (n * n)


def test_iter_fixed_points_n5_prefix_equals_the_walk_at_each_node():
    # 25 levels on the explicit stack; the first 4,096 collections share
    # their first 13 components and cover every choice below them.
    got = islice(fixed_points(5), 4096)
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
        assert sum(1 for _ in fixedpoints.iter_fixed_points(n, lambda key, s: None)) == 2 ** (n * n)
        assert calls == edges
        assert sum(len(step[2]) for step in fixedpoints._tower(n)) == edges
    finally:
        fixedpoints._tower.cache_clear()


@pytest.mark.parametrize("n,edges", [(1, 1), (2, 9), (3, 74), (4, 697)])
def test_tower_table_is_numbered_without_dead_or_missing_states(n, edges):
    # Steps are listed last first; a row's "after" numbers index the rows of
    # the step listed just before it, and after the last step they are 0.
    steps = fixedpoints._tower(n)
    assert [(i, j) for i, j, _ in steps] == list(reversed(index_pairs(TypeC(n))))
    assert {row[k] for row in steps[0][2] for k in (1, 3)} == {0}
    assert len(steps[-1][2]) == 1
    for (*_, before), (*_, rows) in zip(steps, steps[1:]):
        assert {row[k] for row in rows for k in (1, 3)} == set(range(len(before)))
    assert sum(len(rows) for *_, rows in steps) == edges


def test_all_admissible():
    for n in (1, 2, 3):
        for coll in fixed_points(n):
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
        for coll in fixed_points(n)
    }
    count = 0
    for assignment in product(*pools):
        coll = dict(zip(order, assignment))
        point = realization(coll, n)
        member = in_resolution(point)
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
        for coll in fixed_points(n):
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
        colls = list(fixed_points(n))

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
            for coll in fixed_points(n)
            if abl_numerator_weight(coll, lam, n)[0] == 0
        ]
        assert len(zero_q) == 1
        highest = zero_q[0]
        assert all(s == frozenset(range(1, i + 1)) for (i, _), s in highest.items())


def test_denominator_deltas_shape():
    n = 2
    for coll in fixed_points(n):
        deltas = denominator_deltas(coll, n)
        assert len(deltas) == n * n


def test_abl_evaluate_n1_spot():
    assert evaluate(abl_character((1,), 1), (Q(3), Q(2))) == Q(7, 2)


def test_abl_evaluate_zero_weight_is_one():
    for n in (1, 2, 3, 4):
        assert abl_character((0,) * n, n) == {(0,) * (n + 1): 1}


def test_abl_denominator_zero_raises(monkeypatch):
    # every sampled point lies where 1 - q z^-2 vanishes
    monkeypatch.setattr(fixedpoints, "sample_point", lambda n, rng: (Q(1), Q(1)))
    with pytest.raises(DenominatorZeroError):
        abl_verify((1,), 1, 3, seed=0)


def test_sl2_closed_form():
    for m in range(6):
        closed = {(k, m - 2 * k): 1 for k in range(m + 1)}
        assert abl_character((m,), 1) == closed


def test_abl_verify_matches_direct():
    report = abl_verify((3,), 1, 20, seed=5)
    assert report["matched"] and report["convention"] == "direct"
    assert len(report["points"]) == 20
    report = abl_verify((0, 1), 2, 10, seed=6)
    assert report["matched"] and report["convention"] == "direct"


def _inverted(pt):
    """The point with z_i -> 1/z_i and q -> 1/q."""
    return tuple(1 / x for x in pt)


def _brute_sum(m_vec, pt, n, colls, inverted=False):
    """The localization sum collection by collection, as the reference."""
    if inverted:
        pt = _inverted(pt)
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
    colls = list(fixed_points(n))
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
                got = evaluate(polys[m_vec], _inverted(pt) if inverted else pt)
                assert got == want, (m_vec, pt, inverted)
    if n == 3:
        # the sample holds points on both sides of the screen
        assert any(screened) and not all(screened)


def _defined_by_fractions(pt, deltas):
    """The denominator screen over Fractions: the reference for `_sum_defined_at`."""
    return all(evaluate_monomial(pt, delta) != 1 for delta in deltas)


def _signed_point(n, rng):
    """A point of ratios of small integers of either sign, often equal to 1 or -1."""
    return tuple(Q(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n + 1))


@pytest.mark.parametrize("n,count", [(1, 200), (2, 500), (3, 2000), (4, 300)])
def test_integer_screen_equals_the_fraction_screen(n, count):
    deltas = fixedpoints._tower_deltas(n)
    rng = random.Random(n)
    verdicts = set()
    for draw in range(count):
        pt = (sample_point if draw % 2 else _signed_point)(n, rng)
        defined = fixedpoints._sum_defined_at(pt, deltas)
        assert defined == _defined_by_fractions(pt, deltas), pt
        verdicts.add(defined)
    assert verdicts == {True, False}


# Every weight that a test, a golden digest or the benchmark pushes down.
PUSHED_WEIGHTS = [
    *product(range(6), repeat=1),
    *product(range(3), repeat=2),
    (9, 9),
    *product(range(2), repeat=3),
    (3, 2, 1),
    (0, 0, 2),
    (0, 0, 0, 0),
    *(tuple(int(k == i) for k in range(4)) for i in range(4)),
    (0, 1, 0, 1),
    (1, 1, 1, 1),
    *(tuple(int(k == i) for k in range(5)) for i in range(5)),
]


@pytest.mark.parametrize("m_vec", PUSHED_WEIGHTS)
def test_push_down_stays_inside_the_exponent_bound(monkeypatch, m_vec):
    n = len(m_vec)
    bound = fixedpoints._exponent_bound(m_vec, n)
    width = fixedpoints._packing_width(bound)
    real = fixedpoints._divide_by_binomial
    seen = []

    def checked(num, alpha, w):
        assert w == width
        quo = real(num, alpha, w)
        for terms in (num, quo):
            seen.extend(x for e in fixedpoints._unpack(terms, w, n + 1) for x in e)
        return quo

    monkeypatch.setattr(fixedpoints, "_divide_by_binomial", checked)
    poly = abl_character(m_vec, n)
    seen.extend(x for e in poly for x in e)
    assert max(map(abs, seen)) <= bound
    monkeypatch.undo()
    assert poly == abl_character(m_vec, n)


def _patch_character(monkeypatch, change):
    real = fixedpoints.graded_character
    monkeypatch.setattr(
        fixedpoints, "graded_character", lambda m_vec, system: change(real(m_vec, system))
    )


def test_abl_verify_does_not_match_in_inverted_variables(monkeypatch, capsys):
    # A character in the other convention (z -> 1/z, q -> 1/q) is a mismatch.
    _patch_character(monkeypatch, lambda gc: {tuple(-x for x in e): c for e, c in gc.items()})
    report = abl_verify((1, 0), 2, 4, seed=2)
    assert not report["matched"] and report["convention"] == "direct"
    assert len(report["points"]) == 4
    rc = run(["abl-verify", "--n", "2", "--lambda", "1,0", "--trials", "4", "--seed", "2"])
    assert rc == 1 and json.loads(capsys.readouterr().out) == report


def test_abl_verify_reports_a_mismatch_in_both_conventions(monkeypatch, capsys):
    _patch_character(monkeypatch, lambda gc: {e: 2 * c for e, c in gc.items()})
    report = abl_verify((1, 0), 2, 4, seed=2)
    assert not report["matched"] and report["convention"] == "direct"
    assert not any(r["equal"] for r in report["points"])
    rc = run(["abl-verify", "--n", "2", "--lambda", "1,0", "--trials", "4", "--seed", "2"])
    assert rc == 1 and json.loads(capsys.readouterr().out) == report


def test_abl_verify_match_is_not_decided_by_the_sampled_points(monkeypatch, capsys):
    # 3q - 2 vanishes at q = 2/3, the only point ever sampled, so every row
    # agrees although the polynomials differ.  z + q/z has no term q or 1, so
    # the sum is the union of the terms.
    monkeypatch.setattr(
        fixedpoints, "sample_point", lambda n, rng: (Q(2, 3), Q(5, 7))
    )
    _patch_character(monkeypatch, lambda gc: {**gc, (1, 0): 3, (0, 0): -2})
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
        for coll in fixed_points(n):
            assert in_resolution(realization(coll, n))


def _character_weights():
    """(type, n, lambda) of every character a golden digest or the benchmark
    computes: `characters` runs `weyl`, `qchar` and `dim --system A --n n+1`
    on CHARACTERS_WEIGHTS, and `localization` runs `abl-verify` on three more."""
    found = {("C", len(lam), lam) for lam in [*CHARACTERS_WEIGHTS, (1, 0, 0), (0, 1, 1), (1, 1, 1)]}
    found |= {("A", len(lam) + 1, lam) for lam in CHARACTERS_WEIGHTS}
    for command in GOLDEN:
        name, *argv = command.split()
        if name in ("weyl", "qchar", "polytope", "dim", "abl-verify"):
            opts = dict(zip(argv[::2], argv[1::2]))
            lam = tuple(map(int, opts["--lambda"].split(",")))
            found.add((opts.get("--system", "C"), int(opts["--n"]), lam))
    return sorted(found)


@pytest.mark.parametrize("family, n, lam", _character_weights(), ids=str)
def test_character_routes_give_canonical_dicts(family, n, lam):
    # `abl_verify` compares the routes by dict equality: a kept zero
    # coefficient, or a key of the wrong length, would make them differ.
    if family == "C":
        routes = [weyl_character(lam, n), graded_character(lam, TypeC(n)), abl_character(lam, n)]
        nvars = n
    else:
        routes = [graded_character(lam, TypeA(n))]
        nvars = len(weight_of(lam, TypeA(n)))
    for terms in routes:
        assert terms and all(type(c) is int and c for c in terms.values())
        assert {len(e) for e in terms} == {nvars + 1}
