import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, product
from operator import add, sub

import pytest

from spflag import polytope
from spflag.charring import weyl_character, weyl_dimension
from spflag.fixedpoints import evaluate
from spflag.polytope import (
    _dyck_pairs,
    _walk,
    dimension,
    graded_character,
    lattice_points,
    polytope_spec,
)
from spflag.rootsys import TypeA, TypeC, index_pairs, rank, root_weight, weight_of

from support import EmbeddingError, at_q1, phi_point_embed, signed_permutation

# The weights of the benchmark's `characters` workload, at n = 3 and 4.
CHARACTERS_WEIGHTS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 0),
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0),
    (2, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1),
]


def path_pairs(system):
    return set(_dyck_pairs(system))


def test_dyck_paths_c1():
    assert path_pairs(TypeC(1)) == {((1, 1),)}


def test_dyck_paths_c2():
    assert path_pairs(TypeC(2)) == {
        ((1, 1),),
        ((2, 2),),
        ((1, 1), (1, 2), (1, 3)),
        ((1, 1), (1, 2), (2, 2)),
    }


def test_dyck_paths_a3():
    assert path_pairs(TypeA(3)) == {
        ((1, 1),),
        ((2, 2),),
        ((1, 1), (1, 2), (2, 2)),
    }


def test_dyck_path_steps_valid():
    for system in (TypeC(3), TypeA(4)):
        for path in _dyck_pairs(system):
            for (p, q), step in zip(path, path[1:]):
                assert step in ((p, q + 1), (p + 1, q))


def test_polytope_spec_c2_omega1():
    spec = polytope_spec((1, 0), TypeC(2))
    pos = {ij: k for k, ij in enumerate(spec.roots)}
    ineqs = {
        (frozenset(sup), bound)
        for sup, bound in (
            (
                frozenset(pos[p] for p in support),
                bound,
            )
            for support, bound in [
                ([(1, 1)], 1),
                ([(2, 2)], 0),
                ([(1, 1), (1, 2), (1, 3)], 1),
                ([(1, 1), (1, 2), (2, 2)], 1),
            ]
        )
    }
    assert set(spec.inequalities) == ineqs


def test_polytope_spec_zero_bounds():
    spec = polytope_spec((0, 0), TypeC(2))
    assert all(bound == 0 for _, bound in spec.inequalities)


def test_polytope_spec_c1():
    spec = polytope_spec((5,), TypeC(1))
    assert spec.inequalities == ((frozenset({0}), 5),)


def as_pair_dicts(spec, points):
    return [
        {ij: v for ij, v in zip(spec.roots, p) if v} for p in points
    ]


def test_lattice_points_c2_omega1():
    spec = polytope_spec((1, 0), TypeC(2))
    pts = as_pair_dicts(spec, list(lattice_points(spec)))
    assert len(pts) == 4
    assert {frozenset(d.items()) for d in pts} == {
        frozenset(),
        frozenset({((1, 1), 1)}),
        frozenset({((1, 2), 1)}),
        frozenset({((1, 3), 1)}),
    }


def test_lattice_points_c2_omega2():
    spec = polytope_spec((0, 1), TypeC(2))
    pts = as_pair_dicts(spec, list(lattice_points(spec)))
    assert len(pts) == 5
    assert {frozenset(d.items()) for d in pts} == {
        frozenset(),
        frozenset({((2, 2), 1)}),
        frozenset({((1, 2), 1)}),
        frozenset({((1, 3), 1)}),
        frozenset({((1, 3), 1), ((2, 2), 1)}),
    }


def test_zero_weight_single_point():
    # Every inequality has bound 0, so no root is free: one line, one point.
    for system in (TypeC(1), TypeC(2), TypeC(3), TypeC(4), TypeA(2), TypeA(3), TypeA(5)):
        lam = (0,) * rank(system)
        spec = polytope_spec(lam, system)
        assert list(lattice_points(spec)) == [tuple(0 for _ in spec.roots)]
        nroots = len(spec.roots)
        for order in (range(nroots), reversed(range(nroots))):
            assert list(_walk(spec, order, [()] * nroots, ())) == [((), 0, ())]
        assert dimension(lam, system) == 1
        nvars = len(weight_of(lam, system))
        assert graded_character(lam, system) == {(0,) * (nvars + 1): 1}


@pytest.mark.parametrize(
    "system, lams",
    [
        (TypeC(2), [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
        (TypeC(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]),
        (TypeA(3), [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)]),
        (TypeA(4), [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]),
    ],
    ids=["C2", "C3", "A3", "A4"],
)
def test_lattice_points_match_brute_force(system, lams):
    # Completeness and the lexicographic order the `polytope` golden digest
    # depends on: every point of the box [0, max bound]^#roots that satisfies
    # the inequalities, sorted.
    for lam in lams:
        spec = polytope_spec(lam, system)
        top = max(bound for _, bound in spec.inequalities)
        box = product(range(top + 1), repeat=len(spec.roots))
        brute = [
            p for p in box
            if all(sum(p[k] for k in support) <= bound for support, bound in spec.inequalities)
        ]
        assert list(lattice_points(spec)) == sorted(brute), lam


def _reference_walk(spec, steps, start):
    """The point-at-a-time odometer over every root, dead or free: yield
    start + sum_k s_k steps[k] for each lattice point s, in lexicographic order."""
    nroots, ineqs = len(spec.roots), spec.inequalities
    by_root = [[i for i, (sup, _) in enumerate(ineqs) if k in sup] for k in range(nroots)]
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


def _reference_character(spec):
    steps = [(1, *(-x for x in root_weight(i, j, spec.system))) for i, j in spec.roots]
    lam_eps = weight_of(spec.lam, spec.system)
    return Counter(_reference_walk(spec, steps, (0, *lam_eps)))


@pytest.mark.parametrize(
    "system, lams",
    [
        *((TypeC(n), list(product(range(3), repeat=n))) for n in (1, 2, 3)),
        *((TypeA(m), list(product(range(3), repeat=m - 1))) for m in (2, 3, 4)),
        (TypeC(4), [lam for lam in CHARACTERS_WEIGHTS if len(lam) == 4]),
        (TypeA(5), [lam for lam in CHARACTERS_WEIGHTS if len(lam) == 4]),
    ],
    ids=["C1", "C2", "C3", "A2", "A3", "A4", "C4-characters", "A5-characters"],
)
def test_line_walk_matches_the_point_walk_over_every_root(system, lams):
    for lam in lams:
        spec = polytope_spec(lam, system)
        nroots = len(spec.roots)
        units = [tuple(int(a == k) for a in range(nroots)) for k in range(nroots)]
        want = list(_reference_walk(spec, units, (0,) * nroots))
        assert list(lattice_points(spec)) == want, lam
        assert dimension(lam, system) == len(want), lam
        assert graded_character(lam, system) == _reference_character(spec), lam


@pytest.mark.parametrize(
    "lam, lines, points",
    [((0, 0, 0, 4), 8918, 26026), ((0, 0, 1, 1), 714, 1056), ((1, 1, 1, 1), 51808, 65536)],
    ids=str,
)
def test_walk_steps_once_per_line_of_free_roots(lam, lines, points):
    # The work count in `index_pairs` order, the order of `lattice_points`:
    # at (0,0,0,4) the six roots (i, j) with j < 4 are dead and each line
    # holds about three points; a walk over every root, or one point at a
    # time, would step once per point.
    spec = polytope_spec(lam, TypeC(4))
    nroots = len(spec.roots)
    walk = list(_walk(spec, range(nroots), [()] * nroots, ()))
    assert (len(walk), sum(c + 1 for _, c, _ in walk)) == (lines, points)


@pytest.mark.parametrize(
    "lam, lines, points",
    [((0, 0, 0, 4), 8918, 26026), ((0, 0, 1, 1), 560, 1056), ((1, 1, 1, 1), 28672, 65536)],
    ids=str,
)
def test_dimension_and_character_walk_the_roots_reversed(lam, lines, points, monkeypatch):
    # The work count in reversed `index_pairs` order, columns ascending: fewer
    # levels of the odometer reach a cap of 0, so the lines are fewer and
    # longer than in the test above, and `dimension` and `graded_character`
    # must take this order.
    spec = polytope_spec(lam, TypeC(4))
    nroots = len(spec.roots)
    walk = list(_walk(spec, reversed(range(nroots)), [()] * nroots, ()))
    assert (len(walk), sum(c + 1 for _, c, _ in walk)) == (lines, points)

    counted = []

    def counting_walk(*args):
        counted.append(0)
        for line in _walk(*args):
            counted[-1] += 1
            yield line

    monkeypatch.setattr(polytope, "_walk", counting_walk)
    assert dimension(lam, TypeC(4)) == points
    assert sum(graded_character(lam, TypeC(4)).values()) == points
    assert counted == [lines, lines]


@pytest.mark.parametrize(
    "n, lam", [(3, (3, 3, 3)), (4, (1, 1, 1, 1)), (4, (2, 1, 1, 1))], ids=str
)
def test_large_weights_match_weyl(n, lam):
    assert dimension(lam, TypeC(n)) == weyl_dimension(lam, n)
    assert at_q1(graded_character(lam, TypeC(n))) == weyl_character(lam, n)


def per_point_character(lam, system):
    """The graded character point by point: q^|s| z^(lambda - sum_a s_a alpha_a)."""
    spec = polytope_spec(lam, system)
    lam_eps = weight_of(lam, system)
    weights = [root_weight(i, j, system) for i, j in spec.roots]
    terms = Counter()
    for point in lattice_points(spec):
        z = [x - sum(s * w[k] for s, w in zip(point, weights)) for k, x in enumerate(lam_eps)]
        terms[(sum(point), *z)] += 1
    return terms


@pytest.mark.parametrize("lam", CHARACTERS_WEIGHTS, ids=str)
@pytest.mark.parametrize("family", [TypeC, TypeA])
def test_graded_character_matches_per_point_reference(family, lam):
    system = TypeC(len(lam)) if family is TypeC else TypeA(len(lam) + 1)
    assert graded_character(lam, system) == per_point_character(lam, system)


def test_dimension_holds_no_list_of_points():
    # 65,536 points; a list of them peaks at about 11 MB.
    tracemalloc.start()
    try:
        assert dimension((1, 1, 1, 1), TypeC(4)) == 65536
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_graded_character_c2_omega1():
    gc = graded_character((1, 0), TypeC(2))
    expect = {
        (0, 1, 0): 1,
        (1, -1, 0): 1,
        (1, 0, 1): 1,
        (1, 0, -1): 1,
    }
    assert gc == expect


def test_graded_character_c2_swap_and_flip():
    # z_1 + q (z_1^-1 + z_2 + z_2^-1): swapping moves the q^0 term to z_2
    gc = graded_character((1, 0), TypeC(2))
    swapped = {(0, 0, 1): 1, (1, 0, -1): 1, (1, 1, 0): 1, (1, -1, 0): 1}
    assert signed_permutation(gc, (1, 0), (1, 1)) == swapped
    # z_1 z_2 + q (z_1^-1 z_2 + 1 + z_1 z_2^-1) + q^2 z_1^-1 z_2^-1
    gc = graded_character((0, 1), TypeC(2))
    flip0 = {(0, -1, 1): 1, (1, 1, 1): 1, (1, 0, 0): 1, (1, -1, -1): 1, (2, 1, -1): 1}
    flip1 = {(0, 1, -1): 1, (1, -1, -1): 1, (1, 0, 0): 1, (1, 1, 1): 1, (2, -1, 1): 1}
    assert signed_permutation(gc, (0, 1), (-1, 1)) == flip0
    assert signed_permutation(gc, (0, 1), (1, -1)) == flip1


def test_graded_character_c1_closed_form():
    m = 4
    gc = graded_character((m,), TypeC(1))
    expect = {(k, m - 2 * k): 1 for k in range(m + 1)}
    assert gc == expect


def test_graded_character_zero_weight():
    gc = graded_character((0, 0, 0), TypeC(3))
    assert gc == {(0, 0, 0, 0): 1}


def test_graded_character_evaluation():
    from fractions import Fraction as Q

    gc = graded_character((1,), TypeC(1))
    assert evaluate(gc, (Q(1), Q(2))) == Q(5, 2)


@pytest.mark.parametrize("lam", [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
def test_dimension_matches_weyl_n2(lam):
    assert dimension(lam, TypeC(2)) == weyl_dimension(lam, 2)


def test_dimension_c3_omega2():
    assert dimension((0, 1, 0), TypeC(3)) == 14


@pytest.mark.parametrize("lam", [(1, 0), (0, 1), (1, 1)])
def test_character_specializes_to_weyl(lam):
    assert at_q1(graded_character(lam, TypeC(2))) == weyl_character(lam, 2)


def test_monotone_inclusion_of_point_sets():
    small = polytope_spec((1, 0, 0), TypeC(3))
    big = polytope_spec((1, 1, 0), TypeC(3))
    assert small.roots == big.roots
    pts_small = set(lattice_points(small))
    pts_big = set(lattice_points(big))
    assert pts_small <= pts_big


def test_phi_point_embed_zero():
    n = 2
    spec = polytope_spec((0, 1), TypeC(n))
    zero = tuple(0 for _ in spec.roots)
    image, _ = phi_point_embed(zero, (0, 1), n)
    assert all(v == 0 for v in image)


def test_phi_point_embed_example():
    n = 2
    spec = polytope_spec((0, 1), TypeC(n))
    pos = {ij: k for k, ij in enumerate(spec.roots)}
    point = [0] * len(spec.roots)
    point[pos[(1, 3)]] = 1
    point[pos[(2, 2)]] = 1
    image, spec_a = phi_point_embed(tuple(point), (0, 1), n)
    values = {ij: v for ij, v in zip(spec_a.roots, image) if v}
    assert values == {(1, 3): 1, (2, 2): 1}


def test_phi_point_embed_all_points_injective():
    n = 2
    lam = (0, 1)
    spec = polytope_spec(lam, TypeC(n))
    images = set()
    for p in lattice_points(spec):
        image, _ = phi_point_embed(p, lam, n)
        images.add(image)
    assert len(images) == dimension(lam, TypeC(n))


def test_phi_point_embed_rejects_bad_point():
    n = 2
    spec = polytope_spec((1, 0), TypeC(n))
    bad = tuple(3 for _ in spec.roots)
    with pytest.raises(EmbeddingError):
        phi_point_embed(bad, (1, 0), n)


def test_every_root_is_covered_by_a_path():
    for system in (TypeC(2), TypeC(3), TypeA(4), TypeA(6)):
        covered = set()
        for p in _dyck_pairs(system):
            covered.update(p)
        assert covered == set(index_pairs(system))


@pytest.mark.parametrize(
    "system, top", [(TypeC(2), 2), (TypeA(3), 2), (TypeC(3), 1), (TypeA(4), 1)], ids=["C2", "A3", "C3", "A4"]
)
def test_minkowski_property(system, top):
    # The polytope side of normality: the lattice points of P(lam + mu) are
    # exactly the sums of a point of P(lam) and a point of P(mu), for every
    # pair of nonzero weights with entries <= top.
    weights = [lam for lam in product(range(top + 1), repeat=rank(system)) if any(lam)]
    points = {lam: list(lattice_points(polytope_spec(lam, system))) for lam in weights}
    for lam, mu in combinations_with_replacement(weights, 2):
        sums = {tuple(map(add, p, q)) for p in points[lam] for q in points[mu]}
        total = tuple(map(add, lam, mu))
        assert sums == set(lattice_points(polytope_spec(total, system))), (lam, mu)
