import json
from fractions import Fraction as Q
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spflag import charring, cli
from spflag.charring import (
    Terms,
    eps_to_omega,
    rho,
    weyl_character,
    weyl_dimension,
)
from spflag.fixedpoints import _divide_by_binomial, _pack, _packing_width, _unpack, evaluate
from spflag.rootsys import TypeC, index_pairs, root_weight, weight_of

from support import evaluate_monomial, signed_permutation, times


def poly_strategy(nvars=2):
    # Nonzero coefficients, as every character has.
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    ).filter(bool)
    key = st.tuples(*[st.integers(-3, 3)] * (nvars + 1))
    return st.dictionaries(key, coeff, max_size=5)


def _binomial(alpha):
    """1 - e^{-alpha} as a term dict."""
    return {(0,) * len(alpha): 1, tuple(-a for a in alpha): -1}


def _int_poly_strategy(nvars):
    exps = st.tuples(*[st.integers(-3, 3)] * nvars)
    coeffs = st.integers(-5, 5).filter(bool)
    return st.dictionaries(exps, coeffs, max_size=6)


def _tuple_division(num, alpha):
    """num / (1 - e^{-alpha}) on tuple exponents: the reference for the packed
    `_divide_by_binomial`.

    t is alpha's first nonzero coordinate, and a line's index is e_t //
    alpha_t.  On each line the quotient at k is the sum of the coefficients at
    k and above; a line that does not sum to zero raises ArithmeticError.
    """
    t = next(i for i, a in enumerate(alpha) if a)
    lines = {}
    for e, c in num.items():
        k = e[t] // alpha[t]
        lines.setdefault(tuple(x - k * a for x, a in zip(e, alpha)), {})[k] = c
    quo = {}
    for base, line in lines.items():
        bottom = min(line)
        total = 0
        for k in range(max(line), bottom, -1):
            total += line.get(k, 0)
            if total:
                quo[tuple(b + k * a for b, a in zip(base, alpha))] = total
        if total + line[bottom]:
            raise ArithmeticError(f"inexact Laurent division by 1 - e^-{alpha}")
    return quo


def _packed_division(num, alpha):
    """`_divide_by_binomial` on tuple exponents, at the width for num's largest
    coordinate."""
    bound = max((abs(x) for e in num for x in e), default=0)
    width = _packing_width(bound)
    packed = {_pack(e, width): c for e, c in num.items()}
    return _unpack(_divide_by_binomial(packed, alpha, width), width, len(alpha))


def _times_binomial(a, alpha):
    """a * (1 - e^{-alpha}) on tuple exponents, by term-dict multiplication."""
    return times(a, _binomial(alpha))


def _roots(n):
    """The epsilon weights of the positive roots of sp_2n."""
    return [root_weight(i, j, TypeC(n)) for i, j in index_pairs(TypeC(n))]


# Besides the positive roots: negated roots, (q, z) exponent vectors with a
# nonzero q-part first, as the localization walk divides, a vector whose
# largest entry is not its first nonzero one, and roots and negated roots with
# a q-part 0, so that their first nonzero coordinate is not q.
QZ_ALPHAS = [(1, -2), (-1, 2), (1, 0, -2), (-1, 1, 1), (1, -1, 0, -1), (-2, 1, 0, 1), (0, -1, 2, 1)]
QZ_ALPHAS += [(0, *(s * a for a in alpha)) for s in (1, -1) for alpha in _roots(2)]


@pytest.mark.parametrize(
    "n,alpha",
    [(n, alpha) for n in (2, 3) for alpha in _roots(n)]
    + [(n, tuple(-a for a in alpha)) for n in (2, 3) for alpha in _roots(n)]
    + [(len(alpha), alpha) for alpha in QZ_ALPHAS],
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_divide_by_binomial_roundtrip(n, alpha, data):
    a = data.draw(_int_poly_strategy(n))
    num = _times_binomial(a, alpha)
    assert _packed_division(num, alpha) == _tuple_division(num, alpha) == a


@given(
    num=_int_poly_strategy(3),
    alpha=st.sampled_from([(1, 0, -2), (-1, 1, 1), (0, 2, 0), (0, 0, -1), (0, -1, 2)]),
)
@settings(max_examples=200, deadline=None)
def test_divide_by_binomial_equals_the_tuple_division(num, alpha):
    # Mostly inexact numerators: both raise, or both give the same quotient.
    try:
        want = _tuple_division(num, alpha)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            _packed_division(num, alpha)
    else:
        assert _packed_division(num, alpha) == want


def test_divide_by_binomial_inexact_raises():
    # 1 + z_1 by 1 - z_1^{-2}: each term lies alone on its line.
    for divide in (_tuple_division, _packed_division):
        with pytest.raises(ArithmeticError):
            divide({(0,): 1, (1,): 1}, (2,))


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 5, 8, 42, 100])
@pytest.mark.parametrize("length", [1, 2, 4])
def test_packing_at_the_bound(bound, length):
    width = _packing_width(bound)
    corners = list(product((-bound, bound), repeat=length))
    terms = dict(zip(corners, range(1, len(corners) + 1)))
    packed = {_pack(e, width): c for e, c in terms.items()}
    assert len(packed) == len(terms)
    assert _unpack(packed, width, length) == terms
    if bound:
        # From a corner along -alpha into the box, the line runs from +-bound
        # to -+(bound - 2).
        for alpha in product(range(-2, 3), repeat=length):
            if any(alpha):
                top = {tuple(bound if a > 0 else -bound for a in alpha): 3}
                assert _packed_division(_times_binomial(top, alpha), alpha) == top
    # The division forms line bases within +-(2 bound + 1): at the width no two
    # of them pack alike, and at one bit less two do.
    if length == 2:
        box = list(product(range(-2 * bound - 1, 2 * bound + 2), repeat=2))
        assert len({_pack(e, width) for e in box}) == len(box)
        assert len({_pack(e, width - 1) for e in box}) < len(box)


def test_one_bit_narrower_merges_two_lines():
    # Within +-1, e and f lie alone on their lines along alpha, so e - f is
    # no multiple of 1 - e^{-alpha}.  Their line bases (1,1,0) and (1,-3,1)
    # differ by (0,4,-1), whose packing at width 2 is 0.
    e, f, alpha = (1, 1, 0), (-1, -1, 1), (2, -2, 0)
    width = _packing_width(1)
    num = {_pack(e, width): 1, _pack(f, width): -1}
    with pytest.raises(ArithmeticError):
        _divide_by_binomial(num, alpha, width)
    narrow = {_pack(e, width - 1): 1, _pack(f, width - 1): -1}
    assert _unpack(narrow, width - 1, 3) == {e: 1, f: -1}
    assert _divide_by_binomial(narrow, alpha, width - 1)


@pytest.mark.parametrize("alpha", [(0, 0), (3, 1), (0, -3)])
def test_divide_by_binomial_refuses_alpha_beyond_2(alpha):
    with pytest.raises(ValueError):
        _divide_by_binomial({}, alpha, 4)


def _perm_sign(p):
    inv = sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])
    return -1 if inv % 2 else 1


def _alternant(v, n):
    """Signed hyperoctahedral orbit sum of z^v: the Weyl formula's numerator.

    v is strictly dominant, so the 2^n n! group elements give distinct exponents.
    """
    terms = {}
    for p in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            terms[(0, *(signs[k] * v[p[k]] for k in range(n)))] = _perm_sign(p) * prod(signs)
    return terms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_denominator_identity(n):
    den = {(0, *rho(n)): 1}
    for alpha in _roots(n):
        den = times(den, _binomial((0, *alpha)))
    assert den == _alternant(rho(n), n)


@pytest.mark.parametrize(
    "lam",
    [lam for n in (1, 2, 3) for lam in product(range(3), repeat=n)]
    + list(product(range(2), repeat=4)),
)
def test_weyl_character_times_denominator_is_numerator(lam):
    # The Weyl character formula checks the Freudenthal recursion.  The
    # denominator is taken in its factored form, which the test above equates
    # with alternant(rho); one product with the 2^n n!-term alternant would
    # take twice as long.
    n = len(lam)
    top = tuple(l + r for l, r in zip(weight_of(lam, TypeC(n)), rho(n)))
    num = times(weyl_character(lam, n), {(0, *rho(n)): 1})
    for alpha in _roots(n):
        num = times(num, _binomial((0, *alpha)))
    assert num == _alternant(top, n)


def test_evaluate():
    p = {(0, 1): 1, (1, -1): 1}  # z + q/z
    assert evaluate(p, (Q(3), Q(2))) == Q(7, 2)
    assert evaluate({(0, 0): 1}, (Q(2), Q(5, 7))) == 1


nonzero_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@given(p=poly_strategy(), pt=st.tuples(nonzero_rationals, nonzero_rationals, nonzero_rationals))
@settings(max_examples=60, deadline=None)
def test_evaluate_is_the_sum_of_its_monomials(p, pt):
    assert evaluate(p, pt) == sum(c * evaluate_monomial(pt, e) for e, c in p.items())


def test_evaluate_refuses_a_point_of_the_wrong_dimension():
    with pytest.raises(ValueError):
        evaluate({(0, 1): 1}, (Q(2),))


def test_weyl_character_sl2_like():
    assert weyl_character((1,), 1) == {(0, 1): 1, (0, -1): 1}


def test_weyl_character_sp4_vector():
    ch = weyl_character((1, 0), 2)
    expect = {
        (0, 1, 0): 1,
        (0, 0, 1): 1,
        (0, 0, -1): 1,
        (0, -1, 0): 1,
    }
    assert ch == expect


@pytest.mark.parametrize(
    "n,lam",
    [
        (1, (0,)),
        (1, (3,)),
        (2, (1, 0)),
        (2, (0, 1)),
        (2, (1, 1)),
        (2, (2, 1)),
        (3, (1, 0, 0)),
        (3, (0, 1, 0)),
        (3, (0, 0, 1)),
        (3, (1, 0, 1)),
    ],
)
def test_character_at_one_is_dimension(n, lam):
    ch = weyl_character(lam, n)
    assert evaluate(ch, (Q(1),) * (n + 1)) == weyl_dimension(lam, n)


@pytest.mark.parametrize("lam", list(product(range(2), repeat=5)))
def test_character_at_one_is_dimension_n5(lam):
    ch = weyl_character(lam, 5)
    assert evaluate(ch, (Q(1),) * 6) == weyl_dimension(lam, 5)


def test_rho_character_n5_is_hyperoctahedral_invariant():
    ch = weyl_character((1,) * 5, 5)
    assert sum(ch.values()) == 2**25
    for a in range(5):
        assert signed_permutation(ch, range(5), [-1 if k == a else 1 for k in range(5)]) == ch
    for a in range(4):
        swap = [*range(a), a + 1, a, *range(a + 2, 5)]
        assert signed_permutation(ch, swap, [1] * 5) == ch


# A wrong rho in place of (2, 1) breaks the identity.  The first quotient is
# 8/12 for (0,1) and 20/14 for (1,1) with rho = (3, 2), not integral, and
# 8/-4 for (0,1) with rho = (-2, -1), integral but negative.
@pytest.mark.parametrize("wrong_rho,lam", [((3, 2), (0, 1)), ((3, 2), (1, 1)), ((-2, -1), (0, 1))])
def test_weyl_character_refuses_a_bad_freudenthal_quotient(monkeypatch, wrong_rho, lam):
    monkeypatch.setattr(charring, "rho", lambda n: wrong_rho)
    with pytest.raises(ArithmeticError):
        weyl_character(lam, 2)


def test_weyl_character_rejects_a_negative_weight():
    with pytest.raises(ValueError):
        weyl_character((1, -1), 2)


def test_weyl_dimension_values():
    assert weyl_dimension((1, 0), 2) == 4
    assert weyl_dimension((0, 1), 2) == 5
    assert weyl_dimension((1, 1), 2) == 16
    assert weyl_dimension((0, 1, 0), 3) == 14
    assert weyl_dimension((0, 0), 2) == 1


def test_characters_hyperoctahedral_invariance():
    ch = weyl_character((1, 1), 2)
    assert signed_permutation(ch, (1, 0), (1, 1)) == ch
    assert signed_permutation(ch, (0, 1), (-1, 1)) == ch
    assert signed_permutation(ch, (0, 1), (1, -1)) == ch


def test_eps_to_omega_triangular():
    assert eps_to_omega((1, 0)) == (1, 0)
    assert eps_to_omega((1, 1)) == (0, 1)
    assert eps_to_omega((5, 3)) == (2, 3)


def json_terms(p: Terms, weight_basis: str) -> list[dict]:
    """The `terms` array of `weyl` and `qchar` built as JSON values: the
    reference for the CLI's text writer."""
    out = []
    for (q, *ze), c in sorted(p.items()):
        w = ze if weight_basis == "eps" else list(eps_to_omega(ze))
        out.append({"q": q, "weight": w, "mult": c})
    return out


def test_json_terms_sorted():
    p = {(1, 0): 1, (0, 2): 1, (0, -2): 2}
    terms = json_terms(p, "eps")
    assert terms == [
        {"q": 0, "weight": [-2], "mult": 2},
        {"q": 0, "weight": [2], "mult": 1},
        {"q": 1, "weight": [0], "mult": 1},
    ]
    assert json_terms(p, "omega")[0]["weight"] == [-2]


@st.composite
def nonzero_polys(draw):
    nvars = draw(st.integers(1, 4))
    key = st.tuples(*[st.integers(-3, 3)] * (nvars + 1))
    coeff = st.integers(-50, 50).filter(bool)
    return nvars, draw(st.dictionaries(key, coeff, min_size=1, max_size=8))


@given(nonzero_polys(), st.sampled_from(["eps", "omega"]))
@settings(max_examples=200, deadline=None)
def test_terms_writer_equals_the_encoder(nvars_and_p, basis):
    nvars, p = nvars_and_p
    head = {"command": "weyl", "n": nvars, "lambda": [0] * nvars, "weight_basis": basis}
    text = "".join(cli._document(head, "terms", cli._terms(p, basis)))
    assert text == json.dumps({**head, "terms": json_terms(p, basis)}, indent=2)
