"""Exact Laurent polynomials in z_1..z_k and q, plus Weyl oracles for sp_2n.

Terms are stored sparsely as {(q_exponent, z_exponent_tuple): Fraction} with
zero coefficients never kept.  The variable convention is z_i = e^{eps_i};
conversion to the omega-exponent convention happens only at serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import prod

from .rootsys import TypeC, positive_roots, root_weight, weight_of

Term = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class RationalPoint:
    """Evaluation point with nonzero rational coordinates."""

    zs: tuple[Fraction, ...]
    q: Fraction

    def __post_init__(self) -> None:
        if self.q == 0 or any(z == 0 for z in self.zs):
            raise ValueError("coordinates of a RationalPoint must be nonzero")

    def inverted(self) -> "RationalPoint":
        """The point with z_i -> 1/z_i and q -> 1/q."""
        return RationalPoint(tuple(1 / z for z in self.zs), 1 / self.q)


class LaurentPoly:
    """Sparse Laurent polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Term, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Term, Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                if len(key[1]) != nvars:
                    raise ValueError("exponent vector length mismatch")
                clean[(key[0], tuple(key[1]))] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, coeff, zexp: tuple[int, ...] = (), q: int = 0) -> "LaurentPoly":
        zexp = tuple(zexp) if zexp else (0,) * nvars
        return cls(nvars, {(q, zexp): Fraction(coeff)})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls.monomial(nvars, 1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (q, ze), c in self.sorted_terms():
            mono = "".join(f"*z{i + 1}^{e}" for i, e in enumerate(ze) if e)
            if q:
                mono = f"*q^{q}" + mono
            bits.append(f"{c}{mono}")
        return " + ".join(bits)

    def _check(self, other: "LaurentPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("mixed numbers of variables")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly(self.nvars, {k: c * other for k, c in self.terms.items()})
        self._check(other)
        out: dict[Term, Fraction] = {}
        for (q1, z1), c1 in self.terms.items():
            for (q2, z2), c2 in other.terms.items():
                key = (q1 + q2, tuple(a + b for a, b in zip(z1, z2)))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        """Terms sorted by (q, weight lexicographic)."""
        return sorted(self.terms.items())

    def evaluate(self, pt: RationalPoint) -> Fraction:
        """Exact substitution at a rational point."""
        if len(pt.zs) != self.nvars:
            raise ValueError("point dimension mismatch")
        return sum((c * evaluate_monomial(pt, ze, q) for (q, ze), c in self.terms.items()), Fraction(0))

    def specialize_q1(self) -> "LaurentPoly":
        """Sum coefficients over q-exponents."""
        out: dict[Term, Fraction] = {}
        for (_, ze), c in self.terms.items():
            key = (0, ze)
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return LaurentPoly(self.nvars, out)

    def invert_variables(self) -> "LaurentPoly":
        """Substitute z_i -> z_i^{-1} and q -> q^{-1}."""
        return LaurentPoly(
            self.nvars,
            {(-q, tuple(-e for e in ze)): c for (q, ze), c in self.terms.items()},
        )

    def swap_vars(self, a: int, b: int) -> "LaurentPoly":
        out = {}
        for (q, ze), c in self.terms.items():
            e = list(ze)
            e[a], e[b] = e[b], e[a]
            out[(q, tuple(e))] = c
        return LaurentPoly(self.nvars, out)

    def flip_var(self, a: int) -> "LaurentPoly":
        out = {}
        for (q, ze), c in self.terms.items():
            e = list(ze)
            e[a] = -e[a]
            out[(q, tuple(e))] = c
        return LaurentPoly(self.nvars, out)


def evaluate_monomial(pt: RationalPoint, zexp: tuple[int, ...], q: int) -> Fraction:
    """Value of q^q * prod z_i^{e_i} at the point."""
    val = pt.q**q
    for z, e in zip(pt.zs, zexp):
        if e:
            val *= z**e
    return val


def _divide_by_binomial(num: dict[tuple[int, ...], int], alpha: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Exact quotient num / (1 - e^{-alpha}) of integer Laurent polynomials.

    Exponents are tuples of any length, such as (q, z_1..z_n), and alpha is any
    nonzero one, of either sign; t is its first nonzero coordinate.  The terms
    fall on lines e + k*alpha, indexed by k = e_t // alpha_t.  On each line the
    quotient at k is the sum of the coefficients at k and above, so it is one
    running sum from the top of the line down.  The division is exact iff
    every line sums to zero; otherwise this raises ArithmeticError.
    """
    t = next(i for i, a in enumerate(alpha) if a)
    lines: dict[tuple[int, ...], dict[int, int]] = {}
    for e, c in num.items():
        k = e[t] // alpha[t]
        lines.setdefault(tuple(x - k * a for x, a in zip(e, alpha)), {})[k] = c
    quo: dict[tuple[int, ...], int] = {}
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


def _perm_sign(p: tuple[int, ...]) -> int:
    inv = sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])
    return -1 if inv % 2 else 1


def _alternant(v: tuple[int, ...], n: int) -> LaurentPoly:
    """Signed hyperoctahedral orbit sum of z^v.

    v is strictly dominant, so the 2^n n! group elements give distinct exponents.
    """
    terms: dict[Term, int] = {}
    for p in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            e = tuple(signs[k] * v[p[k]] for k in range(n))
            terms[(0, e)] = _perm_sign(p) * prod(signs)
    return LaurentPoly(n, terms)


def rho(n: int) -> tuple[int, ...]:
    """Half-sum of positive roots of sp_2n in epsilon coordinates: (n,...,1)."""
    return tuple(range(n, 0, -1))


def weyl_dimension(m_vec: tuple[int, ...], n: int) -> int:
    """Dimension of the sp_2n module of highest weight sum m_i omega_i."""
    lam = weight_of(tuple(m_vec), TypeC(n))
    r = rho(n)
    num = Fraction(1)
    for root in positive_roots(TypeC(n)):
        w = root_weight(root)
        top = sum((l + rr) * x for l, rr, x in zip(lam, r, w))
        bot = sum(rr * x for rr, x in zip(r, w))
        num *= Fraction(top, bot)
    if num.denominator != 1 or num <= 0:
        raise ArithmeticError(f"Weyl dimension came out non-integral: {num}")
    return int(num)


def weyl_character(m_vec: tuple[int, ...], n: int) -> LaurentPoly:
    """Character of the sp_2n module as a q-free Laurent polynomial.

    Alternating sum over the hyperoctahedral group divided exactly by the
    Weyl denominator in its factored form e^rho prod_{alpha>0} (1 - e^{-alpha}):
    the alternant of lambda + rho is shifted by -rho, then divided by each
    binomial in turn.
    """
    lam = weight_of(tuple(m_vec), TypeC(n))
    r = rho(n)
    top = _alternant(tuple(l + rr for l, rr in zip(lam, r)), n)
    quo = {tuple(e - rr for e, rr in zip(ze, r)): int(c) for (_, ze), c in top.terms.items()}
    for root in positive_roots(TypeC(n)):
        quo = _divide_by_binomial(quo, root_weight(root))
    return LaurentPoly(n, {(0, e): c for e, c in quo.items()})


def eps_to_omega(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Rewrite an epsilon-exponent vector in fundamental-weight exponents."""
    n = len(exps)
    return tuple(exps[k] - (exps[k + 1] if k + 1 < n else 0) for k in range(n))


def to_json_terms(p: LaurentPoly, weight_basis: str = "eps") -> list[dict]:
    """Serialize as a list of {"q", "weight", "mult"}, sorted by (q, weight)."""
    if weight_basis not in ("eps", "omega"):
        raise ValueError("weight_basis must be 'eps' or 'omega'")
    out = []
    for (q, ze), c in p.sorted_terms():
        w = list(ze if weight_basis == "eps" else eps_to_omega(ze))
        mult = int(c) if c.denominator == 1 else str(c)
        out.append({"q": q, "weight": w, "mult": mult})
    return out
