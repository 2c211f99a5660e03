"""Exact Laurent polynomials in z_1..z_k and q, plus Weyl oracles for sp_2n.

Terms are stored sparsely as {(q_exponent, z_exponent_tuple): Fraction} with
zero coefficients never kept.  The variable convention is z_i = e^{eps_i};
conversion to the omega-exponent convention happens only at serialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

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

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPoly.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        """Terms sorted by (q, weight lexicographic)."""
        return sorted(self.terms.items())

    def evaluate(self, pt: RationalPoint) -> Fraction:
        """Exact substitution at a rational point."""
        if len(pt.zs) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for (q, ze), c in self.terms.items():
            val = c * pt.q**q
            for z, e in zip(pt.zs, ze):
                val *= z**e
            total += val
        return total

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


def exact_div(num: LaurentPoly, den: LaurentPoly, max_steps: int = 200_000) -> LaurentPoly:
    """Exact quotient num/den; raises ArithmeticError when division is inexact.

    Long division against the lexicographically leading term of the divisor.
    In a Laurent ring every monomial is a unit, so each step cancels the
    current leading term; for an exact quotient the loop terminates after one
    step per quotient term.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    num._check(den)
    rem = dict(num.terms)
    quo: dict[Term, Fraction] = {}
    dlead = max(den.terms)
    dcoef = den.terms[dlead]
    steps = 0
    while rem:
        steps += 1
        if steps > max_steps:
            raise ArithmeticError("inexact Laurent division (nonzero remainder)")
        t = max(rem)
        c = rem[t] / dcoef
        key = (t[0] - dlead[0], tuple(a - b for a, b in zip(t[1], dlead[1])))
        quo[key] = c
        for (dq, dz), dc in den.terms.items():
            kk = (key[0] + dq, tuple(a + b for a, b in zip(key[1], dz)))
            s = rem.get(kk, Fraction(0)) - c * dc
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return LaurentPoly(num.nvars, quo)


def _perm_sign(p: tuple[int, ...]) -> int:
    inv = sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])
    return -1 if inv % 2 else 1


def _alternant(v: tuple[int, ...], n: int) -> LaurentPoly:
    """Signed hyperoctahedral orbit sum of z^v (v strictly dominant)."""
    terms: dict[Term, Fraction] = {}
    for p in permutations(range(n)):
        sp = _perm_sign(p)
        for signs in product((1, -1), repeat=n):
            e = tuple(signs[k] * v[p[k]] for k in range(n))
            s = sp
            for x in signs:
                s *= x
            key = (0, e)
            acc = terms.get(key, Fraction(0)) + s
            if acc:
                terms[key] = acc
            else:
                terms.pop(key, None)
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
    Weyl denominator.
    """
    lam = weight_of(tuple(m_vec), TypeC(n))
    r = rho(n)
    top = _alternant(tuple(l + rr for l, rr in zip(lam, r)), n)
    bot = _alternant(r, n)
    return exact_div(top, bot)


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
