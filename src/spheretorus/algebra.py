"""Unique normal forms and exact arithmetic in the deformed algebra.

Every element is a finite sum of monomials  ladder^r * winding^s * scalar,
where the ladder part is ``ap^r`` for r > 0 and ``am^(-r)`` for r < 0, the
winding part is an integer power of the unitary ``u``, and the scalar is an
:class:`~spheretorus.epsring.EpsScalar`.  A term is stored under the key
``(r, s)``.  Products are reduced by contracting one innermost opposite
ladder pair at a time and normal-ordering the winding factors that the
contraction emits; the total ladder degree drops by two at each step, so
the rewriting terminates.

The underlying relations, written in the ladder/winding generators:

    u ap = ap u e^{i a},   u am = am u e^{-i a},
    ap am = (1 - i eps)/2 u + (1 + i eps)/2 u^-1 + R,
    am ap = (1 + i eps)/2 u + (1 - i eps)/2 u^-1 + R,

with eps = tan(a/2) central and u unitary.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Dict, Tuple

from .errors import ChartDomainError

from .epsring import (
    CRat,
    CR_HALF,
    CR_I,
    ES_EPS,
    ES_I,
    ES_ONE,
    EpsScalar,
    NotDivisible,
    phase,
)

Key = Tuple[int, int]
Terms = Dict[Key, EpsScalar]


def _terms_str(terms: dict) -> str:
    """Terms keyed (r, s) as "ap^r*u^s*(c) + ..." (am^-r when r < 0), in
    key order; "0" when there are none."""
    if not terms:
        return "0"
    chunks = []
    for (r, s) in sorted(terms):
        ops = []
        if r > 0:
            ops.append("ap" if r == 1 else f"ap^{r}")
        elif r < 0:
            ops.append("am" if r == -1 else f"am^{-r}")
        if s:
            ops.append("u" if s == 1 else f"u^{s}")
        body = "*".join(ops)
        coeff = terms[(r, s)]
        chunks.append(f"{body}*({coeff})" if body else f"({coeff})")
    return " + ".join(chunks)


class ContextMismatch(ValueError):
    """Operands belong to algebras with different deformation families."""


class UnknownGenerator(ValueError):
    """Requested generator name is not part of the algebra."""


_HALF = EpsScalar((CR_HALF,))
_MINUS_I_HALF = EpsScalar((CRat(Fraction(0), Fraction(-1, 2)),))
_I_HALF = EpsScalar((CRat(Fraction(0), Fraction(1, 2)),))
# coefficients of the two ladder contractions, keyed by emitted u power
_AP_AM = ((1, EpsScalar((CR_HALF, -CR_I * CR_HALF))),
          (-1, EpsScalar((CR_HALF, CR_I * CR_HALF))))
_AM_AP = ((1, EpsScalar((CR_HALF, CR_I * CR_HALF))),
          (-1, EpsScalar((CR_HALF, -CR_I * CR_HALF))))


class AlgebraContext:
    """The algebra at one exact value of the family parameter R."""

    def __init__(self, R):
        self.R = Fraction(R)
        self.R_scalar = EpsScalar.of(self.R)
        self._contract_cache: Dict[Tuple[str, int, int], Terms] = {}

    def __repr__(self) -> str:
        return f"AlgebraContext(R={self.R})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraContext) and self.R == other.R

    def __hash__(self) -> int:
        return hash(("AlgebraContext", self.R))

    # element factories --------------------------------------------------

    def from_terms(self, terms: Terms) -> "NormalForm":
        return NormalForm(self, terms)

    def zero(self) -> "NormalForm":
        return NormalForm(self, {})

    def one(self) -> "NormalForm":
        return NormalForm(self, {(0, 0): ES_ONE})

    def scalar(self, value) -> "NormalForm":
        return NormalForm(self, {(0, 0): EpsScalar.of(value)})

    def generator(self, name: str) -> "NormalForm":
        """One of x, y, z, w, u, ud, ap, am, eps."""
        table = {
            "x": {(1, 0): _HALF, (-1, 0): _HALF},
            "y": {(1, 0): _MINUS_I_HALF, (-1, 0): _I_HALF},
            "z": {(0, 1): _MINUS_I_HALF, (0, -1): _I_HALF},
            "w": {(0, 1): _HALF, (0, -1): _HALF},
            "u": {(0, 1): ES_ONE},
            "ud": {(0, -1): ES_ONE},
            "ap": {(1, 0): ES_ONE},
            "am": {(-1, 0): ES_ONE},
            "eps": {(0, 0): ES_EPS},
        }
        if name not in table:
            raise UnknownGenerator(f"unknown generator {name!r}")
        return NormalForm(self, table[name])

    # contraction engine --------------------------------------------------

    def _contract(self, kind: str, a: int, b: int) -> Terms:
        """Normal form of ap^a am^b ('pm') or am^a ap^b ('mp'), a,b >= 0."""
        key = (kind, a, b)
        hit = self._contract_cache.get(key)
        if hit is not None:
            return hit
        if a == 0 or b == 0:
            if kind == "pm":
                r = a - b
            else:
                r = b - a
            out: Terms = {(r, 0): ES_ONE}
        else:
            inner = self._contract(kind, a - 1, b - 1)
            pairs = _AP_AM if kind == "pm" else _AM_AP
            # the trailing block that the emitted u power must cross
            trail = -(b - 1) if kind == "pm" else (b - 1)
            out = {}
            for sigma, coeff in pairs:
                ph = coeff * phase(trail * sigma)
                for (r, s), xi in inner.items():
                    _accumulate(out, (r, s + sigma), xi * ph)
            for (r, s), xi in inner.items():
                _accumulate(out, (r, s), xi * self.R_scalar)
            out = {k: v for k, v in out.items() if not v.is_zero()}
        self._contract_cache[key] = out
        return out

    def _mono_mul(self, r1: int, s1: int, r2: int, s2: int) -> Terms:
        """Normal form of (ladder^r1 u^s1)(ladder^r2 u^s2), coefficient 1."""
        # slide u^s1 across the second ladder block: picks up e^{i r2 s1 a}
        ph = phase(r2 * s1)
        if r1 == 0 or r2 == 0 or (r1 > 0) == (r2 > 0):
            ladder: Terms = {(r1 + r2, 0): ES_ONE}
        elif r1 > 0:
            ladder = self._contract("pm", r1, -r2)
        else:
            ladder = self._contract("mp", -r1, r2)
        shift = s1 + s2
        return {(r, s + shift): xi * ph for (r, s), xi in ladder.items()}


def _accumulate(terms: Terms, key: Key, value: EpsScalar) -> None:
    prev = terms.get(key)
    terms[key] = value if prev is None else prev + value


class NormalForm:
    """An exact element of the algebra in its unique normal form."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AlgebraContext, terms: Terms):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    # helpers -------------------------------------------------------------

    def _check(self, other: "NormalForm") -> None:
        if self.ctx.R != other.ctx.R:
            raise ContextMismatch(
                f"cannot combine R={self.ctx.R} with R={other.ctx.R}"
            )

    def _coerce(self, value) -> "NormalForm | None":
        if isinstance(value, NormalForm):
            return value
        if isinstance(value, (int, Fraction, CRat, EpsScalar)):
            return self.ctx.scalar(value)
        return None

    # ring structure --------------------------------------------------------

    def __add__(self, other) -> "NormalForm":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, xi in other.terms.items():
            _accumulate(out, key, xi)
        return NormalForm(self.ctx, out)

    __radd__ = __add__

    def __sub__(self, other) -> "NormalForm":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other) -> "NormalForm":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced + (-self)

    def __neg__(self) -> "NormalForm":
        return NormalForm(self.ctx, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "NormalForm":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        self._check(coerced)
        out: Terms = {}
        for (r1, s1), xi1 in self.terms.items():
            for (r2, s2), xi2 in coerced.terms.items():
                weight = xi1 * xi2
                for key, xi in self.ctx._mono_mul(r1, s1, r2, s2).items():
                    _accumulate(out, key, xi * weight)
        return NormalForm(self.ctx, out)

    def __rmul__(self, other) -> "NormalForm":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced * self  # scalars are central, order is moot

    def __pow__(self, n: int) -> "NormalForm":
        if n < 0:
            inv = self.inverse_if_unit()
            if inv is None:
                raise NotDivisible("negative power of a non-invertible element")
            return inv ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse_if_unit(self) -> "NormalForm | None":
        """Inverse of a single winding term with a unit scalar, else None."""
        if len(self.terms) != 1:
            return None
        ((r, s), xi), = self.terms.items()
        if r != 0:
            return None
        inv = xi.try_inverse()
        if inv is None:
            return None
        return NormalForm(self.ctx, {(0, -s): inv})

    def commutator(self, other: "NormalForm") -> "NormalForm":
        return self * other - other * self

    # structure maps ---------------------------------------------------------

    def adjoint(self) -> "NormalForm":
        """The unique antilinear antiautomorphism fixing the generators."""
        out: Terms = {}
        for (r, s), xi in self.terms.items():
            _accumulate(out, (-r, -s), xi.conjugate() * phase(r * s))
        return NormalForm(self.ctx, out)

    def pi(self) -> "CommutativePoly":
        """The commutative limit: evaluate every coefficient at eps = 0."""
        return CommutativePoly(
            {k: v.at_zero() for k, v in self.terms.items()
             if not v.at_zero().is_zero()}
        )

    def poisson(self, other: "NormalForm") -> "CommutativePoly":
        """Leading deformation term: pi( -i [f, g] / eps ).

        Raises NotDivisible if some commutator coefficient has a nonzero
        value at eps = 0, which cannot happen for well-formed inputs.
        """
        comm = self.commutator(other)
        out: Terms = {}
        for key, xi in comm.terms.items():
            out[key] = xi.divide_by_eps() * ES_I.conjugate()
        return NormalForm(self.ctx, out).pi()

    def eval_numeric(self, eps: float) -> Dict[Key, complex]:
        """Coefficients at a numeric eps, ready for matrix assembly."""
        out = {}
        for key, xi in self.terms.items():
            val = xi.eval(eps)
            if val != 0:
                out[key] = val
        return out

    # queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CRat, EpsScalar)):
            other = self.ctx.scalar(other)
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self.ctx.R == other.ctx.R and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx.R, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return _terms_str(self.terms)

    __repr__ = __str__


class CommutativePoly:
    """Image of a normal form in the commutative limit.

    Terms map ``(r, s)`` to exact complex-rational values; the monomial
    evaluates on the surface chart as rho^{|r|} e^{-i r q} e^{2 i p s}
    with rho = sqrt(R + cos 2p).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, CRat]):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommutativePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "CommutativePoly") -> "CommutativePoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            out[key] = c if prev is None else prev + c
        return CommutativePoly(out)

    def __sub__(self, other: "CommutativePoly") -> "CommutativePoly":
        return self + CommutativePoly({k: -v for k, v in other.terms.items()})

    def lift(self, ctx: AlgebraContext) -> NormalForm:
        """Re-embed with constant coefficients (for product comparisons)."""
        return NormalForm(
            ctx, {k: EpsScalar((v,)) for k, v in self.terms.items()}
        )

    def eval_chart(self, p: float, q: float, R: float) -> complex:
        """Value at a chart point of the commutative surface."""
        rho2 = R + math.cos(2.0 * p)
        if rho2 <= 0.0:
            raise ChartDomainError(f"chart undefined at p={p!r} (R={R!r})")
        rho = math.sqrt(rho2)
        acc = 0j
        for (r, s), c in self.terms.items():
            acc += complex(c) * rho ** abs(r) * cmath.exp(1j * (2.0 * p * s - r * q))
        return acc

    def __str__(self) -> str:
        return _terms_str(self.terms)

    __repr__ = __str__


def commutative_mul(
    f: CommutativePoly, g: CommutativePoly, ctx: AlgebraContext
) -> CommutativePoly:
    """Product in the commutative limit (independent route: lift, multiply
    exactly, project back)."""
    return (f.lift(ctx) * g.lift(ctx)).pi()
