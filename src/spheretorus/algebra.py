"""Unique normal forms and exact arithmetic in the deformed algebra.

Every element is a finite sum of monomials  ladder^r * winding^s * scalar,
where the ladder part is ``ap^r`` for r > 0 and ``am^(-r)`` for r < 0, the
winding part is an integer power of the unitary ``u``, and the scalar is an
:class:`~spheretorus.epsring.EpsScalar`.  A term is stored under the key
``(r, s)``.  A product of two terms slides the left winding factor across
the right ladder block and contracts an opposite ladder pair with one
cached table, ``ap^a am^b`` built up its diagonal.  ``am^a ap^b`` is its
image under the automorphism theta (ap <-> am, u <-> u^-1, eps and i
fixed), which sends the key ``(r, s)`` to ``(-r, -s)``.

The underlying relations, written in the ladder/winding generators:

    u ap = ap u e^{i a},   u am = am u e^{-i a},
    ap am = (1 - i eps)/2 u + (1 + i eps)/2 u^-1 + R,
    am ap = (1 + i eps)/2 u + (1 - i eps)/2 u^-1 + R,

with eps = tan(a/2) central and u unitary; theta swaps the last two.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Dict, Tuple

from .errors import ChartDomainError, DomainError, SpheretorusError

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
    power,
    sum_scalars,
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


class ContextMismatch(SpheretorusError, ValueError):
    """Operands belong to algebras with different deformation families."""


class UnknownGenerator(SpheretorusError, ValueError):
    """Requested generator name is not part of the algebra."""


_HALF = EpsScalar((CR_HALF,))
_MINUS_I_HALF = EpsScalar((CRat(Fraction(0), Fraction(-1, 2)),))
_I_HALF = EpsScalar((CRat(Fraction(0), Fraction(1, 2)),))
# the generators by name, as normal-form terms
GENERATOR_TERMS: Dict[str, Terms] = {
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
# ap am = sum over sigma of coeff u^sigma, plus R
_AP_AM = ((1, EpsScalar((CR_HALF, -CR_I * CR_HALF))),
          (-1, EpsScalar((CR_HALF, CR_I * CR_HALF))))
# deepest contraction min(a, b) of ap^a am^b; ap^24*am^24 takes about 15 s
MAX_CONTRACTION = 24


class AlgebraContext:
    """The algebra at one exact value of the family parameter R."""

    def __init__(self, R):
        self.R = Fraction(R)
        self.R_scalar = EpsScalar.of(self.R)
        self._contract_cache: Dict[Key, Terms] = {}

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
        """One of the names in GENERATOR_TERMS."""
        if name not in GENERATOR_TERMS:
            raise UnknownGenerator(f"unknown generator {name!r}")
        return NormalForm(self, GENERATOR_TERMS[name])

    # contraction engine --------------------------------------------------

    def _contract(self, a: int, b: int) -> Terms:
        """Normal form of ap^a am^b, a, b >= 1, up the diagonal from the
        bare ladder: each cached step is ap^(a'-1) (ap am) am^(b'-1) with
        u^sigma of ap am moved right across am^(b'-1)."""
        depth = min(a, b)
        if depth > MAX_CONTRACTION:
            raise DomainError(f"ladder contraction of depth {depth} exceeds "
                              f"MAX_CONTRACTION = {MAX_CONTRACTION}")
        cache = self._contract_cache
        out: Terms = {(a - b, 0): ES_ONE}
        for j in range(depth - 1, -1, -1):
            key = (a - j, b - j)
            step = cache.get(key)
            if step is None:
                step = {}
                for sigma, coeff in _AP_AM:
                    ph = coeff * phase((j - b + 1) * sigma)
                    for (r, s), xi in out.items():
                        _accumulate(step, (r, s + sigma), xi * ph)
                for (r, s), xi in out.items():
                    _accumulate(step, (r, s), xi * self.R_scalar)
                step = cache[key] = {k: v for k, v in step.items()
                                     if not v.is_zero()}
            out = step
        return out


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
        contract = self.ctx._contract
        # a key holds its first term as it is, and a list once a second
        # term arrives; each list is summed, and canonicalised, once
        out: dict = {}
        for (r1, s1), xi1 in self.terms.items():
            for (r2, s2), xi2 in coerced.terms.items():
                # slide u^s1 right across ladder^r2: e^{i r2 s1 a}
                weight = xi1 * xi2
                if r2 * s1:
                    weight = weight * phase(r2 * s1)
                shift = s1 + s2
                if r1 * r2 >= 0:
                    found = (((r1 + r2, shift), weight),)
                else:
                    # am^a ap^b is theta of ap^a am^b: (r, s) -> (-r, -s)
                    sign = 1 if r1 > 0 else -1
                    found = [((sign * r, sign * s + shift), xi * weight)
                             for (r, s), xi in
                             contract(sign * r1, -sign * r2).items()]
                for key, value in found:
                    prev = out.get(key)
                    if prev is None:
                        out[key] = value
                    elif type(prev) is list:
                        prev.append(value)
                    else:
                        out[key] = [prev, value]
        for key, value in out.items():
            if type(value) is list:
                out[key] = sum_scalars(value)
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
        return power(self, n, self.ctx.one())

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
