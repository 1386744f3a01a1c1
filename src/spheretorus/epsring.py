"""Exact scalar arithmetic for the deformed algebra.

Scalars are rational functions of the deformation parameter ``eps`` with
complex-rational coefficients whose denominators are powers of the two
linear factors of ``1 + eps^2 = (1 + i eps)(1 - i eps)``.  This class is
closed under the ring operations and under conjugation (``eps`` is
self-adjoint, so conjugation swaps the factors), and it contains every phase
``e^{i s alpha} = ((1 + i eps) / (1 - i eps))^s``, ``eps = tan(alpha/2)``.

An :class:`EpsScalar` keeps the factored form
``p(eps) (1 + i eps)^a (1 - i eps)^b`` with integers a, b and ``p`` coprime
to both factors (``p(i) != 0 != p(-i)``).  Both factors are primes of the
unique factorisation domain Q(i)[eps] (Geddes, Czapor and Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2), so the form is unique once
``p`` is written as Gaussian integers over one positive denominator ``d``
with the gcd of every part and ``d`` equal to 1 (the content gcd).

- A product adds the exponents and multiplies the p's: a product of
  polynomials coprime to a prime is coprime to it, so no division is tried.
  When one ``p`` is a nonzero constant (every phase, ``1/(1+eps^2)`` and
  every rational) the other is scaled coefficient by coefficient and only
  the content gcd is taken again.
- A sum lifts both operands to the smaller exponents, adds, and peels a
  linear factor off while ``p(i)`` or ``p(-i)`` vanishes.  Both values are
  read from alternating sums of the coefficients, so every division is exact.

The closed form ``q / (1 + eps^2)^m`` that ``str``, ``num``, ``den_pow`` and
``eval`` show is derived on demand: ``m = max(0, -a, -b)`` and
``q = p (1 + i eps)^(a+m) (1 - i eps)^(b+m)``.  If m > 0 one exponent is 0,
so ``1 + eps^2`` does not divide ``q``; and by Gauss's lemma in Z[i][eps]
``q`` has the content of ``p``, so it is in lowest terms over ``d``.

All arithmetic here is exact; floats only appear in :meth:`EpsScalar.eval`.
:class:`CRat` is the exchange type for single coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, cycle, zip_longest
from math import comb, gcd, lcm
from typing import Iterable, Tuple, Union

from .errors import SpheretorusError


class NotDivisible(SpheretorusError, ArithmeticError):
    """Exact division failed (nonzero remainder or non-unit divisor)."""


_RationalInput = Union[int, Fraction]


@dataclass(frozen=True)
class CRat:
    """A complex number with arbitrary-precision rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: "CRat | _RationalInput") -> "CRat":
        if isinstance(value, CRat):
            return value
        return CRat(Fraction(value), Fraction(0))

    def __add__(self, other: "CRat | _RationalInput") -> "CRat":
        other = _crat_operand(other)
        if other is None:
            return NotImplemented
        return CRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRat | _RationalInput") -> "CRat":
        other = _crat_operand(other)
        if other is None:
            return NotImplemented
        return CRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CRat | _RationalInput") -> "CRat":
        other = _crat_operand(other)
        if other is None:
            return NotImplemented
        return CRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def __truediv__(self, other: "CRat") -> "CRat":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return CRat(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "CRat":
        return CRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


def _crat_operand(value) -> "CRat | None":
    """value as the CRat operand of a CRat operation, or None when it is not
    a CRat, int or Fraction: the operation then returns NotImplemented, and
    Python tries the reflected one (``CRat * EpsScalar`` is an EpsScalar)."""
    if isinstance(value, CRat):
        return value
    if isinstance(value, (int, Fraction)):
        return CRat.of(value)
    return None


CR_ZERO = CRat()
CR_ONE = CRat(Fraction(1), Fraction(0))
CR_I = CRat(Fraction(0), Fraction(1))
CR_HALF = CRat(Fraction(1, 2), Fraction(0))


# Gaussian-integer polynomials: sequences of (re, im) int pairs, lowest
# degree first.


def _convolve(a, b) -> list:
    """Product of two nonzero polynomials (no trailing zeros appear)."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        (ar, ai), = a
        return [(ar * br - ai * bi, ar * bi + ai * br) for br, bi in b]
    n = len(a) + len(b) - 1
    re, im = [0] * n, [0] * n
    for i, (ar, ai) in enumerate(a):
        if not (ar or ai):
            continue
        for k, (br, bi) in enumerate(b, i):
            re[k] += ar * br - ai * bi
            im[k] += ar * bi + ai * br
    return list(zip(re, im))


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@lru_cache(maxsize=256)
def _factor_power(s: int, t: int) -> tuple:
    """(1 + i eps)^s (1 - i eps)^t for s, t >= 0, by the binomial theorem;
    for s == t it is the binomial (1 + eps^2)^s."""
    left, right = ([(comb(n, j) * re, sign * comb(n, j) * im)
                    for j, (re, im) in zip(range(n + 1), cycle(_I_POWERS))]
                   for n, sign in ((s, 1), (t, -1)))
    return tuple(_convolve(left, right))


def _peel(c, sign: int) -> list:
    """c / (1 + sign i eps) for c with the root eps = sign i, by division
    from the constant term up: q_k = c_k - sign i q_(k-1)."""
    out = [c[0]]
    qr, qi = c[0]
    for pr, pi in c[1:-1]:
        qr, qi = pr + sign * qi, pi - sign * qr
        out.append((qr, qi))
    return out


def _canonical(c, d: int, a: int, b: int) -> "EpsScalar":
    """The EpsScalar (c / d) (1 + i eps)^a (1 - i eps)^b in canonical form;
    d > 0."""
    c = list(c)
    while c and not (c[-1][0] or c[-1][1]):
        c.pop()
    if not c:
        return ES_ZERO
    while len(c) > 1:
        # p(+-i) = (er -+ oi) + i (ei +- or): er, ei alternate over the
        # even coefficients, or, oi over the odd ones
        re, im = zip(*c)
        er = sum(re[0::4]) - sum(re[2::4])
        ei = sum(im[0::4]) - sum(im[2::4])
        o_r = sum(re[1::4]) - sum(re[3::4])
        oi = sum(im[1::4]) - sum(im[3::4])
        if er == oi and ei == -o_r:
            c, a = _peel(c, 1), a + 1
        elif er == -oi and ei == o_r:
            c, b = _peel(c, -1), b + 1
        else:
            break
    return _primitive(c, d, a, b)


def _primitive(c, d: int, a: int, b: int) -> "EpsScalar":
    """The EpsScalar (c / d) (1 + i eps)^a (1 - i eps)^b with the content
    gcd divided out; c has no trailing zero and is coprime to both factors."""
    if d != 1:
        g = gcd(d, *chain.from_iterable(c))
        if g != 1:
            c = [(re // g, im // g) for re, im in c]
            d //= g
    return _new(tuple(c), d, a, b)


def power(base, n: int, one):
    """base^n for n >= 0 by binary powering: base is squared once per bit
    of n below the top one, and multiplied in once per further set bit."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


class EpsScalar:
    """An element p(eps) (1 + i eps)^a (1 - i eps)^b in canonical form.

    ``p`` is ``_c``, a tuple of ``(re, im)`` int pairs (coefficient of
    eps^k at index k), over the positive denominator ``_d``; ``_a`` and
    ``_b`` are the exponents.  Canonical means: no trailing zero pair, the
    gcd of every part and ``_d`` is 1, and p(i) != 0 != p(-i).  Zero is
    ``((), 1, 0, 0)``.  Equality and hashing act on this raw data.
    ``EpsScalar(coeffs, den_pow)`` takes the closed form
    ``coeffs / (1 + eps^2)^den_pow``; :attr:`num` and :attr:`den_pow` give
    it back, derived on demand.
    """

    __slots__ = ("_c", "_d", "_a", "_b")

    def __new__(cls, coeffs: Iterable = (), den_pow: int = 0):
        crats = [c if isinstance(c, CRat) else CRat.of(c) for c in coeffs]
        d = lcm(*(part.denominator for c in crats for part in (c.re, c.im)))
        pairs = [(c.re.numerator * (d // c.re.denominator),
                  c.im.numerator * (d // c.im.denominator)) for c in crats]
        return _canonical(pairs, d, -den_pow, -den_pow)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("EpsScalar is immutable")

    def _closed(self) -> Tuple[list, int]:
        """(q, m) of the closed form (q / _d) / (1 + eps^2)^m."""
        a, b, c = self._a, self._b, self._c
        m = max(0, -a, -b)
        if a + m or b + m:
            c = _convolve(_factor_power(a + m, b + m), c)
        return c, m

    @property
    def num(self) -> Tuple[CRat, ...]:
        """Closed-form numerator coefficients as exact complex rationals."""
        d = self._d
        return tuple(CRat(Fraction(re, d), Fraction(im, d))
                     for re, im in self._closed()[0])

    @property
    def den_pow(self) -> int:
        """The power of 1 + eps^2 under the closed form's numerator."""
        return max(0, -self._a, -self._b)

    @staticmethod
    def of(value: "EpsScalar | CRat | _RationalInput") -> "EpsScalar":
        if isinstance(value, EpsScalar):
            return value
        if type(value) is int or type(value) is Fraction:
            if not value:
                return ES_ZERO
            # a Fraction is in lowest terms with a positive denominator
            return _new(((value.numerator, 0),), value.denominator, 0, 0)
        return EpsScalar((value,))

    # ring operations ---------------------------------------------------

    def __add__(self, other) -> "EpsScalar":
        if type(other) is not EpsScalar:
            other = EpsScalar.of(other)
        x, y = self._c, other._c
        if not x:
            return other
        if not y:
            return self
        d, d2 = self._d, other._d
        if d != d2:
            g = gcd(d, d2)
            sx, sy = d2 // g, d // g
            x = [(re * sx, im * sx) for re, im in x]
            y = [(re * sy, im * sy) for re, im in y]
            d *= sx
        a, b = min(self._a, other._a), min(self._b, other._b)
        if self._a != a or self._b != b:
            x = _convolve(_factor_power(self._a - a, self._b - b), x)
        if other._a != a or other._b != b:
            y = _convolve(_factor_power(other._a - a, other._b - b), y)
        return _canonical([(p[0] + q[0], p[1] + q[1]) for p, q in
                           zip_longest(x, y, fillvalue=(0, 0))], d, a, b)

    __radd__ = __add__

    def __sub__(self, other) -> "EpsScalar":
        return self + (-EpsScalar.of(other))

    def __rsub__(self, other) -> "EpsScalar":
        return EpsScalar.of(other) + (-self)

    def __neg__(self) -> "EpsScalar":
        return _new(tuple((-re, -im) for re, im in self._c), self._d,
                    self._a, self._b)

    def __mul__(self, other) -> "EpsScalar":
        if type(other) is not EpsScalar:
            other = EpsScalar.of(other)
        a, b = self._c, other._c
        if not a or not b:
            return ES_ZERO
        ea, eb = self._a + other._a, self._b + other._b
        # a constant p needs only the content gcd again, and no convolution
        if len(b) == 1:
            (cr, ci), d, scalar = b[0], other._d, self
        elif len(a) == 1:
            (cr, ci), d, scalar = a[0], self._d, other
        else:
            return _primitive(_convolve(a, b), self._d * other._d, ea, eb)
        if d == 1 and cr == 1 and not ci:
            return _new(scalar._c, scalar._d, ea, eb)
        return _primitive([(re * cr - im * ci, re * ci + im * cr)
                           for re, im in scalar._c],
                          scalar._d * d, ea, eb)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EpsScalar":
        if n < 0:
            inv = self.try_inverse()
            if inv is None:
                raise NotDivisible("negative power of a non-unit scalar")
            return inv ** (-n)
        return power(self, n, ES_ONE)

    def conjugate(self) -> "EpsScalar":
        """Adjoint action: eps is self-adjoint, coefficients conjugate, and
        so the two linear factors trade places."""
        return _new(tuple((re, -im) for re, im in self._c), self._d,
                    self._b, self._a)

    def divide_by_eps(self) -> "EpsScalar":
        """Exact division by eps; raises NotDivisible if the constant
        coefficient of the numerator is nonzero."""
        if not self._c:
            return self
        if self._c[0] != (0, 0):
            raise NotDivisible("scalar is not divisible by eps")
        # eps is coprime to both linear factors, so p / eps stays canonical
        return _new(self._c[1:], self._d, self._a, self._b)

    def try_inverse(self) -> "EpsScalar | None":
        """Inverse when the value is a unit (p constant), else None."""
        if len(self._c) != 1:
            return None
        (re, im), = self._c
        d = self._d
        # d / (re + i im) = d (re - i im) / (re^2 + im^2)
        return _primitive([(d * re, -d * im)], re * re + im * im,
                          -self._a, -self._b)

    # queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def at_zero(self) -> CRat:
        """Exact value at eps = 0 (the commutative limit of a coefficient)."""
        if not self._c:
            return CR_ZERO
        (re, im), d = self._c[0], self._d
        return CRat(Fraction(re, d), Fraction(im, d))

    def eval(self, eps: float) -> complex:
        """Numeric value at a real eps, evaluated from the closed form."""
        c, m = self._closed()
        d = self._d
        acc = 0j
        for re, im in reversed(c):
            # int / int is correctly rounded, as float(Fraction(re, d)) is
            acc = acc * eps + complex(re / d, im / d)
        return acc / (1.0 + eps * eps) ** m

    def eval_exact(self, eps: Fraction) -> CRat:
        """Exact value at a rational eps."""
        eps = Fraction(eps)
        acc = CR_ZERO
        for c in reversed(self.num):
            acc = acc * eps + c
        return acc / CRat.of((1 + eps * eps) ** self.den_pow)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpsScalar):
            if isinstance(other, (int, Fraction, CRat)):
                other = EpsScalar.of(other)
            else:
                return NotImplemented
        return (self._c == other._c and self._d == other._d
                and self._a == other._a and self._b == other._b)

    def __hash__(self) -> int:
        return hash((self._c, self._d, self._a, self._b))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, c in enumerate(self.num):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*eps")
            else:
                parts.append(f"{c}*eps^{k}")
        body = " + ".join(parts)
        if self.den_pow == 0:
            return body
        if len(parts) > 1:
            body = f"({body})"
        return f"{body}*(1+eps^2)^-{self.den_pow}"

    __repr__ = __str__


_SET_C = EpsScalar._c.__set__
_SET_D = EpsScalar._d.__set__
_SET_A = EpsScalar._a.__set__
_SET_B = EpsScalar._b.__set__


def _new(c: tuple, d: int, a: int, b: int) -> EpsScalar:
    """An EpsScalar from data that is already canonical."""
    out = object.__new__(EpsScalar)
    _SET_C(out, c)
    _SET_D(out, d)
    _SET_A(out, a)
    _SET_B(out, b)
    return out


ES_ZERO = _new((), 1, 0, 0)  # the constructor returns it for a zero numerator
ES_ONE = EpsScalar((CR_ONE,))
ES_EPS = EpsScalar((CR_ZERO, CR_ONE))
ES_I = EpsScalar((CR_I,))
# 1/(1 + eps^2), a generator of the scalar ring in its own right
ES_CIRCLE_INV = EpsScalar((CR_ONE,), 1)


def phase(s: int) -> EpsScalar:
    """e^{i s alpha} as an exact scalar, alpha the half-angle of eps.

    e^{i alpha} = (1 + i eps)^2 / (1 + eps^2) = (1 + i eps) / (1 - i eps),
    so the phase is the constant 1 with exponents (s, -s).
    """
    return _new(((1, 0),), 1, s, -s)


def sin_alpha() -> EpsScalar:
    """sin(alpha) = 2 eps / (1 + eps^2)."""
    return EpsScalar((CR_ZERO, CRat(Fraction(2), Fraction(0))), 1)


def cos_alpha() -> EpsScalar:
    """cos(alpha) = (1 - eps^2) / (1 + eps^2)."""
    return EpsScalar((CR_ONE, CR_ZERO, -CR_ONE), 1)
