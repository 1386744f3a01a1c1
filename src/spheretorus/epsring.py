"""Exact scalar arithmetic for the deformed algebra.

Scalars are rational functions of the deformation parameter ``eps`` of the
special shape ``p(eps) / (1 + eps^2)^m`` with ``p`` a polynomial whose
coefficients are complex numbers with rational real and imaginary parts.
This class of functions is closed under the ring operations, under
conjugation (``eps`` is self-adjoint), and contains every phase
``e^{i s alpha}`` through the half-angle substitution ``eps = tan(alpha/2)``.

Inside an :class:`EpsScalar` the numerator is kept as Gaussian integers over
one positive common denominator: ``p = (c_0 + c_1 eps + ...) / d`` with each
``c_k`` a pair ``(re, im)`` of Python ints.  Products and sums are then
integer convolutions, and normalisation is content / primitive-part
reduction: divide out the gcd of all parts and ``d``.  Because ``1 + eps^2``
is monic, dividing it out of an integer numerator stays in the integers.

Most products need less than a full canonicalisation (Geddes, Czapor and
Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2).  When one factor is
a nonzero constant (degree 0, ``den_pow`` 0) the other numerator is scaled
coefficient by coefficient and only the content gcd is taken again: a
nonzero element of Q(i) is a unit of Q(i)[eps], so the scaled numerator is
divisible by ``1 + eps^2`` exactly when the old one was, which for a
canonical operand with ``den_pow > 0`` it is not; and Z[i] has no zero
divisors, so no trailing zero appears.  A factor equal to 1 returns the
other operand.  Sums of many scalars (:func:`sum_scalars`) lift every
numerator once to the common denominator and the largest ``den_pow`` and
canonicalise the total once.  Canonical form is unique, so each shortcut
yields the same data as the general path.

All arithmetic here is exact; floats only appear in :meth:`EpsScalar.eval`.
:class:`CRat` is the exchange type for single coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import comb, gcd, lcm
from typing import Iterable, Optional, Tuple, Union

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


@lru_cache(maxsize=64)
def _circle_power(k: int) -> tuple:
    """(1 + eps^2)^k, written out by the binomial theorem."""
    out = [(0, 0)] * (2 * k + 1)
    for j in range(k + 1):
        out[2 * j] = (comb(k, j), 0)
    return tuple(out)


def _times_circle(c, times: int):
    """c * (1 + eps^2)^times, times >= 1."""
    return _convolve(_circle_power(times), c)


def _div_circle(c) -> Optional[list]:
    """c / (1 + eps^2) for c of degree >= 2, or None when the remainder is
    nonzero."""
    re = [p[0] for p in c]
    im = [p[1] for p in c]
    for k in range(len(c) - 1, 1, -1):
        re[k - 2] -= re[k]
        im[k - 2] -= im[k]
    if re[0] or re[1] or im[0] or im[1]:
        return None
    return list(zip(re[2:], im[2:]))


def _canonical(c, d: int, m: int) -> "EpsScalar":
    """The EpsScalar (c / d) / (1 + eps^2)^m in canonical form; d > 0."""
    c = list(c)
    while c and not (c[-1][0] or c[-1][1]):
        c.pop()
    if not c:
        return ES_ZERO
    if m < 0:
        c, m = _times_circle(c, -m), 0
    while m and len(c) > 2:
        quot = _div_circle(c)
        if quot is None:
            break
        c, m = quot, m - 1
    return _primitive(c, d, m)


def _primitive(c, d: int, m: int) -> "EpsScalar":
    """The EpsScalar (c / d) / (1 + eps^2)^m with the content gcd of c and d
    divided out; c has no trailing zero and, if m > 0, is not divisible by
    1 + eps^2."""
    if d != 1:
        g = gcd(d, *chain.from_iterable(c))
        if g != 1:
            c = [(re // g, im // g) for re, im in c]
            d //= g
    return _new(tuple(c), d, m)


def sum_scalars(terms) -> "EpsScalar":
    """The sum of a sequence of EpsScalars, canonicalised once.

    Each numerator is lifted to the common denominator lcm(d) and the
    largest den_pow M, by one product with a scaled (1 + eps^2)^(M - m);
    the lifted numerators are added and the total is reduced.
    """
    terms = [t for t in terms if t._c]
    if not terms:
        return ES_ZERO
    d = lcm(*[t._d for t in terms])
    m = max([t.den_pow for t in terms])
    n = max([len(t._c) + 2 * (m - t.den_pow) for t in terms])
    re, im = [0] * n, [0] * n
    for t in terms:
        c, k, scale = t._c, m - t.den_pow, d // t._d
        if k or scale != 1:
            c = _convolve([(b * scale, 0) for b, _ in _circle_power(k)], c)
        for i, (x, y) in enumerate(c):
            re[i] += x
            im[i] += y
    return _canonical(zip(re, im), d, m)


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
    """An element p(eps)/(1+eps^2)^m, kept in canonical form.

    The numerator is stored as ``_c``, a tuple of ``(re, im)`` int pairs
    (coefficient of eps^k at index k), over the positive common
    denominator ``_d``; ``den_pow`` is m.  Canonical means: trailing zero
    pairs stripped; the gcd of every part and ``_d`` is 1; and either
    ``den_pow == 0`` or the numerator is not divisible by (1+eps^2).  Zero
    is ``_c == ()``, ``_d == 1``, ``den_pow == 0``.  Equality and hashing
    act on this raw data, so equal values compare equal regardless of how
    they were produced.  :attr:`num` gives the numerator as
    :class:`CRat` coefficients.
    """

    __slots__ = ("_c", "_d", "den_pow")

    def __new__(cls, coeffs: Iterable = (), den_pow: int = 0):
        crats = [c if isinstance(c, CRat) else CRat.of(c) for c in coeffs]
        d = lcm(*(part.denominator for c in crats for part in (c.re, c.im)))
        pairs = [(c.re.numerator * (d // c.re.denominator),
                  c.im.numerator * (d // c.im.denominator)) for c in crats]
        return _canonical(pairs, d, den_pow)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("EpsScalar is immutable")

    @property
    def num(self) -> Tuple[CRat, ...]:
        """Numerator coefficients as exact complex rationals."""
        d = self._d
        return tuple(CRat(Fraction(re, d), Fraction(im, d))
                     for re, im in self._c)

    @staticmethod
    def of(value: "EpsScalar | CRat | _RationalInput") -> "EpsScalar":
        if isinstance(value, EpsScalar):
            return value
        if type(value) is int or type(value) is Fraction:
            if not value:
                return ES_ZERO
            # a Fraction is in lowest terms with a positive denominator
            return _new(((value.numerator, 0),), value.denominator, 0)
        return EpsScalar((value,))

    # ring operations ---------------------------------------------------

    def __add__(self, other) -> "EpsScalar":
        if type(other) is not EpsScalar:
            other = EpsScalar.of(other)
        a, b = self._c, other._c
        if not a:
            return other
        if not b:
            return self
        d, d2 = self._d, other._d
        if d != d2:
            g = gcd(d, d2)
            sa, sb = d2 // g, d // g
            a = [(re * sa, im * sa) for re, im in a]
            b = [(re * sb, im * sb) for re, im in b]
            d *= sa
        m, m2 = self.den_pow, other.den_pow
        if m < m2:
            a, m = _times_circle(a, m2 - m), m2
        elif m2 < m:
            b = _times_circle(b, m - m2)
        return _canonical(
            [(x[0] + y[0], x[1] + y[1])
             for x, y in zip_longest(a, b, fillvalue=(0, 0))],
            d, m,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "EpsScalar":
        return self + (-EpsScalar.of(other))

    def __rsub__(self, other) -> "EpsScalar":
        return EpsScalar.of(other) + (-self)

    def __neg__(self) -> "EpsScalar":
        return _new(tuple((-re, -im) for re, im in self._c), self._d,
                    self.den_pow)

    def __mul__(self, other) -> "EpsScalar":
        if type(other) is not EpsScalar:
            other = EpsScalar.of(other)
        a, b = self._c, other._c
        if not a or not b:
            return ES_ZERO
        # A nonzero constant times a canonical scalar needs only the content
        # gcd again (see the module docstring): no convolution, and no
        # attempt to divide out 1 + eps^2.
        if len(b) == 1 and not other.den_pow:
            (cr, ci), d, scalar = b[0], other._d, self
        elif len(a) == 1 and not self.den_pow:
            (cr, ci), d, scalar = a[0], self._d, other
        else:
            return _canonical(_convolve(a, b), self._d * other._d,
                              self.den_pow + other.den_pow)
        if d == 1 and cr == 1 and not ci:
            return scalar
        return _primitive([(re * cr - im * ci, re * ci + im * cr)
                           for re, im in scalar._c],
                          scalar._d * d, scalar.den_pow)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EpsScalar":
        if n < 0:
            inv = self.try_inverse()
            if inv is None:
                raise NotDivisible("negative power of a non-unit scalar")
            return inv ** (-n)
        return power(self, n, ES_ONE)

    def conjugate(self) -> "EpsScalar":
        """Adjoint action: eps is self-adjoint, coefficients conjugate."""
        return _new(tuple((re, -im) for re, im in self._c), self._d,
                    self.den_pow)

    def divide_by_eps(self) -> "EpsScalar":
        """Exact division by eps; raises NotDivisible if the constant
        coefficient of the numerator is nonzero."""
        if not self._c:
            return self
        if self._c[0] != (0, 0):
            raise NotDivisible("scalar is not divisible by eps")
        # eps and 1+eps^2 are coprime, so the result is still canonical
        return _new(self._c[1:], self._d, self.den_pow)

    def try_inverse(self) -> "EpsScalar | None":
        """Inverse when the value is a unit c*(1+eps^2)^j, else None."""
        c, extra = self._c, 0
        while len(c) > 2:
            c = _div_circle(c)
            if c is None:
                return None
            extra += 1
        if len(c) != 1:
            return None
        (re, im), = c
        d = self._d
        # d / (re + i im) = d (re - i im) / (re^2 + im^2)
        return _canonical([(d * re, -d * im)], re * re + im * im,
                          extra - self.den_pow)

    # queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def at_zero(self) -> CRat:
        """Exact value at eps = 0 (the commutative limit of a coefficient)."""
        return self.num[0] if self._c else CR_ZERO

    def eval(self, eps: float) -> complex:
        """Numeric value at a real eps."""
        d = self._d
        acc = 0j
        for re, im in reversed(self._c):
            # int / int is correctly rounded, as float(Fraction(re, d)) is
            acc = acc * eps + complex(re / d, im / d)
        return acc / (1.0 + eps * eps) ** self.den_pow

    def eval_exact(self, eps: Fraction) -> CRat:
        """Exact value at a rational eps."""
        eps = Fraction(eps)
        point = CRat(eps, Fraction(0))
        acc = CR_ZERO
        for c in reversed(self.num):
            acc = acc * point + c
        den = CRat(1 + eps * eps, Fraction(0))
        out = acc
        for _ in range(self.den_pow):
            out = out / den
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpsScalar):
            if isinstance(other, (int, Fraction, CRat)):
                other = EpsScalar.of(other)
            else:
                return NotImplemented
        return (self._c == other._c and self._d == other._d
                and self.den_pow == other.den_pow)

    def __hash__(self) -> int:
        return hash((self._c, self._d, self.den_pow))

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
_SET_M = EpsScalar.den_pow.__set__


def _new(c: tuple, d: int, m: int) -> EpsScalar:
    """An EpsScalar from data that is already canonical."""
    out = object.__new__(EpsScalar)
    _SET_C(out, c)
    _SET_D(out, d)
    _SET_M(out, m)
    return out


ES_ZERO = _new((), 1, 0)  # the constructor returns it for a zero numerator
ES_ONE = EpsScalar((CR_ONE,))
ES_EPS = EpsScalar((CR_ZERO, CR_ONE))
ES_I = EpsScalar((CR_I,))
# 1/(1 + eps^2), a generator of the scalar ring in its own right
ES_CIRCLE_INV = EpsScalar((CR_ONE,), 1)

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@lru_cache(maxsize=512)
def phase(s: int) -> EpsScalar:
    """e^{i s alpha} as an exact scalar, alpha the half-angle of eps.

    e^{i alpha} = (1 + i eps)^2 / (1 + eps^2); negative s conjugates.
    The numerator (1 +- i eps)^(2|s|) is written out by the binomial
    theorem; it is canonical as it stands (constant term 1, and 1 - i eps
    does not divide it).  Results are immutable and memoised.
    """
    if s == 0:
        return ES_ONE
    n = 2 * abs(s)
    sign = 1 if s > 0 else -1
    coeffs = []
    for k in range(n + 1):
        re, im = _I_POWERS[k % 4]
        b = comb(n, k)
        coeffs.append((b * re, sign * b * im))
    return _new(tuple(coeffs), 1, abs(s))


def sin_alpha() -> EpsScalar:
    """sin(alpha) = 2 eps / (1 + eps^2)."""
    return EpsScalar((CR_ZERO, CRat(Fraction(2), Fraction(0))), 1)


def cos_alpha() -> EpsScalar:
    """cos(alpha) = (1 - eps^2) / (1 + eps^2)."""
    return EpsScalar((CR_ONE, CR_ZERO, -CR_ONE), 1)
