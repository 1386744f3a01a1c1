"""Exact scalar ring: canonical forms, ring axioms, phases, division."""

import random
from fractions import Fraction
from functools import reduce
from itertools import chain, cycle
from math import comb, gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretorus.epsring import (
    CR_HALF,
    CR_I,
    CR_ONE,
    CR_ZERO,
    CRat,
    ES_CIRCLE_INV,
    ES_EPS,
    ES_I,
    ES_ONE,
    ES_ZERO,
    EpsScalar,
    NotDivisible,
    _canonical,
    _convolve,
    cos_alpha,
    phase,
    sin_alpha,
)

_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_crats = st.builds(CRat, _fracs, _fracs)
_scalars = st.builds(
    lambda coeffs, m: EpsScalar(tuple(coeffs), m),
    st.lists(_crats, max_size=4),
    st.integers(min_value=0, max_value=2),
)


# canonical form -------------------------------------------------------------


def test_trailing_zeros_stripped():
    assert EpsScalar((CR_ONE, CR_ZERO, CR_ZERO)) == ES_ONE
    assert EpsScalar((CR_ZERO,)) == ES_ZERO
    assert EpsScalar(()) == ES_ZERO


def test_common_circle_factors_cancel():
    # (1 + eps^2) / (1 + eps^2) reduces to 1
    assert EpsScalar((CR_ONE, CR_ZERO, CR_ONE), 1) == ES_ONE
    # eps * (1 + eps^2) / (1 + eps^2)^2 reduces to eps/(1 + eps^2)
    raw = EpsScalar((CR_ZERO, CR_ONE, CR_ZERO, CR_ONE), 2)
    assert raw == ES_EPS * ES_CIRCLE_INV
    assert raw.den_pow == 1


def test_negative_den_pow_folds_into_numerator():
    # coeffs/(1+eps^2)^-1 means coeffs*(1+eps^2)
    assert EpsScalar((CR_ONE,), -1) == EpsScalar((CR_ONE, CR_ZERO, CR_ONE))


def test_zero_normalizes_den_pow():
    assert EpsScalar((), 2) == ES_ZERO
    assert EpsScalar((), 2).den_pow == 0


def test_equal_values_equal_hash():
    a = ES_EPS * ES_EPS + ES_ONE          # 1 + eps^2
    b = ES_CIRCLE_INV ** -1               # (1+eps^2)^{-1} inverted
    assert a == b
    assert hash(a) == hash(b)


def test_immutable():
    with pytest.raises(AttributeError):
        ES_ONE.num = ()


_nonzero_crats = _crats.filter(bool)
_units = st.builds(
    lambda c, j: EpsScalar((c,)) * ES_CIRCLE_INV ** j,
    _nonzero_crats,
    st.integers(min_value=-2, max_value=2),
)


@settings(max_examples=60, deadline=None)
@given(_scalars)
def test_rebuilt_from_num_is_identical(a):
    again = EpsScalar(a.num, a.den_pow)
    assert again == a
    assert hash(again) == hash(a)
    assert again.num == a.num


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars, _units, st.integers(min_value=-3, max_value=3))
def test_different_routes_give_one_canonical_form(a, b, unit, s):
    routes = [
        (a + b) - b,
        a * unit * unit.try_inverse(),
        a * phase(s) * phase(-s),
        -(-a),
        a.conjugate().conjugate(),
    ]
    for value in routes:
        assert value == a
        assert hash(value) == hash(a)
        assert value.num == a.num and value.den_pow == a.den_pow


@settings(max_examples=60, deadline=None)
@given(st.lists(_crats, max_size=4), st.integers(min_value=0, max_value=2),
       st.integers(min_value=2, max_value=60))
def test_scaling_by_k_over_k_leaves_num_unchanged(coeffs, m, k):
    base = EpsScalar(tuple(coeffs), m)
    scaled = EpsScalar(tuple(c * CRat.of(k) for c in coeffs), m)
    back = scaled * EpsScalar.of(Fraction(1, k))
    assert back.num == base.num
    assert back == base and hash(back) == hash(base)


# ring axioms ----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=40, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(_scalars)
def test_additive_inverse_and_units(a):
    assert a + (-a) == ES_ZERO
    assert a - a == ES_ZERO
    assert a * ES_ONE == a
    assert a * ES_ZERO == ES_ZERO


@settings(max_examples=40, deadline=None)
@given(_scalars, _scalars)
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=40, deadline=None)
@given(_scalars, st.fractions(min_value=-2, max_value=2, max_denominator=8))
def test_eval_exact_matches_float_eval(a, eps):
    exact = a.eval_exact(eps)
    approx = a.eval(float(eps))
    assert complex(exact) == pytest.approx(approx, abs=1e-9)


# phases ---------------------------------------------------------------------


def test_phase_at_unit_eps_is_i():
    # eps = 1 means alpha = pi/2, so e^{i alpha} = i, exactly
    assert phase(1).eval_exact(Fraction(1)) == CR_I
    assert phase(2).eval_exact(Fraction(1)) == -CR_ONE
    assert phase(-1).eval_exact(Fraction(1)) == -CR_I


def test_phases_form_a_group():
    assert phase(0) == ES_ONE
    for s in range(-3, 4):
        assert phase(s) * phase(-s) == ES_ONE
        assert phase(s).conjugate() == phase(-s)
    assert phase(1) ** 3 == phase(3)
    assert phase(2) * phase(3) == phase(5)


def test_phase_is_unimodular():
    for s in (1, 2, 5):
        assert phase(s) * phase(s).conjugate() == ES_ONE


def test_half_angle_identities():
    s, c = sin_alpha(), cos_alpha()
    assert s * s + c * c == ES_ONE
    half = EpsScalar.of(Fraction(1, 2))
    assert (phase(1) + phase(-1)) * half == c
    assert (phase(1) - phase(-1)) * half * ES_I.conjugate() == s


# division and inversion -----------------------------------------------------


def test_divide_by_eps():
    assert ES_EPS.divide_by_eps() == ES_ONE
    cubic = ES_EPS ** 3 + ES_EPS
    assert cubic.divide_by_eps() == ES_EPS * ES_EPS + ES_ONE
    assert ES_ZERO.divide_by_eps() == ES_ZERO
    with pytest.raises(NotDivisible):
        ES_ONE.divide_by_eps()
    with pytest.raises(NotDivisible):
        (ES_EPS + ES_ONE).divide_by_eps()


def test_try_inverse_on_units():
    circle = ES_CIRCLE_INV.try_inverse()
    assert circle == EpsScalar((CR_ONE, CR_ZERO, CR_ONE))
    third = EpsScalar.of(Fraction(3)).try_inverse()
    assert third == EpsScalar.of(Fraction(1, 3))
    unit = EpsScalar((CR_I,), 2)  # i/(1+eps^2)^2
    inv = unit.try_inverse()
    assert inv is not None
    assert unit * inv == ES_ONE
    # each linear factor of 1 + eps^2 is a unit too, and so is every phase
    linear = ES_ONE + ES_I * ES_EPS
    assert linear.try_inverse() == (ES_ONE - ES_I * ES_EPS) * ES_CIRCLE_INV
    assert linear ** -2 * linear ** 2 == ES_ONE
    assert phase(3).try_inverse() == phase(-3)


def test_try_inverse_on_non_units():
    assert ES_EPS.try_inverse() is None
    assert (ES_ONE + ES_EPS).try_inverse() is None
    assert ES_ZERO.try_inverse() is None
    with pytest.raises(NotDivisible):
        ES_EPS ** -1


def test_at_zero():
    assert (ES_ONE + ES_EPS * ES_EPS).at_zero() == CR_ONE
    assert ES_EPS.at_zero() == CR_ZERO
    assert phase(3).at_zero() == CR_ONE  # every phase -> 1 at eps = 0


def test_str_round_readability():
    assert str(ES_ZERO) == "0"
    assert str(ES_EPS) == "1*eps"
    assert "1+eps^2" in str(ES_CIRCLE_INV)


def test_power_squares_only_below_the_top_bit(monkeypatch):
    s = ES_ONE + ES_EPS * ES_I
    products = [ES_ONE]
    for _ in range(16):
        products.append(products[-1] * s)
    calls = []
    mul = EpsScalar.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(EpsScalar, "__mul__", counting)
    for n in range(17):
        calls.clear()
        power = s ** n
        assert len(calls) == max(0, n.bit_length() + bin(n).count("1") - 2), n
        assert power == products[n]


# fast paths against the general route -----------------------------------------
#
# Products with a constant p skip the convolution, and EpsScalar.of builds
# rationals without CRat.  Canonical form is unique, so each must give the raw
# data of the general route exactly.  Sums have one route, EpsScalar.__add__,
# which the ring axioms above and the closed-form reference below check.

_KINDS = ("zero", "one", "const", "circle", "poly")


def _rand_scalar(rng, kind):
    """A canonical scalar of the given kind, small shared denominators so
    that content gcds with the other factor are frequent."""
    def part():
        return rng.randint(-12, 12)

    d = rng.choice((1, 2, 3, 4, 6, 12))
    if kind == "zero":
        return ES_ZERO
    if kind == "one":
        return ES_ONE
    if kind in ("const", "circle"):
        pair = (0, 0)
        while pair == (0, 0):
            pair = (part(), part())
        m = 0 if kind == "const" else rng.randint(1, 3)
        return _canonical([pair], d, -m, -m)
    coeffs = [(part(), part()) for _ in range(rng.randint(2, 6))]
    coeffs[-1] = (coeffs[-1][0] or 1, coeffs[-1][1])
    return _canonical(coeffs, d, rng.randint(-3, 2), rng.randint(-3, 2))


def _data(a):
    return a._c, a._d, a._a, a._b


@pytest.mark.parametrize("left", _KINDS)
@pytest.mark.parametrize("right", _KINDS)
def test_product_fast_paths_match_convolution(left, right):
    rng = random.Random(f"{left}*{right}")
    for _ in range(60):
        a, b = _rand_scalar(rng, left), _rand_scalar(rng, right)
        general = _canonical(_convolve(a._c, b._c), a._d * b._d,
                             a._a + b._a, a._b + b._b)
        assert _data(a * b) == _data(general), (a, b)
        assert _data(b * a) == _data(general), (a, b)


def test_product_coerces_rationals_and_crats():
    rng = random.Random(7)
    for kind in _KINDS:
        a = _rand_scalar(rng, kind)
        for v in (0, 1, -3, Fraction(-5, 6)):
            want = a * EpsScalar((CRat.of(v),))
            assert _data(a * v) == _data(want)
            assert _data(v * a) == _data(want)
        crat = CRat(Fraction(1, 2), Fraction(-2, 3))
        assert _data(a * crat) == _data(a * EpsScalar((crat,)))


@pytest.mark.parametrize("value", [
    0, 1, -1, 7, -12, 2 ** 70, -(3 ** 50), Fraction(0), Fraction(1),
    Fraction(-1, 2), Fraction(-22, 7), Fraction(-(2 ** 65), 3 ** 41),
    Fraction(6, 4), True, False, CRat(Fraction(-3, 4), Fraction(5)),
])
def test_of_rational_matches_crat_route(value):
    assert _data(EpsScalar.of(value)) == _data(EpsScalar((CRat.of(value),)))


def test_addition_lifts_mixed_den_pow():
    # (1 + eps^2)/(1 + eps^2)^3 + (2/3)/(1 + eps^2) - 1/4 is, over
    # (1 + eps^2)^2, the numerator 1 + (2/3)(1 + eps^2) - (1/4)(1 + eps^2)^2
    terms = [ES_CIRCLE_INV ** 3, ES_EPS * ES_EPS * ES_CIRCLE_INV ** 3,
             EpsScalar.of(Fraction(2, 3)) * ES_CIRCLE_INV,
             EpsScalar.of(Fraction(-1, 4))]
    want = EpsScalar((Fraction(17, 12), 0, Fraction(1, 6), 0,
                      Fraction(-1, 4)), 2)
    assert _data(reduce(add, terms)) == _data(want)


def test_phase_matches_uncached_binomial():
    # the closed form of e^{i s alpha} is (1 +- i eps)^(2|s|) / (1 + eps^2)^|s|
    e_i_alpha = EpsScalar((CR_ONE, CR_I)) ** 2 * ES_CIRCLE_INV
    for s in range(-40, 41):
        want = e_i_alpha ** s if s >= 0 else e_i_alpha.conjugate() ** -s
        assert _data(phase(s)) == _data(want), s
        binomial = _ref_linear(2 * abs(s), 1 if s >= 0 else -1)
        assert phase(s).num == tuple(CRat(Fraction(re), Fraction(im))
                                     for re, im in binomial), s
        assert phase(s).den_pow == abs(s), s


def test_crat_defers_to_the_other_operand():
    # CRat's operations return NotImplemented for what they cannot take, so
    # Python tries the reflected operation of the other operand
    c, s = CRat(Fraction(1, 2), Fraction(-3)), EpsScalar((1, CR_I), 1)
    assert c * s == s * c == EpsScalar((c, c * CR_I), 1)
    assert c + s == s + c
    assert c - s == -(s - c)
    assert CRat(Fraction(1)) * EpsScalar.of(2) == EpsScalar.of(2)
    assert c * 2 == c + c == CRat(Fraction(1), Fraction(-6))
    assert c - Fraction(1, 2) == CRat(Fraction(0), Fraction(-3))
    for op in (lambda: c + object(), lambda: c - object(),
               lambda: c * object(), lambda: c * 0.5):
        with pytest.raises(TypeError):
            op()


# the closed-form ring as a reference ------------------------------------------
#
# The closed form (q, d, m) is a Gaussian-integer numerator q over d > 0,
# divided by (1 + eps^2)^m, canonical when q has no trailing zero,
# gcd(d, parts of q) = 1, and m = 0 or 1 + eps^2 does not divide q.  It is
# what num, den_pow, str and eval show, so the factored ring must give exactly
# this data, whatever chain of operations made the value.  The reference
# computes on (q, d, m) alone.

_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _ref_mul_poly(a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for k, (br, bi) in enumerate(b, i):
            r, m = out[k]
            out[k] = (r + ar * br - ai * bi, m + ar * bi + ai * br)
    return out


def _ref_circle(k):
    return [(comb(k, j // 2), 0) if j % 2 == 0 else (0, 0)
            for j in range(2 * k + 1)]


def _ref_div_circle(q):
    """q / (1 + eps^2) for q of degree >= 2, or None if it does not divide."""
    re, im = [p[0] for p in q], [p[1] for p in q]
    for k in range(len(q) - 1, 1, -1):
        re[k - 2] -= re[k]
        im[k - 2] -= im[k]
    if re[0] or re[1] or im[0] or im[1]:
        return None
    return list(zip(re[2:], im[2:]))


def _ref(q, d, m):
    """(q / d) / (1 + eps^2)^m in the closed canonical form."""
    q = list(q)
    while q and q[-1] == (0, 0):
        q.pop()
    if not q:
        return (), 1, 0
    if m < 0:
        q, m = _ref_mul_poly(_ref_circle(-m), q), 0
    while m and len(q) > 2 and _ref_div_circle(q) is not None:
        q, m = _ref_div_circle(q), m - 1
    g = gcd(d, *chain.from_iterable(q))
    return tuple((r // g, i // g) for r, i in q), d // g, m


def _ref_add(x, y):
    (p, d, m), (q, e, n) = x, y
    if m < n:
        p = _ref_mul_poly(_ref_circle(n - m), p) if p else p
    elif n < m:
        q = _ref_mul_poly(_ref_circle(m - n), q) if q else q
    size = max(len(p), len(q))
    p = [(r * e, i * e) for r, i in p] + [(0, 0)] * (size - len(p))
    q = [(r * d, i * d) for r, i in q] + [(0, 0)] * (size - len(q))
    return _ref([(a + c, b + f) for (a, b), (c, f) in zip(p, q)], d * e,
                max(m, n))


def _ref_mul(x, y):
    if not x[0] or not y[0]:
        return (), 1, 0
    return _ref(_ref_mul_poly(x[0], y[0]), x[1] * y[1], x[2] + y[2])


def _ref_linear(n, sign):
    """(1 + sign i eps)^n, n >= 0."""
    return [(comb(n, k) * re, sign * comb(n, k) * im)
            for k, (re, im) in zip(range(n + 1), cycle(_I_POWERS))]


def _ref_inverse(x):
    """The inverse of a unit c (1 + eps^2)^j (1 +- i eps)^n, else None."""
    q, d, m = x
    extra = 0
    while q and len(q) > 2 and _ref_div_circle(q) is not None:
        q, extra = _ref_div_circle(q), extra + 1
    if not q:
        return None
    n = len(q) - 1
    for sign in (1, -1):
        if _ref_mul_poly([q[0]], _ref_linear(n, sign)) == list(q):
            break
    else:
        return None
    (re, im), rest = q[0], _ref_linear(n, -sign)
    # 1 / (1 + s i eps)^n = (1 - s i eps)^n / (1 + eps^2)^n
    return _ref(_ref_mul_poly([(d * re, -d * im)], rest), re * re + im * im,
                n + extra - m)


def _ref_pow(x, n):
    if n < 0:
        x = _ref_inverse(x)
        if x is None:
            return None
    out = ((1, 0),), 1, 0
    for _ in range(abs(n)):
        out = _ref_mul(out, x)
    return out


def _ref_str(x):
    q, d, m = x
    if not q:
        return "0"
    parts = []
    for k, (re, im) in enumerate(q):
        c = CRat(Fraction(re, d), Fraction(im, d))
        if c.is_zero():
            continue
        parts.append(str(c) if k == 0 else
                     f"{c}*eps" if k == 1 else f"{c}*eps^{k}")
    body = " + ".join(parts)
    if m == 0:
        return body
    if len(parts) > 1:
        body = f"({body})"
    return f"{body}*(1+eps^2)^-{m}"


def _ref_eval(x, eps):
    q, d, m = x
    acc = 0j
    for re, im in reversed(q):
        acc = acc * eps + complex(re / d, im / d)
    return acc / (1.0 + eps * eps) ** m


def _at_root(c, sign):
    """p(sign * i) as a Gaussian integer, exactly."""
    re = im = 0
    for (cr, ci), (pr, pi) in zip(c, cycle(_I_POWERS)):
        pi *= sign
        re, im = re + cr * pr - ci * pi, im + cr * pi + ci * pr
    return re, im


def _assert_matches(value, ref):
    q, d, m = ref
    c = value._c
    assert value._d == d > 0
    if c:
        assert c[-1] != (0, 0)
        assert gcd(value._d, *chain.from_iterable(c)) == 1
        assert _at_root(c, 1) != (0, 0) and _at_root(c, -1) != (0, 0)
    else:
        assert (value._d, value._a, value._b) == (1, 0, 0)
    assert value.num == tuple(CRat(Fraction(r, d), Fraction(i, d))
                              for r, i in q)
    assert value.den_pow == m
    assert str(value) == _ref_str(ref)
    got, want = value.eval(0.37), _ref_eval(ref, 0.37)
    assert (got.real.hex(), got.imag.hex()) == \
        (want.real.hex(), want.imag.hex())


def _operands(rng):
    """(scalar, reference) pairs: phases, 1/(1 + eps^2), eps, (1 -+ i eps)/2
    and Gaussian-rational constants, each reference built on its own."""
    out = [(ES_CIRCLE_INV, (((1, 0),), 1, 1)),
           (ES_EPS, (((0, 0), (1, 0)), 1, 0))]
    for s in range(-4, 5):
        q = _ref_linear(2 * abs(s), 1 if s >= 0 else -1)
        out.append((phase(s), _ref(q, 1, abs(s))))
    for sign in (1, -1):
        out.append((EpsScalar((CR_HALF, CRat(Fraction(0),
                                             Fraction(-sign, 2)))),
                    _ref([(1, 0), (0, -sign)], 2, 0)))
    for _ in range(6):
        re, im, d = rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 6)
        out.append((EpsScalar((CRat(Fraction(re, d), Fraction(im, d)),)),
                    _ref([(re, im)], d, 0)))
    return out


def test_factored_ring_matches_the_closed_form_reference():
    rng = random.Random(22)
    pool = _operands(rng)
    for _ in range(150):
        x, rx = rng.choice(pool)
        for _ in range(20):
            y, ry = rng.choice(pool)
            op = rng.choice(("+", "-", "*", "*", "**", "conj", "inv", "eps"))
            if op == "+":
                x, rx = x + y, _ref_add(rx, ry)
            elif op == "-":
                x, rx = x - y, _ref_add(rx, _ref_mul(ry, (((-1, 0),), 1, 0)))
            elif op == "*":
                x, rx = x * y, _ref_mul(rx, ry)
            elif op == "**":
                n = rng.randint(-2, 3)
                want = _ref_pow(rx, n)
                if want is None:
                    with pytest.raises(NotDivisible):
                        x ** n
                    continue
                x, rx = x ** n, want
            elif op == "conj":
                x, rx = x.conjugate(), (tuple((r, -i) for r, i in rx[0]),
                                        rx[1], rx[2])
            elif op == "inv":
                want = _ref_inverse(rx)
                assert (x.try_inverse() is None) == (want is None)
                if want is None:
                    continue
                x, rx = x.try_inverse(), want
            elif rx[0] and rx[0][0] != (0, 0):
                with pytest.raises(NotDivisible):
                    x.divide_by_eps()
                continue
            else:
                x, rx = x.divide_by_eps(), (rx[0][1:], rx[1], rx[2])
            _assert_matches(x, rx)
            if len(rx[0]) > 16:
                break
