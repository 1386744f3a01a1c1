"""Exact scalar ring: canonical forms, ring axioms, phases, division."""

import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretorus.epsring import (
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
# Products with a constant factor skip the convolution and the circle division,
# EpsScalar.of builds rationals without CRat, and phase is memoised.  Canonical
# form is unique, so each must give the raw data of the general route exactly.
# Sums have one route, EpsScalar.__add__, which the ring axioms above check.

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
        return _canonical([pair], d, 0 if kind == "const" else
                          rng.randint(1, 3))
    coeffs = [(part(), part()) for _ in range(rng.randint(2, 6))]
    coeffs[-1] = (coeffs[-1][0] or 1, coeffs[-1][1])
    return _canonical(coeffs, d, rng.randint(0, 3))


def _data(a):
    return a._c, a._d, a.den_pow


@pytest.mark.parametrize("left", _KINDS)
@pytest.mark.parametrize("right", _KINDS)
def test_product_fast_paths_match_convolution(left, right):
    rng = random.Random(f"{left}*{right}")
    for _ in range(60):
        a, b = _rand_scalar(rng, left), _rand_scalar(rng, right)
        general = _canonical(_convolve(a._c, b._c), a._d * b._d,
                             a.den_pow + b.den_pow)
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
    e_i_alpha = EpsScalar((CR_ONE, CR_I)) ** 2 * ES_CIRCLE_INV
    for s in range(-40, 41):
        want = e_i_alpha ** s if s >= 0 else e_i_alpha.conjugate() ** -s
        assert _data(phase(s)) == _data(want), s
        assert _data(phase.__wrapped__(s)) == _data(want), s
        assert phase(s) is phase(s)
    assert phase.cache_info().maxsize is not None


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
