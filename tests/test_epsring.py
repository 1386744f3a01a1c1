"""Exact scalar ring: canonical forms, ring axioms, phases, division."""

from fractions import Fraction

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
