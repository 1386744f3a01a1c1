"""Normal-form algebra: defining relations, ordering, adjoints, limits."""

import random
from fractions import Fraction

import pytest

from spheretorus import algebra, parser
from spheretorus.algebra import (
    AlgebraContext,
    CommutativePoly,
    ContextMismatch,
    NormalForm,
    UnknownGenerator,
    commutative_mul,
)
from spheretorus.errors import DomainError
from spheretorus.epsring import CR_HALF, CR_I, CRat, ES_EPS, ES_I, ES_ONE, EpsScalar, phase

R_VALUES = (Fraction(0), Fraction(5, 8), Fraction(-1, 2), Fraction(2))


def _ctx(R=Fraction(0)) -> AlgebraContext:
    return AlgebraContext(R)


def _gens(ctx):
    return {name: ctx.generator(name) for name in
            ("x", "y", "z", "w", "u", "ud", "ap", "am", "eps")}


def _rand_form(rng, ctx, max_deg=3, max_terms=3) -> NormalForm:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(-max_deg, max_deg), rng.randint(-max_deg, max_deg))
        coeff = EpsScalar(
            (
                CRat(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))),
                CRat(Fraction(rng.randint(-2, 2)), Fraction(0)),
            ),
            rng.randint(0, 1),
        )
        if not coeff.is_zero():
            terms[key] = coeff
    return ctx.from_terms(terms) if terms else ctx.one()


# defining relations ---------------------------------------------------------


@pytest.mark.parametrize("R", R_VALUES)
def test_defining_relations_hold_exactly(R):
    ctx = _ctx(R)
    g = _gens(ctx)
    x, y, z, w, eps = g["x"], g["y"], g["z"], g["w"], g["eps"]
    i = ctx.scalar(CR_I)
    assert (x.commutator(y) - i * eps * z).is_zero()
    assert (y.commutator(z) - i * eps * (w * x + x * w)).is_zero()
    assert (z.commutator(x) - i * eps * (w * y + y * w)).is_zero()
    assert (z * z + w * w - ctx.one()).is_zero()
    assert (x * x + y * y - ctx.scalar(R) - w).is_zero()


@pytest.mark.parametrize("R", R_VALUES)
def test_winding_is_unitary(R):
    ctx = _ctx(R)
    u, ud = ctx.generator("u"), ctx.generator("ud")
    assert u * ud == ctx.one()
    assert ud * u == ctx.one()
    assert u.adjoint() == ud
    assert ud.adjoint() == u


def test_ladder_contractions():
    # a+ a- and a- a+ reduce to winding terms plus the radius constant
    ctx = _ctx(Fraction(5, 8))
    g = _gens(ctx)
    ap, am, u, ud = g["ap"], g["am"], g["u"], g["ud"]
    half = EpsScalar.of(Fraction(1, 2))
    c_minus = (ES_ONE - ES_I * ES_EPS) * half   # (1 - i eps)/2
    c_plus = (ES_ONE + ES_I * ES_EPS) * half    # (1 + i eps)/2
    R = ctx.scalar(Fraction(5, 8))
    assert ap * am == ctx.scalar(c_minus) * u + ctx.scalar(c_plus) * ud + R
    assert am * ap == ctx.scalar(c_plus) * u + ctx.scalar(c_minus) * ud + R
    # and their difference is the exact commutator 2*eps*z
    two_eps_z = ctx.scalar(2) * ctx.generator("eps") * ctx.generator("z")
    assert ap * am - am * ap == two_eps_z


def test_winding_moves_past_ladders_with_a_phase():
    # u^s a^r = a^r u^s e^{i r s alpha} for either ladder sign
    ctx = _ctx(Fraction(0))
    g = _gens(ctx)
    for s_op, s in ((g["u"], 1), (g["ud"], -1)):
        for a_op, r in ((g["ap"], 1), (g["am"], -1)):
            for sp in (1, 2):
                for rp in (1, 2, 3):
                    lhs = s_op ** sp * a_op ** rp
                    rhs = a_op ** rp * s_op ** sp * \
                        ctx.scalar(phase(r * rp * s * sp))
                    assert lhs == rhs, (s, r, sp, rp)


def test_eps_is_central():
    ctx = _ctx(Fraction(2))
    eps = ctx.generator("eps")
    rng = random.Random(7)
    for _ in range(25):
        f = _rand_form(rng, ctx)
        assert (eps * f - f * eps).is_zero()


def test_unknown_generator_raises():
    with pytest.raises(UnknownGenerator):
        _ctx().generator("q")


# normal form structure ------------------------------------------------------


def test_generators_have_expected_keys():
    ctx = _ctx()
    assert set(ctx.generator("x").terms) == {(1, 0), (-1, 0)}
    assert set(ctx.generator("z").terms) == {(0, 1), (0, -1)}
    assert set(ctx.generator("u").terms) == {(0, 1)}
    assert set(ctx.generator("ap").terms) == {(1, 0)}
    assert set((ctx.generator("ap") ** 4).terms) == {(4, 0)}


def test_mixed_context_operations_rejected():
    a = _ctx(Fraction(0)).generator("x")
    b = _ctx(Fraction(1)).generator("y")
    with pytest.raises(ContextMismatch):
        _ = a + b
    with pytest.raises(ContextMismatch):
        _ = a * b


@pytest.mark.parametrize("R", R_VALUES)
def test_associativity_fuzz(R):
    ctx = _ctx(R)
    rng = random.Random(int(R * 8) + 13)
    for _ in range(60):
        f, g, h = (_rand_form(rng, ctx) for _ in range(3))
        assert (f * g) * h == f * (g * h)


def test_distributivity_and_scalar_coercion():
    ctx = _ctx(Fraction(5, 8))
    rng = random.Random(3)
    for _ in range(20):
        f, g, h = (_rand_form(rng, ctx) for _ in range(3))
        assert f * (g + h) == f * g + f * h
    x = ctx.generator("x")
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x - x).is_zero()


def test_power_matches_repeated_product():
    ctx = _ctx(Fraction(0))
    f = ctx.generator("ap") + ctx.generator("u")
    acc = ctx.one()
    for k in range(5):
        assert f ** k == acc
        acc = acc * f


# adjoint --------------------------------------------------------------------


def test_adjoint_fixes_coordinate_generators():
    ctx = _ctx(Fraction(5, 8))
    for name in ("x", "y", "z", "w", "eps"):
        f = ctx.generator(name)
        assert f.adjoint() == f
    assert ctx.generator("ap").adjoint() == ctx.generator("am")


def test_adjoint_is_an_antiautomorphism():
    ctx = _ctx(Fraction(-1, 2))
    rng = random.Random(11)
    for _ in range(40):
        f, g = _rand_form(rng, ctx), _rand_form(rng, ctx)
        assert (f * g).adjoint() == g.adjoint() * f.adjoint()
        assert (f + g).adjoint() == f.adjoint() + g.adjoint()
        assert f.adjoint().adjoint() == f
    i = ctx.scalar(CR_I)
    x = ctx.generator("x")
    assert (i * x).adjoint() == -i * x  # antilinear in the scalar


# inverses -------------------------------------------------------------------


def test_inverse_if_unit():
    ctx = _ctx(Fraction(0))
    u, ud = ctx.generator("u"), ctx.generator("ud")
    assert (u ** 3).inverse_if_unit() == ud ** 3
    two_u = ctx.scalar(2) * u
    inv = two_u.inverse_if_unit()
    assert inv is not None
    assert inv * two_u == ctx.one()
    assert ctx.generator("x").inverse_if_unit() is None
    assert ctx.generator("ap").inverse_if_unit() is None
    assert (u + ud).inverse_if_unit() is None
    assert (ctx.generator("eps") * u).inverse_if_unit() is None


# commutative limit ----------------------------------------------------------


def test_pi_drops_deformation_terms():
    ctx = _ctx(Fraction(0))
    x, y = ctx.generator("x"), ctx.generator("y")
    # x*y and y*x differ by an eps term, so they agree in the limit
    assert x.commutator(y).pi().is_zero()
    assert (x * y).pi() == (y * x).pi()


@pytest.mark.parametrize("R", R_VALUES)
def test_pi_is_a_homomorphism(R):
    ctx = _ctx(R)
    rng = random.Random(5)
    for _ in range(30):
        f, g = _rand_form(rng, ctx), _rand_form(rng, ctx)
        assert (f * g).pi() == commutative_mul(f.pi(), g.pi(), ctx)


@pytest.mark.parametrize("R", R_VALUES)
def test_poisson_brackets_of_coordinates(R):
    ctx = _ctx(R)
    g = _gens(ctx)
    x, y, z, w = g["x"], g["y"], g["z"], g["w"]
    assert x.poisson(y) == z.pi()
    assert z.poisson(x) == (w * y + y * w).pi()
    assert y.poisson(z) == (w * x + x * w).pi()
    # Casimir directions commute with everything
    casimir = z * z + w * w
    for f in (x, y, z, w):
        assert casimir.poisson(f).is_zero()


def test_poisson_is_antisymmetric_and_leibniz():
    ctx = _ctx(Fraction(5, 8))
    g = _gens(ctx)
    coords = [g["x"], g["y"], g["z"], g["w"]]
    for f in coords:
        for gg in coords:
            assert f.poisson(gg) == CommutativePoly({}) - gg.poisson(f)
    # {f, g*h} = {f, g}*h + g*{f, h} in the limit
    x, y, z = g["x"], g["y"], g["z"]
    lhs = x.poisson(y * z)
    rhs = commutative_mul(x.poisson(y), z.pi(), ctx) + \
        commutative_mul(y.pi(), x.poisson(z), ctx)
    assert lhs == rhs


def test_eval_numeric_matches_phase():
    ctx = _ctx(Fraction(0))
    u, ap = ctx.generator("u"), ctx.generator("ap")
    f = u * ap  # = ap * u * e^{i alpha}
    eps = 0.37
    vals = f.eval_numeric(eps)
    assert set(vals) == {(1, 1)}
    expected = complex(phase(1).eval(eps))
    assert vals[(1, 1)] == pytest.approx(expected, abs=1e-15)


def test_chart_evaluation_of_coordinates():
    import math
    ctx = _ctx(Fraction(1, 2))
    g = _gens(ctx)
    p, q, R = 0.3, 1.1, 0.5
    rho = math.sqrt(R + math.cos(2 * p))
    assert g["x"].pi().eval_chart(p, q, R) == pytest.approx(
        rho * math.cos(q), abs=1e-12)
    assert g["y"].pi().eval_chart(p, q, R) == pytest.approx(
        -rho * math.sin(q), abs=1e-12)
    assert g["z"].pi().eval_chart(p, q, R) == pytest.approx(
        math.sin(2 * p), abs=1e-12)
    assert g["w"].pi().eval_chart(p, q, R) == pytest.approx(
        math.cos(2 * p), abs=1e-12)


def test_str_output():
    ctx = _ctx(Fraction(0))
    assert str(ctx.zero()) == "0"
    assert str(ctx.generator("u")) == "u*(1)"
    assert "ap" in str(ctx.generator("ap") * ctx.generator("u"))


def test_power_squares_only_below_the_top_bit(monkeypatch):
    ctx = _ctx(Fraction(1, 2))
    f = ctx.generator("ap") + ctx.generator("u")
    products = [ctx.one()]
    for _ in range(16):
        products.append(products[-1] * f)
    calls = []
    mul = NormalForm.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(NormalForm, "__mul__", counting)
    for n in range(1, 17):
        calls.clear()
        power = f ** n
        # one squaring per bit below the top, one product per further set bit
        assert len(calls) == (n.bit_length() - 1) + (bin(n).count("1") - 1), n
        assert power == products[n]


# ladder contraction ---------------------------------------------------------
#
# The oracle is the earlier engine: one contraction table per ordering of
# the opposite ladder pair, filled by recursion, and a per-monomial product
# that multiplies the winding slide phase into every ladder term.

_C_MINUS = EpsScalar((CR_HALF, -CR_I * CR_HALF))   # (1 - i eps)/2
_C_PLUS = EpsScalar((CR_HALF, CR_I * CR_HALF))     # (1 + i eps)/2
_ORACLE_PAIRS = {"pm": ((1, _C_MINUS), (-1, _C_PLUS)),
                 "mp": ((1, _C_PLUS), (-1, _C_MINUS))}


def _oracle_contract(ctx, cache, kind, a, b):
    """Normal form of ap^a am^b ('pm') or am^a ap^b ('mp'), a,b >= 0."""
    key = (kind, a, b)
    if key in cache:
        return cache[key]
    if a == 0 or b == 0:
        out = {(a - b if kind == "pm" else b - a, 0): ES_ONE}
    else:
        inner = _oracle_contract(ctx, cache, kind, a - 1, b - 1)
        trail = -(b - 1) if kind == "pm" else (b - 1)
        out = {}
        for sigma, coeff in _ORACLE_PAIRS[kind]:
            ph = coeff * phase(trail * sigma)
            for (r, s), xi in inner.items():
                out[(r, s + sigma)] = out.get((r, s + sigma), 0) + xi * ph
        for (r, s), xi in inner.items():
            out[(r, s)] = out.get((r, s), 0) + xi * ctx.R_scalar
        out = {k: v for k, v in out.items() if not v.is_zero()}
    cache[key] = out
    return out


def _oracle_mono_mul(ctx, cache, r1, s1, r2, s2):
    ph = phase(r2 * s1)
    if r1 == 0 or r2 == 0 or (r1 > 0) == (r2 > 0):
        ladder = {(r1 + r2, 0): ES_ONE}
    elif r1 > 0:
        ladder = _oracle_contract(ctx, cache, "pm", r1, -r2)
    else:
        ladder = _oracle_contract(ctx, cache, "mp", -r1, r2)
    return {(r, s + s1 + s2): xi * ph for (r, s), xi in ladder.items()}


def _oracle_mul(f, g, cache):
    out = {}
    for (r1, s1), xi1 in f.terms.items():
        for (r2, s2), xi2 in g.terms.items():
            weight = xi1 * xi2
            for key, xi in _oracle_mono_mul(f.ctx, cache, r1, s1, r2,
                                            s2).items():
                out[key] = out.get(key, 0) + xi * weight
    return f.ctx.from_terms(out)


def _theta(f):
    """The automorphism ap <-> am, u <-> u^-1 fixing eps and i."""
    return f.ctx.from_terms({(-r, -s): xi for (r, s), xi in f.terms.items()})


@pytest.mark.parametrize("R", R_VALUES)
def test_ladder_pairs_match_two_table_oracle(R):
    ctx = _ctx(R)
    ap, am = ctx.generator("ap"), ctx.generator("am")
    cache = {}
    for a in range(9):
        for b in range(9):
            pm = ctx.from_terms(_oracle_mono_mul(ctx, cache, a, 0, -b, 0))
            mp = ctx.from_terms(_oracle_mono_mul(ctx, cache, -a, 0, b, 0))
            assert ap ** a * am ** b == pm, (a, b)
            assert am ** a * ap ** b == mp, (a, b)


@pytest.mark.parametrize("R", R_VALUES)
def test_product_matches_oracle_on_random_forms(R):
    ctx = _ctx(R)
    rng = random.Random(int(R * 8) + 29)
    cache = {}
    for _ in range(40):
        f, g = _rand_form(rng, ctx), _rand_form(rng, ctx)
        assert f * g == _oracle_mul(f, g, cache)


@pytest.mark.parametrize("R", R_VALUES)
def test_colliding_terms_match_left_fold_oracle(R):
    # dense forms on few keys: most keys of a product receive several terms,
    # with mixed denominators and powers of 1+eps^2, and some cancel
    ctx = _ctx(R)
    rng = random.Random(int(R * 8) + 53)
    cache = {}
    for _ in range(25):
        f, g = (ctx.from_terms({
            (rng.randint(-2, 2), rng.randint(-2, 2)): EpsScalar(
                (CRat(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5))),
                      Fraction(rng.randint(-1, 1), rng.choice((1, 4)))),
                 rng.randint(0, 1)), rng.randint(0, 2))
            for _ in range(6)}) for _ in range(2))
        assert f * g == _oracle_mul(f, g, cache)
        assert (f + g) * (f - g) == _oracle_mul(f + g, f - g, cache)


@pytest.mark.parametrize("R", R_VALUES)
def test_theta_is_an_automorphism(R):
    ctx = _ctx(R)
    rng = random.Random(int(R * 8) + 41)
    g = _gens(ctx)
    assert _theta(g["ap"]) == g["am"] and _theta(g["u"]) == g["ud"]
    for _ in range(40):
        f, h = _rand_form(rng, ctx), _rand_form(rng, ctx)
        assert _theta(f * h) == _theta(f) * _theta(h)


def test_contraction_depth_is_capped(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_CONTRACTION", 3)
    ctx = _ctx(Fraction(1, 2))
    ap, am = ctx.generator("ap"), ctx.generator("am")
    assert ap ** 3 * am ** 3 == _oracle_mul(ap ** 3, am ** 3, {})
    assert am ** 3 * ap ** 3 == _oracle_mul(am ** 3, ap ** 3, {})
    for f, g in ((ap ** 4, am ** 4), (am ** 4, ap ** 4), (ap ** 9, am ** 5)):
        with pytest.raises(DomainError, match="MAX_CONTRACTION = 3"):
            _ = f * g


def test_long_products_and_phases_are_not_capped(monkeypatch):
    # the cap bounds one contraction, not the work of a product chain
    monkeypatch.setattr(algebra, "MAX_CONTRACTION", 1)
    ctx = _ctx(Fraction(5, 8))
    ap, am, u = ctx.generator("ap"), ctx.generator("am"), ctx.generator("u")
    chain = ctx.one()
    for _ in range(40):
        chain = chain * ap * am
    assert chain == (ap * am) ** 40
    assert u ** 300 * ap ** 2 == ap ** 2 * u ** 300 * ctx.scalar(phase(600))


def test_generator_names_come_from_one_table():
    assert parser.GENERATORS == (
        "x", "y", "z", "w", "u", "ud", "ap", "am", "eps")
    assert parser.GENERATORS == tuple(algebra.GENERATOR_TERMS)
    ctx = _ctx()
    for name, terms in algebra.GENERATOR_TERMS.items():
        assert ctx.generator(name).terms == terms


# identity and the operator protocol ------------------------------------------


def test_context_repr_equality_and_hash():
    a, b = _ctx(Fraction(5, 8)), _ctx(Fraction(5, 8))
    assert repr(a) == "AlgebraContext(R=5/8)"
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != _ctx(Fraction(1, 2)) and a != "AlgebraContext(R=5/8)"
    assert len({a, b, _ctx(Fraction(1, 2))}) == 2


def test_normal_form_defers_to_operands_it_cannot_coerce():
    # a float or a foreign object is no exact scalar: each operator returns
    # NotImplemented, so Python raises TypeError in both operand orders
    x = _ctx().generator("x")
    for other in (0.5, object()):
        for method in ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__"):
            assert getattr(x, method)(other) is NotImplemented, method
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
        assert x.__eq__(other) is NotImplemented
        assert x != other


def test_normal_form_reflected_subtraction_and_scalar_equality():
    ctx = _ctx(Fraction(5, 8))
    x = ctx.generator("x")
    # an EpsScalar on the left defers to the NormalForm's reflected method
    for c in (1, Fraction(-3, 2), CRat(Fraction(1), Fraction(2)), ES_EPS):
        assert c - x == -(x - c) == ctx.scalar(c) - x
        assert c + x == x + c and c * x == x * c
    # a float is no exact scalar on either side of an EpsScalar
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                   "__rmul__"):
        assert getattr(ES_EPS, method)(0.5) is NotImplemented, method
    # a scalar compares as the constant form it coerces to
    assert ctx.one() == 1 and ctx.scalar(Fraction(5, 8)) == Fraction(5, 8)
    assert x * 0 == 0 and x != 0 and ctx.one() != 2
    assert ctx.scalar(CR_I) == CR_I and ctx.scalar(ES_EPS) == ES_EPS


def test_normal_form_and_commutative_poly_hash_with_equality():
    ctx = _ctx(Fraction(5, 8))
    x, y = ctx.generator("x"), ctx.generator("y")
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert len({x, x * 1, y, _ctx(Fraction(0)).generator("x")}) == 3
    p, q = (x * y).pi(), (y * x).pi()
    assert p == q and hash(p) == hash(q) and len({p, q, x.pi()}) == 2
    assert p.__eq__(x) is NotImplemented and p != x and p != "p"
