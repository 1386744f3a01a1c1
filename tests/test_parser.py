"""Expression parser: grammar, precedence, positions, reductions."""

from fractions import Fraction

import pytest

from spheretorus.algebra import AlgebraContext
from spheretorus.parser import MAX_NESTING, ParseError, fold, parse, parse_expr


@pytest.fixture
def ctx():
    return AlgebraContext(Fraction(0))


def test_literal_identities_reduce_to_zero(ctx):
    for src in (
        "[x,y] - i*eps*z",
        "u*u' - 1",
        "u'*u - 1",
        "ap*am - am*ap - 2*eps*z",
        "x^2 + y^2 - w",
        "z^2 + w^2 - 1",
    ):
        assert parse_expr(src, ctx).is_zero(), src


def test_whitespace_insensitive(ctx):
    a = parse_expr("[x,y]-i*eps*z", ctx)
    b = parse_expr("  [ x , y ]   -   i * eps * z ", ctx)
    assert a == b


def test_precedence_power_over_product_over_sum(ctx):
    x, y, z = (ctx.generator(g) for g in "xyz")
    assert parse_expr("x+y*z", ctx) == x + y * z
    assert parse_expr("x*y^2", ctx) == x * (y * y)
    assert parse_expr("(x*y)^2", ctx) == (x * y) * (x * y)
    assert parse_expr("x-y-z", ctx) == (x - y) - z  # left associative
    assert parse_expr("-x^2", ctx) == -(x * x)      # unary minus binds last
    assert parse_expr("2*-x", ctx) == ctx.scalar(-2) * x


def test_postfix_binds_tightest(ctx):
    u, ud = ctx.generator("u"), ctx.generator("ud")
    assert parse_expr("u'", ctx) == ud
    assert parse_expr("u'^2", ctx) == ud * ud
    assert parse_expr("u''", ctx) == u
    x, y = ctx.generator("x"), ctx.generator("y")
    assert parse_expr("[x,y]'", ctx) == x.commutator(y).adjoint()


def test_decimal_literals_are_exact(ctx):
    assert parse_expr("0.557", ctx) == ctx.scalar(Fraction(557, 1000))
    assert parse_expr("2.50", ctx) == ctx.scalar(Fraction(5, 2))
    assert parse_expr("10", ctx) == ctx.scalar(10)


def test_imaginary_unit(ctx):
    i = parse_expr("i", ctx)
    assert (i * i + ctx.one()).is_zero()
    assert parse_expr("i'", ctx) == -i  # adjoint conjugates scalars


def test_commutator_bracket(ctx):
    f = parse_expr("[ap, am]", ctx)
    g = ctx.generator("ap").commutator(ctx.generator("am"))
    assert f == g
    nested = parse_expr("[[x,y], z]", ctx)
    assert nested == ctx.generator("x").commutator(
        ctx.generator("y")).commutator(ctx.generator("z"))


def test_negative_powers_need_a_unit(ctx):
    assert parse_expr("u^-3 * u^3", ctx) == ctx.one()
    assert parse_expr("u^-1 - ud", ctx).is_zero()
    assert parse_expr("(1+eps^2)^-1 * (1+eps^2)", ctx) == ctx.one()
    with pytest.raises(ParseError):
        parse_expr("x^-1", ctx)
    with pytest.raises(ParseError):
        parse_expr("ap^-2", ctx)
    with pytest.raises(ParseError):
        parse_expr("(u+ud)^-1", ctx)


def test_error_positions():
    cases = {
        "x + * y": 4,        # product operator where an atom is expected
        "x +": 3,            # dangling operator at end of input
        "(x": 2,             # unclosed parenthesis
        "[x y]": 3,          # missing comma
        "x ? y": 2,          # unknown character
        "foo": 0,            # unknown identifier
        "x y": 2,            # missing explicit product operator
    }
    for src, pos in cases.items():
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.pos == pos, src


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse("x^1.5")
    assert err.value.pos == 2


def test_unknown_identifier_lists_alternatives():
    with pytest.raises(ParseError) as err:
        parse("x * bogus")
    assert "bogus" in str(err.value)
    assert err.value.pos == 4
    assert "eps" in err.value.expected


def test_error_message_carries_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y")
    assert "position 4" in str(err.value)


def test_parse_then_fold_equals_parse_expr(ctx):
    src = "ap^2*u - 3*[x,w] + 0.25*eps"
    assert fold(parse(src), ctx) == parse_expr(src, ctx)


def test_r_literal_matches_context():
    # the radius relation only closes when the literal equals the context R
    ctx58 = AlgebraContext(Fraction(5, 8))
    assert parse_expr("x^2 + y^2 - w - 0.625", ctx58).is_zero()
    assert not parse_expr("x^2 + y^2 - w - 0.625",
                          AlgebraContext(Fraction(0))).is_zero()


def test_nesting_bound_is_a_parse_error(ctx):
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_expr(deep, ctx) == ctx.generator("x")
    with pytest.raises(ParseError) as err:
        parse("(" + deep + ")")
    assert err.value.pos == MAX_NESTING + 1
    with pytest.raises(ParseError):
        parse("[x," * (MAX_NESTING + 1) + "y" + "]" * (MAX_NESTING + 1))


def test_worst_nesting_folds_within_the_recursion_limit(ctx):
    # each level passes through a sum, a product and a parenthesis
    src = "1+u*(" * MAX_NESTING + "u" + ")" * MAX_NESTING
    powers = [f"u^{k}" for k in range(MAX_NESTING)] + [f"u^{MAX_NESTING + 1}"]
    assert parse_expr(src, ctx) == parse_expr(" + ".join(powers), ctx)

