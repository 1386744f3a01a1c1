"""Expression parser: grammar, precedence, positions, reductions."""

import random
from fractions import Fraction

import pytest

from spheretorus.algebra import AlgebraContext
from spheretorus.parser import (
    MAX_NESTING,
    ParseError,
    _tokenize,
    fold,
    parse,
    parse_expr,
)


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
    with pytest.raises(TypeError, match="not an expression node"):
        fold(_tokenize("u")[0], ctx)


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



def _reference_tokenize(src):
    """The character-by-character scanner the regex tokenizer replaced:
    (kind, text, pos) triples, or the ParseError (message, pos)."""
    digits = "0123456789"
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        j = i + 1
        if c.isalpha():
            while j < n and src[j].isalpha():
                j += 1
            tokens.append(("NAME", src[i:j], i))
        elif c in digits:
            while j < n and src[j] in digits:
                j += 1
            if j + 1 < n and src[j] == "." and src[j + 1] in digits:
                j += 2
                while j < n and src[j] in digits:
                    j += 1
            tokens.append(("NUM", src[i:j], i))
        elif c in "+-*^()[],'":
            tokens.append((c, c, i))
        else:
            return (f"unexpected character {c!r} at position {i}", i)
        i = j
    return tokens + [("END", "", n)]


def _tokens(src):
    try:
        return [(t.kind, t.text, t.pos) for t in _tokenize(src)]
    except ParseError as exc:
        return (str(exc), exc.pos)


# ASCII tokens, and characters on each side of every str test the scanner
# makes: Unicode spaces, letters, marks, decimal digits that are not ASCII,
# and numerics that are not decimal
_ALPHABET = (list("xyzwuapmdeis 0123456789.+-*^()[],'_/\t\n") +
             ["\u00b2", "\u0661", "\u00bd", "\u00e9", "\u0301", "\u00a0",
              "\u2003", "\u216b", "\u2460", "\u0663", "\x1c", "\x85",
              "\U0001d7d9", "\u01c5", "\u3000", "\x00", "\u00df"])


def test_tokenize_matches_the_character_scanner():
    rng = random.Random(11)
    texts = ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 10)))
             for _ in range(20000)]
    texts += [c + tail for c in _ALPHABET for tail in ("", " ", "x", "1")]
    for src in texts:
        assert _tokens(src) == _reference_tokenize(src), repr(src)


def test_every_letter_and_space_is_read_as_the_scanner_reads_it():
    chars = [chr(cp) for cp in range(0x110000)]
    letters = [c for c in chars if c.isalpha()]
    spaces = "".join(c for c in chars if c.isspace())
    assert len(letters) > 100000 and len(spaces) == 29
    src = " ".join(letters)
    assert _tokens(src) == _reference_tokenize(src)
    src = "u" + spaces + "2" + spaces
    assert _tokens(src) == [("NAME", "u", 0), ("NUM", "2", 30), ("END", "", 60)]


def test_syntax_tree_nodes_compare_by_value():
    tree = parse("[x, 2]' - y^-3")
    assert tree == parse("[x, 2]' - y^-3")
    assert tree != parse("[x, 2]' - y^3")
    assert repr(parse("-x")) == "Neg(arg=Name(id='x', pos=1), pos=0)"
    assert repr(_tokenize("u")[0]) == "Token(kind='NAME', text='u', pos=0)"
    # a node of another type is not equal, whatever its fields
    assert tree.__eq__(_tokenize("u")[0]) is NotImplemented and tree != "x"
