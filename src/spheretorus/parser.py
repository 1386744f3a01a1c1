"""Surface syntax for algebra elements.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*          # products need an explicit *
    unary   := '-' unary | postfix
    postfix := atom ("'" | '^' [-] INT)*   # adjoint and integer powers
    atom    := NAME | NUMBER | '(' expr ')' | '[' expr ',' expr ']'

NAME is one of x y z w u ud ap am eps, plus the imaginary unit i.
NUMBER is an integer or decimal literal, read exactly (0.557 = 557/1000).
'[f, g]' is the commutator.  Negative powers exist only for elements that
reduce to an invertible winding monomial (u, ud, scalars times powers of
1 + eps^2).

Parentheses and commutator brackets nest at most MAX_NESTING deep; deeper
input is a ParseError.  Chains that need no nesting (long sums and
products, repeated adjoints, powers and minus signs) have no length bound:
they are parsed and folded in loops.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .algebra import GENERATOR_TERMS, AlgebraContext, NormalForm
from .epsring import CR_I, NotDivisible
from .errors import SpheretorusError


class ParseError(SpheretorusError, ValueError):
    exit_code = 2

    def __init__(self, message: str, pos: int, expected: Tuple[str, ...] = ()):
        self.pos = pos
        self.expected = expected
        detail = f"{message} at position {pos}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


GENERATORS = tuple(GENERATOR_TERMS)

# each level of nesting costs five parser frames and up to four fold frames
MAX_NESTING = 100

_ATOM_EXPECTED = ("a generator name", "a number", "'('", "'['", "'-'")


class _Node:
    """A plain record of the fields named by ``__slots__``, compared and
    printed by value."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable, like any plain object with value equality

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={value!r}" for field, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Token(_Node):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # NAME, NUM, END, or the operator character itself
        self.text = text
        self.pos = pos


# Leading whitespace (\s is exactly str.isspace), then one token: an
# operator, a NAME, a NUM, or any other character, which is an error.
# Trailing whitespace matches nothing, and the matches tile the rest of the
# text, so positions follow from the lengths.  NUM is ASCII digits only:
# str.isdigit also accepts '\u00b2', which int and Fraction reject, and
# '\u0661', which they read as 1.  The NAME class is the letters
# (str.isalpha) plus the numerics that are not decimal digits ('\u00b2',
# '\u00bd'); those are errors.
_TOKEN = re.compile(
    r"(\s*)(?:([-+*^()\[\],'])|([^\W\d_]+)|([0-9]+(?:\.[0-9]+)?)|(\S))")


def _tokenize(src: str) -> List[Token]:
    tokens = []
    pos = 0
    for space, op, name, num, other in _TOKEN.findall(src):
        pos += len(space)
        if op:
            tokens.append(Token(op, op, pos))
        elif name:
            if not name.isalpha():
                bad = next(j for j, c in enumerate(name) if not c.isalpha())
                raise ParseError(f"unexpected character {name[bad]!r}",
                                 pos + bad)
            tokens.append(Token("NAME", name, pos))
        elif num:
            tokens.append(Token("NUM", num, pos))
        else:
            raise ParseError(f"unexpected character {other!r}", pos)
        pos += len(op or name or num)
    tokens.append(Token("END", "", len(src)))
    return tokens


# AST ----------------------------------------------------------------------


class Name(_Node):
    __slots__ = ("id", "pos")

    def __init__(self, id: str, pos: int):
        self.id = id
        self.pos = pos


class Num(_Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: Fraction, pos: int):
        self.value = value
        self.pos = pos


class Neg(_Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: "ExprAst", pos: int):
        self.arg = arg
        self.pos = pos


class BinOp(_Node):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: "ExprAst", right: "ExprAst", pos: int):
        self.op = op  # '+', '-' or '*'
        self.left = left
        self.right = right
        self.pos = pos


class Pow(_Node):
    __slots__ = ("base", "exponent", "pos")

    def __init__(self, base: "ExprAst", exponent: int, pos: int):
        self.base = base
        self.exponent = exponent
        self.pos = pos


class Adjoint(_Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: "ExprAst", pos: int):
        self.arg = arg
        self.pos = pos


class Commutator(_Node):
    __slots__ = ("left", "right", "pos")

    def __init__(self, left: "ExprAst", right: "ExprAst", pos: int):
        self.left = left
        self.right = right
        self.pos = pos


ExprAst = Union[Name, Num, Neg, BinOp, Pow, Adjoint, Commutator]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {_describe(tok)}", tok.pos, (f"'{kind}'",)
            )
        return self.advance()

    def expr(self) -> ExprAst:
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} levels",
                self.peek().pos,
            )
        self.depth += 1
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            node = BinOp(op.kind, node, self.term(), op.pos)
        self.depth -= 1
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "*":
            op = self.advance()
            node = BinOp("*", node, self.unary(), op.pos)
        return node

    def unary(self) -> ExprAst:
        if self.peek().kind != "-":
            return self.postfix()
        signs = []
        while self.peek().kind == "-":
            signs.append(self.advance())
        node = self.postfix()
        for tok in reversed(signs):
            node = Neg(node, tok.pos)
        return node

    def postfix(self) -> ExprAst:
        node = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "'":
                self.advance()
                node = Adjoint(node, tok.pos)
            elif tok.kind == "^":
                self.advance()
                sign = 1
                if self.peek().kind == "-":
                    self.advance()
                    sign = -1
                num = self.expect("NUM")
                if "." in num.text:
                    raise ParseError(
                        "exponent must be an integer", num.pos, ("an integer",)
                    )
                node = Pow(node, sign * _literal(int, num), tok.pos)
            else:
                return node

    def atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "NAME":
            self.advance()
            if tok.text == "i" or tok.text in GENERATORS:
                return Name(tok.text, tok.pos)
            raise ParseError(
                f"unknown identifier {tok.text!r}", tok.pos,
                GENERATORS + ("i",),
            )
        if tok.kind == "NUM":
            self.advance()
            return Num(_literal(Fraction, tok), tok.pos)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.advance()
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return Commutator(left, right, tok.pos)
        raise ParseError(
            f"unexpected {_describe(tok)}", tok.pos, _ATOM_EXPECTED
        )


def _literal(convert, tok: Token):
    """A NUM token's value; a literal past Python's int/str digit limit
    (sys.get_int_max_str_digits) is a parse error at the token."""
    try:
        return convert(tok.text)
    except ValueError:
        raise ParseError(f"number literal of {len(tok.text)} characters is "
                         f"too long", tok.pos) from None


def _describe(tok: Token) -> str:
    if tok.kind == "END":
        return "end of input"
    return f"token {tok.text!r}"


def parse(src: str) -> ExprAst:
    """Parse source text to a syntax tree; ParseError carries the offset."""
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"unexpected {_describe(tail)}", tail.pos,
                         ("'+'", "'-'", "'*'", "end of input"))
    return node


def fold(ast: ExprAst, ctx: AlgebraContext) -> NormalForm:
    """Evaluate a syntax tree to its normal form.

    Chains through the first operand (a + b + c, x'', - - x) are walked in
    a loop, so only nesting, bounded by MAX_NESTING, recurses."""
    if isinstance(ast, Name):
        if ast.id == "i":
            return ctx.scalar(CR_I)
        return ctx.generator(ast.id)
    if isinstance(ast, Num):
        return ctx.scalar(ast.value)
    if isinstance(ast, Commutator):
        return fold(ast.left, ctx).commutator(fold(ast.right, ctx))
    chain = []
    while isinstance(ast, (BinOp, Pow, Neg, Adjoint)):
        chain.append(ast)
        ast = (ast.left if isinstance(ast, BinOp)
               else ast.base if isinstance(ast, Pow) else ast.arg)
    if not chain:
        raise TypeError(f"not an expression node: {ast!r}")
    value = fold(ast, ctx)
    for node in reversed(chain):
        if isinstance(node, BinOp):
            right = fold(node.right, ctx)
            if node.op == "+":
                value = value + right
            elif node.op == "-":
                value = value - right
            else:
                value = value * right
        elif isinstance(node, Pow):
            try:
                value = value ** node.exponent
            except NotDivisible as exc:
                raise ParseError(str(exc), node.pos) from None
        elif isinstance(node, Neg):
            value = -value
        else:
            value = value.adjoint()
    return value


def parse_expr(src: str, ctx: AlgebraContext) -> NormalForm:
    """Parse and fold in one step."""
    return fold(parse(src), ctx)
