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

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .algebra import GENERATOR_TERMS, AlgebraContext, NormalForm
from .epsring import CR_I, NotDivisible


class ParseError(ValueError):
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


@dataclass(frozen=True)
class Token:
    kind: str  # NAME, NUM, or the operator character itself
    text: str
    pos: int


# ASCII only: str.isdigit also accepts '\u00b2', which int and Fraction
# reject, and '\u0661', which they read as 1
_DIGITS = frozenset("0123456789")


def _tokenize(src: str) -> List[Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < n and src[j].isalpha():
                j += 1
            tokens.append(Token("NAME", src[i:j], i))
            i = j
            continue
        if c in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            if j + 1 < n and src[j] == "." and src[j + 1] in _DIGITS:
                j += 1
                while j < n and src[j] in _DIGITS:
                    j += 1
            tokens.append(Token("NUM", src[i:j], i))
            i = j
            continue
        if c in "+-*^()[],'":
            tokens.append(Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("END", "", n))
    return tokens


# AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Name:
    id: str
    pos: int


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-' or '*'
    left: "ExprAst"
    right: "ExprAst"
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int
    pos: int


@dataclass(frozen=True)
class Adjoint:
    arg: "ExprAst"
    pos: int


@dataclass(frozen=True)
class Commutator:
    left: "ExprAst"
    right: "ExprAst"
    pos: int


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
                node = Pow(node, sign * int(num.text), tok.pos)
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
            return Num(Fraction(tok.text), tok.pos)
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
