"""Parser for exact value expressions.

The grammar covers integers, fractions, sqrt of any expression whose
value is a nonnegative rational, sin/cos of rational multiples of pi,
parentheses and the four arithmetic operations:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'* atom
    atom   := NUMBER | NUMBER '/' NUMBER
            | 'sqrt' '(' expr ')'
            | ('sin' | 'cos') '(' pifraction ')'
            | '(' expr ')'

A pi fraction is the argument's tokens read by angles.pi_multiple: 0,
pi, pi/4, 2pi/15 or 2*pi/15, any multiple, folded mod 2pi.  Parse errors
carry the offending text and its position.  Each parenthesis or unary
minus is one recursive call deeper, so nesting past the interpreter's
recursion limit is an ExpressionError too.
"""

from __future__ import annotations

import re

from .angles import Angle, pi_multiple
from .cyclotomic import CyclotomicReal, cos_of, sin_of, sqrt_rational, sum_of


class ExpressionError(ValueError):
    """Raised for unparseable or invalid value expressions."""

    def __init__(self, message: str, token: str = "", position: int = -1):
        self.token = token
        self.position = position
        if token:
            message = f"{message}: {token!r} at position {position}"
        super().__init__(message)


# one alternative per token kind, and any other non-space character as
# "bad"; finditer skips the spaces between tokens
_TOKEN_RE = re.compile(r"(?P<number>\d+)|(?P<name>pi|sqrt|sin|cos)|(?P<op>[-+*/()·])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, in one pass; a character no
    token starts with is reported at the end of the token before it, or
    at 0."""
    tokens, end = [], 0
    for m in _TOKEN_RE.finditer(text):
        kind, token = m.lastgroup, m.group()
        if kind == "bad":
            raise ExpressionError("unexpected character", token, end)
        tokens.append((kind, "*" if token == "·" else token, m.start()))
        end = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", len(self.text))

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, op: str):
        kind, value, pos = self.advance()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", value or "end of input", pos)

    def parse(self) -> CyclotomicReal:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", text, pos)
        return value

    def expr(self) -> CyclotomicReal:
        terms = [self.term()]
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in "+-":
                return terms[0] if len(terms) == 1 else sum_of(terms)
            self.advance()
            right = self.term()
            terms.append(right if op == "+" else -right)

    def term(self) -> CyclotomicReal:
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                right = self.factor()
                if op == "*":
                    value = value * right
                else:
                    if right.is_zero:
                        raise ExpressionError("division by zero", "/", pos)
                    value = value / right
            else:
                return value

    def factor(self) -> CyclotomicReal:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.factor()
        return self.atom()

    def atom(self) -> CyclotomicReal:
        kind, value, pos = self.advance()
        if kind == "number":
            return CyclotomicReal.from_rational(int(value))
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "name" and value == "sqrt":
            self.expect_op("(")
            start = self.peek()[2]
            radicand = self.expr()
            text = self.text[start : self.peek()[2]].strip()
            self.expect_op(")")
            if not (radicand.is_rational and radicand.as_rational() >= 0):
                raise ExpressionError("sqrt needs a nonnegative rational", text, start)
            return sqrt_rational(radicand.as_rational())
        if kind == "name" and value in ("sin", "cos"):
            self.expect_op("(")
            start, first = self.peek()[2], self.index
            while self.index < len(self.tokens) and self.tokens[self.index][1] != ")":
                self.index += 1
            # spaces keep "2 2pi" from reading as 22pi; pi_multiple allows them
            text = " ".join(token for _, token, _ in self.tokens[first : self.index])
            try:
                folded = pi_multiple(text) % 2
            except ValueError:
                shown = text or self.peek()[1] or "end of input"
                raise ExpressionError("expected a multiple of pi", shown, start) from None
            self.expect_op(")")
            flip = folded >= 1  # sin and cos change sign over [pi, 2pi)
            angle = Angle(folded.numerator - flip * folded.denominator, folded.denominator)
            out = sin_of(angle) if value == "sin" else cos_of(angle)
            return -out if flip else out
        raise ExpressionError("expected a value", value or "end of input", pos)


def parse_expression(text: str) -> CyclotomicReal:
    """Evaluate a value expression to an exact cyclotomic real."""
    if not text.strip():
        raise ExpressionError("empty expression")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
