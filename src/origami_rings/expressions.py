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

A pi fraction is the argument's tokens read by angles.pi_ratio: 0,
pi, pi/4, 2pi/15 or 2*pi/15, any multiple, folded mod 2pi.  Parse errors
carry the offending text and its position.  Each parenthesis or unary
minus is one recursive call deeper, so nesting past the interpreter's
recursion limit is an ExpressionError too.

Evaluation keeps a value as a sparse sum of roots of unity where it can:
a conductor n, a denominator and (k, c) terms for the sum of c * zeta_n^k
over the denominator.  An atom's conductor is its CyclotomicReal's
(lcm(4, 2d) for sin and cos of a multiple of pi/d, 1 for a number), and
a value's is the lcm of its atoms'.  Sums, negation, and products and
quotients by a value of conductor 1 only rescale and concatenate terms.
A CyclotomicReal is built for a product of two values of conductor above
1, a divisor of conductor above 1 (zero test and inverse) and a sqrt
radicand; it, and a sqrt atom, stays one through products, and a sum
holding one is sum_of's, so a huge Gauss sum is never copied into terms.
A sparse result ends in one _power_sum and one normalization.  The
representation on a conductor is canonical and every CyclotomicReal
operation lands on the lcm of its operands' conductors, so the result is
the one a CyclotomicReal at every node gives.
"""

from __future__ import annotations

import itertools
import math
import re

from .angles import pi_ratio
from .cyclotomic import CyclotomicReal, _power_sum, sqrt_rational, sum_of


class ExpressionError(ValueError):
    """Raised for unparseable or invalid value expressions."""

    def __init__(self, message: str, token: str = "", position: int = -1):
        self.token = token
        self.position = position
        if token:
            message = f"{message}: {token!r} at position {position}"
        super().__init__(message)


# the tokens, kept by re.split at its odd indices; the gaps it returns
# between them hold only spaces unless a character is unexpected
_TOKEN_RE = re.compile(r"(\d+|pi|sqrt|sin|cos|[-+*/()])")


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The tokens, '·' read as '*', and their positions, in one pass; a
    character no token starts with is reported at the end of the token
    before it, or at 0."""
    parts = _TOKEN_RE.split(text.replace("·", "*"))  # of the same length
    starts = list(itertools.accumulate(map(len, parts), initial=0))
    if "".join(parts[::2]).strip():
        gap, start = next((g, s) for g, s in zip(parts[::2], starts[::2]) if g.strip())
        raise ExpressionError("unexpected character", gap.strip()[0], start)
    return parts[1::2], starts[1:-1:2]


# A value while it is parsed is a CyclotomicReal or a sparse sum, the tuple
# (n, den, terms) for the sum of c * zeta_n^k over (k, c) in terms, over
# den, which may be negative.
def _real(value) -> CyclotomicReal:
    if not isinstance(value, tuple):
        return value
    n, den, terms = value
    return CyclotomicReal._make(n, _power_sum(n, terms), den)


def _conductor(value) -> int:
    return value[0] if isinstance(value, tuple) else value.conductor


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of a value of conductor 1."""
    if isinstance(value, tuple):
        return sum(c for _, c in value[2]), value[1]
    return value._num[0], value._den


def _negative(value):
    if isinstance(value, tuple):
        n, den, terms = value
        return n, -den, terms
    return -value


def _sum(values: list):
    """Sparse sums are concatenated, rescaled to the lcm of their conductors
    and of their denominators; a sum with a CyclotomicReal among its terms is
    sum_of's, which streams every coefficient into one _power_sum."""
    if not all(isinstance(v, tuple) for v in values):
        return sum_of([_real(v) for v in values])
    n = math.lcm(*[v[0] for v in values])
    den = math.lcm(*[v[1] for v in values])
    out = []
    for m, d, terms in values:
        step, scale = n // m, den // d
        if step == scale == 1:
            out += terms
        else:
            out += [(k * step, c * scale) for k, c in terms]
    return n, den, out


def _product(a, b):
    """A product of a sparse sum by a rational rescales its terms; any other
    product is CyclotomicReal's."""
    if _conductor(a) == 1:
        a, b = b, a
    if _conductor(b) != 1 or not isinstance(a, tuple):
        return _real(a) * _real(b)
    (n, den, terms), (p, q) = a, _ratio(b)
    return n, den * q, [(k, c * p) for k, c in terms]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.positions = _tokenize(text)
        self.tokens.append("")  # the end of input
        self.positions.append(len(text))
        self.index = 0

    def fail(self, message: str, index: int, shown: str = ""):
        # from None: a failure found in an except clause carries no context
        raise ExpressionError(
            message, shown or self.tokens[index] or "end of input", self.positions[index]
        ) from None

    def expect(self, op: str):
        if self.tokens[self.index] != op:
            self.fail(f"expected {op!r}", self.index)
        self.index += 1

    def parse(self) -> CyclotomicReal:
        value = self.expr()
        if self.tokens[self.index]:
            self.fail("trailing input", self.index)
        return _real(value)

    def expr(self):
        values = [self.term()]
        while (op := self.tokens[self.index]) == "+" or op == "-":
            self.index += 1
            right = self.term()
            values.append(right if op == "+" else _negative(right))
        return values[0] if len(values) == 1 else _sum(values)

    def term(self):
        value = self.factor()
        while (op := self.tokens[self.index]) == "*" or op == "/":
            at = self.index
            self.index += 1
            right = self.factor()
            if op == "*":
                value = _product(value, right)
            elif _conductor(right) == 1:
                p, q = _ratio(right)
                if not p:
                    self.fail("division by zero", at)
                value = _product(value, (1, p, [(0, q)]))  # times q / p
            else:
                if (divisor := _real(right)).is_zero:
                    self.fail("division by zero", at)
                value = _product(value, divisor.inv())
        return value

    def factor(self):
        if self.tokens[self.index] == "-":
            self.index += 1
            return _negative(self.factor())
        return self.atom()

    def atom(self):
        at, tokens = self.index, self.tokens
        token = tokens[at]
        self.index += 1
        if token[:1].isdecimal():
            return 1, 1, [(0, int(token))]
        if token == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if token == "sqrt":
            self.expect("(")
            first = self.index
            radicand = _real(self.expr())
            last = self.index
            self.expect(")")
            if not (radicand.is_rational and radicand._num[0] >= 0):
                text = self.text[self.positions[first] : self.positions[last]].strip()
                self.fail("sqrt needs a nonnegative rational", first, text)
            return sqrt_rational(radicand.as_rational())
        if token == "sin" or token == "cos":
            self.expect("(")
            first = last = self.index
            while tokens[last] != ")" and tokens[last]:
                last += 1
            self.index = last
            # spaces keep "2 2pi" from reading as 22pi; pi_ratio allows them
            text = " ".join(tokens[first:last])
            try:
                a, d = pi_ratio(text)
            except ValueError:
                self.fail("expected a multiple of pi", first, text)
            self.expect(")")
            # cos(a pi / d) = (zeta^m + zeta^-m) / 2 and sin(a pi / d) =
            # (zeta^(n/4 - m) - zeta^(n/4 + m)) / 2 for zeta = zeta_n, where
            # n = lcm(4, 2d) for d in lowest terms and m = a * n / (2d)
            g = math.gcd(a, d)
            a, d = a // g, d // g
            n = 2 * d if d % 2 == 0 else 4 * d
            m = a * (n // (2 * d))
            if token == "cos":
                return n, 2, [(m, 1), (-m, 1)]
            return n, 2, [(n // 4 - m, 1), (n // 4 + m, -1)]
        self.fail("expected a value", at)


def parse_expression(text: str) -> CyclotomicReal:
    """Evaluate a value expression to an exact cyclotomic real."""
    if not text.strip():
        raise ExpressionError("empty expression")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
