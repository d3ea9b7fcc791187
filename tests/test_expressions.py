import functools
import operator
import random
import re
from fractions import Fraction

import pytest

from origami_rings.angles import Angle, pi_ratio
from origami_rings.cyclotomic import CyclotomicReal, cos_of, sin_of, sqrt_rational, sum_of
from origami_rings.expressions import ExpressionError, _tokenize, parse_expression


def test_integers_and_fractions():
    assert parse_expression("3").as_rational() == 3
    assert parse_expression("-7").as_rational() == -7
    assert parse_expression("3/4").as_rational() == Fraction(3, 4)
    assert parse_expression("-3/4 + 1").as_rational() == Fraction(1, 4)


def test_sqrt():
    assert parse_expression("sqrt(3)") == sqrt_rational(3)
    assert parse_expression("sqrt(9)").as_rational() == 3
    assert parse_expression("sqrt(1/2)") == sqrt_rational(Fraction(1, 2))
    # the radicand is any expression with a nonnegative rational value
    assert parse_expression("sqrt(2*3)") == sqrt_rational(6)
    assert parse_expression("sqrt(-(-2))") == sqrt_rational(2)
    assert parse_expression("sqrt(sin(pi/6))") == sqrt_rational(Fraction(1, 2))
    for bad in ["sqrt(-2)", "sqrt(sqrt(2))", "sqrt(1-2)", "sqrt(1/0)", "sqrt()"]:
        with pytest.raises(ExpressionError) as info:
            parse_expression(bad)
        assert info.value.position >= 0, bad


def test_trig_atoms():
    assert parse_expression("sin(pi/3)") == sin_of(Angle(1, 3))
    assert parse_expression("cos(pi/4)") == cos_of(Angle(1, 4))
    assert parse_expression("sin(2pi/15)") == sin_of(Angle(2, 15))
    assert parse_expression("sin(2*pi/15)") == sin_of(Angle(2, 15))
    assert parse_expression("cos(0)") == 1
    assert parse_expression("sin(0)").is_zero


def test_trig_argument_folding():
    # arguments fold mod 2pi; sin flips sign on [pi, 2pi)
    assert parse_expression("sin(3pi/2)") == -1
    assert parse_expression("cos(3pi/2)").is_zero
    assert parse_expression("sin(7pi/3)") == sin_of(Angle(1, 3))
    assert parse_expression("cos(5pi/4)") == -cos_of(Angle(1, 4))


def test_arithmetic_and_precedence():
    assert parse_expression("6 + 3 * sqrt(3)") == 6 + 3 * sqrt_rational(3)
    assert parse_expression("(1 + sqrt(5)) / 2") == (1 + sqrt_rational(5)) / 2
    assert parse_expression("2 * 3 + 4").as_rational() == 10
    assert parse_expression("2 * (3 + 4)").as_rational() == 14
    assert parse_expression("-sqrt(2) * -sqrt(2)").as_rational() == 2
    assert parse_expression("1 - 2 - 3").as_rational() == -4


def test_division_by_zero():
    # reported as a parse-level error with the offending position
    with pytest.raises(ExpressionError):
        parse_expression("1 / (1 - 1)")
    with pytest.raises(ExpressionError):
        parse_expression("1 / sin(0)")


def test_pythagoras_via_parser():
    x = parse_expression("sin(pi/5) * sin(pi/5) + cos(pi/5) * cos(pi/5)")
    assert x == 1


def test_errors_carry_position():
    with pytest.raises(ExpressionError) as info:
        parse_expression("1 + @")
    assert info.value.position >= 0
    for bad in ["", "sin()", "sin(1.5)", "sqrt(2", "1 +", "* 3", "two"]:
        with pytest.raises(ExpressionError):
            parse_expression(bad)


@pytest.mark.parametrize("text", ["0", "pi/4", "2pi/3", "2*pi/3", " pi/2 ", "pi/3", "5pi/12"])
def test_trig_arguments_read_pi_fractions_as_angles_do(text):
    # one reader, angles.pi_ratio, for Angle.parse and sin/cos arguments
    angle = Angle.parse(text)
    assert Fraction(*pi_ratio(text)) == angle.fraction
    assert parse_expression(f"sin({text})") == sin_of(angle)
    assert parse_expression(f"cos({text})") == cos_of(angle)


def test_pi_fraction_reader_folds_multiples_and_keeps_its_grammar():
    assert parse_expression("sin(2·pi/3)") == sin_of(Angle(2, 3))
    assert parse_expression("2·sin(pi/6)") == 1
    assert [pi_ratio(t) for t in ("pi", "3pi/2", "7*pi/3")] == [(1, 1), (3, 2), (7, 3)]
    assert parse_expression("sin(pi)").is_zero and parse_expression("cos(pi)") == -1
    assert parse_expression("cos(2pi)") == 1 and parse_expression("sin(7pi/6)") == Fraction(-1, 2)
    for bad in ["pi", "3pi/2", "pi/0"]:
        with pytest.raises(ValueError):
            Angle.parse(bad)
    # tokens are rejoined with spaces, so "2 2pi" does not read as 22pi;
    # errors point at the argument's start
    for bad in ["sin(pi/0)", "sin(2 2pi)", "cos(pi/4 + pi)", "sin((pi))", "sin(2/3)", "sin()"]:
        with pytest.raises(ExpressionError) as info:
            parse_expression(bad)
        assert info.value.position == 4, bad


_TOKEN_RE_REFERENCE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<name>pi|sqrt|sin|cos)|(?P<op>[-+*/()]|·))"
)


def _tokenize_reference(text):
    """The former tokenizer: one anchored match per token, leading spaces
    included, and an unexpected character reported where that match began."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE_REFERENCE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError("unexpected character", rest[0], pos)
        if m.group("number"):
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = "*" if m.group("op") == "·" else m.group("op")
            tokens.append(("op", op, m.start("op")))
        pos = m.end()
    return tokens


def _tokens_and_positions(text):
    """The former tokenizer's tokens and their positions."""
    tokens = _tokenize_reference(text)
    return [token for _, token, _ in tokens], [position for _, _, position in tokens]


def _outcome(function, text):
    try:
        return function(text)
    except ExpressionError as exc:
        return str(exc), exc.token, exc.position


# each expression's parse error, as the former tokenizer and parser gave it
PARSE_ERRORS = {
    "1 $": ("unexpected character: '$' at position 1", "$", 1),
    "1e3": ("unexpected character: 'e' at position 1", "e", 1),
    "2 2": ("trailing input: '2' at position 2", "2", 2),
    "cos(pi/3": ("expected ')': 'end of input' at position 8", "end of input", 8),
    "sqrt()": ("expected a value: ')' at position 5", ")", 5),
    "((1)": ("expected ')': 'end of input' at position 4", "end of input", 4),
    "  ": ("empty expression", "", -1),
}


@pytest.mark.parametrize("text", sorted(PARSE_ERRORS))
def test_one_pass_tokenizer_matches_the_former_one(text):
    assert _outcome(_tokenize, text) == _outcome(_tokens_and_positions, text)
    assert _outcome(parse_expression, text) == PARSE_ERRORS[text]


def test_one_pass_tokenizer_matches_the_former_one_on_seeded_texts():
    rng = random.Random(17)
    alphabet = ["1", "23", "pi", "sqrt", "sin", "cos", "+", "-", "*", "/", "(", ")", "·",
                " ", "  ", "\t", "$", "e", ".", "p", "s"]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert _outcome(_tokenize, text) == _outcome(_tokens_and_positions, text), repr(text)


def test_n_ary_sum_is_the_left_fold():
    # terms of mixed conductors, rationals among them; the sum has the
    # fold's conductor and representation, and so does one that cancels
    rng = random.Random(29)
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(2, 7)):
            kind = rng.randrange(3)
            if kind == 0:
                term = CyclotomicReal.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            else:
                n = rng.choice((3, 4, 5, 8, 12, 15, 20))
                k = rng.randrange(1, n)
                term = (cos_of if kind == 1 else sin_of)(Angle(k, n)) * rng.randint(-5, 5)
            terms.append(term)
        terms.append(-functools.reduce(operator.add, terms[:-1]) if rng.random() < 0.1 else terms[-1])
        fold = functools.reduce(operator.add, terms)
        total = sum_of(terms)
        assert (total.conductor, total._num, total._den) == (fold.conductor, fold._num, fold._den)


@pytest.mark.parametrize("text", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"],
                         ids=["parentheses", "unary-minuses"])
def test_nesting_past_the_recursion_limit_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match="^expression nested too deeply$"):
        parse_expression(text)


def test_two_hundred_nested_parentheses_still_parse():
    assert parse_expression("(" * 200 + "1" + ")" * 200).as_rational() == 1


class _ReferenceParser:
    """The former evaluator: the same grammar, a CyclotomicReal built at
    every node (from_rational, cos_of/sin_of of an Angle, sqrt_rational,
    sum_of, and CyclotomicReal's products and inverses), on the former
    tokenizer."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize_reference(text)
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return ("end", "", len(self.text))

    def advance(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, op):
        kind, value, pos = self.advance()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", value or "end of input", pos)

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", text, pos)
        return value

    def expr(self):
        terms = [self.term()]
        while True:
            kind, op, _ = self.peek()
            if kind != "op" or op not in "+-":
                return terms[0] if len(terms) == 1 else sum_of(terms)
            self.advance()
            right = self.term()
            terms.append(right if op == "+" else -right)

    def term(self):
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind != "op" or op not in "*/":
                return value
            self.advance()
            right = self.factor()
            if op == "*":
                value = value * right
            elif right.is_zero:
                raise ExpressionError("division by zero", "/", pos)
            else:
                value = value / right

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.factor()
        return self.atom()

    def atom(self):
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
            text = " ".join(token for _, token, _ in self.tokens[first : self.index])
            try:
                folded = Fraction(*pi_ratio(text)) % 2
            except ValueError:
                shown = text or self.peek()[1] or "end of input"
                raise ExpressionError("expected a multiple of pi", shown, start) from None
            self.expect_op(")")
            flip = folded >= 1
            angle = Angle(folded.numerator - flip * folded.denominator, folded.denominator)
            out = sin_of(angle) if value == "sin" else cos_of(angle)
            return -out if flip else out
        raise ExpressionError("expected a value", value or "end of input", pos)


def _parse_reference(text):
    if not text.strip():
        raise ExpressionError("empty expression")
    return _ReferenceParser(text).parse()


def _value_outcome(parse, text):
    """(conductor, numerator, denominator) of the value, or the error's
    (message, token, position)."""
    try:
        x = parse(text)
    except ExpressionError as exc:
        return str(exc), exc.token, exc.position
    return x.conductor, x._num, x._den


def _pi_argument(rng):
    k, d = rng.randint(0, 30), rng.choice((1, 2, 3, 4, 5, 6, 8, 10, 12, 15))
    return rng.choice((
        f"{k}pi/{d}", f"{k}*pi/{d}", f"{k}·pi/{d}", f"{k} pi / {d}", f"pi/{d}",
        f"{k}pi", "pi", "0", "7pi/3", "2*pi/15", "3pi/2", "11pi/6",
    ))


def _rational_text(rng, depth):
    """A text whose value is rational: numbers, fractions, and sums,
    products and quotients of them, with a rational trig value now and then."""
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice((
            str(rng.randint(0, 12)), f"{rng.randint(1, 12)}/{rng.randint(1, 9)}",
            "sin(pi/6)", "cos(2pi/3)", "sqrt(4)", "cos(0)", "sin(5pi/2)",
        ))
    a, b = _rational_text(rng, depth - 1), _rational_text(rng, depth - 1)
    return rng.choice((f"{a} + {b}", f"{a} - {b}", f"({a})*({b})", f"({a})/({b})", f"-({a})"))


def _atom_text(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.randint(0, 40))
    if kind == 1:
        return f"{rng.randint(0, 40)}/{rng.randint(1, 12)}"
    if kind == 2:
        return f"{rng.choice(('sin', 'cos'))}({_pi_argument(rng)})"
    radicand = rng.choice((
        str(rng.choice((2, 3, 5, 6, 10, 15, 12, 18, 7))), f"{rng.randint(1, 20)}/{rng.randint(1, 9)}",
        _rational_text(rng, 2),
    ))
    return f"sqrt({radicand})"


def _expression_text(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        return _atom_text(rng)
    a, b = _expression_text(rng, depth - 1), _expression_text(rng, depth - 1)
    return rng.choice((
        f"{a} + {b}", f"{a} - {b}", f"{a}*{b}", f"{a} * {b}", f"({a})/({b})", f"{a}/{b}",
        "-" * rng.randint(1, 4) + f"({a})", "-" * rng.randint(1, 3) + a, f"(({a}))",
        f"({a})·({b})", f"{rng.randint(1, 9)}*({a}) - {b}",
    ))


def test_sparse_evaluation_matches_the_node_by_node_reference_on_seeded_texts():
    # sums, rational factors and divisors stay sparse terms; the result must
    # be the reference's CyclotomicReal to the conductor, or its error
    rng = random.Random(41)
    values = errors = 0
    for _ in range(700):
        text = _expression_text(rng, rng.randint(1, 4))
        got = _value_outcome(parse_expression, text)
        assert got == _value_outcome(_parse_reference, text), text
        if isinstance(got[0], int):
            values += 1
        else:
            errors += 1
    assert values >= 500 and errors


def test_sparse_evaluation_matches_the_reference_on_level_two_coordinates(pentagon):
    # the pentagon's level-2 coordinates as sums of c_j cos(2 j pi / n)
    from origami_rings.construction import generate

    texts = set()
    for point in generate(pentagon, 2)[2]:
        for value in (point.r, point.s):
            n = value.conductor
            terms = [f"({c})" if j == 0 else f"({c})*cos({2 * j}pi/{n})"
                     for j, c in enumerate(value._num) if c]
            texts.add(f"({' + '.join(terms)})/{value._den}")
    assert len(texts) > 40
    for text in sorted(texts):
        assert _value_outcome(parse_expression, text) == _value_outcome(_parse_reference, text), text


# each text's error, as the node-by-node evaluator gave it: the message and
# the position must not move now that values stay sparse
VALUE_ERRORS = {
    "cos(pi/0)": ("expected a multiple of pi: 'pi / 0' at position 4", "pi / 0", 4),
    "cos()": ("expected a multiple of pi: ')' at position 4", ")", 4),
    "1/0": ("division by zero: '/' at position 1", "/", 1),
    "cos(3pi/2)/cos(pi/2)": ("division by zero: '/' at position 10", "/", 10),
    "sqrt(2)/(sqrt(2)-sqrt(2))": ("division by zero: '/' at position 7", "/", 7),
    "(1": ("expected ')': 'end of input' at position 2", "end of input", 2),
    "1)": ("trailing input: ')' at position 1", ")", 1),
    "cos(pi/5)^2": ("unexpected character: '^' at position 9", "^", 9),
    "sqrt(1 - 2)": ("sqrt needs a nonnegative rational: '1 - 2' at position 5", "1 - 2", 5),
    "sqrt( cos(pi/5) ) + $": ("unexpected character: '$' at position 19", "$", 19),
}


@pytest.mark.parametrize("text", sorted(VALUE_ERRORS))
def test_value_errors_keep_their_message_and_position(text):
    assert _value_outcome(_parse_reference, text) == VALUE_ERRORS[text]
    assert _value_outcome(parse_expression, text) == VALUE_ERRORS[text]
    # and a traceback shows no other exception, as the reference's did
    with pytest.raises(ExpressionError) as info:
        parse_expression(text)
    assert info.value.__cause__ is None
    assert info.value.__context__ is None or info.value.__suppress_context__
