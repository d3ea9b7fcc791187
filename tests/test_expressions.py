import functools
import operator
import random
import re
from fractions import Fraction

import pytest

from origami_rings.angles import Angle, pi_multiple
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
    # one reader, angles.pi_multiple, for Angle.parse and sin/cos arguments
    angle = Angle.parse(text)
    assert pi_multiple(text) == angle.fraction
    assert parse_expression(f"sin({text})") == sin_of(angle)
    assert parse_expression(f"cos({text})") == cos_of(angle)


def test_pi_fraction_reader_folds_multiples_and_keeps_its_grammar():
    assert parse_expression("sin(2·pi/3)") == sin_of(Angle(2, 3))
    assert parse_expression("2·sin(pi/6)") == 1
    assert [pi_multiple(t) for t in ("pi", "3pi/2", "7*pi/3")] == [1, Fraction(3, 2), Fraction(7, 3)]
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
    assert _outcome(_tokenize, text) == _outcome(_tokenize_reference, text)
    assert _outcome(parse_expression, text) == PARSE_ERRORS[text]


def test_one_pass_tokenizer_matches_the_former_one_on_seeded_texts():
    rng = random.Random(17)
    alphabet = ["1", "23", "pi", "sqrt", "sin", "cos", "+", "-", "*", "/", "(", ")", "·",
                " ", "  ", "\t", "$", "e", ".", "p", "s"]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert _outcome(_tokenize, text) == _outcome(_tokenize_reference, text), repr(text)


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
