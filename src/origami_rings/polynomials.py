"""The value `cyclotomic.minimal_polynomial` returns.

A dense univariate polynomial with exact rational coefficients, stored
lowest degree first with trailing zeros trimmed, so equal polynomials
compare equal structurally.  Horner evaluation takes anything with + and
* against Fractions, cyclotomic reals among them, so mu(x) checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]


def _trim(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class RationalPolynomial:
    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Sequence[Rational] = ()):
        object.__setattr__(
            self,
            "coefficients",
            _trim(tuple(Fraction(c) for c in coefficients)),
        )

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x):
        """Horner evaluation at x (rational or cyclotomic)."""
        if self.is_zero:
            return 0 * x
        acc = None
        for c in reversed(self.coefficients):
            acc = c if acc is None else acc * x + c
        return acc + 0 * x if isinstance(acc, Fraction) else acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp in range(self.degree, -1, -1):
            c = self.coefficients[exp]
            if c == 0:
                continue
            if exp == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}X" if exp == 1 else f"{head}X^{exp}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
