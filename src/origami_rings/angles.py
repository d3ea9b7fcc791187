"""Angles as exact rational multiples of pi.

Every direction in this package is a fraction k/n with 0 <= k/n < 1,
standing for the angle k*pi/n.  Keeping the fraction instead of a float
is what lets the rest of the library stay exact: the sine and cosine of
k*pi/n live in a cyclotomic field and can be computed with integer
arithmetic only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


_ANGLE_RE = re.compile(
    r"""^\s*
    (?:(?P<num>\d+)\s*\*?\s*)?     # optional integer numerator
    (?:pi|π)                       # the pi symbol
    (?:\s*/\s*(?P<den>\d+))?       # optional denominator
    \s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def pi_ratio(text: str) -> tuple[int, int]:
    """(k, n), as written, of a text '0', 'pi', 'pi/4', '2pi/15' or
    '2*pi/15' for k*pi/n; any nonnegative multiple, so '3pi/2' gives (3, 2)."""
    if text.strip() == "0":
        return 0, 1
    m = _ANGLE_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse angle {text!r}")
    den = int(m.group("den") or 1)
    if den == 0:
        raise ValueError("angle denominator must be nonzero")
    return int(m.group("num") or 1), den


@total_ordering
@dataclass(frozen=True)
class Angle:
    """A direction k*pi/n with the fraction k/n reduced and in [0, 1).

    The zero angle (horizontal direction) is Angle(0, 1).
    """

    numerator: int
    denominator: int

    def __lt__(self, other: "Angle") -> bool:
        return self.fraction < other.fraction

    def __init__(self, numerator: int, denominator: int = 1):
        if denominator == 0:
            raise ValueError("angle denominator must be nonzero")
        frac = Fraction(numerator, denominator)
        if not 0 <= frac < 1:
            raise ValueError(
                f"angle {numerator}*pi/{denominator} is outside [0, pi)"
            )
        object.__setattr__(self, "numerator", frac.numerator)
        object.__setattr__(self, "denominator", frac.denominator)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse a bare fraction '2/3' (meaning 2*pi/3) or a pi_ratio text."""
        m = re.match(r"^\s*(\d+)\s*/\s*(\d+)\s*$", text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        frac = Fraction(*pi_ratio(text))
        return cls(frac.numerator, frac.denominator)

    @classmethod
    def zero(cls) -> "Angle":
        return cls(0)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    @property
    def radians(self) -> float:
        return math.pi * self.numerator / self.denominator

    @property
    def conductor(self) -> int:
        """Order of the cyclotomic field needed for sin and cos of self.

        Both sin(k*pi/n) and cos(k*pi/n) live in Q(zeta_N) with
        N = lcm(4, 2n): the half-turn denominator doubles to a full-turn
        one and the factor 4 accommodates the i in the sine formula.
        """
        return math.lcm(4, 2 * self.denominator)

    def __str__(self) -> str:
        if self.numerator == 0:
            return "0"
        num = "" if self.numerator == 1 else str(self.numerator)
        den = "" if self.denominator == 1 else f"/{self.denominator}"
        return f"{num}pi{den}"

    def __repr__(self) -> str:
        return f"Angle({self.numerator}, {self.denominator})"


def angle_difference(a: Angle, b: Angle) -> tuple[int, Angle]:
    """Return (sign, |a - b|) with the difference folded into [0, pi).

    The sign is +1 if a > b, -1 if a < b and 0 if they are equal; the
    second component is the absolute difference, again a valid Angle.
    """
    diff = a.fraction - b.fraction
    if diff == 0:
        return 0, Angle(0)
    sign = 1 if diff > 0 else -1
    mag = abs(diff)
    return sign, Angle(mag.numerator, mag.denominator)
