"""Validated sets of construction directions.

A slope set is a finite set of at least three directions in [0, pi)
containing the horizontal direction 0.  Two nonzero members are singled
out as the frame pair (alpha, beta); by default the two largest, which
keeps the choice deterministic, and any other valid pair can be pinned
explicitly.  All projection constants of the set live in one cyclotomic
field, the working conductor, computed once and reused everywhere.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Iterable, Union

from .angles import Angle
from .cyclotomic import CyclotomicReal
from .geometry import Frame

# gamma -> p(gamma) for the nonzero members, all on one conductor
PValueTable = dict[Angle, CyclotomicReal]


class InvalidSlopeSetError(ValueError):
    """Raised for direction sets that cannot seed a construction."""


def _as_angle(value: Union[Angle, str]) -> Angle:
    if isinstance(value, Angle):
        return value
    if isinstance(value, str):
        return Angle.parse(value)
    raise InvalidSlopeSetError(f"not a direction: {value!r}")


class SlopeSet:
    """An ordered, validated set of directions with a frame pair."""

    def __init__(
        self,
        slopes: Iterable[Union[Angle, str]],
        alpha: Union[Angle, str, None] = None,
        beta: Union[Angle, str, None] = None,
    ):
        angles = sorted({_as_angle(s) for s in slopes})
        if len(angles) < 3:
            raise InvalidSlopeSetError(
                f"need at least three distinct directions, got {len(angles)}"
            )
        if not angles[0].is_zero:
            raise InvalidSlopeSetError("the horizontal direction 0 must be included")
        self.slopes: tuple[Angle, ...] = tuple(angles)
        nonzero = angles[1:]
        a = _as_angle(alpha) if alpha is not None else nonzero[-1]
        b = _as_angle(beta) if beta is not None else nonzero[-2]
        for picked in (a, b):
            if picked not in self.slopes:
                raise InvalidSlopeSetError(f"{picked} is not a member of the set")
            if picked.is_zero:
                raise InvalidSlopeSetError("frame directions must be nonzero")
        if a == b:
            raise InvalidSlopeSetError("frame directions must be distinct")
        self.alpha = a
        self.beta = b
        self.frame = Frame(a, b)

    @property
    def size(self) -> int:
        return len(self.slopes)

    @property
    def nonzero_slopes(self) -> tuple[Angle, ...]:
        return self.slopes[1:]

    @property
    def free_slopes(self) -> tuple[Angle, ...]:
        """Nonzero members outside the frame pair, ascending."""
        return tuple(
            g for g in self.nonzero_slopes if g not in (self.alpha, self.beta)
        )

    @cached_property
    def working_conductor(self) -> int:
        """One cyclotomic field containing every projection constant.

        Sines of the member directions and of their pairwise differences
        all live in conductors dividing the lcm of the per-direction
        conductors, so that lcm works for the whole table.
        """
        return lcm(*(g.conductor for g in self.nonzero_slopes))

    @cached_property
    def p_table(self) -> PValueTable:
        n = self.working_conductor
        return {
            g: self.frame.p_value(g).to_conductor(n) for g in self.nonzero_slopes
        }

    def union(self, extra: Iterable[Union[Angle, str]]) -> "SlopeSet":
        """The set enlarged by extra directions, frame re-derived."""
        return SlopeSet(list(self.slopes) + [_as_angle(e) for e in extra])

    def __contains__(self, direction) -> bool:
        try:
            return _as_angle(direction) in self.slopes
        except (InvalidSlopeSetError, ValueError):
            return False

    def __iter__(self):
        return iter(self.slopes)

    def __len__(self) -> int:
        return len(self.slopes)

    def __eq__(self, other):
        if not isinstance(other, SlopeSet):
            return NotImplemented
        return (
            self.slopes == other.slopes
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.slopes, self.alpha, self.beta))

    def __str__(self) -> str:
        return "{" + ", ".join(str(s) for s in self.slopes) + "}"

    def __repr__(self) -> str:
        return (
            f"SlopeSet({[str(s) for s in self.slopes]}, "
            f"alpha={self.alpha}, beta={self.beta})"
        )
