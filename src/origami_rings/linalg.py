"""Exact linear algebra over Q and over Z, on one elimination.

IntegerLattice keeps a Z-basis in Hermite normal form with tracking,
deciding membership of integer vectors in the Z-span of the generators
and returning the integer combination.  Each row carries its tracked
combination in the same list, after its entries, so one row operation
updates both.  A generator that does not raise the rank comes back as
the primitive integer relation it closes.
Reducing the entries above each pivot keeps the rows small (Cohen,
GTM 138, section 2.4), but not their tracked combinations: those grow
with every row operation, and only a caller that knows the relations
can reduce them.

RowSpace is its rational view: each vector is cleared of denominators
and adjoined to one IntegerLattice, and a relation becomes rational
coordinates.  It powers minimal polynomials (first linear relation
among powers).
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence


class RowSpace:
    """A growing subspace of Q^n that gives coordinates of dependent vectors.

    Generator k is adjoined to an IntegerLattice as s_k * v_k, s_k the
    least common denominator of v_k.  The Hermite rows are independent,
    so in a relation sum c_i * s_i * v_i = 0 that v_k closes, c_k != 0
    and v_k = sum -c_i * s_i / (c_k * s_k) * v_i.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._lattice = IntegerLattice(dimension)
        self._scales: list[int] = []  # s_i of every generator offered so far

    @property
    def rank(self) -> int:
        return self._lattice.rank

    def add(self, vector: Sequence[Rational]) -> Optional[list[Fraction]]:
        """Offer a generator (ints or Fractions).  Returns None if it
        enlarged the space, else its coordinates over every previously
        offered generator."""
        if len(vector) != self.dimension:
            raise ValueError("vector has wrong dimension")
        scale = math.lcm(*(v.denominator for v in vector))
        self._scales.append(scale)
        relation = self._lattice.add([v.numerator * (scale // v.denominator) for v in vector])
        if relation is None:
            return None
        *earlier, own = relation
        own *= scale
        return [Fraction(-c * s, own) for c, s in zip(earlier, self._scales)]

    def coordinates(self, vector: Sequence[Rational]) -> Optional[list[Fraction]]:
        """Coordinates of vector over the offered generators, or None;
        the span is left unchanged."""
        return copy.deepcopy(self).add(vector)


class IntegerLattice:
    """Z-basis in Hermite normal form with combination tracking.

    Each row is one list: its `dimension` entries, then its tracked
    combination over every generator added so far (the augmented rows of
    Cohen, GTM 138, section 2.4), so every row operation acts on both at
    once.  Rows are indexed by pivot column; an incoming vector is swept
    left to right, so every gcd combination only ever touches columns at
    or after the current one and the echelon shape is preserved.  After
    each add every pivot is positive and every entry above a pivot lies
    in [0, pivot).
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._pivots: dict[int, list[int]] = {}
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _vector(self, vector: Sequence[int]) -> list[int]:
        vec = [int(v) for v in vector]
        if len(vec) != self.dimension:
            raise ValueError("vector has wrong dimension")
        return vec

    def add(self, vector: Sequence[int]) -> Optional[list[int]]:
        """Adjoin a generator.  Returns None if the rank grew, else the
        relation sum(combo[i] * generator_i) = 0 that it closes; the row
        operations are unimodular, so that relation is primitive."""
        vec = self._vector(vector) + [0] * self._count + [1]
        self._count += 1
        for row in self._pivots.values():
            row.append(0)
        for col in range(self.dimension):
            if vec[col] == 0:
                continue
            row = self._pivots.get(col)
            if row is None:
                self._pivots[col] = vec
                break
            a, b = row[col], vec[col]
            if b % a == 0:
                q = b // a
                vec[col:] = [v - q * r for v, r in zip(vec[col:], row[col:])]
            else:
                g, x, y = _xgcd(a, b)
                qa, qb = a // g, b // g
                self._pivots[col] = [x * r + y * v for r, v in zip(row, vec)]
                vec = [qa * v - qb * r for r, v in zip(row, vec)]
        self._hermite_reduce()
        # a vector that found no free pivot was swept to zero
        return None if any(vec[: self.dimension]) else vec[self.dimension :]

    def _hermite_reduce(self) -> None:
        """Make pivots positive and reduce the entries above them.

        Columns go left to right: reducing at a column only changes the
        entries at or after it, so earlier columns stay reduced.
        """
        cols = sorted(self._pivots)
        for k, col in enumerate(cols):
            row = self._pivots[col]
            if row[col] < 0:
                row[col:] = [-r for r in row[col:]]
            pivot = row[col]
            for above in cols[:k]:
                upper = self._pivots[above]
                if q := upper[col] // pivot:
                    upper[col:] = [u - q * r for u, r in zip(upper[col:], row[col:])]

    def membership(self, vector: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of vector over the added generators, or None."""
        vec = self._vector(vector) + [0] * self._count
        for col in range(self.dimension):
            if vec[col] == 0:
                continue
            row = self._pivots.get(col)
            if row is None or vec[col] % row[col]:
                return None
            q = vec[col] // row[col]
            vec[col:] = [v - q * r for v, r in zip(vec[col:], row[col:])]
        # the sweep subtracted sum(q * row); the tail holds minus its combination
        return [-c for c in vec[self.dimension :]]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0
