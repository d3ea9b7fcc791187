"""Exact linear algebra over Q and over Z, on one elimination.

IntegerLattice keeps a Z-basis in Hermite normal form with tracking.
Each row carries its tracked combination in the same list, after its
entries, so one row operation updates both.  A generator that does not
raise the rank comes back as the primitive integer relation it closes.
The rows restricted to their pivot columns are triangular, so one
fraction-free solve, `coordinates`, gives any vector's rational
coordinates over them; `membership` is that solve, a check that the
coordinates are integers and reproduce the vector on every column, and
the sum of the rows' tracked combinations they weight (`combination`).
The row layout stays in this module: callers read the rows through
`basis`, `coordinates` and `combination`.
Reducing the entries above each pivot keeps the rows small (Cohen,
GTM 138, section 2.4), but not their tracked combinations: those grow
with every row operation, and only a caller that knows the relations
can reduce them, through `reduce_combinations`.

RowSpace is its rational view: each vector is cleared of denominators
and adjoined to one IntegerLattice, and a relation becomes rational
coordinates.  It powers minimal polynomials (first linear relation
among powers).
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from numbers import Integral, Rational
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
        if len(vector) != self.dimension or not all(isinstance(v, Rational) for v in vector):
            raise ValueError(f"vector must have {self.dimension} rational entries")
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
    each add every pivot is positive, every entry above a pivot lies in
    [0, pivot), and the rows are listed in pivot order for the queries
    until the next add.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._pivots: dict[int, list[int]] = {}
        # the pivot columns in ascending order and their rows, set by each add
        self._cols: list[int] = []
        self._rows: list[list[int]] = []
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _vector(self, vector: Sequence[int]) -> list[int]:
        kinds = set(map(type, vector))  # one subclass test per entry type, not per entry
        if len(vector) != self.dimension or not all(issubclass(k, Integral) for k in kinds):
            raise ValueError(f"vector must have {self.dimension} integer entries")
        return list(map(int, vector))

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
        """Put the rows in pivot order, make pivots positive and reduce the
        entries above them.

        Columns go left to right: reducing at a column only changes the
        entries at or after it, so earlier columns stay reduced.
        """
        self._cols = sorted(self._pivots)
        self._rows = [self._pivots[col] for col in self._cols]
        for k, (col, row) in enumerate(zip(self._cols, self._rows)):
            if row[col] < 0:
                row[col:] = [-r for r in row[col:]]
            for upper in self._rows[:k]:
                if q := upper[col] // row[col]:
                    upper[col:] = [u - q * r for u, r in zip(upper[col:], row[col:])]

    def basis(self) -> list[list[int]]:
        """The rows' entries in pivot order: a Z-basis of the lattice."""
        return [row[: self.dimension] for row in self._rows]

    def coordinates(self, vector: Sequence[int]) -> tuple[list[int], int]:
        """(t, den), in lowest terms, with t / den the rational coordinates
        over the rows in pivot order that reproduce vector on the pivot
        columns.

        The rows restricted to their pivot columns are upper triangular
        with a positive diagonal, so one fraction-free forward substitution
        keeps t over a single denominator.  A vector in the lattice has
        den 1 and its integer coordinates in t; one in the rational span of
        the rows has its exact coordinates in t / den (Cohen, GTM 138,
        section 2.4).
        """
        vec = self._vector(vector)
        t, den = [], 1
        for col, pivot in zip(self._cols, self._rows):
            r = vec[col] * den - sum(a * row[col] for a, row in zip(t, self._rows))
            g = math.gcd(r, pivot[col])
            if (f := pivot[col] // g) != 1:
                t = [a * f for a in t]
                den *= f
            t.append(r // g)
        return t, den

    def combination(self, t: Sequence[int]) -> list[int]:
        """The tracked combination of sum(t[k] * row_k), rows in pivot order."""
        combo = [0] * self._count
        for a, row in zip(t, self._rows):
            if a:
                combo = [c + a * r for c, r in zip(combo, row[self.dimension :])]
        return combo

    def membership(self, vector: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of vector over the added generators, or None:
        its coordinates over the rows must be integers, and the rows must
        reproduce it on every column, not only on the pivot columns."""
        vec = self._vector(vector)
        t, den = self.coordinates(vec)
        if den != 1 or any(sum(a * row[k] for a, row in zip(t, self._rows)) != v
                           for k, v in enumerate(vec)):
            return None
        return self.combination(t)

    def reduce_combinations(self, relations: Sequence[Sequence[int]]) -> None:
        """Divide every row's tracked combination by relations among the
        generators, given in echelon order (each one's last nonzero entry
        after the one before), last relation first: one whose last nonzero
        entry is at i takes floor(c[i] / relation[i]) times itself off the
        combination c, on the relation's nonzero span.  The rows stay the
        same combinations of the generators: their entries do not change."""
        d, spans = self.dimension, []
        for relation in reversed(relations):
            nonzero = [i for i, a in enumerate(relation) if a]
            spans.append((d + nonzero[0], d + nonzero[-1] + 1, relation[nonzero[0] : nonzero[-1] + 1]))
        for row in self._rows:
            for lo, hi, part in spans:
                if q := row[hi - 1] // part[-1]:
                    row[lo:hi] = [c - q * r for c, r in zip(row[lo:hi], part)]


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
