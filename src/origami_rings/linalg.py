"""Exact linear algebra over Q and over Z.

Two small engines drive everything here:

* RowSpace keeps a rational echelon basis with transformation tracking,
  so a dependent vector comes back with its coordinates over the
  generators that were added.  It powers minimal polynomials (first
  linear relation among powers) and rational span tests.

* IntegerLattice keeps a Z-basis in Hermite normal form, again with
  tracking, deciding membership of integer vectors in the Z-span of the
  generators and returning the integer combination.  Reducing the
  entries above each pivot keeps both the rows and their tracked
  combinations small (Cohen, GTM 138, section 2.4).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


class RowSpace:
    """Echelon basis of a growing subspace of Q^n with coordinates."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._rows: list[tuple[list[Fraction], list[Fraction]]] = []
        self._count = 0  # generators offered so far

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        combo = [Fraction(0)] * self._count
        for row, row_combo in self._rows:
            pivot = next(i for i, c in enumerate(row) if c)
            c = vec[pivot]
            if c:
                factor = c / row[pivot]
                for i in range(pivot, self.dimension):
                    vec[i] -= factor * row[i]
                for i, rc in enumerate(row_combo):
                    combo[i] -= factor * rc
        return vec, combo

    def add(self, vector: Sequence[Fraction]) -> Optional[list[Fraction]]:
        """Offer a generator.  Returns None if it enlarged the space,
        else its coordinates over the previously offered generators."""
        vec = [Fraction(v) for v in vector]
        if len(vec) != self.dimension:
            raise ValueError("vector has wrong dimension")
        vec, combo = self._reduce(vec)
        self._count += 1
        if any(vec):
            # the reduced row equals generator + sum combo[i]*generator_i
            own = list(combo) + [Fraction(1)]
            self._pad()
            self._rows.append((vec, own))
            self._rows.sort(key=lambda r: next(i for i, c in enumerate(r[0]) if c))
            return None
        return [-c for c in combo]

    def _pad(self):
        for _, combo in self._rows:
            combo.extend([Fraction(0)] * (self._count - len(combo)))

    def coordinates(self, vector: Sequence[Fraction]) -> Optional[list[Fraction]]:
        """Coordinates of vector over the offered generators, or None."""
        vec = [Fraction(v) for v in vector]
        if len(vec) != self.dimension:
            raise ValueError("vector has wrong dimension")
        self._pad()
        vec, combo = self._reduce(vec)
        if any(vec):
            return None
        return [-c for c in combo]


class IntegerLattice:
    """Z-basis in Hermite normal form with combination tracking.

    Rows are indexed by pivot column; an incoming vector is swept left
    to right, so every gcd combination only ever touches columns at or
    after the current one and the echelon shape is preserved.  After
    each add every pivot is positive and every entry above a pivot lies
    in [0, pivot), the same row operations applied to the combinations.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self._pivots: dict[int, tuple[list[int], list[int]]] = {}
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _pad(self):
        for _, combo in self._pivots.values():
            combo.extend([0] * (self._count - len(combo)))

    def add(self, vector: Sequence[int]) -> None:
        """Adjoin a generator to the lattice."""
        vec = [int(v) for v in vector]
        if len(vec) != self.dimension:
            raise ValueError("vector has wrong dimension")
        self._count += 1
        self._pad()
        combo = [0] * self._count
        combo[-1] = 1
        for col in range(self.dimension):
            if vec[col] == 0:
                continue
            hit = self._pivots.get(col)
            if hit is None:
                self._pivots[col] = (vec, combo)
                break
            row, row_combo = hit
            a, b = row[col], vec[col]
            if b % a == 0:
                q = b // a
                for i in range(col, self.dimension):
                    vec[i] -= q * row[i]
                for i in range(self._count):
                    combo[i] -= q * row_combo[i]
            else:
                g, x, y = _xgcd(a, b)
                qa, qb = a // g, b // g
                new_row = [x * row[i] + y * vec[i] for i in range(self.dimension)]
                new_combo = [
                    x * row_combo[i] + y * combo[i] for i in range(self._count)
                ]
                vec = [qa * vec[i] - qb * row[i] for i in range(self.dimension)]
                combo = [
                    qa * combo[i] - qb * row_combo[i] for i in range(self._count)
                ]
                self._pivots[col] = (new_row, new_combo)
        self._hermite_reduce()

    def _hermite_reduce(self) -> None:
        """Make pivots positive and reduce the entries above them.

        Columns go left to right: reducing at a column only changes the
        entries at or after it, so earlier columns stay reduced.
        """
        cols = sorted(self._pivots)
        for k, col in enumerate(cols):
            row, combo = self._pivots[col]
            if row[col] < 0:
                row[col:] = [-c for c in row[col:]]
                combo[:] = [-c for c in combo]
            pivot = row[col]
            for above in cols[:k]:
                upper, upper_combo = self._pivots[above]
                q = upper[col] // pivot
                if q:
                    for i in range(col, self.dimension):
                        upper[i] -= q * row[i]
                    for i in range(self._count):
                        upper_combo[i] -= q * combo[i]

    def membership(self, vector: Sequence[int]) -> Optional[list[int]]:
        """Integer coordinates of vector over the added generators, or None."""
        vec = [int(v) for v in vector]
        if len(vec) != self.dimension:
            raise ValueError("vector has wrong dimension")
        self._pad()
        combo = [0] * self._count
        for col in range(self.dimension):
            if vec[col] == 0:
                continue
            hit = self._pivots.get(col)
            if hit is None or vec[col] % hit[0][col]:
                return None
            row, row_combo = hit
            q = vec[col] // row[col]
            for i in range(col, self.dimension):
                vec[i] -= q * row[i]
            for i in range(self._count):
                combo[i] += q * row_combo[i]
        return combo


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
