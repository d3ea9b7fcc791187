import itertools
import math
import random
from fractions import Fraction

import pytest

from origami_rings.linalg import IntegerLattice, RowSpace


def test_rowspace_detects_dependence():
    # Fractions and plain ints alike
    for one, zero in ((Fraction(1), Fraction(0)), (1, 0)):
        rs = RowSpace(2)
        assert rs.add([one, zero]) is None
        assert rs.add([zero, one]) is None
        combo = rs.add([2 * one, 3 * one])
        assert combo == [Fraction(2), Fraction(3)]
    # mixed denominators: each generator is cleared by its own scale
    rs = RowSpace(2)
    assert rs.add([Fraction(1, 2), Fraction(1, 3)]) is None
    assert rs.add([Fraction(1, 4), 0]) is None
    assert rs.add([Fraction(5, 6), Fraction(2, 9)]) == [Fraction(2, 3), Fraction(2)]


def test_rowspace_combination_reconstructs_vector():
    rng = random.Random(7)
    dim = 5
    rs = RowSpace(dim)
    stored = []
    while len(stored) < 3:
        v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        if rs.add(v) is None:
            stored.append(v)
    # an earlier dependent generator still counts as offered
    dependent = [a - 2 * b for a, b in zip(stored[0], stored[2])]
    assert rs.add(dependent) == [Fraction(1), Fraction(0), Fraction(-2)]
    offered = stored + [dependent]
    # a dependent vector must come back as exactly the claimed mix
    mix = [Fraction(2), Fraction(-1), Fraction(3, 5)]
    target = [
        sum(m * row[j] for m, row in zip(mix, stored))
        for j in range(dim)
    ]
    combo = rs.add(target)
    assert combo is not None and len(combo) == len(offered)
    rebuilt = [
        sum(c * row[j] for c, row in zip(combo, offered))
        for j in range(dim)
    ]
    assert rebuilt == target


def test_rowspace_coordinates():
    rs = RowSpace(3)
    rs.add([Fraction(1), Fraction(1), Fraction(0)])
    rs.add([Fraction(0), Fraction(0), Fraction(1)])
    coords = rs.coordinates([Fraction(3), Fraction(3), Fraction(-2)])
    assert coords == [Fraction(3), Fraction(-2)]
    assert rs.coordinates([Fraction(1), Fraction(0), Fraction(0)]) is None
    # asking leaves the span as it was: same rank, same later answers
    assert rs.rank == 2
    assert rs.coordinates([3, 3, -2]) == coords
    assert rs.coordinates([0, 0, 0]) == [0, 0]
    assert rs.add([Fraction(1, 2), 0, 0]) is None and rs.rank == 3
    assert rs.coordinates([1, 0, 5]) == [0, 5, 2]
    for wrong in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            rs.add(wrong)
        with pytest.raises(ValueError):
            rs.coordinates(wrong)
    assert rs.rank == 3


def test_integer_lattice_membership_identity():
    lat = IntegerLattice(3)
    gens = [[2, 0, 0], [0, 3, 0], [1, 1, 1]]
    for g in gens:
        lat.add(g)
    combo = lat.membership([3, 4, 1])
    assert combo is not None
    rebuilt = [0, 0, 0]
    for c, g in zip(combo, gens):
        for j in range(3):
            rebuilt[j] += c * g[j]
    assert rebuilt == [3, 4, 1]
    # 2Z x 3Z x Z plus the all-ones row cannot reach (1, 0, 0)
    assert lat.membership([1, 0, 0]) is None


def test_integer_lattice_vs_gcd():
    # one dimension: lattice of multiples of gcd
    lat = IntegerLattice(1)
    lat.add([12])
    lat.add([18])
    assert lat.membership([6]) is not None
    assert lat.membership([3]) is None


def test_integer_lattice_random_soundness():
    rng = random.Random(20260814)
    for _ in range(20):
        dim = rng.randint(2, 4)
        gens = [
            [rng.randint(-5, 5) for _ in range(dim)]
            for _ in range(rng.randint(1, 4))
        ]
        lat = IntegerLattice(dim)
        for g in gens:
            lat.add(g)
        coeffs = [rng.randint(-3, 3) for _ in gens]
        target = [
            sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(dim)
        ]
        combo = lat.membership(target)
        assert combo is not None
        rebuilt = [
            sum(c * g[j] for c, g in zip(combo, gens)) for j in range(dim)
        ]
        assert rebuilt == target


def _hermite_invariants(lat, gens):
    dim = lat.dimension
    rows = [(col, row[:dim], row[dim:]) for col, row in sorted(lat._pivots.items())]
    for k, (col, row, combo) in enumerate(rows):
        assert all(c == 0 for c in row[:col])
        assert row[col] > 0
        for _, upper, _ in rows[:k]:
            assert 0 <= upper[col] < row[col]
        rebuilt = [
            sum(c * g[j] for c, g in zip(combo, gens)) for j in range(lat.dimension)
        ]
        assert rebuilt == row


def test_integer_lattice_hermite_invariants():
    rng = random.Random(20261018)
    bound = 2
    for _ in range(30):
        dim = rng.randint(1, 4)
        gens = [
            [rng.randint(-9, 9) for _ in range(dim)]
            for _ in range(rng.randint(1, 5))
        ]
        lat = IntegerLattice(dim)
        for i, g in enumerate(gens):
            rank = lat.rank
            relation = lat.add(g)
            _hermite_invariants(lat, gens[: i + 1])
            # None exactly when the rank grew, else a primitive relation
            assert (relation is None) == (lat.rank == rank + 1)
            if relation is not None:
                assert len(relation) == i + 1 and math.gcd(*relation) == 1
                assert all(
                    sum(c * h[j] for c, h in zip(relation, gens)) == 0
                    for j in range(dim)
                )
        reachable = {
            tuple(sum(m * g[j] for m, g in zip(mix, gens)) for j in range(dim))
            for mix in itertools.product(range(-bound, bound + 1), repeat=len(gens))
        }
        targets = [list(t) for t in rng.sample(sorted(reachable), min(6, len(reachable)))]
        targets += [[rng.randint(-12, 12) for _ in range(dim)] for _ in range(6)]
        for target in targets:
            combo = lat.membership(target)
            if tuple(target) in reachable:
                assert combo is not None
            if combo is None:
                assert tuple(target) not in reachable
            else:
                rebuilt = [
                    sum(c * g[j] for c, g in zip(combo, gens)) for j in range(dim)
                ]
                assert rebuilt == target


def test_integer_lattice_refuses_wrong_lengths_and_stays_as_it_was():
    # a refused add must not count as a generator: every later relation
    # and combination would be misaligned by one
    lat = IntegerLattice(2)
    assert lat.add([1, 0]) is None
    for wrong in ([1], [1, 0, 0]):
        with pytest.raises(ValueError):
            lat.add(wrong)
        with pytest.raises(ValueError):
            lat.membership(wrong)
        assert lat.rank == 1
    assert lat.add([2, 0]) == [-2, 1]
    assert lat.membership([3, 0]) == [3, 0]


def test_integer_lattice_hermite_form_is_canonical():
    # the Hermite normal form depends on the lattice, not on the order
    # in which its generators arrive
    rng = random.Random(77)
    for _ in range(10):
        dim = rng.randint(2, 4)
        gens = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(5)]
        forms = set()
        for _ in range(3):
            rng.shuffle(gens)
            lat = IntegerLattice(dim)
            for g in gens:
                lat.add(g)
            forms.add(tuple(tuple(row[:dim]) for _, row in sorted(lat._pivots.items())))
        assert len(forms) == 1


# Lattice-membership cases, asked of IntegerLattice.membership.


def test_lattice_member_reaches_integer_from_fifths():
    # 24 from 16/25 and 232/25, all scaled by 25; any valid combination counts
    lat = IntegerLattice(1)
    lat.add([16])
    lat.add([232])
    combo = lat.membership([600])
    assert combo is not None and 16 * combo[0] + 232 * combo[1] == 600
    # 1/2 is not an integer multiple of 1: scaled by 2, 1 against 2
    lat = IntegerLattice(1)
    lat.add([2])
    assert lat.membership([1]) is None


def test_lattice_member_zero_vector():
    lat = IntegerLattice(2)
    lat.add([2, 1])
    lat.add([0, 3])
    assert lat.membership([0, 0]) == [0, 0]


def test_lattice_member_matches_brute_force():
    rng = random.Random(4242)
    bound = 4
    for _ in range(25):
        dim = rng.randint(1, 3)
        gens = [
            [rng.randint(-3, 3) for _ in range(dim)]
            for _ in range(rng.randint(1, 3))
        ]
        lat = IntegerLattice(dim)
        for g in gens:
            lat.add(g)
        reachable = set()
        for mix in itertools.product(
            range(-bound, bound + 1), repeat=len(gens)
        ):
            reachable.add(tuple(
                sum(m * g[j] for m, g in zip(mix, gens)) for j in range(dim)
            ))
        for _ in range(8):
            target = [rng.randint(-6, 6) for _ in range(dim)]
            combo = lat.membership(target)
            if combo is not None:
                rebuilt = [
                    sum(c * g[j] for c, g in zip(combo, gens))
                    for j in range(dim)
                ]
                assert rebuilt == target
                if all(abs(c) <= bound for c in combo):
                    assert tuple(target) in reachable
            else:
                assert tuple(target) not in reachable
