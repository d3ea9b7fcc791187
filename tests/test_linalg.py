import itertools
import math
import random
from fractions import Fraction

import numpy as np
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


# The one solve over the Hermite rows, IntegerLattice.coordinates, against
# Fraction elimination, and membership against the former sweep.


def _membership_reference(lat, vector):
    """The left-to-right sweep that membership ran before it went through
    coordinates: subtract each pivot row's multiple, fail at a column
    without a pivot or with a remainder, and read minus the combination
    off the swept tail."""
    dim = lat.dimension
    vec = list(vector) + [0] * lat._count
    for col in range(dim):
        if vec[col] == 0:
            continue
        row = lat._pivots.get(col)
        if row is None or vec[col] % row[col]:
            return None
        q = vec[col] // row[col]
        vec[col:] = [v - q * r for v, r in zip(vec[col:], row[col:])]
    return [-c for c in vec[dim:]]


def _coordinates_reference(basis, vector):
    """Fraction Gauss-Jordan elimination of t * B = vector on the pivot
    columns of the rows B, the first nonzero column of each."""
    cols = [next(j for j, a in enumerate(row) if a) for row in basis]
    # one equation per pivot column c: sum t_k * B[k][c] = vector[c]
    system = [[Fraction(row[c]) for row in basis] + [Fraction(vector[c])] for c in cols]
    size = len(cols)
    for k in range(size):
        p = next(i for i in range(k, size) if system[i][k])
        system[k], system[p] = system[p], system[k]
        system[k] = [a / system[k][k] for a in system[k]]
        for i in range(size):
            if i != k and system[i][k]:
                f = system[i][k]
                system[i] = [a - f * b for a, b in zip(system[i], system[k])]
    return [eq[-1] for eq in system]


def _random_lattice(rng, dim, count, scales=None):
    gens = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(count)]
    lat = IntegerLattice(dim)
    for g, s in zip(gens, scales or [1] * count):
        lat.add([s * a for a in g])
    return lat, gens


def test_coordinates_match_fraction_elimination():
    rng = random.Random(20261020)
    kinds = {"lattice": 0, "span only": 0, "outside": 0}
    for _ in range(60):
        dim = rng.randint(1, 5)
        count = rng.randint(0, dim + 1)  # fewer than dim generators: rank-deficient
        scales = [rng.choice([1, 2, 3, 6]) for _ in range(count)]
        lat, gens = _random_lattice(rng, dim, count, scales)
        basis = lat.basis()
        assert len(basis) == lat.rank
        mix = [rng.randint(-4, 4) for _ in gens]
        # a combination of the unscaled generators lies in the rational span
        in_span = [sum(c * g[j] for c, g in zip(mix, gens)) for j in range(dim)]
        member = [sum(c * s * g[j] for c, s, g in zip(mix, scales, gens)) for j in range(dim)]
        anywhere = [rng.randint(-9, 9) for _ in range(dim)]
        for vector in (member, in_span, anywhere):
            t, den = lat.coordinates(vector)
            assert den > 0 and math.gcd(den, *t) == 1
            expected = _coordinates_reference(basis, vector)
            assert [Fraction(a, den) for a in t] == expected
            rebuilt = [sum(c * row[j] for c, row in zip(expected, basis)) for j in range(dim)]
            combo = lat.membership(vector)
            if rebuilt != vector:
                kinds["outside"] += 1
                assert combo is None
            elif den == 1:
                kinds["lattice"] += 1
                assert combo is not None
            else:
                kinds["span only"] += 1
                assert combo is None
        assert lat.coordinates(member)[1] == 1
    assert all(kinds.values()), kinds


def test_membership_matches_the_former_sweep():
    rng = random.Random(31)
    hits = misses = 0
    for _ in range(80):
        dim = rng.randint(1, 5)
        lat, gens = _random_lattice(rng, dim, rng.randint(0, 6),
                                    [rng.choice([1, 1, 2, 5]) for _ in range(6)])
        targets = [[rng.randint(-12, 12) for _ in range(dim)] for _ in range(4)]
        mix = [rng.randint(-3, 3) for _ in gens]
        targets.append([sum(c * g[j] for c, g in zip(mix, gens)) for j in range(dim)])
        for target in targets:
            combo = lat.membership(target)
            assert combo == _membership_reference(lat, target)
            hits += combo is not None
            misses += combo is None
    assert hits and misses


def test_reduce_combinations_keeps_the_rows():
    # 6, 10 and 15 leave the row 1 = -14*6 + 7*10 + 15 and close the
    # relations (-5, 3, 0) and (-30, 15, 2); dividing by them from the last
    # leaves each entry at a relation's last nonzero place in [0, lead)
    # and the row the same combination of the generators
    gens = [[6], [10], [15]]
    lat = IntegerLattice(1)
    relations = [lat.add(g) for g in gens]
    assert relations == [None, [-5, 3], [-30, 15, 2]]
    assert lat.combination([1]) == [-14, 7, 1]
    lat.reduce_combinations([[-5, 3, 0], [-30, 15, 2]])
    assert lat.basis() == [[1]]
    assert lat.combination([1]) == [-4, 1, 1]
    assert lat.membership([7]) == [-28, 7, 7] == _membership_reference(lat, [7])


def _reduce_combinations_reference(combos, relations):
    """The former loop: each relation, last first, subtracted over the
    whole length of every combination."""
    out = []
    for c in combos:
        c = list(c)
        for relation in reversed(relations):
            i = max(k for k, a in enumerate(relation) if a)
            if q := c[i] // relation[i]:
                c = [a - q * r for a, r in zip(c, relation)]
        out.append(c)
    return out


def test_reduce_combinations_matches_the_dense_loop():
    # relations in echelon order, zero outside a span [lo, lead] that may
    # start anywhere at or before the lead
    rng = random.Random(17)
    moved = 0
    for _ in range(60):
        dim, count = rng.randint(1, 4), rng.randint(2, 12)
        lat, _ = _random_lattice(rng, dim, count)
        leads = sorted(rng.sample(range(count), rng.randint(1, count)))
        relations = []
        for lead in leads:
            lo = rng.randint(0, lead)
            relation = [0] * count
            for k in range(lo, lead + 1):
                relation[k] = rng.randint(-9, 9)
            relation[lo] = relation[lo] or 1
            relation[lead] = rng.choice([-1, 1]) * rng.randint(1, 9)
            relations.append(relation)
        units = [[int(i == k) for i in range(lat.rank)] for k in range(lat.rank)]
        combos = [lat.combination(t) for t in units]
        basis = lat.basis()
        lat.reduce_combinations(relations)
        expected = _reduce_combinations_reference(combos, relations)
        assert [lat.combination(t) for t in units] == expected
        assert lat.basis() == basis
        moved += expected != combos
    assert moved


def test_integer_lattice_refuses_entries_that_are_not_integers():
    # int() once truncated them: 3/2 and 1.7 were members of Z as 1, and
    # [2.9, 1] was stored as [2, 1]
    lat = IntegerLattice(1)
    assert lat.add([1]) is None
    for bad in ([Fraction(3, 2)], [1.7], [Fraction(2)], [2.0], ["1"]):
        for ask in (lat.add, lat.membership, lat.coordinates):
            with pytest.raises(ValueError):
                ask(bad)
    assert lat.rank == 1 and lat.add([2]) == [-2, 1]
    wide = IntegerLattice(2)
    with pytest.raises(ValueError):
        wide.add([2.9, 1])
    assert wide.rank == 0 and wide.basis() == []
    # Python and numpy integers, bools among them, still pass
    assert lat.membership([np.int64(3)]) == [3, 0]
    assert lat.membership([True]) == [1, 0]
    assert wide.add(np.array([2, 1])) is None and wide.basis() == [[2, 1]]


def test_rowspace_refuses_entries_that_are_not_rational():
    for bad in ([0.5], ["1"], [None]):
        rs = RowSpace(1)
        for ask in (rs.add, rs.coordinates):
            with pytest.raises(ValueError):
                ask(bad)
        assert rs.rank == 0 and rs.add([Fraction(1, 2)]) is None
    rs = RowSpace(2)
    assert rs.add(np.array([1, 2])) is None
    assert rs.coordinates([Fraction(1, 2), np.int64(1)]) == [Fraction(1, 2)]
