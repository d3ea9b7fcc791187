import functools
import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import _zeta_power_rows_reference
from origami_rings.angles import Angle
from origami_rings.construction import generate
from origami_rings.expressions import parse_expression
from origami_rings import cyclotomic, ring_analysis
from origami_rings.cyclotomic import (
    CyclotomicReal,
    cos_of,
    euler_phi,
    evaluate,
    minimal_polynomial,
    rewrite_in_conductor,
    sqrt_rational,
    units,
)
from origami_rings.geometry import ZeroSlopeError
from origami_rings.linalg import IntegerLattice, RowSpace
from origami_rings.polynomials import RationalPolynomial
from origami_rings.ring_analysis import (
    DEFAULT_MAX_NUM_DEG,
    MembershipKind,
    MembershipWitness,
    RingStatus,
    SearchBounds,
    SetKind,
    _Candidates,
    _Chain,
    _MonomialLattice,
    _PackedMatrix,
    _deltas,
    _fixing_group,
    _generators_mod_sign,
    _graded_exponents,
    _images,
    _monomial_lattice,
    _numerator_generators,
    _round_half_even,
    classify,
    delta_set,
    extension_check,
    integral_relation,
    membership_in_MR,
    p_value,
    product_e,
    ratio_elements,
    ring_check,
    trace_element,
)
from origami_rings.slopes import SlopeSet


def test_p_value_frame_normalization(pentagon):
    assert p_value(pentagon, pentagon.alpha).is_zero
    assert p_value(pentagon, pentagon.beta) == 1
    with pytest.raises(ZeroSlopeError):
        p_value(pentagon, Angle.zero())
    with pytest.raises(ValueError, match="is not a member"):
        p_value(pentagon, Angle(1, 6))


def test_free_p_value_decimal(pentagon):
    p = p_value(pentagon, Angle(1, 5))
    assert p.decimal(12) == "1.890529185360"
    assert p.conductor == 120


def test_free_p_value_minimal_polynomial(pentagon):
    # degree 8 over Q, monic with the 1/25 tail
    p = p_value(pentagon, Angle(1, 5))
    mu = minimal_polynomial(p)
    assert mu == RationalPolynomial(
        [
            Fraction(16, 25),
            Fraction(-16, 5),
            -8,
            16,
            Fraction(104, 5),
            -20,
            -8,
            4,
            1,
        ]
    )
    assert mu(p).is_zero


def test_witness_text_and_value_with_coefficients_above_199_bits(pentagon):
    # a coefficient of more than 199 bits is written by its magnitude; a
    # denominator factor of exponent 1 keeps its parentheses and no power
    p = p_value(pentagon, Angle(1, 5))
    witness = MembershipWitness(
        generator_names=("p",),
        generator_values=(p,),
        numerator_terms=((2**200, (1,)), (-(2**199), ()), (2**198, (2,))),
        denominator_factors=(("p-1", p - 1, 1), ("p", p, 2)),
    )
    assert str(witness) == f"({2**198}*p^2 + ~10^60*p - ~10^60) / ((p-1) * p^2)"
    expected = (2**198 * p * p + 2**200 * p - 2**199) / ((p - 1) * p**2)
    assert witness.evaluate() == expected
    assert MembershipWitness((), (), (), ()).evaluate() == 0


def test_delta_three_slopes(triangle):
    d = list(delta_set(triangle))
    assert len(d) == 2
    assert {v.as_rational() for v in d} == {1, -1}


def test_delta_four_slopes(pentagon):
    d = list(delta_set(pentagon))
    p = p_value(pentagon, Angle(1, 5))
    assert len(d) == 6
    expected = [p, p - 1, CyclotomicReal.from_rational(1)]
    expected += [-v for v in expected]
    for v in d:
        assert any(v == w for w in expected)
    # sorted ascending by exact sign comparisons
    decimals = [float(v.decimal(8)) for v in d]
    assert decimals == sorted(decimals)


def test_delta_set_membership_compares_exact_values(pentagon):
    differences = delta_set(pentagon)
    p = p_value(pentagon, Angle(1, 5))
    assert p - 1 in differences and 1 - p in differences
    assert -1 in differences and Fraction(1) in differences
    assert p + 1 not in differences and 2 not in differences and 0 not in differences


def test_ratio_elements_worked_example(pentagon):
    qa, qb = ratio_elements(pentagon)
    s3 = sqrt_rational(3)
    assert qa == 6 + 3 * s3
    assert qb == 4 + 2 * s3


def test_trace_identity_links_criteria(pentagon):
    qa, qb = ratio_elements(pentagon)
    t = trace_element(pentagon)
    assert qa == 1 + t + qb


def test_norm_links_criteria(pentagon):
    # |e|^2 equals the beta ratio, and the negated constant coefficient
    # of the monic quadratic for e
    x, y = pentagon.frame.unit_parts()
    n = ratio_elements(pentagon)[1]
    assert n == x * x + y * y
    _, qb = ratio_elements(pentagon)
    assert n == qb
    r, _ = integral_relation(pentagon)
    assert n == -r


def test_integral_relation_describes_e_squared(pentagon):
    # e^2 = s*e + r as complex numbers
    r, s = integral_relation(pentagon)
    x, y = pentagon.frame.unit_parts()
    e_sq_re = x * x - y * y
    e_sq_im = 2 * x * y
    assert e_sq_re == s * x + r
    assert e_sq_im == s * y


def test_product_e_coordinates(pentagon):
    # coordinates of e*(1-e) are (q_b, q_a)
    prod = product_e(pentagon)
    qa, qb = ratio_elements(pentagon)
    assert prod.r == qb
    assert prod.s == qa


def test_membership_integer_case(triangle):
    v = membership_in_MR(CyclotomicReal.from_rational(5), triangle)
    assert v.kind is MembershipKind.PROVEN_IN
    v = membership_in_MR(CyclotomicReal.from_rational(Fraction(1, 2)), triangle)
    assert v.kind is MembershipKind.PROVEN_NOT_IN
    v = membership_in_MR(sqrt_rational(2), triangle)
    assert v.kind is MembershipKind.PROVEN_NOT_IN


def test_membership_field_obstruction(pentagon):
    # sqrt(7) is not in Q(p), the field generated by the free value
    v = membership_in_MR(sqrt_rational(7), pentagon)
    assert v.kind is MembershipKind.PROVEN_NOT_IN


def test_membership_sqrt3_witness(pentagon):
    v = membership_in_MR(sqrt_rational(3), pentagon)
    assert v.kind is MembershipKind.PROVEN_IN
    w = v.witness
    assert w is not None
    assert w.denominator_exponents == {"p": 5, "p-1": 4}
    assert w.evaluate() == sqrt_rational(3)
    # integer numerator in powers of p, degree 13, small coefficients
    degrees = {exps[0] for _, exps in w.numerator_terms}
    assert max(degrees) == 13
    assert all(abs(c) <= 166 for c, _ in w.numerator_terms)


def test_membership_unknown_when_bounds_too_small(pentagon):
    tight = SearchBounds(max_den_exp=1, max_num_deg=3, max_candidates=20)
    v = membership_in_MR(sqrt_rational(3), pentagon, bounds=tight)
    assert v.kind is MembershipKind.UNKNOWN
    assert v.bounds == tight


def test_ring_check_triangle(triangle):
    report = ring_check(triangle)
    assert report.status is RingStatus.RING
    for c in report.criteria:
        assert c.status is RingStatus.RING
        assert report.criterion(c.name) is c
    with pytest.raises(KeyError):
        report.criterion("nope")
    qa, qb = ratio_elements(triangle)
    assert qa == 1 and qb == 1


def test_ring_check_three_slopes_not_ring():
    u = SlopeSet(["0", "pi/4", "pi/3"])
    report = ring_check(u)
    assert report.status is RingStatus.NOT_RING


def test_ring_check_superset_fast_path():
    u = SlopeSet(["0", "pi/7", "pi/3", "pi/2", "2pi/3"],
                 alpha="2pi/3", beta="pi/3")
    report = ring_check(u)
    assert report.status is RingStatus.RING
    qa, qb = ratio_elements(u)
    assert qa == 1 and qb == 1


def test_ring_check_dense_not_ring():
    u = SlopeSet(["0", "pi/5", "pi/7"])
    report = ring_check(u)
    assert report.status is RingStatus.NOT_RING


def test_criteria_agree_when_decided(pentagon):
    report = ring_check(pentagon, bounds=SearchBounds(max_den_exp=2, max_num_deg=8))
    decided = {
        c.status for c in report.criteria if c.status is not RingStatus.UNKNOWN
    }
    assert len(decided) <= 1


def test_classify(triangle, pentagon):
    c = classify(triangle)
    assert c.kind is SetKind.DISCRETE
    assert classify(pentagon).kind is SetKind.DENSE
    u = SlopeSet(["0", "pi/6", "pi/2"])
    assert classify(u).kind is SetKind.DISCRETE


def test_extension_preserves_ring(triangle):
    report = extension_check(triangle, ["pi/4"])
    assert report.status is not RingStatus.NOT_RING
    # frame inherited from the base set keeps the corollary ratios at 1
    ext = triangle.union(["pi/4"])
    qa, qb = ratio_elements(ext)
    assert qa == 1 and qb == 1


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_den_exp=-1)
    with pytest.raises(ValueError):
        SearchBounds(max_num_deg=0)
    with pytest.raises(ValueError, match="max_candidates"):
        SearchBounds(max_candidates=0)


def _tracked_combinations(lattice):
    """Each Hermite row's tracked combination, in pivot order."""
    rank = lattice.rank
    return [lattice.combination([int(j == k) for j in range(rank)]) for k in range(rank)]


def test_pentagon_lattice_stays_small(pentagon):
    # Hermite reduction keeps rows at 12 bits here, and dividing the
    # combinations by mu(p) keeps them at 63 bits (2,694 without);
    # unreduced they grow past 100,000
    lattice = _monomial_lattice(pentagon, DEFAULT_MAX_NUM_DEG).lattice
    rows = list(zip(lattice.basis(), _tracked_combinations(lattice)))
    assert max(abs(c).bit_length() for row, _ in rows for c in row) <= 64
    assert max(abs(c).bit_length() for _, combo in rows for c in combo) <= 4096


def _two_cos(d: int, c: int) -> CyclotomicReal:
    """2*cos(2*pi/d) written on the power basis of Q(zeta_c), d | c."""
    rows = _zeta_power_rows_reference(d)
    coeffs = [a + b for a, b in zip(rows[1 % d], rows[(d - 1) % d])]
    return CyclotomicReal.from_coeffs(d, coeffs).to_conductor(c)


def _rewrite_through_compositum(xs, n):
    """The reference route: solve inside Q(zeta_lcm) for each x."""
    big = math.lcm(xs[0].conductor, n)
    span = RowSpace(euler_phi(big))
    for j in range(euler_phi(n)):
        basis_vec = [0] * euler_phi(n)
        basis_vec[j] = 1
        span.add(CyclotomicReal._make(n, basis_vec, 1).to_conductor(big).coefficients())
    out = []
    for x in xs:
        coords = span.coordinates(x.to_conductor(big).coefficients())
        out.append(None if coords is None else CyclotomicReal.from_coeffs(n, coords))
    return out


def test_rewrite_in_conductor_matches_compositum_route():
    # conductor pairs up to 60 whose compositum stays small enough for
    # the reference solve; n a multiple of c takes the promotion path
    inside = outside = 0
    for c in range(1, 61):
        for n in range(1, 61):
            if n % c == 0 or math.lcm(c, n) > 120:
                continue
            g, big = math.gcd(c, n), math.lcm(c, n)
            xs = [_two_cos(c, c), _two_cos(g, c)]
            for x, expected in zip(xs, _rewrite_through_compositum(xs, n)):
                got = rewrite_in_conductor(x, n)
                if expected is None:
                    assert got is None
                    # without linalg: some sigma_a, a = 1 mod g, moves x
                    assert any(not x.is_fixed_by(a) for a in units(c) if a % g == 1 % g)
                    outside += 1
                else:
                    assert got.conductor == n
                    assert (got._num, got._den) == (expected._num, expected._den)
                    assert got.to_conductor(big) == x.to_conductor(big)
                    inside += 1
    assert inside and outside


def test_outside_query_builds_no_compositum_table(pentagon, monkeypatch):
    # sqrt(19) has conductor 76 and the pentagon works at 120: the
    # compositum table at their lcm 2280 would hold over 10 MB
    x = sqrt_rational(19)
    big = math.lcm(x.conductor, pentagon.working_conductor)
    reduced = []
    original = cyclotomic._reduce_product

    def recording(raw, n):
        reduced.append(n)
        return original(raw, n)

    # every promotion and every product reduces modulo Phi_n at its conductor
    monkeypatch.setattr(cyclotomic, "_reduce_product", recording)
    v = membership_in_MR(x, pentagon)
    assert v.kind is MembershipKind.PROVEN_NOT_IN
    assert big == 2280 and reduced and big not in reduced


TIGHT_BOUNDS = SearchBounds(max_den_exp=0, max_num_deg=1, max_candidates=1)


def test_default_bounds_decide_the_pinned_frame_by_criterion_integral():
    # in the frame (2pi/3, pi/3) both ratios are 1, so the set is a ring; in
    # the pinned frame (pi/5, pi/3) the search finds criterion integral's
    # witnesses under default bounds
    u = SlopeSet(["0", "pi/5", "pi/3", "2pi/3"], alpha="pi/5", beta="pi/3")
    report = ring_check(u)
    assert report.status is RingStatus.RING
    assert report.decided_by == "criterion integral"
    assert report.frame_scan == ()
    for (_, value), verdict in zip(report.criteria[0].elements, report.criteria[0].verdicts):
        assert verdict.witness.evaluate() == value


def test_frame_scan_pentagon_stays_unknown(pentagon):
    report = ring_check(pentagon, bounds=TIGHT_BOUNDS)
    assert report.status is RingStatus.UNKNOWN
    assert report.frame_scan == ()


def _in_field(u: SlopeSet, x: CyclotomicReal) -> bool:
    x_n = rewrite_in_conductor(x, u.working_conductor)
    return x_n is not None and all(x_n.is_fixed_by(a) for a in _fixing_group(u, _images(u)))


def test_frame_ratios_share_the_field_of_the_default_ratios():
    # every frame generates the same field Q(p), so once the default
    # ratios lie in it the ratios of every other frame do too
    rng = random.Random(2026)
    pool = [Angle(k, n) for n in (2, 3, 4, 5, 6, 8, 10, 12)
            for k in range(1, n) if math.gcd(k, n) == 1]
    checked = 0
    while checked < 10:
        u = SlopeSet([Angle.zero()] + rng.sample(pool, 3))
        if not all(_in_field(u, q) for q in ratio_elements(u)):
            continue
        checked += 1
        for a, b in itertools.permutations(u.nonzero_slopes, 2):
            for q in ratio_elements(SlopeSet(u.slopes, alpha=a, beta=b)):
                assert _in_field(u, q), (str(u), str(a), str(b))


def _field_basis_reference(u: SlopeSet) -> RowSpace:
    """The reference route: grow monomials in the p's breadth first
    until their rational span stops growing, which spans Q(p)."""
    n = u.working_conductor
    gens = [v for _, v in _numerator_generators(u)]
    span = RowSpace(euler_phi(n))
    frontier = [CyclotomicReal.from_rational(1, n)]
    span.add(frontier[0].coefficients())
    while frontier:
        next_frontier = []
        for element in frontier:
            for g in gens:
                candidate = element * g
                if span.add(candidate.coefficients()) is None:
                    next_frontier.append(candidate)
        frontier = next_frontier
    return span


def test_fixing_group_matches_breadth_first_field_basis():
    # deg Q(p) = phi(n)/|H|, and x lies in Q(p) exactly when H fixes it
    rng = random.Random(7)
    pool = [Angle(k, n) for n in (2, 3, 4, 5, 6, 8, 10, 12)
            for k in range(1, n) if math.gcd(k, n) == 1]
    extras = [sqrt_rational(2), sqrt_rational(3), sqrt_rational(5)]
    # |H| is 4 on most sets and 8 on this one
    sets = [SlopeSet(["0", "pi/5", "pi/2", "4pi/5"])]
    while len(sets) < 12:
        u = SlopeSet([Angle.zero()] + rng.sample(pool, rng.choice([3, 4])))
        if euler_phi(u.working_conductor) <= 96:
            sets.append(u)
    inside = outside = 0
    for u in sets:
        n = u.working_conductor
        basis = _field_basis_reference(u)
        assert euler_phi(n) // len(_fixing_group(u, _images(u))) == basis.rank, str(u)
        values = list(integral_relation(u)) + extras
        values += [cos_of(g) for g in u.nonzero_slopes]
        for a, b in itertools.permutations(u.nonzero_slopes, 2):
            values += ratio_elements(SlopeSet(u.slopes, alpha=a, beta=b))
        for x in values:
            x_n = rewrite_in_conductor(x, n)
            if x_n is None:
                continue
            expected = basis.coordinates(x_n.coefficients()) is not None
            assert _in_field(u, x) == expected, (str(u), repr(x))
            inside += expected
            outside += not expected
    assert inside and outside


def test_conductor_1980_set_builds_no_rowspace_of_full_degree(monkeypatch):
    # deg Q(p) is 120 against phi = 480; the breadth-first field basis
    # and the minimal polynomial of p both ran Fraction elimination in
    # dimension 480 here for minutes
    original = RowSpace.__init__

    def guarded(self, dimension):
        if dimension == 480:
            raise AssertionError("RowSpace of dimension 480")
        original(self, dimension)

    monkeypatch.setattr(RowSpace, "__init__", guarded)
    u = SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])
    assert euler_phi(u.working_conductor) == 480
    assert len(_fixing_group(u, _images(u))) == 4
    for q in ratio_elements(u):
        assert membership_in_MR(q, u, TIGHT_BOUNDS).is_unknown
    v = membership_in_MR(cos_of(Angle(1, 990)), u, TIGHT_BOUNDS)
    assert v.is_proven_not_in
    assert v.reason == "outside the field generated by the projection constants"


def test_minimal_polynomial_matches_the_galois_degree(pentagon):
    # with one free constant, deg mu(p) = [Q(p):Q] = phi(n)/|H|; mu(p) = 0
    # is checked by Horner in CyclotomicReal, with no linear algebra
    sets = [pentagon] + [u for u in _seeded_sets(41, (4,), 12) if len(u.free_slopes) == 1]
    assert len(sets) >= 6
    for u in sets:
        (free,) = u.free_slopes
        p = u.p_table[free]
        coefficients = minimal_polynomial(p).coefficients
        assert coefficients[-1] == 1, str(u)
        value = CyclotomicReal.from_rational(0)
        for c in reversed(coefficients):
            value = value * p + c
        assert value.is_zero, str(u)
        degree = euler_phi(u.working_conductor) // len(_fixing_group(u, _images(u)))
        assert len(coefficients) - 1 == degree, str(u)


def _primitive_minimal_polynomial(x: CyclotomicReal) -> list[int]:
    coefficients = minimal_polynomial(x).coefficients
    den = math.lcm(*(c.denominator for c in coefficients))
    ints = [int(c * den) for c in coefficients]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _one_free_constant_sets(pentagon) -> list[SlopeSet]:
    """The pentagon and four seeded 4-slope sets with one free constant."""
    rng = random.Random(11)
    pool = [Angle(k, n) for n in (2, 3, 4, 5, 6, 8, 10, 12)
            for k in range(1, n) if math.gcd(k, n) == 1]
    sets = [pentagon]
    while len(sets) < 5:
        u = SlopeSet([Angle.zero()] + rng.sample(pool, 3))
        if len(u.free_slopes) == 1:
            sets.append(u)
    return sets


def test_first_kernel_row_is_the_primitive_minimal_polynomial(pentagon):
    # the relation IntegerLattice.add closes first is +-mu(p) cleared to
    # content 1; its shifts are the Babai rows
    for u in _one_free_constant_sets(pentagon):
        lattice = _monomial_lattice(u, DEFAULT_MAX_NUM_DEG)
        relation = _primitive_minimal_polynomial(lattice.values[0])
        width = len(relation)
        shifts = lattice._exact[2]
        assert len(shifts) == len(lattice.exponents) - width + 1, str(u)
        for j, row in enumerate(shifts):
            assert not any(row[:j]) and not any(row[j + width:])
            assert row[j:j + width] in (relation, [-c for c in relation]), str(u)


@functools.lru_cache(maxsize=None)
def _dense_kernel(lattice):
    """The former Babai rows of a lattice: (row, w, <row, w>) for each
    shift of mu(p), w a primitive integer multiple of its Gram-Schmidt
    vector, reached by a dense fraction-free sweep over all pairs of
    shifts (Cohen, GTM 138, section 2.6)."""
    kernel = []
    for row in lattice._exact[2]:
        w = row
        for b, v, bv in reversed(kernel):
            a = sum(map(operator.mul, w, v))
            if a:
                w = [bv * x - a * y for x, y in zip(w, b)]
                g = math.gcd(*w)
                w = [x // g for x in w]
        kernel.append((row, w, sum(map(operator.mul, row, w))))
    return kernel


def _size_reduce_reference(rows, combo):
    """The reference route: Fraction Gram-Schmidt, then Babai rounding."""
    star = []
    for row in rows:
        w = [Fraction(c) for c in row]
        for sv, ns in star:
            coef = sum(a * b for a, b in zip(w, sv)) / ns
            if coef:
                w = [a - coef * b for a, b in zip(w, sv)]
        star.append((w, sum(a * a for a in w)))
    c = list(combo)
    for (sv, ns), row in reversed(list(zip(star, rows))):
        q = round(sum(a * b for a, b in zip(c, sv)) / ns)
        if q:
            c = [a - q * b for a, b in zip(c, row)]
    return c


def _size_reduce_combos(lattice, pentagon) -> list[list[int]]:
    """Hit combinations of the pentagon lattice, then seeded random ones."""
    p = lattice.values[0]
    x = rewrite_in_conductor(sqrt_rational(3), pentagon.working_conductor)
    values = [x * p**5 * (p - 1) ** 4] + [p**k for k in range(0, 33, 4)]
    combos = []
    for y in values:
        scale = lattice.common_den // y._den
        combos.append(lattice.lattice.membership([c * scale for c in y._num]))
    rng = random.Random(3)
    for bits in (4, 40, 400):
        combos += [
            [rng.randint(-2**bits, 2**bits) for _ in lattice.exponents]
            for _ in range(5)
        ]
    return combos


def _size_reduce(kernel, combo):
    """The combination route: Babai's nearest plane against the kernel rows
    (row, w, <row, w>), last row first, each quotient from <c, w> over the
    whole current combination c.  Returns c reduced and the quotients."""
    c, quotients = list(combo), [0] * len(kernel)
    for j, (row, w, bw) in reversed(list(enumerate(kernel))):
        quotients[j] = q = _round_half_even(sum(map(operator.mul, c, w)), bw)
        c = [a - q * b for a, b in zip(c, row)]
    return c, quotients


def test_integer_size_reduction_matches_fraction_gram_schmidt(pentagon):
    # the integer Gram-Schmidt rows w of the kernel round as the Fraction
    # ones do
    lattice = _monomial_lattice(pentagon, DEFAULT_MAX_NUM_DEG)
    kernel = _dense_kernel(lattice)
    rows = [row for row, _, _ in kernel]
    moved = 0
    for combo in _size_reduce_combos(lattice, pentagon):
        reduced, _ = _size_reduce(kernel, combo)
        assert reduced == _size_reduce_reference(rows, combo)
        moved += reduced != combo
    assert moved


def _babai_matches_the_combination_route(lattice, t, terms) -> bool:
    """Whether the quotients from the tables, and the witness terms made
    from them, are the combination route's on the tracked combination of t."""
    reduced, quotients = _size_reduce(_dense_kernel(lattice), lattice.lattice.combination(t))
    expected = [(c, e) for c, e in zip(reduced, lattice.exponents) if c]
    return lattice._quotients(t) == quotients and terms == expected


def test_babai_from_pivot_coordinates_matches_the_combination_route(pentagon):
    lattice = _monomial_lattice(pentagon, DEFAULT_MAX_NUM_DEG)
    rng = random.Random(7)
    for bits in (1, 8, 64, 400):
        for _ in range(10):
            t = [rng.randint(-2**bits, 2**bits) for _ in range(lattice.lattice.rank)]
            terms = lattice.combination(t)
            assert _babai_matches_the_combination_route(lattice, t, terms), (bits, t)


def test_babai_from_pivot_coordinates_on_member_warm_hits(pentagon, monkeypatch):
    # every hit of 400 queries drawn as the benchmark's member-warm draws
    # them: level-2 coordinates, radicals, rationals and values outside
    combination, hits = _MonomialLattice.combination, []

    def checked(self, t):
        terms = combination(self, t)
        hits.append(_babai_matches_the_combination_route(self, t, terms))
        return terms

    monkeypatch.setattr(_MonomialLattice, "combination", checked)
    coordinates = {}
    for point in generate(pentagon, 2)[2]:
        for value in (point.r, point.s):
            if not value.is_integer:
                coordinates.setdefault((value._num, value._den), value)
    radicals = [f"sqrt({q})" for q in (3, 5, 15)] + [
        f"{fn}({k}pi/{n})" for n in (3, 5, 6, 10, 15, 30)
        for k in range(1, n) if math.gcd(k, 2 * n) == 1 for fn in ("cos", "sin")]
    rationals = [f"{a}/{b}" for a, b in ((1, 2), (3, 5), (7, 3), (1, 15), (5, 6), (2, 3))]
    outside = [f"sqrt({q})" for q in (2, 7, 11)] + ["cos(pi/8)", "sin(pi/12)", "cos(pi/20)"]
    rng = random.Random(401)
    kinds = []
    for i in range(400):
        if i % 4 == 0:
            x = rng.choice(list(coordinates.values()))
        else:
            x = parse_expression(rng.choice((radicals, rationals, outside)[i % 4 - 1]))
        kinds.append(membership_in_MR(x, pentagon).kind)
    assert kinds.count(MembershipKind.PROVEN_IN) == len(hits) == 300 and all(hits)


def test_pivot_combinations_reproduce_their_rows_and_stay_small(pentagon):
    # each Hermite row is its tracked combination of the scaled monomials;
    # reducing the combinations by the kernel rows keeps them at most 128
    # bits (2,694 on the pentagon before)
    for u in _one_free_constant_sets(pentagon):
        lattice = _monomial_lattice(u, DEFAULT_MAX_NUM_DEG)
        (p,) = lattice.values
        scaled = []
        for (e,) in lattice.exponents:
            y = p**e
            scaled.append([c * (lattice.common_den // y._den) for c in y._num])
        hermite = lattice.lattice
        for row, combo in zip(hermite.basis(), _tracked_combinations(hermite)):
            total = [sum(c * v[k] for c, v in zip(combo, scaled)) for k in range(len(row))]
            assert total == row, str(u)
            assert max(abs(c).bit_length() for c in combo) <= 128, str(u)


def _has_tie(kernel, combo) -> bool:
    """Whether a nearest-plane step of combo rounds an exact half,
    2 * <c, w> = odd * b."""
    c = list(combo)
    for row, w, bw in reversed(kernel):
        a = sum(x * y for x, y in zip(c, w))
        if 2 * a % bw == 0 and 2 * a // bw % 2:
            return True
        q = _round_half_even(a, bw)
        c = [x - q * y for x, y in zip(c, row)]
    return False


def test_size_reduction_depends_only_on_the_kernel_coset(pentagon):
    # moving a combination by an integer combination of kernel rows moves
    # each nearest-plane quotient by an integer, so the output is the same
    lattice = _monomial_lattice(pentagon, DEFAULT_MAX_NUM_DEG)
    kernel = _dense_kernel(lattice)
    rng = random.Random(5)
    checked = 0
    for combo in _size_reduce_combos(lattice, pentagon):
        if _has_tie(kernel, combo):
            continue
        for bits in (1, 30, 3000):
            moved = list(combo)
            for row, _, _ in kernel:
                k = rng.randint(-2**bits, 2**bits)
                moved = [a + k * b for a, b in zip(moved, row)]
            assert _size_reduce(kernel, moved)[0] == _size_reduce(kernel, combo)[0]
            checked += 1
    assert checked >= 60


def test_banded_babai_tables_match_the_dense_kernel(pentagon):
    # each column of the banded tables is a positive multiple of the dense
    # route's <., w_j>, so every quotient is the dense one, exact halves
    # included; and each column, with its band and norm, is primitive
    ties = 0
    for u in _one_free_constant_sets(pentagon) + [SlopeSet(["0", "pi/5", "2pi/5", "pi/2"])]:
        lattice = _monomial_lattice(u, DEFAULT_MAX_NUM_DEG)
        kernel = _dense_kernel(lattice)
        columns, norms, mu = lattice._babai
        rank = lattice.lattice.rank
        tails = [lattice.lattice.combination([int(i == k) for i in range(rank)]) for k in range(rank)]
        assert len(norms) == len(columns) == len(kernel) > 0, str(u)
        for j, (_, w, bw) in enumerate(kernel):
            assert norms[j] > 0 and math.gcd(norms[j], *columns[j]) == 1, str(u)
            for k, tail in enumerate(tails):
                assert columns[j][k] * bw == sum(map(operator.mul, tail, w)) * norms[j], (str(u), k, j)
            rows = [row for row, _, _ in kernel[j + 1 : j + len(mu)]]
            assert len(columns[j]) == rank + len(rows), (str(u), j)
            for band, row in zip(columns[j][rank:], rows):
                assert -band * bw == sum(map(operator.mul, row, w)) * norms[j], (str(u), j)
        rng = random.Random(13)
        points = [[rng.randint(-2**bits, 2**bits) for _ in range(lattice.lattice.rank)]
                  for bits in (1, 8, 64, 400) for _ in range(10)]
        # and the pivot coordinates of the monomials p^e themselves
        (p,) = lattice.values
        for (e,) in lattice.exponents:
            y = p**e
            t, den = lattice.lattice.coordinates([c * (lattice.common_den // y._den) for c in y._num])
            assert den == 1, str(u)
            points.append(t)
        for t in points:
            combo = lattice.lattice.combination(t)
            ties += _has_tie(kernel, combo)
            assert lattice._quotients(t) == _size_reduce(kernel, combo)[1], (str(u), t)
    assert ties


# (verdict, numerator terms, denominator exponents) of each query below,
# digested at the commit before the pivot combinations were reduced
PENTAGON_MEMBER_QUERIES = (
    ["sqrt(3)", "sqrt(5)", "sqrt(15)"]
    + [f"{fn}({k}pi/{n})" for n, ks in ((3, (1,)), (5, (1, 3)), (6, (1, 5)), (10, (1, 7)),
                                        (15, (1, 13)), (30, (1, 29)))
       for k in ks for fn in ("cos", "sin")]
    + ["1/2", "2/5", "7/3", "1/15", "5/6"]
)
PENTAGON_MEMBER_DIGEST = "7cf690cdae54810ccf744a13a9a19553f722cef2116029d6fbc7370b18ac2a32"


def test_pentagon_member_witnesses_are_pinned(pentagon):
    entries = []
    for text in PENTAGON_MEMBER_QUERIES:
        v = membership_in_MR(parse_expression(text), pentagon)
        w = v.witness
        entries.append([
            text, v.kind.value,
            None if w is None else [[c, list(e)] for c, e in w.numerator_terms],
            None if w is None else sorted(w.denominator_exponents.items()),
        ])
    assert all(kind == "ProvenIn" for _, kind, _, _ in entries)
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == PENTAGON_MEMBER_DIGEST


def _seeded_pentagon_queries(seed, count):
    """Values inside Q(p) (radicals, their products, shifts and quotients
    by small integers, rationals) and, one in six, outside it."""
    inside = ["sqrt(3)", "sqrt(5)", "sqrt(15)"] + [
        f"{fn}({k}pi/{n})" for n in (3, 5, 6, 10, 15, 30)
        for k in range(1, n) if math.gcd(k, 2 * n) == 1 for fn in ("cos", "sin")]
    outside = ["sqrt(2)", "sqrt(7)", "cos(pi/8)", "sin(pi/12)", "cos(pi/7)"]
    rng = random.Random(seed)
    out = []
    for i in range(count):
        a, b = rng.sample(inside, 2)
        c, d = rng.randint(-6, 6), rng.randint(1, 9)
        shapes = (a, f"{a}*{b}", f"{c}/{d} + {a}", f"{a}/{d} - {b}", f"{c}/{d}")
        out.append(shapes[i % 6] if i % 6 < 5 else f"{rng.choice(outside)} + {a}")
    return out


# (query, verdict, numerator terms, denominator exponents) of 120 seeded
# queries: 70 ProvenIn, 20 ProvenNotIn and 30 Unknown, digested at the
# commit before the candidates were tested in pivot coordinates
SEEDED_PENTAGON_DIGEST = "f10e8198c8d958015e38fda2680414ca7cb0046d1286f8a9dbfc70636d8a930e"


def test_seeded_pentagon_verdicts_are_pinned(pentagon):
    entries = []
    for text in _seeded_pentagon_queries(53, 120):
        v = membership_in_MR(parse_expression(text), pentagon)
        w = v.witness
        entries.append([
            text, v.kind.value,
            None if w is None else [[c, list(e)] for c, e in w.numerator_terms],
            None if w is None else sorted(w.denominator_exponents.items()),
        ])
    kinds = [kind for _, kind, _, _ in entries]
    assert [kinds.count(k.value) for k in MembershipKind] == [70, 20, 30]
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == SEEDED_PENTAGON_DIGEST


# sets whose lattices do not span Q(p), so their witnesses come from the
# mod-q screen and the exact test, with the ring_check verdict of each at
# the bounds of acceptance criterion 7 and its hits in that exact test
SCREEN_PATH_SETS = (
    (("0", "2pi/11", "2pi/3", "9pi/11"), "Ring", 5),
    (("0", "3pi/7", "pi/2", "5pi/7", "8pi/9"), "Ring", 5),
    (("0", "pi/6", "3pi/4", "5pi/6", "6pi/7"), "Ring", 5),
    (("0", "pi/10", "pi/4", "5pi/11", "6pi/11", "3pi/5"), "Ring", 5),
    (("0", "3pi/8", "5pi/8", "7pi/11"), "Unknown", 2),
)
# (set, status, decided_by, per criterion its verdicts with reason,
# numerator terms and denominator exponents), digested at the commit
# before the pivot pre-test of screened candidates was dropped
SCREEN_PATH_DIGEST = "8fa58234267f7c489f37ce6e2e8d72c114221854b993b66ae617427fb36e64b2"


def test_screen_path_verdicts_and_witnesses_are_pinned(monkeypatch):
    bounds = SearchBounds(max_den_exp=2, max_num_deg=8, max_candidates=300)
    found = []
    membership = _MonomialLattice.membership

    def counted(self, y):
        combo = membership(self, y)
        found.append(combo is not None)
        return combo

    monkeypatch.setattr(_MonomialLattice, "membership", counted)
    entries = []
    for slopes, status, hits in SCREEN_PATH_SETS:
        found.clear()
        report = ring_check(SlopeSet(list(slopes)), bounds)
        assert (report.status.value, sum(found)) == (status, hits), slopes
        entries.append([str(report.slopes), report.status.value, report.decided_by, [
            [c.name, [[
                v.kind.value, v.reason,
                None if v.witness is None else [[a, list(e)] for a, e in v.witness.numerator_terms],
                None if v.witness is None else sorted(v.witness.denominator_exponents.items()),
            ] for v in c.verdicts]] for c in report.criteria
        ]])
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == SCREEN_PATH_DIGEST


def _monomials_reference(count, total_degree):
    """The former monomial enumerator: graded, lex within a degree."""
    if count == 0:
        yield ()
        return
    for total in range(total_degree + 1):
        for split in itertools.combinations(range(total + count - 1), count - 1):
            exps = []
            prev = -1
            for s in split:
                exps.append(s - prev - 1)
                prev = s
            exps.append(total + count - 2 - prev)
            yield tuple(exps)


def _bounded_vectors_reference(count, per_max, budget):
    """The former candidate enumerator: entries <= per_max, ascending
    total then lex, the first `budget` of them."""
    produced = 0
    for total in range(count * per_max + 1):
        for vec in _compositions_reference(total, count, per_max):
            yield vec
            produced += 1
            if produced >= budget:
                return


def _compositions_reference(total, count, per_max):
    if count == 1:
        if total <= per_max:
            yield (total,)
        return
    for head in range(min(total, per_max) + 1):
        for rest in _compositions_reference(total - head, count - 1, per_max):
            yield (head,) + rest


def _graded_products(start, factors, top, per_max, mul=operator.mul):
    """The former product walk: (exps, start * prod(factors[i]**exps[i]))
    for exponent vectors with entries <= per_max and total <= top,
    ascending total then lex, each value one product of a value held from
    the previous total, the vector with its first nonzero exponent lowered
    by one, times that factor."""
    layer = {(0,) * len(factors): start}
    yield from layer.items()
    for _ in range(top):
        raised = {
            exps[:i] + (e + 1,) + exps[i + 1 :]
            for exps in layer for i, e in enumerate(exps) if e < per_max
        }
        current = {}
        for exps in sorted(raised):
            i = next(k for k, e in enumerate(exps) if e)
            lower = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            current[exps] = mul(layer[lower], factors[i])
            yield exps, current[exps]
        layer = current


def test_graded_products_visit_the_former_orders():
    # integer factors: each value must be the product its exponents name,
    # and the graded exponents with their chain values the former walk
    primes = (2, 3, 5, 7, 11)
    for count in range(1, 6):
        factors = primes[:count]

        def visited(top, per_max, budget=None):
            out = []
            chain = _Chain(1, factors)
            expected = itertools.islice(_graded_products(1, factors, top, per_max), budget)
            got = itertools.islice(_graded_exponents(count, top, per_max), budget)
            for exps, (former, value) in itertools.zip_longest(got, expected):
                assert exps == former
                assert chain[exps] == value == math.prod(f**e for f, e in zip(factors, exps))
                out.append(exps)
            return out

        for degree in range(6):
            assert visited(degree, degree) == list(_monomials_reference(count, degree))
        for per_max in range(4):
            for budget in (1, 7, 50, 10**6):
                assert visited(count * per_max, per_max, budget) == list(
                    _bounded_vectors_reference(count, per_max, budget)
                )


def test_one_product_per_monomial_and_per_candidate(pentagon, monkeypatch):
    # the monomials take one product each and the candidate steps one per
    # Hermite row and generator; a warm query then takes none, however
    # many candidates it visits
    bounds = SearchBounds()
    _numerator_generators(pentagon)  # p itself is built before counting
    products = 0
    multiply = CyclotomicReal.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(CyclotomicReal, "__mul__", counting_mul)
    lattice = _MonomialLattice(pentagon, bounds.max_num_deg)
    lattice.lattice  # the exact monomials are made at the first exact query
    assert 0 < products <= len(lattice.exponents) - 1
    degree = euler_phi(pentagon.working_conductor) // len(_fixing_group(pentagon, lattice.images))
    assert len(lattice.rows) == lattice.lattice.rank == degree == 8
    products = 0
    steps, _ = lattice._steps
    assert products == degree * len(lattice.values)
    assert len(steps) == 2 and all(len(m.rows) == degree and {len(r) for r in m.rows} == {degree}
                                   for m in steps)  # p and p-1
    warm = _monomial_lattice(pentagon, bounds.max_num_deg)
    warm._steps  # built here, not in the count
    for text in ("sqrt(3)", "sqrt(15)", "cos(pi/5)", "7/3"):
        x = parse_expression(text)
        products = 0
        v = membership_in_MR(x, pentagon, bounds)
        assert v.is_proven_in and v.witness.denominator_exponents, text
        assert products == 0, text


def test_candidate_stream_is_not_cut_short_by_an_interrupt(pentagon, monkeypatch):
    # the forms are shared by every query; an interrupt while one is made
    # must not leave later queries a truncated stream
    ring_analysis._forms.cache_clear()
    bounds = SearchBounds(max_den_exp=3)
    x = rewrite_in_conductor(sqrt_rational(3), pentagon.working_conductor)
    expected = list(_candidates(x, pentagon, bounds))
    assert len(expected) == 16
    ring_analysis._forms.cache_clear()
    multiply, calls = ring_analysis._Form.__mul__, 0

    def interrupted(self, other):
        nonlocal calls
        calls += 1
        if calls == 5:
            raise KeyboardInterrupt
        return multiply(self, other)

    monkeypatch.setattr(ring_analysis._Form, "__mul__", interrupted)
    with pytest.raises(KeyboardInterrupt):
        list(_candidates(x, pentagon, bounds))
    assert list(_candidates(x, pentagon, bounds)) == expected


def _seeded_sets(seed, sizes, per_size, max_phi=96):
    rng = random.Random(seed)
    pool = [Angle(k, n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
            for k in range(1, n) if math.gcd(k, n) == 1]
    sets = []
    for size in sizes:
        while sum(u.size == size for u in sets) < per_size:
            u = SlopeSet([Angle.zero()] + rng.sample(pool, size - 1))
            if u.size == size and euler_phi(u.working_conductor) <= max_phi:
                sets.append(u)
    return sets


def _candidates(x, u, bounds):
    return _Candidates(x, _monomial_lattice(u, bounds.max_num_deg), bounds)


def test_candidates_match_the_product_chain():
    # the reference route is the former loop: one product per candidate,
    # each the previous value of its chain times a delta generator
    bounds = SearchBounds(max_den_exp=3, max_num_deg=4, max_candidates=150)
    top = bounds.max_den_exp
    for u in _seeded_sets(13, (4, 5), 3):
        n = u.working_conductor
        den_values = [v for _, v in _deltas(_numerator_generators(u), 1)]
        for x in ratio_elements(u):
            x_n = rewrite_in_conductor(x, n)
            chain = _graded_products(x_n, den_values, len(den_values) * top, top)
            expected = list(itertools.islice(chain, bounds.max_candidates))
            stream = _candidates(x_n, u, bounds)
            got = [(exps, stream.value(form)) for exps, form in stream]
            assert [exps for exps, _ in got] == [exps for exps, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert (a.conductor, a._num, a._den) == (b.conductor, b._num, b._den)


def _member_by_construction(rng, u, lattice):
    """A small polynomial in the p's over a monomial in the delta
    generators, so some candidate clears it."""
    den_values = [v for _, v in _deltas(_numerator_generators(u), 1)]
    num = sum(rng.randint(-3, 3) * math.prod(
        v**e for v, e in zip(lattice.values, exps)
    ) for exps in lattice.exponents[:6]) + 1
    den = math.prod(rng.choice(den_values) for _ in range(rng.randint(1, 3)))
    return num * den.inv()


def test_span_filter_never_rejects_a_lattice_member():
    bounds = SearchBounds(max_den_exp=3, max_num_deg=4, max_candidates=150)
    rng = random.Random(29)
    checked = accepted = rejected = 0
    for u in _seeded_sets(31, (4, 5), 4):
        lattice = _monomial_lattice(u, bounds.max_num_deg)
        degree = euler_phi(u.working_conductor) // len(_fixing_group(u, _images(u)))
        if lattice.lattice.rank >= degree:
            continue  # membership_in_MR runs no filter here
        checked += 1
        for _ in range(2):
            stream = _candidates(_member_by_construction(rng, u, lattice), u, bounds)
            for _, form in stream:
                excluded = stream.excluded(form)
                if lattice.membership(stream.value(form)) is not None:
                    assert not excluded, str(u)
                    accepted += 1
                else:
                    rejected += excluded
    assert checked and accepted and rejected


def test_warm_pentagon_sweeps_only_the_witness(pentagon, monkeypatch):
    # the lattice spans Q(p) and x passed the field test, so the pivot
    # coordinates decide every candidate and give the witness: no Hermite
    # sweep runs, for ProvenIn or ProvenNotIn
    queries = ["sqrt(3)", "sqrt(15)", "cos(pi/5)", "sin(7pi/30)", "1/3", "7/3",
               "sqrt(2)", "cos(pi/8)", "sin(pi/12)"]
    membership_in_MR(Fraction(1, 7), pentagon)
    sweeps = 0

    def counting(query):
        def counted(self, vector):
            nonlocal sweeps
            sweeps += 1
            return query(self, vector)
        return counted

    monkeypatch.setattr(IntegerLattice, "membership", counting(IntegerLattice.membership))
    monkeypatch.setattr(_MonomialLattice, "membership", counting(_MonomialLattice.membership))
    kinds = []
    for text in queries:
        sweeps = 0
        v = membership_in_MR(parse_expression(text), pentagon)
        assert v.witness is None or v.witness.evaluate() == parse_expression(text)
        assert sweeps == 0, text
        kinds.append(v.kind)
    assert kinds.count(MembershipKind.PROVEN_IN) == 6
    assert kinds.count(MembershipKind.PROVEN_NOT_IN) == 3


def test_coordinate_chain_matches_the_exact_sweep():
    # on spanning lattices with one and with two free constants, every
    # candidate's verdict on the flat walk is the exact sweep's, and on a
    # hit the combination read off the pivot coordinates is the sweep's
    bounds = SearchBounds(max_den_exp=3, max_num_deg=4, max_candidates=150)
    rng = random.Random(59)
    hits = misses = 0
    free = set()
    for u in _seeded_sets(43, (4, 5), 6):
        n = u.working_conductor
        lattice = _monomial_lattice(u, bounds.max_num_deg)
        if len(lattice.rows) < euler_phi(n) // len(_fixing_group(u, _images(u))):
            continue
        free.add(len(lattice.values))
        members = [_member_by_construction(rng, u, lattice) for _ in range(2)]
        for x in [rewrite_in_conductor(y, n) for y in [*ratio_elements(u), *members]]:
            coords = {exps: (t, den) for exps, t, den in lattice.walk(x, bounds)}
            stream = _candidates(x, u, bounds)
            for exps, form in stream:
                t, den = coords[exps]
                combo = lattice.membership(stream.value(form))
                assert (den == 1) == (combo is not None), (str(u), exps)
                if combo is None:
                    misses += 1
                else:
                    assert lattice.combination(t) == combo
                    hits += 1
    assert free == {1, 2}
    assert hits and misses


def _steps_reference(lattice):
    """The former step matrices: object-dtype arrays, row k the pivot
    coordinates of the k-th Hermite row times a delta generator."""
    basis = [CyclotomicReal._make(lattice.n, h, lattice.common_den) for h in lattice.lattice.basis()]
    coords = [[lattice.pivot_coordinates(b * p) for b in basis] for p in lattice.values]
    den = math.lcm(*(d for matrix in coords for _, d in matrix))
    matrices = [np.array([[a * (den // d) for a in t] for t, d in matrix], dtype=object)
                for matrix in coords]
    one = np.identity(len(basis), dtype=object) * den
    return [m for _, m in _deltas([("", m) for m in matrices], one)], den


def _coordinates_reference(lattice, steps, x):
    """The former walk: one ndarray.dot and one gcd per candidate."""
    matrices, step_den = steps

    def step(value, matrix):
        t, den = value[0].dot(matrix), value[1] * step_den
        g = math.gcd(den, *t)
        return t // g, den // g

    t, den = lattice.pivot_coordinates(x)
    return _Chain((np.array(t, dtype=object), den), matrices, step)


def _quotients_reference(lattice, t):
    """The former quotient step: the tops as one object-dtype product, each
    then less its band of later quotients."""
    columns, norms, _ = lattice._babai
    rank = lattice.lattice.rank
    table = np.array([c[:rank] for c in columns], dtype=object).reshape(len(columns), rank)
    bands = [[-b for b in c[rank:]] for c in columns]
    tops = np.array(t, dtype=object).dot(table.T)
    q = [0] * len(bands)
    for j in reversed(range(len(bands))):
        q[j] = _round_half_even(tops[j] - sum(map(operator.mul, q[j + 1 :], bands[j])), norms[j])
    return q


def test_packed_candidate_walk_matches_the_object_array_walk(pentagon):
    # (t, den) at every exponent of the search order, hits or not, and the
    # quotients of every hit, on the pentagon's 120 seeded queries and on a
    # spanning set with two free constants
    small = SearchBounds(max_den_exp=3, max_num_deg=4, max_candidates=150)
    two = []
    for u in _seeded_sets(43, (4, 5), 6):
        lattice = _monomial_lattice(u, small.max_num_deg)
        if len(lattice.values) == 2 and lattice.spans:
            rng = random.Random(67)
            two = [(u, small, [*ratio_elements(u), *(_member_by_construction(rng, u, lattice)
                                                    for _ in range(3))])]
            break
    assert two
    queries = [parse_expression(text) for text in _seeded_pentagon_queries(53, 120)]
    hits = {}
    for u, bounds, values in [(pentagon, SearchBounds(), queries)] + two:
        n = u.working_conductor
        lattice = _monomial_lattice(u, bounds.max_num_deg)
        assert lattice.spans, str(u)
        steps = _steps_reference(lattice)
        assert [m.rows for m in lattice._steps[0]] == [m.tolist() for m in steps[0]]
        assert lattice._steps[1] == steps[1]
        order = ring_analysis._search_order(len(lattice.den_values), bounds.max_den_exp,
                                            bounds.max_candidates)
        hits[str(u)] = 0
        for x in values:
            x_n = rewrite_in_conductor(x, n)
            if x_n is None:
                continue
            walk = {exps: (t, den) for exps, t, den in lattice.walk(x_n, bounds)}
            reference = _coordinates_reference(lattice, steps, x_n)
            assert tuple(walk) == order
            for exps in order:
                (t, den), (t_ref, den_ref) = walk[exps], reference[exps]
                assert (t, den) == (t_ref.tolist(), den_ref), (str(u), str(x), exps)
                assert all(type(a) is int for a in t), (str(u), str(x), exps)
                if den == 1:
                    assert lattice._quotients(t) == _quotients_reference(lattice, t), (str(x), exps)
                    hits[str(u)] += 1
    assert all(hits.values()), hits


def _correction_reference(lattice, combo, quotients):
    """The former Babai correction: one slice rewrite of the tracked
    combination per nonzero quotient, by that quotient times mu(p)."""
    mu = lattice._babai[2]
    c = list(combo)
    for j, q in enumerate(quotients):
        if q:
            c[j:j + len(mu)] = [a - q * b for a, b in zip(c[j:j + len(mu)], mu)]
    return c


def test_one_convolution_correction_matches_the_per_shift_loop(pentagon, monkeypatch):
    # seeded pivot coordinates and quotient vectors, all-zero and all-negative
    # among them: the packed tails less q convolved with mu are the tracked
    # combination less each shift of mu times its quotient
    rng = random.Random(73)
    for u in (pentagon, SlopeSet(["0", "pi/5", "2pi/5", "pi/2"])):
        lattice = _MonomialLattice(u, SearchBounds().max_num_deg)
        rank, count = lattice.lattice.rank, len(lattice._exact[2])
        assert rank and count
        quotients = [[0] * count, [-rng.randint(1, 2**90) for _ in range(count)]]
        for bits in (1, 8, 64, 200):
            quotients.append([rng.choice((0, rng.randint(-2**bits, 2**bits))) for _ in range(count)])
            quotients.append([rng.randint(-2**bits, 0) for _ in range(count)])
        for q in quotients:
            monkeypatch.setattr(lattice, "_quotients", lambda t: q)
            for bits in (0, 1, 40, 100):
                t = [rng.randint(-2**bits, 2**bits) for _ in range(rank)]
                expected = _correction_reference(lattice, lattice.lattice.combination(t), q)
                assert lattice.combination(t) == [
                    (a, lattice.exponents[i]) for i, a in enumerate(expected) if a
                ], (str(u), q, t)


def test_packed_matrix_product_matches_the_plain_product():
    # fields at their extremes: the largest entries, all of one sign, so
    # each product entry comes within a factor 2 of its field's bound
    rng = random.Random(71)
    for size, columns in ((1, 1), (2, 2), (3, 3), (8, 8), (9, 9), (2, 5), (5, 2)):
        for bits in (1, 16, 70):
            top = 2**bits - 1
            rows = [[rng.choice((-top, top, rng.randint(-top, top), 0)) for _ in range(columns)]
                    for _ in range(size)]
            matrix = _PackedMatrix(rows)
            vectors = [[0] * size, [2**200 - 1] * size, [-(2**63)] * size]
            vectors += [[rng.randint(-2**t, 2**t) for _ in range(size)] for t in (1, 51, 63, 64, 300)]
            vectors += [[top * (-1) ** (rows[i][j] < 0) for i in range(size)] for j in range(columns)]
            for t in vectors:
                assert matrix.times(t) == [sum(map(operator.mul, t, col)) for col in zip(*rows)], (rows, t)
    assert len(matrix.packed) > 1  # a width per size of t


def test_round_half_even_matches_fraction_round():
    rng = random.Random(47)
    cases = [(a, b) for b in (1, 2, 3, 4, 10) for a in range(-25, 26)]
    cases += [(rng.randint(-2**2700, 2**2700), rng.randint(1, 2**1400)) for _ in range(200)]
    # exact ties, half-odd multiples on both sides of zero
    cases += [((2 * k + 1) * b, 2 * b) for k in range(-6, 6) for b in (1, 7, 3**90)]
    for a, b in cases:
        assert _round_half_even(a, b) == round(Fraction(a, b)), (a, b)


def test_span_filter_passes_what_it_cannot_reduce():
    # with q dividing x's denominator there is no image to test; every
    # form the screen excludes is an exact non-member
    u = SlopeSet(["0", "3pi/5", "4pi/5", "11pi/12"])
    bounds = SearchBounds(max_den_exp=3, max_num_deg=4, max_candidates=150)
    lattice = _MonomialLattice(u, bounds.max_num_deg)
    x = rewrite_in_conductor(ratio_elements(u)[0], u.working_conductor)
    stream = _Candidates(x, lattice, bounds)
    forms = [form for _, form in stream]
    excluded = [form for form in forms if stream.excluded(form)]
    assert excluded
    assert all(lattice.membership(stream.value(form)) is None for form in excluded)
    q = cyclotomic.split_prime(u.working_conductor)
    over_q = _Candidates(x * Fraction(1, q), lattice, bounds)
    assert over_q.images is None
    assert not any(over_q.excluded(form) for form in forms)


def test_span_filter_spares_the_1980_ratios_the_exact_sweep(monkeypatch):
    u = SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])
    ratios = ratio_elements(u)
    _monomial_lattice(u, TIGHT_BOUNDS.max_num_deg)
    assert len(_fixing_group(u, _images(u))) == 4
    products = galois = 0
    multiply = CyclotomicReal.__mul__
    fixed = CyclotomicReal.is_fixed_by

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    def counting_fixed(self, a):
        nonlocal galois
        galois += 1
        return fixed(self, a)

    def no_sweep(self, vector):
        raise AssertionError("IntegerLattice.membership reached")

    monkeypatch.setattr(CyclotomicReal, "__mul__", counting_mul)
    monkeypatch.setattr(CyclotomicReal, "is_fixed_by", counting_fixed)
    monkeypatch.setattr(IntegerLattice, "membership", no_sweep)
    for q in ratios:
        products = galois = 0
        assert membership_in_MR(q, u, TIGHT_BOUNDS).is_unknown
        assert products <= 16
        # H = {1, a, -a, -1}: one generator modulo +-1
        assert galois == 1


def _closure(gens, n):
    span = {1 % n, -1 % n}
    while True:
        grown = span | {s * g % n for s in span for g in gens}
        if grown == span:
            return span
        span = grown


def test_generators_mod_sign_generate_the_fixing_group():
    sets = _seeded_sets(37, (4, 5), 4, max_phi=480)
    sets.append(SlopeSet(["0", "pi/5", "pi/2", "4pi/5"]))  # |H| = 8
    for u in sets:
        n = u.working_conductor
        group = _fixing_group(u, _images(u))
        gens = _generators_mod_sign(group, n)
        assert _closure(gens, n) == {a % n for a in group}, str(u)
        assert len(gens) < len(group)
    # the whole unit group of Z/1980 needs three generators beside -1
    units = [a for a in range(1, 1980) if math.gcd(a, 1980) == 1]
    gens = _generators_mod_sign(units, 1980)
    assert len(gens) == 3 and _closure(gens, 1980) == set(units)


def _fixing_group_reference(u: SlopeSet) -> tuple[int, ...]:
    """The reference route: sigma_a tested exactly on every unit a."""
    n = u.working_conductor
    gens = [v for _, v in _numerator_generators(u)]
    return tuple(
        a for a in range(1, n + 1)
        if math.gcd(a, n) == 1 and all(g.is_fixed_by(a) for g in gens)
    )


def _sweep_sets(seed, picks, count):
    """The benchmark sweep's draw: 0 and `picks` distinct directions
    k*pi/n, n <= 12, skipping repeats, the first `count` sets."""
    pool = [Angle(k, n) for n in range(2, 13) for k in range(1, n) if math.gcd(k, n) == 1]
    rng, drawn = random.Random(seed), []
    while len(drawn) < count:
        directions = tuple(sorted(rng.sample(pool, picks)))
        if directions not in drawn:
            drawn.append(directions)
    return [SlopeSet([Angle.zero(), *d]) for d in drawn]


def test_p_value_denominators_have_images_mod_the_split_prime():
    # every prime of a p-value's denominator is at most n/2, below
    # q = split_prime(n) = 1 (mod n), so every p-value has an image mod q
    sets = _sweep_sets(1, 3, 200) + _sweep_sets(7, 5, 12)
    sets.append(SlopeSet(["0", "pi/9", "2pi/11", "pi/5", "3pi/7"]))
    conductors = set()
    for u in sets:
        n = u.working_conductor
        conductors.add(n)
        small = math.factorial(n // 2)  # every prime at most n/2
        for v in u.p_table.values():
            den = v._den
            while (g := math.gcd(den, small)) > 1:
                den //= g
            assert den == 1, (str(u), v._den)
            assert isinstance(evaluate(v, n), np.ndarray), str(u)
    assert max(conductors) == 13860


def test_fixing_group_matches_the_exact_route_on_every_unit(monkeypatch):
    sets = _seeded_sets(37, (4, 5), 4, max_phi=480)
    sets.append(SlopeSet(["0", "pi/5", "pi/2", "4pi/5"]))  # |H| = 8
    sets.append(SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"]))  # phi = 480
    expected = [_fixing_group_reference(u) for u in sets]
    assert len(expected[-2]) == 8 and len(expected[-1]) == 4
    checks = 0
    fixed = CyclotomicReal.is_fixed_by

    def counting(self, a):
        nonlocal checks
        checks += 1
        return fixed(self, a)

    def fixing_groups(some, image=evaluate):
        nonlocal checks
        checks = 0
        images = [[image(v, u.working_conductor) for _, v in _numerator_generators(u)]
                  for u in some]
        return [_fixing_group(u, e) for u, e in zip(some, images)]

    monkeypatch.setattr(CyclotomicReal, "is_fixed_by", counting)
    # only the survivors' generators modulo +-1 are checked exactly
    assert fixing_groups(sets) == expected
    assert checks == sum(
        len(_generators_mod_sign(h, u.working_conductor)) * len(u.free_slopes)
        for u, h in zip(sets, expected)
    )
    # a unit that matches at the root w alone is still dropped mod q: the
    # values at w^(ah) are copied from those at w^h for every h in H
    u, h = sets[-1], expected[-1]
    n = u.working_conductor
    units = cyclotomic.units(n)
    a = next(a for a in units if a not in h)

    def planted(x, m):
        e = evaluate(x, m).copy()
        for b in h:
            e[units.index(a * b % n)] = e[units.index(b)]
        return e

    assert fixing_groups([u], planted) == [h] and checks == 1
    # images that every unit leaves in place, so the survivors fail the
    # exact check: it falls back to testing every unit exactly
    ones = lambda x, m: np.ones(euler_phi(m), np.int64)
    assert fixing_groups(sets[-2:], ones) == expected[-2:]
    assert checks >= euler_phi(n)


def test_cold_1980_ring_check_builds_no_integer_lattice(monkeypatch):
    # the mod-q screen rejects every candidate of this set, so the exact
    # 33 x 480 Hermite lattice is never built
    def no_lattice(self, dimension):
        raise AssertionError("IntegerLattice built")

    monkeypatch.setattr(IntegerLattice, "__init__", no_lattice)
    _monomial_lattice.cache_clear()
    report = ring_check(SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"]))
    assert report.status is RingStatus.UNKNOWN and report.decided_by == ""
    verdicts = [str(v) for c in report.criteria for v in c.verdicts]
    assert verdicts == ["Unknown: bounded search exhausted"] * 8
    assert report.frame_scan == ()


def test_lattice_and_field_caches_keep_the_last_few_sets(monkeypatch):
    # a set's lattice, which holds its fixing group's generators, serves
    # only that set's queries, so ring_check of 12 sets leaves 4, and a
    # second ring_check of the last set hits the lattice cache and builds
    # no new lattice
    _monomial_lattice.cache_clear()
    bounds = SearchBounds(max_den_exp=2, max_num_deg=8, max_candidates=300)
    sets = _seeded_sets(61, (4,), 12)
    for u in sets:
        report = ring_check(u, bounds)
    assert _monomial_lattice.cache_info().currsize == 4

    def no_build(self, u, max_num_deg):
        raise AssertionError(f"lattice of {u} built again")

    monkeypatch.setattr(_MonomialLattice, "__init__", no_build)
    hits = _monomial_lattice.cache_info().hits
    again = ring_check(sets[-1], bounds)
    assert _monomial_lattice.cache_info().hits > hits
    assert [str(v) for c in again.criteria for v in c.verdicts] == [
        str(v) for c in report.criteria for v in c.verdicts
    ]


def _residual_reference(basis, image, q):
    """The sequential projection: each echelon row (col, row), 1 at col and
    zero at the earlier pivots, clears col in turn."""
    for col, row in basis:
        if image[col]:
            image = (image - image[col] * row) % q
    return image


def _basis_reference(lattice):
    """The sequential basis: the monomial images reduced one by one against
    the rows kept so far, each new row scaled to 1 at its first nonzero entry."""
    q, basis = lattice.q, []
    ones = np.ones(euler_phi(lattice.n), np.int64)
    mul = lambda a, b: a * b % q
    for _, image in _graded_products(ones, lattice.images, lattice.degree, lattice.degree, mul):
        if (r := _residual_reference(basis, image, q)).any():
            col = int(np.flatnonzero(r)[0])
            basis.append((col, r * pow(int(r[col]), -1, q) % q))
    return basis


def test_residual_matches_the_sequential_projection():
    rng = np.random.default_rng(53)
    sets = _seeded_sets(31, (4, 5), 4) + [SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])]
    for u in sets:
        lattice = _MonomialLattice(u, 8)
        basis = _basis_reference(lattice)
        assert lattice.pivots == [col for col, _ in basis], str(u)
        assert (lattice.rows[:, lattice.pivots] == np.eye(len(basis), dtype=np.int64)).all()
        q, phi = lattice.q, euler_phi(lattice.n)
        vectors = [rng.integers(0, q, phi), np.full(phi, q - 1, np.int64)]
        vectors += [row for _, row in basis[:3]]  # members of the span
        for v in vectors:
            assert (lattice.residual(v) == _residual_reference(basis, v, q)).all(), str(u)
    # the largest products: entries q - 1 against rows of q - 1 at every
    # non-pivot column, with a rank one short of phi(1980)
    q, phi = cyclotomic.split_prime(1980), 480
    pivots = sorted(rng.choice(phi, phi - 1, replace=False).tolist())
    rows = np.full((phi - 1, phi), q - 1, np.int64)
    rows[:, pivots] = np.eye(phi - 1, dtype=np.int64)
    extreme = object.__new__(_MonomialLattice)
    extreme.q, extreme.rows, extreme.pivots = q, rows, pivots
    for v in (np.full(phi, q - 1, np.int64), rng.integers(0, q, phi)):
        expected = _residual_reference(list(zip(pivots, rows)), v, q)
        assert (extreme.residual(v) == expected).all()


def _excluded_reference(stream, form, lattice, basis):
    """The screen on the sum: the images of the powers summed, then reduced."""
    zero = (0,) * len(stream.powers.factors)
    if evaluate(stream.powers[zero], lattice.n) is None:
        return False
    q = lattice.q
    total = sum(c % q * stream.images[e] % q for e, c in form.items())
    return bool(_residual_reference(basis, total % q, q).any())


def test_excluded_matches_the_reduction_of_the_summed_images():
    small = SearchBounds(max_den_exp=3, max_num_deg=4, max_candidates=150)
    u1980 = SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])
    cases = [(u, small) for u in _seeded_sets(31, (4, 5), 4)] + [(u1980, SearchBounds())]
    outcomes = set()
    for u, bounds in cases:
        lattice = _MonomialLattice(u, bounds.max_num_deg)
        basis = _basis_reference(lattice)
        q = cyclotomic.split_prime(u.working_conductor)
        for ratio in ratio_elements(u):
            x = rewrite_in_conductor(ratio, u.working_conductor)
            for y in (x, x * Fraction(1, q)):  # q divides the second denominator
                stream = _Candidates(y, lattice, bounds)
                for _, form in stream:
                    got = stream.excluded(form)
                    assert got == _excluded_reference(stream, form, lattice, basis), str(u)
                    outcomes.add((y is x, got))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_cold_1980_ring_check_reduces_each_power_once(monkeypatch):
    # each monomial image is reduced once while the basis is built; a query
    # reduces nothing and takes one fingerprint dot per power x * p^e, not
    # one per candidate
    u = SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"])
    _monomial_lattice.cache_clear()
    reductions, at_query, dots = 0, [], []
    residual, fingerprint = _MonomialLattice.residual, _MonomialLattice.fingerprint
    init = _Candidates.__init__

    def counting_residual(self, image):
        nonlocal reductions
        reductions += 1
        return residual(self, image)

    def counting_fingerprint(self, image):
        dots[-1] += 1
        return fingerprint(self, image)

    def counting_init(self, *args):
        at_query.append(reductions)
        dots.append(0)
        init(self, *args)

    monkeypatch.setattr(_MonomialLattice, "residual", counting_residual)
    monkeypatch.setattr(_MonomialLattice, "fingerprint", counting_fingerprint)
    monkeypatch.setattr(_Candidates, "__init__", counting_init)
    assert ring_check(u).status is RingStatus.UNKNOWN
    lattice = _monomial_lattice(u, DEFAULT_MAX_NUM_DEG)
    one = CyclotomicReal.from_rational(1, u.working_conductor)
    powers = {e for _, form in _candidates(one, u, SearchBounds()) for e in form}
    assert dots and len(powers) == 17
    assert reductions <= len(lattice.exponents)
    assert at_query == [reductions] * len(dots)
    assert max(dots) <= len(powers)


def _report_entries(report):
    """Status, decider and per criterion each verdict's kind, reason,
    numerator terms and denominator exponents."""
    return [report.status.value, report.decided_by, [[c.name, [[
        v.kind.value, v.reason,
        None if v.witness is None else [[a, list(e)] for a, e in v.witness.numerator_terms],
        None if v.witness is None else sorted(v.witness.denominator_exponents.items()),
    ] for v in c.verdicts]] for c in report.criteria]]


def test_zero_fingerprints_send_every_candidate_to_the_exact_test(monkeypatch):
    # a planted collision: with both z vectors zero every fingerprint is
    # zero, so the screen drops nothing and each candidate is decided by
    # the exact test alone, with the same verdicts, reasons and witnesses
    cases = [
        (SlopeSet(["0", "pi/11", "5pi/9", "7pi/10"]), SearchBounds()),
        (SlopeSet(["0", "2pi/11", "2pi/3", "9pi/11"]), SearchBounds(max_den_exp=2, max_num_deg=8)),
    ]
    screened, tested = [], []
    excluded, membership = _Candidates.excluded, _MonomialLattice.membership

    def counting_excluded(self, form):
        screened.append(excluded(self, form))
        return screened[-1]

    def counting_membership(self, y):
        tested.append(y)
        return membership(self, y)

    def run(u, bounds):
        screened.clear()
        tested.clear()
        return _report_entries(ring_check(u, bounds)), sum(screened), len(screened), len(tested)

    monkeypatch.setattr(_Candidates, "excluded", counting_excluded)
    monkeypatch.setattr(_MonomialLattice, "membership", counting_membership)
    dropped = 0
    for u, bounds in cases:
        _monomial_lattice.cache_clear()
        entries, excluded_count, screens, _ = run(u, bounds)
        dropped += excluded_count
        lattice = _monomial_lattice(u, bounds.max_num_deg)
        assert not lattice.spans, str(u)
        monkeypatch.setattr(lattice, "z", np.zeros_like(lattice.z))
        again, excluded_again, screens_again, exact = run(u, bounds)
        assert again == entries, str(u)
        assert excluded_again == 0 and exact == screens_again >= screens, str(u)
    # the unpatched screen drops every candidate of the conductor-1980 set
    assert dropped >= 5 * 81
