import itertools
import math
import random
from fractions import Fraction

import pytest

from origami_rings.angles import Angle
from origami_rings import cyclotomic
from origami_rings.cyclotomic import (
    CyclotomicReal,
    euler_phi,
    minimal_polynomial,
    rewrite_in_conductor,
    sqrt_rational,
)
from origami_rings.linalg import RowSpace
from origami_rings.polynomials import RationalPolynomial
from origami_rings.ring_analysis import (
    MembershipKind,
    RingStatus,
    SearchBounds,
    SetKind,
    _field_basis,
    _monomial_lattice,
    classify,
    delta_set,
    e_closed_form,
    e_norm_sq,
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


def test_e_closed_form(pentagon):
    x, y = e_closed_form(pentagon)
    ex, ey = pentagon.frame.unit_parts()
    assert x == ex and y == ey


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
    x, y = e_closed_form(pentagon)
    n = e_norm_sq(pentagon)
    assert n == x * x + y * y
    _, qb = ratio_elements(pentagon)
    assert n == qb
    r, _ = integral_relation(pentagon)
    assert n == -r


def test_integral_relation_describes_e_squared(pentagon):
    # e^2 = s*e + r as complex numbers
    r, s = integral_relation(pentagon)
    x, y = e_closed_form(pentagon)
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


def test_pentagon_lattice_stays_small(pentagon):
    # Hermite reduction keeps rows at 12 bits and combinations at
    # 2,694 bits here; unreduced they grow past 100,000
    lattice = _monomial_lattice(pentagon, SearchBounds()).lattice
    rows = lattice._pivots.values()
    assert max(abs(c).bit_length() for row, _ in rows for c in row) <= 64
    assert max(abs(c).bit_length() for _, combo in rows for c in combo) <= 4096


def _two_cos(d: int, c: int) -> CyclotomicReal:
    """2*cos(2*pi/d) written on the power basis of Q(zeta_c), d | c."""
    rows = cyclotomic._zeta_power_rows(d)
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
            xs = [_two_cos(c, c), _two_cos(math.gcd(c, n), c)]
            for x, expected in zip(xs, _rewrite_through_compositum(xs, n)):
                got = rewrite_in_conductor(x, n)
                if expected is None:
                    assert got is None
                    outside += 1
                else:
                    assert got.conductor == n
                    assert (got._num, got._den) == (expected._num, expected._den)
                    inside += 1
    assert inside and outside


def test_outside_query_builds_no_compositum_table(pentagon, monkeypatch):
    # sqrt(19) has conductor 76 and the pentagon works at 120: the
    # compositum table at their lcm 2280 would hold over 10 MB
    x = sqrt_rational(19)
    big = math.lcm(x.conductor, pentagon.working_conductor)
    built = []
    original = cyclotomic._zeta_power_rows

    def recording(n):
        built.append(n)
        return original(n)

    monkeypatch.setattr(cyclotomic, "_zeta_power_rows", recording)
    v = membership_in_MR(x, pentagon)
    assert v.kind is MembershipKind.PROVEN_NOT_IN
    assert big == 2280 and big not in built


SCAN_BOUNDS = SearchBounds(max_den_exp=0, max_num_deg=1, max_candidates=1)


def test_frame_scan_decides_on_integer_ratios():
    # no search in the default frame, but in (2pi/3, pi/3) both ratios are 1
    u = SlopeSet(["0", "pi/5", "pi/3", "2pi/3"], alpha="pi/5", beta="pi/3")
    report = ring_check(u, bounds=SCAN_BOUNDS)
    assert report.status is RingStatus.RING
    assert report.decided_by == "ratios in frame (2pi/3, pi/3)"
    assert len(report.frame_scan) == 1
    scan = report.frame_scan[0]
    assert scan.status is RingStatus.RING
    for (_, value), verdict in zip(scan.elements, scan.verdicts):
        assert verdict.is_proven_in and value.is_integer
        assert verdict.witness.evaluate() == value


def test_frame_scan_pentagon_stays_unknown(pentagon):
    report = ring_check(pentagon, bounds=SCAN_BOUNDS)
    assert report.status is RingStatus.UNKNOWN
    assert len(report.frame_scan) == 5
    for scan in report.frame_scan:
        assert scan.status is RingStatus.UNKNOWN
        assert all(v.is_unknown for v in scan.verdicts)


def _in_field(basis: RowSpace, x: CyclotomicReal, n: int) -> bool:
    x_n = rewrite_in_conductor(x, n)
    return x_n is not None and basis.coordinates(x_n.coefficients()) is not None


def test_frame_ratios_share_the_field_of_the_default_ratios():
    # every frame generates the same field Q(p), so once the default
    # ratios lie in it the ratios of every other frame do too
    rng = random.Random(2026)
    pool = [Angle(k, n) for n in (2, 3, 4, 5, 6, 8, 10, 12)
            for k in range(1, n) if math.gcd(k, n) == 1]
    checked = 0
    while checked < 10:
        u = SlopeSet([Angle.zero()] + rng.sample(pool, 3))
        n, basis = u.working_conductor, _field_basis(u)
        if not all(_in_field(basis, q, n) for q in ratio_elements(u)):
            continue
        checked += 1
        for a, b in itertools.permutations(u.nonzero_slopes, 2):
            for q in ratio_elements(u.with_frame(a, b)):
                assert _in_field(basis, q, n), (str(u), str(a), str(b))
