"""Ring structure analysis of origami point sets.

The real points of a construction form Z[D, 1/D] where D is the set of
differences of projection constants.  Whether the full point set is a
ring reduces to membership questions in that subring, tested here with
exact certificates in both directions:

* ProvenIn comes with a witness: clearing a monomial in the delta
  generators turns the candidate into an integer combination of
  monomials in the projection constants, checked over Z and returned in
  re-evaluatable form.

* ProvenNotIn comes from exact structure: for three directions the
  subring is Z itself, and in general anything outside the field
  generated by the projection constants cannot be inside the subring.

The search is bounded (exponents and degrees), so a third verdict
Unknown reports exhaustion without claiming anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence, Union

from .angles import Angle
from .cyclotomic import (
    CyclotomicReal,
    euler_phi,
    rewrite_in_conductor,
    sin_of,
    cos_of,
)
from .geometry import PlanePoint, ZeroSlopeError, _as_cyclotomic, signed_sin
from .linalg import IntegerLattice, RowSpace
from .slopes import SlopeSet

Scalar = Union[int, Fraction, CyclotomicReal]

DEFAULT_MAX_DEN_EXP = 8
DEFAULT_MAX_NUM_DEG = 32
DEFAULT_MAX_CANDIDATES = 2000


# ---------------------------------------------------------------------------
# search configuration and verdicts


@dataclass(frozen=True)
class SearchBounds:
    """Limits of the membership search.

    max_den_exp bounds each exponent in the cleared denominator
    monomial, max_num_deg the total degree of numerator monomials, and
    max_candidates the number of denominator monomials tried before
    giving up with Unknown.
    """

    max_den_exp: int = DEFAULT_MAX_DEN_EXP
    max_num_deg: int = DEFAULT_MAX_NUM_DEG
    max_candidates: int = DEFAULT_MAX_CANDIDATES

    def __post_init__(self):
        if self.max_den_exp < 0:
            raise ValueError("max_den_exp must be nonnegative")
        if self.max_num_deg < 1:
            raise ValueError("max_num_deg must be at least 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")

    def __str__(self) -> str:
        return (
            f"denominator exponents <= {self.max_den_exp}, "
            f"numerator degree <= {self.max_num_deg}, "
            f"candidate budget {self.max_candidates}"
        )


class MembershipKind(Enum):
    PROVEN_IN = "ProvenIn"
    PROVEN_NOT_IN = "ProvenNotIn"
    UNKNOWN = "Unknown"


def _fmt_int(c: int) -> str:
    """Plain digits up to 60 of them, order-of-magnitude beyond."""
    if c.bit_length() <= 199:
        return str(c)
    digits = (c.bit_length() * 30103) // 100000
    return f"{'-' if c < 0 else ''}~10^{digits}"


@dataclass(frozen=True)
class MembershipWitness:
    """A certificate x = numerator / denominator over the generators.

    The numerator is an integer combination of monomials in the
    generator values; the denominator is a monomial in the labelled
    delta generators.  evaluate() recomputes the quotient exactly.
    """

    generator_names: tuple[str, ...]
    generator_values: tuple[CyclotomicReal, ...]
    numerator_terms: tuple[tuple[int, tuple[int, ...]], ...]
    denominator_factors: tuple[tuple[str, CyclotomicReal, int], ...]

    def evaluate(self) -> CyclotomicReal:
        total = CyclotomicReal.from_rational(0)
        for coeff, exps in self.numerator_terms:
            term = CyclotomicReal.from_rational(coeff)
            for value, e in zip(self.generator_values, exps):
                if e:
                    term = term * value**e
            total = total + term
        for _, value, e in self.denominator_factors:
            if e:
                total = total * (value**e).inv()
        return total

    @property
    def denominator_exponents(self) -> dict[str, int]:
        return {name: e for name, _, e in self.denominator_factors if e}

    def _term_str(self, coeff: int, exps: tuple[int, ...]) -> str:
        monos = []
        for name, e in zip(self.generator_names, exps):
            if e == 1:
                monos.append(name)
            elif e:
                monos.append(f"{name}^{e}")
        if not monos:
            return _fmt_int(coeff)
        if coeff == 1:
            head = ""
        elif coeff == -1:
            head = "-"
        else:
            head = f"{_fmt_int(coeff)}*"
        return head + "*".join(monos)

    def __str__(self) -> str:
        terms = sorted(self.numerator_terms, key=lambda t: t[1], reverse=True)
        parts = []
        for coeff, exps in terms:
            text = self._term_str(coeff, exps)
            if not parts:
                parts.append(text)
            elif text.startswith("-"):
                parts.append(f"- {text[1:]}")
            else:
                parts.append(f"+ {text}")
        numerator = " ".join(parts) if parts else "0"
        dens = []
        for name, _, e in self.denominator_factors:
            if e == 1:
                dens.append(name if "-" not in name else f"({name})")
            elif e:
                base = name if "-" not in name else f"({name})"
                dens.append(f"{base}^{e}")
        if not dens:
            return numerator
        return f"({numerator}) / ({' * '.join(dens)})"


@dataclass(frozen=True)
class MembershipVerdict:
    kind: MembershipKind
    reason: str = ""
    witness: Optional[MembershipWitness] = None
    bounds: Optional[SearchBounds] = None

    @property
    def is_proven_in(self) -> bool:
        return self.kind is MembershipKind.PROVEN_IN

    @property
    def is_proven_not_in(self) -> bool:
        return self.kind is MembershipKind.PROVEN_NOT_IN

    @property
    def is_unknown(self) -> bool:
        return self.kind is MembershipKind.UNKNOWN

    def __str__(self) -> str:
        text = self.kind.value
        if self.reason:
            text += f": {self.reason}"
        if self.witness is not None:
            text += f" [{self.witness}]"
        return text


def _integer_verdict(x: CyclotomicReal) -> MembershipVerdict:
    """ProvenIn for an integer x, with x itself as the witness."""
    witness = MembershipWitness(
        generator_names=(),
        generator_values=(),
        numerator_terms=((int(x.as_rational()), ()),) if not x.is_zero else (),
        denominator_factors=(),
    )
    return MembershipVerdict(
        MembershipKind.PROVEN_IN, reason="integer", witness=witness
    )


# ---------------------------------------------------------------------------
# projection constants and derived elements


def p_value(u: SlopeSet, gamma: Angle) -> CyclotomicReal:
    """p(gamma) for a member direction of u (zero direction excluded)."""
    if gamma.is_zero:
        raise ZeroSlopeError("p is undefined for the horizontal direction")
    if gamma not in u:
        raise ValueError(f"{gamma} is not a member of {u}")
    return u.p_table[gamma]


@dataclass(frozen=True)
class DeltaSet:
    """All differences of projection constants, exactly deduplicated."""

    values: tuple[CyclotomicReal, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, item) -> bool:
        x = _as_cyclotomic(item)
        return any(v == x for v in self.values)


def delta_set(u: SlopeSet) -> DeltaSet:
    """The difference set {p(gamma) - p(delta)} over ordered pairs."""
    table = u.p_table
    seen: dict[tuple, CyclotomicReal] = {}
    for g in u.nonzero_slopes:
        for d in u.nonzero_slopes:
            if g == d:
                continue
            value = table[g] - table[d]
            seen.setdefault((value._num, value._den), value)
    ordered = sorted(seen.values(), key=cmp_to_key(lambda a, b: (a - b).sign()))
    return DeltaSet(tuple(ordered))


def e_closed_form(u: SlopeSet) -> tuple[CyclotomicReal, CyclotomicReal]:
    """Cartesian parts of the distinguished unit point (0, 1)."""
    return u.frame.unit_parts()


def e_norm_sq(u: SlopeSet) -> CyclotomicReal:
    """Squared distance of the unit point from the origin.

    Closed form sin(beta)^2 / sin(alpha-beta)^2.
    """
    ratio = sin_of(u.beta) * signed_sin(u.alpha, u.beta).inv()
    return ratio * ratio


def trace_element(u: SlopeSet) -> CyclotomicReal:
    """The mixed element 2*cos(alpha)*sin(beta) / sin(alpha-beta)."""
    return 2 * cos_of(u.alpha) * sin_of(u.beta) * signed_sin(u.alpha, u.beta).inv()


def ratio_elements(u: SlopeSet) -> tuple[CyclotomicReal, CyclotomicReal]:
    """(sin(alpha)^2, sin(beta)^2) each over sin(alpha-beta)^2."""
    gap_inv = signed_sin(u.alpha, u.beta).inv()
    qa = sin_of(u.alpha) * gap_inv
    qb = sin_of(u.beta) * gap_inv
    return qa * qa, qb * qb


def product_e(u: SlopeSet) -> PlanePoint:
    """The product of the unit point (0,1) with its partner (1,0).

    Computed through Cartesian multiplication and converted back, so it
    is an independent route to the ratio elements.
    """
    x, y = u.frame.unit_parts()
    # (x + iy) * ((1-x) - iy)
    re = x * (1 - x) + y * y
    im = y * (1 - 2 * x)
    return PlanePoint.from_cartesian(re, im, u.frame)


def integral_relation(u: SlopeSet) -> tuple[CyclotomicReal, CyclotomicReal]:
    """(r, s) with e^2 = s*e + r for the unit point e of the frame.

    Read off the coordinates of e^2: squaring (0,1) lands on (r, r+s).
    """
    x, y = u.frame.unit_parts()
    re = x * x - y * y
    im = 2 * x * y
    squared = PlanePoint.from_cartesian(re, im, u.frame)
    return squared.r, squared.s - squared.r


# ---------------------------------------------------------------------------
# membership in the real subring


def _delta_generators(u: SlopeSet) -> list[tuple[str, CyclotomicReal]]:
    """Denominator generators: p, p-1 per free constant plus differences."""
    table = u.p_table
    free = u.free_slopes
    single = len(free) == 1
    names = {}
    for i, g in enumerate(free):
        names[g] = "p" if single else f"p{i + 1}"
    out = []
    for g in free:
        out.append((names[g], table[g]))
        out.append((f"{names[g]}-1", table[g] - 1))
    for i, g in enumerate(free):
        for d in free[i + 1 :]:
            out.append((f"{names[g]}-{names[d]}", table[g] - table[d]))
    return out


def _numerator_generators(u: SlopeSet) -> list[tuple[str, CyclotomicReal]]:
    free = u.free_slopes
    single = len(free) == 1
    return [
        ("p" if single else f"p{i + 1}", u.p_table[g]) for i, g in enumerate(free)
    ]


def _monomials(count: int, total_degree: int):
    """Exponent tuples over `count` variables, graded lexicographic."""
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


def _bounded_vectors(count: int, per_max: int, budget: int):
    """Exponent vectors with entries <= per_max, ascending total then lex."""
    produced = 0
    for total in range(count * per_max + 1):
        for vec in _compositions(total, count, per_max):
            yield vec
            produced += 1
            if produced >= budget:
                return


def _compositions(total: int, count: int, per_max: int):
    if count == 1:
        if total <= per_max:
            yield (total,)
        return
    for head in range(min(total, per_max) + 1):
        for rest in _compositions(total - head, count - 1, per_max):
            yield (head,) + rest


class _MonomialLattice:
    """Z-span of bounded monomials in the numerator generators."""

    def __init__(self, u: SlopeSet, bounds: SearchBounds):
        n = u.working_conductor
        gens = _numerator_generators(u)
        self.names = tuple(name for name, _ in gens)
        self.values = tuple(v for _, v in gens)
        count = len(gens)
        degree = bounds.max_num_deg if count <= 1 else max(
            4, bounds.max_num_deg // count
        )
        self.exponents = []
        vectors = []
        for exps in _monomials(count, degree):
            value = CyclotomicReal.from_rational(1, n)
            for v, e in zip(self.values, exps):
                if e:
                    value = value * v**e
            self.exponents.append(exps)
            vectors.append(value)
        self.common_den = math.lcm(*(v._den for v in vectors))
        dim = len(vectors[0]._num)
        self.lattice = IntegerLattice(dim)
        for v in vectors:
            scale = self.common_den // v._den
            self.lattice.add([c * scale for c in v._num])
        # with one generator the kernel of the monomial family is spanned
        # by shifts of the primitive integer minimal polynomial, so
        # certificates can be size-reduced by Babai nearest-plane steps
        self._kernel_rows: list[list[int]] = []
        self._kernel_star: list[tuple[list[Fraction], Fraction]] = []
        if count == 1:
            from .cyclotomic import minimal_polynomial

            mp = minimal_polynomial(self.values[0])
            den = math.lcm(*(c.denominator for c in mp.coefficients))
            ints = [int(c * den) for c in mp.coefficients]
            content = math.gcd(*ints)
            relation = [c // content for c in ints]
            length = len(self.exponents)
            for j in range(length - len(relation) + 1):
                row = [0] * length
                for i, gc in enumerate(relation):
                    row[j + i] = gc
                self._kernel_rows.append(row)
            for row in self._kernel_rows:
                w = [Fraction(c) for c in row]
                for sv, ns in self._kernel_star:
                    coef = sum(a * b for a, b in zip(w, sv)) / ns
                    if coef:
                        w = [a - coef * b for a, b in zip(w, sv)]
                self._kernel_star.append((w, sum(a * a for a in w)))

    def _size_reduce(self, combo: list[int]) -> list[int]:
        if not self._kernel_rows:
            return combo
        c = list(combo)
        for i in range(len(self._kernel_rows) - 1, -1, -1):
            sv, ns = self._kernel_star[i]
            coef = sum(a * b for a, b in zip(c, sv)) / ns
            q = round(coef)
            if q:
                row = self._kernel_rows[i]
                c = [a - q * b for a, b in zip(c, row)]
        return c

    def membership(self, y: CyclotomicReal) -> Optional[list[tuple[int, tuple[int, ...]]]]:
        if self.common_den % y._den:
            return None
        scale = self.common_den // y._den
        combo = self.lattice.membership([c * scale for c in y._num])
        if combo is None:
            return None
        combo = self._size_reduce(combo)
        return [
            (c, self.exponents[i]) for i, c in enumerate(combo) if c
        ]


_lattice_cache: dict = {}
_field_cache: dict = {}


def _monomial_lattice(u: SlopeSet, bounds: SearchBounds) -> _MonomialLattice:
    key = (u, bounds.max_num_deg)
    if key not in _lattice_cache:
        _lattice_cache[key] = _MonomialLattice(u, bounds)
    return _lattice_cache[key]


def _field_basis(u: SlopeSet) -> RowSpace:
    """Linear basis of Q(projection constants) inside the working field.

    Monomial spans are grown degree by degree until they stabilize,
    which is a complete basis because the constants are algebraic.
    """
    if u in _field_cache:
        return _field_cache[u]
    n = u.working_conductor
    gens = [v for _, v in _numerator_generators(u)]
    span = RowSpace(euler_phi(n))
    basis_elements = [CyclotomicReal.from_rational(1, n)]
    span.add(basis_elements[0].coefficients())
    frontier = basis_elements[:]
    while frontier:
        next_frontier = []
        for element in frontier:
            for g in gens:
                candidate = element * g
                if span.add(candidate.coefficients()) is None:
                    next_frontier.append(candidate)
        frontier = next_frontier
    _field_cache[u] = span
    return span


def membership_in_MR(
    x: Scalar, u: SlopeSet, bounds: Optional[SearchBounds] = None
) -> MembershipVerdict:
    """Decide membership of a real value in the real subring of u.

    Integers are always inside.  For three directions the subring is
    exactly Z, so everything is decided.  Otherwise a bounded witness
    search runs over denominator monomials in the delta generators; a
    hit gives ProvenIn with a certificate, a field obstruction gives
    ProvenNotIn, and exhaustion gives Unknown.
    """
    bounds = bounds or SearchBounds()
    x = _as_cyclotomic(x)
    if x.is_integer:
        return _integer_verdict(x)
    if u.size == 3:
        if x.is_rational:
            reason = f"{x.as_rational()} is not an integer"
        else:
            reason = "not rational, and the real subring is exactly Z"
        return MembershipVerdict(MembershipKind.PROVEN_NOT_IN, reason=reason)

    n = u.working_conductor
    x_n = rewrite_in_conductor(x, n)
    if x_n is None:
        return MembershipVerdict(
            MembershipKind.PROVEN_NOT_IN,
            reason=f"outside the working field Q(zeta_{n})",
        )
    if _field_basis(u).coordinates(x_n.coefficients()) is None:
        return MembershipVerdict(
            MembershipKind.PROVEN_NOT_IN,
            reason="outside the field generated by the projection constants",
        )

    lattice = _monomial_lattice(u, bounds)
    den_gens = _delta_generators(u)
    den_names = [name for name, _ in den_gens]
    den_values = [v for _, v in den_gens]
    powers: list[list[CyclotomicReal]] = []
    one = CyclotomicReal.from_rational(1, n)
    for v in den_values:
        powers.append([one])
    for exps in _bounded_vectors(
        len(den_gens), bounds.max_den_exp, bounds.max_candidates
    ):
        y = x_n
        for i, e in enumerate(exps):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * den_values[i])
            if e:
                y = y * powers[i][e]
        combo = lattice.membership(y)
        if combo is not None:
            witness = MembershipWitness(
                generator_names=lattice.names,
                generator_values=lattice.values,
                numerator_terms=tuple(combo),
                denominator_factors=tuple(
                    (den_names[i], den_values[i], e)
                    for i, e in enumerate(exps)
                    if e
                ),
            )
            return MembershipVerdict(
                MembershipKind.PROVEN_IN,
                reason="witness found",
                witness=witness,
            )
    return MembershipVerdict(
        MembershipKind.UNKNOWN,
        reason="bounded search exhausted",
        bounds=bounds,
    )


# ---------------------------------------------------------------------------
# ring criteria


class RingStatus(Enum):
    RING = "Ring"
    NOT_RING = "NotRing"
    UNKNOWN = "Unknown"


def _ring_status(verdicts: Sequence[MembershipVerdict]) -> RingStatus:
    """NotRing on any ProvenNotIn, Ring when all are ProvenIn, else Unknown."""
    if any(v.is_proven_not_in for v in verdicts):
        return RingStatus.NOT_RING
    if all(v.is_proven_in for v in verdicts):
        return RingStatus.RING
    return RingStatus.UNKNOWN


QA_LABEL = "sin(alpha)^2/sin(alpha-beta)^2"
QB_LABEL = "sin(beta)^2/sin(alpha-beta)^2"


@dataclass(frozen=True)
class CriterionResult:
    """One equivalent ring criterion evaluated on labelled elements."""

    name: str
    description: str
    elements: tuple[tuple[str, CyclotomicReal], ...]
    verdicts: tuple[MembershipVerdict, ...]

    @property
    def status(self) -> RingStatus:
        return _ring_status(self.verdicts)


@dataclass(frozen=True)
class FrameScanResult:
    """Criterion (both ratios) re-evaluated in an alternative frame."""

    alpha: Angle
    beta: Angle
    elements: tuple[tuple[str, CyclotomicReal], ...]
    verdicts: tuple[MembershipVerdict, ...]

    @property
    def status(self) -> RingStatus:
        return _ring_status(self.verdicts)


@dataclass(frozen=True)
class RingReport:
    slopes: SlopeSet
    status: RingStatus
    criteria: tuple[CriterionResult, ...]
    frame_scan: tuple[FrameScanResult, ...] = ()
    decided_by: str = ""

    def criterion(self, name: str) -> CriterionResult:
        for c in self.criteria:
            if c.name == name:
                return c
        raise KeyError(name)


def _criterion_elements(u: SlopeSet) -> list[tuple[str, str, list[tuple[str, CyclotomicReal]]]]:
    qa, qb = ratio_elements(u)
    r, s = integral_relation(u)
    prod = product_e(u)
    return [
        (
            "integral",
            "unit point satisfies a monic quadratic over the real subring",
            [("r", r), ("s", s)],
        ),
        (
            "norm-trace",
            "squared norm and mixed term of the unit point",
            [
                (QB_LABEL, qb),
                ("2*cos(alpha)*sin(beta)/sin(alpha-beta)", trace_element(u)),
            ],
        ),
        (
            "ratios",
            "both squared sine ratios",
            [(QA_LABEL, qa), (QB_LABEL, qb)],
        ),
        (
            "unit-product",
            "coordinates of the product of the two unit points",
            [("alpha-coordinate", prod.r), ("beta-coordinate", prod.s)],
        ),
    ]


def ring_check(
    u: SlopeSet,
    bounds: Optional[SearchBounds] = None,
    scan_frames: bool = True,
) -> RingReport:
    """Decide whether the origami set over u is a subring of C.

    The four equivalent criteria run on the distinguished frame with
    the full membership search.  If all of them stay Unknown and u has
    four or more directions, the ratio criterion is re-checked on every
    other ordered frame pair without any search; the criteria are
    frame-independent in validity, so one decided frame settles the
    question.  There only integer ratios can decide: in the frame
    (alpha, beta), p(gamma) = (cot gamma - cot alpha)/(cot beta - cot alpha),
    so every frame generates the same field Q(p), and the ratios of the
    frame (a, b) are rational functions of p(a), p(b) and the default
    ratios.  The scan runs only when no default verdict is ProvenNotIn,
    so those ratios lie in Q(p) and no field obstruction can appear.
    """
    bounds = bounds or SearchBounds()
    cache: dict[tuple, MembershipVerdict] = {}

    def member(x: CyclotomicReal) -> MembershipVerdict:
        key = (x.conductor, x._num, x._den)
        if key not in cache:
            cache[key] = membership_in_MR(x, u, bounds)
        return cache[key]

    criteria = []
    for name, description, elements in _criterion_elements(u):
        verdicts = tuple(member(value) for _, value in elements)
        criteria.append(
            CriterionResult(name, description, tuple(elements), verdicts)
        )

    status = RingStatus.UNKNOWN
    decided_by = ""
    for c in criteria:
        if c.status is not RingStatus.UNKNOWN:
            status, decided_by = c.status, f"criterion {c.name}"
            break

    scans = []
    if status is RingStatus.UNKNOWN and scan_frames and u.size > 3:
        no_search = MembershipVerdict(MembershipKind.UNKNOWN, reason="fast paths only")
        nonzero = sorted(u.nonzero_slopes, reverse=True)
        for a, b in itertools.permutations(nonzero, 2):
            if (a, b) == (u.alpha, u.beta):
                continue
            qa, qb = ratio_elements(u.with_frame(a, b))
            verdicts = tuple(
                _integer_verdict(q) if q.is_integer else no_search for q in (qa, qb)
            )
            scan = FrameScanResult(a, b, ((QA_LABEL, qa), (QB_LABEL, qb)), verdicts)
            scans.append(scan)
            if scan.status is not RingStatus.UNKNOWN:
                status, decided_by = scan.status, f"ratios in frame ({a}, {b})"
                break

    return RingReport(
        slopes=u,
        status=status,
        criteria=tuple(criteria),
        frame_scan=tuple(scans),
        decided_by=decided_by,
    )


# ---------------------------------------------------------------------------
# classification and extensions


class SetKind(Enum):
    DISCRETE = "Discrete"
    DENSE = "Dense"


@dataclass(frozen=True)
class Classification:
    kind: SetKind
    reason: str
    lattice_unit: Optional[PlanePoint] = None

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.reason}"


def classify(u: SlopeSet) -> Classification:
    """Discrete lattice for three directions, dense plane set beyond.

    With exactly three directions the difference set is {1, -1}, the
    real points are Z, and the whole set is the lattice Z + Z*e.  A
    fourth direction forces a projection constant other than 0 and 1,
    whose powers make the real points dense.
    """
    if u.size == 3:
        return Classification(
            SetKind.DISCRETE,
            "lattice Z + Z*e over the unit point e",
            lattice_unit=u.frame.unit(),
        )
    return Classification(
        SetKind.DENSE,
        "four or more directions make the real points dense",
    )


def extension_check(
    u: SlopeSet,
    extra: Sequence[Union[Angle, str]],
    bounds: Optional[SearchBounds] = None,
) -> RingReport:
    """Ring check of the slope set enlarged by extra directions."""
    return ring_check(u.union(extra), bounds=bounds)
