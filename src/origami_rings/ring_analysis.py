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
  That field is the one fixed by the automorphisms zeta -> zeta^a that
  fix every projection constant, so an a that moves x is the
  obstruction.

The search is bounded (exponents and degrees), so a third verdict
Unknown reports exhaustion without claiming anything.  Every value the
search builds is a graded product start * prod factor_i^e_i, made from
its parent, the product with one exponent lowered: by a memoized chain, or
on a lattice that spans the field by a walk over a list in search order.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .angles import Angle
from .cyclotomic import (
    CyclotomicReal,
    _convolve,
    euler_phi,
    evaluate,
    rewrite_in_conductor,
    sin_of,
    cos_of,
    split_prime,
    sum_of,
    units,
)
from .geometry import PlanePoint, ZeroSlopeError, _as_cyclotomic, inverse_signed_sin
from .linalg import IntegerLattice
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
        total = sum_of([
            math.prod((v**e for v, e in zip(self.generator_values, exps) if e),
                      start=CyclotomicReal.from_rational(coeff))
            for coeff, exps in self.numerator_terms
        ])
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
            base = name if "-" not in name else f"({name})"
            if e == 1:
                dens.append(base)
            elif e:
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


# ---------------------------------------------------------------------------
# projection constants and derived elements


def p_value(u: SlopeSet, gamma: Angle) -> CyclotomicReal:
    """p(gamma) for a member direction of u (zero direction excluded)."""
    if gamma.is_zero:
        raise ZeroSlopeError("p is undefined for the horizontal direction")
    if gamma not in u:
        raise ValueError(f"{gamma} is not a member of {u}")
    return u.p_table[gamma]


def delta_set(u: SlopeSet) -> tuple[CyclotomicReal, ...]:
    """The difference set {p(gamma) - p(delta)} over ordered pairs, ascending."""
    table = u.p_table
    seen: dict[tuple, CyclotomicReal] = {}
    for g in u.nonzero_slopes:
        for d in u.nonzero_slopes:
            if g == d:
                continue
            value = table[g] - table[d]
            seen.setdefault((value._num, value._den), value)
    ordered = sorted(seen.values(), key=cmp_to_key(lambda a, b: (a - b).sign()))
    return tuple(ordered)


def trace_element(u: SlopeSet) -> CyclotomicReal:
    """The mixed element 2*cos(alpha)*sin(beta) / sin(alpha-beta)."""
    return 2 * cos_of(u.alpha) * sin_of(u.beta) * inverse_signed_sin(u.alpha, u.beta)


def ratio_elements(u: SlopeSet) -> tuple[CyclotomicReal, CyclotomicReal]:
    """(sin(alpha)^2, sin(beta)^2) each over sin(alpha-beta)^2."""
    gap_inv = inverse_signed_sin(u.alpha, u.beta)
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


class _Form(dict):
    """An integer polynomial in the numerator generators, {exponents: coefficient}."""

    def __mul__(self, other: "_Form") -> "_Form":
        out: dict[tuple[int, ...], int] = {}
        for a, c in self.items():
            for b, d in other.items():
                e = tuple(x + y for x, y in zip(a, b))
                out[e] = out.get(e, 0) + c * d
        return _Form((e, c) for e, c in out.items() if c)

    def __sub__(self, other: "_Form") -> "_Form":
        out = dict(self)
        for e, c in other.items():
            out[e] = out.get(e, 0) - c
        return _Form((e, c) for e, c in out.items() if c)


class _Chain(dict):
    """start * prod(factors[i]**e[i]) by exponent vector e, made on first
    read as one mul(value at e with its first nonzero entry, at i, lowered
    by one, factors[i]) and stored only once that product returns, so an
    interrupt leaves no entry behind."""

    def __init__(self, start, factors: Sequence, mul=operator.mul):
        super().__init__({(0,) * len(factors): start})
        self.factors, self.mul = factors, mul

    def __missing__(self, exps: tuple[int, ...]):
        i, lower = _parent(exps)
        self[exps] = value = self.mul(self[lower], self.factors[i])
        return value


def _parent(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(i, exps with entry i, its first nonzero one, lowered by one)."""
    i = next(k for k, e in enumerate(exps) if e)
    return i, exps[:i] + (exps[i] - 1,) + exps[i + 1 :]


def _graded_exponents(count: int, top: int, per_max: int):
    """Exponent vectors of length count with entries <= per_max and total
    <= top, ascending total then lex."""
    layer = [(0,) * count]
    yield from layer
    for _ in range(top):
        layer = sorted({
            exps[:i] + (e + 1,) + exps[i + 1 :]
            for exps in layer for i, e in enumerate(exps) if e < per_max
        })
        yield from layer


def _numerator_generators(u: SlopeSet) -> list[tuple[str, CyclotomicReal]]:
    free = u.free_slopes
    single = len(free) == 1
    return [
        ("p" if single else f"p{i + 1}", u.p_table[g]) for i, g in enumerate(free)
    ]


def _deltas(gens: Sequence[tuple[str, object]], one) -> list[tuple[str, object]]:
    """The delta generators over the numerator generators (name, p) in the
    search order: p and p-1 per generator, then the pairwise differences."""
    out = []
    for name, p in gens:
        out += [(name, p), (f"{name}-1", p - one)]
    for (a, p), (b, q) in itertools.combinations(gens, 2):
        out.append((f"{a}-{b}", p - q))
    return out


@lru_cache(maxsize=None)
def _forms(count: int) -> _Chain:
    """The denominator monomials prod(d_i^e_i) by e, as polynomials in `count`
    numerator generators; one chain serves every query and every bound."""
    one = _Form({(0,) * count: 1})
    basis = [("", _Form({tuple(int(i == j) for j in range(count)): 1})) for i in range(count)]
    return _Chain(one, [form for _, form in _deltas(basis, one)])


@lru_cache(maxsize=8)
def _search_order(count: int, top: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """The first `budget` denominator exponent vectors over `count` delta
    generators, each exponent at most top."""
    return tuple(itertools.islice(_graded_exponents(count, count * top, top), budget))


@lru_cache(maxsize=8)
def _walk_plan(count: int, top: int, budget: int) -> tuple[tuple[int, int], ...]:
    """(index in the search order of the parent, i) for each vector of
    _search_order(count, top, budget) after the first, its parent and i as
    _Chain makes them: an earlier vector, since the order is graded."""
    order = _search_order(count, top, budget)
    index = {exps: k for k, exps in enumerate(order)}
    return tuple((index[lower], i) for i, lower in map(_parent, order[1:]))


class _PackedMatrix:
    """An integer matrix M that multiplies integer row vectors by Kronecker
    substitution: row i is packed into one integer with entry j in the
    w-bit field j, from bit j * w on, so t times the packed rows is one
    integer whose field j holds entry j of t * M.  An offset lifts every
    field by 2^(w - 1), so each signed entry reads back by one shift and
    mask.  w exceeds the bits of t, of M's largest entry and of its row
    count by one, so no field carries into the next, and is rounded up to
    a multiple of 32, so that a few packings serve a whole walk."""

    def __init__(self, rows: list[list[int]]):
        self.rows = rows
        self.spread = max(abs(a) for row in rows for a in row).bit_length() + len(rows).bit_length() + 1
        self.packed: dict[int, tuple[range, list[int], int, int]] = {}  # by w

    def times(self, t: list[int]) -> list[int]:
        width = max(map(int.bit_length, t)) + self.spread
        width += -width % 32
        if width not in self.packed:
            fields = range(0, len(self.rows[0]) * width, width)
            self.packed[width] = (fields, [sum(a << j for j, a in zip(fields, row)) for row in self.rows],
                                  sum(1 << j for j in fields) << width - 1, (1 << width) - 1)
        fields, rows, offset, mask = self.packed[width]
        total, half = sum(map(operator.mul, t, rows), offset), 1 << width - 1
        return [(total >> j & mask) - half for j in fields]


class _MonomialLattice:
    """Z-span of bounded monomials in the numerator generators.

    It also keeps the query context of its set: the delta generators, in
    search order, and the generators modulo +-1 of the fixing group.

    A combination of the monomials has its image mod q = split_prime(n) in
    the span of the pointwise powers E(p)^e.  That span is kept as one fully
    reduced echelon matrix `rows` over F_q, 1 at its own pivot and 0 at the
    other `pivots`.  Every p-value has an image mod q: each prime l of its
    denominator divides 2 or an angle denominator, as 2 sin(theta) =
    |1 - zeta^k| and 1 - zeta^k is a unit unless zeta^k has l-power order,
    when its norm is a power of l (Washington, GTM 83, prop. 2.8); so
    l <= n/2 for n = lcm(4, 2 * den), and q = 1 (mod n) exceeds n.  The
    exact `lattice`, `common_den`, Babai rows and Babai tables `_babai`
    (`_exact`) are built at the first exact query.  With one generator each
    Hermite row's tracked combination is then divided by the shifts of
    mu(p), so a hit comes back at about 100 bits, not 2,700, before the
    Babai step, whose tables come from the shifts' banded integral
    Gram-Schmidt data.  Pivot coordinates come from one triangular solve,
    and a hit's witness from them (`combination`): the Hermite rows'
    tracked combinations, packed, times the coordinates, less the Babai
    quotients convolved with mu(p).  Once the rows mod q, and so the
    Hermite rows, span Q(p) (`spans`), `_steps` holds multiplication by
    each delta generator as a d x d matrix on pivot coordinates, packed,
    and `walk` visits a query's candidates in search order, each one
    vector-matrix product from the coordinates of its parent in
    `_walk_plan`, kept in a list.  Otherwise a candidate that passes
    the mod-q screen is decided by one exact test, `membership`.

    The screen reads two fingerprints residual(E) . v_k mod q of an image
    E, for two fixed pseudo-random vectors v_k drawn from random.Random(q)
    (Freivalds' identity test).  residual is linear, E - E[pivots] @ rows,
    so each fingerprint is E . z_k, z_k being v_k less rows @ v_k at the
    pivot columns: one dot product per image.  A nonzero fingerprint
    proves a nonzero residual, so the screen drops no lattice member; a
    zero fingerprint of a nonzero residual, of chance 1/q^2 over the v_k
    (Schwartz-Zippel), only sends the candidate on to the exact test,
    which rejects it.  Verdicts and witnesses therefore do not depend on
    the v_k.
    """

    def __init__(self, u: SlopeSet, max_num_deg: int):
        self.n = n = u.working_conductor
        gens = _numerator_generators(u)
        self.names = tuple(name for name, _ in gens)
        self.values = tuple(v for _, v in gens)
        self.den_names, self.den_values = zip(*_deltas(gens, 1))
        self.images = _images(u)
        group = _fixing_group(u, self.images)
        self.galois = _generators_mod_sign(group, n)
        count = len(gens)
        self.degree = max_num_deg if count <= 1 else max(4, max_num_deg // count)
        self.exponents = list(_graded_exponents(count, self.degree, self.degree))
        self.q = q = split_prime(n)
        ones = np.ones(euler_phi(n), np.int64)
        self.rows, self.pivots = np.zeros((0, len(ones)), np.int64), []
        images = _Chain(ones, self.images, self.mul_mod)
        for e in self.exponents:
            if (r := self.residual(images[e])).any():
                col = int(np.flatnonzero(r)[0])
                r = r * pow(int(r[col]), -1, q) % q
                # clear the new pivot from the earlier rows, one outer product
                self.rows = np.vstack([(self.rows - np.outer(self.rows[:, col], r)) % q, r])
                self.pivots.append(col)
        # the images span Q(p) mod q, so the Hermite rows span Q(p)
        self.spans = len(self.pivots) == euler_phi(n) // len(group)
        # residual(image) . v == image . z for the two columns v of z drawn
        # here, once z is v less rows @ v at the pivot columns
        self.z = np.frombuffer(random.Random(q).randbytes(8 * len(ones)), np.uint32) % q
        self.z = self.z.astype(np.int64).reshape(-1, 2)
        self.z[self.pivots] = (self.z[self.pivots] - _dot_mod(self.rows, self.z, q)) % q

    def mul_mod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b % self.q

    def residual(self, image: np.ndarray) -> np.ndarray:
        """The element of image + span mod q that is zero at every pivot,
        image - image[pivots] @ rows, so zero exactly on the span; only the
        echelon build reads it."""
        return (image - _dot_mod(image[self.pivots], self.rows, self.q)) % self.q

    def fingerprint(self, image: np.ndarray) -> tuple[int, int]:
        """The two dot products residual(image) . v_k mod q, as image . z."""
        return tuple(_dot_mod(image, self.z, self.q).tolist())

    @cached_property
    def _exact(self) -> tuple[IntegerLattice, int, list[list[int]], tuple, _PackedMatrix]:
        chain = _Chain(CyclotomicReal.from_rational(1, self.n), self.values)
        monomials = [chain[e] for e in self.exponents]
        common_den = math.lcm(*(v._den for v in monomials))
        lattice = IntegerLattice(euler_phi(self.n))
        relations = [lattice.add([c * (common_den // v._den) for c in v._num]) for v in monomials]
        # With one generator the first relation the lattice closes is
        # +-mu(p), cleared to content 1, and its shifts r_j span the kernel
        # of the monomial family.  Babai steps against them keep
        # certificates small.
        first = next((r for r in relations if r is not None), None)
        shifts: list[list[int]] = []
        if len(self.values) == 1 and first is not None:
            length, width = len(self.exponents), len(first)
            for j in range(length - width + 1):
                shifts.append([0] * j + first + [0] * (length - j - width))
            # Hermite reduction leaves the tracked combinations at
            # thousands of bits.  Dividing each by the shifts of mu(p)
            # moves it by kernel rows only: the Hermite rows stay, each
            # Babai quotient of a hit moves by an integer, and the reduced
            # witness is the same unless a step rounds an exact half.
            lattice.reduce_combinations(shifts)
        # Babai tables from the integral Gram-Schmidt data of the shifts
        # (Cohen, GTM 138, algorithm 2.6.7), forming no r_j*: d[j + 1] =
        # det Gram(r_0..r_j), lam[i][j] = d[j] <r_i, r_j*> and entry k of
        # column j is d[j] <x, r_j*> for the tracked combination x of
        # Hermite row k, each from <., r_j> by
        # u <- (d[l + 1] u - lam_.l lam_jl) / d[l].
        # <r_i, r_j> is mu's autocorrelation, zero for |i - j| >= width,
        # and so is lam[i][j]: the steps before l = j - width + 1 collapse
        # into one product by d[l].  Column j's band is the next width - 1
        # shifts' lam[i][j], and each quotient is the nearest-plane one.
        width, d, lam = len(first or ()), [1], []

        def gram_schmidt(out: dict[int, int], dots: dict[int, int]) -> dict[int, int]:
            lo = next(iter(dots), 0)  # keys ascend
            for j, u in dots.items():
                start, lam_j = max(lo, j - width + 1), lam[j]
                u *= d[start]
                for l in range(start, j):
                    u = (d[l + 1] * u - out[l] * lam_j[l]) // d[l]
                out[j] = u
            return out

        auto = [sum(map(operator.mul, first, first[k:])) for k in range(width)]
        for i in range(len(shifts)):
            lam.append({})  # built in place: row i reads its own entries as lam[i]
            gram_schmidt(lam[i], {j: auto[i - j] for j in range(max(0, i - width + 1), i + 1)})
            d.append(lam[i][i])
        tails = [lattice.combination([int(i == k) for i in range(lattice.rank)])
                 for k in range(lattice.rank)]
        rows = [list(gram_schmidt({}, {j: sum(map(operator.mul, tail[j:j + width], first))
                                       for j in range(len(shifts))}).values())
                for tail in tails]
        # Quotient j is one fraction: t and the band's quotients against
        # column j followed by its band negated, over d[j + 1]; each such
        # column and its norm are kept divided by their gcd.
        columns, norms = [], []
        for j, column in enumerate(zip(*rows)):
            column = [*column, *(-lam[i][j] for i in range(j + 1, min(len(shifts), j + width)))]
            g = math.gcd(d[j + 1], *column)
            columns.append([a // g for a in column])
            norms.append(d[j + 1] // g)
        return lattice, common_den, shifts, (columns, norms, first), _PackedMatrix(tails)

    lattice = property(lambda self: self._exact[0])
    common_den = property(lambda self: self._exact[1])
    _babai = property(lambda self: self._exact[3])
    _tails = property(lambda self: self._exact[4])

    def pivot_coordinates(self, y: CyclotomicReal) -> tuple[list[int], int]:
        """(t, den), in lowest terms, with t / den the rational coordinates
        over the Hermite rows that reproduce common_den * y on the pivot
        columns, from `IntegerLattice.coordinates`.

        If common_den * y = s*H with s integral then s = t / den, so a
        non-integral t / den proves y outside the lattice.  Once y lies in
        the rational span of the rows, as it does when the lattice spans
        Q(p) and y lies in Q(p), the converse holds too.
        """
        t, den = self.lattice.coordinates(y._num)
        g = math.gcd(den * y._den, *(a * self.common_den for a in t))
        return [a * self.common_den // g for a in t], den * y._den // g

    @cached_property
    def _steps(self) -> tuple[list[_PackedMatrix], int]:
        """(matrices, den): multiplication by each delta generator, in the
        order of `_deltas`, as an integer matrix over den acting on pivot
        coordinates, for a lattice whose Hermite rows h_k span Q(p).

        The eta_k = h_k / common_den are then a basis of Q(p), and row k of
        the matrix of p_i holds the pivot coordinates of eta_k * p_i, so
        those of y * p_i are those of y times the matrix (Cohen, GTM 138,
        section 4.2): one exact product per row and generator.  The
        matrices of p_i - 1 and p_i - p_j follow by subtraction.
        """
        basis = [CyclotomicReal._make(self.n, h, self.common_den) for h in self.lattice.basis()]
        coords = [[self.pivot_coordinates(b * p) for b in basis] for p in self.values]
        den = math.lcm(*(d for matrix in coords for _, d in matrix))
        matrices = [np.array([[a * (den // d) for a in t] for t, d in matrix], dtype=object)
                    for matrix in coords]
        one = np.identity(len(basis), dtype=object) * den
        return [_PackedMatrix(m.tolist()) for _, m in _deltas([("", m) for m in matrices], one)], den

    def walk(self, x: CyclotomicReal, bounds: SearchBounds):
        """(exps, t, den) for each denominator monomial m in the search
        order: the pivot coordinates t / den of x * m(p), in lowest terms,
        each one packed vector-matrix product from its parent's.  Exact
        once the Hermite rows span Q(p) and x lies in Q(p), and then
        x * m(p) lies in the lattice exactly when den is 1."""
        steps, step_den = self._steps
        search = len(self.den_values), bounds.max_den_exp, bounds.max_candidates
        order, plan = _search_order(*search), _walk_plan(*search)
        coords = [self.pivot_coordinates(x)]
        yield order[0], *coords[0]
        for exps, (parent, i) in zip(order[1:], plan):
            t, den = coords[parent]
            t, den = steps[i].times(t), den * step_den
            if (g := math.gcd(den, *t)) > 1:
                t, den = [a // g for a in t], den // g
            coords.append((t, den))
            yield exps, t, den

    def _quotients(self, t: list[int]) -> list[int]:
        """Babai's nearest-plane quotients against the kernel rows, last row
        first, for the lattice element with integer pivot coordinates t.

        Row j's quotient rounds <c, r_j*> / |r_j*|^2, c being the tracked
        combination of t less the later rows times their quotients: times
        d[j], t against the tails' column of the table less the band of
        later quotients, over d[j + 1], one dot product of d + width - 1
        terms.
        """
        columns, norms, mu = self._babai
        q = [0] * len(norms)
        for j in reversed(range(len(norms))):
            q[j] = _round_half_even(sum(map(operator.mul, t + q[j + 1 : j + len(mu)], columns[j])), norms[j])
        return q

    def combination(self, t: list[int]) -> list[tuple[int, tuple[int, ...]]]:
        """(coefficient, exponents) of the witness terms of the lattice
        element with integer pivot coordinates t: its tracked combination,
        t times the rows' tails, less each kernel row, a shift of mu(p),
        times its Babai quotient, all at once as the convolution q * mu."""
        c = self._tails.times(t)
        if any(q := self._quotients(t)):
            c = list(map(operator.sub, c, _convolve(q, self._babai[2])))
        return [(a, self.exponents[i]) for i, a in enumerate(c) if a]

    def membership(self, y: CyclotomicReal) -> Optional[list[tuple[int, tuple[int, ...]]]]:
        if self.common_den % y._den:
            return None
        scale = self.common_den // y._den
        vec = [c * scale for c in y._num]
        if self.lattice.membership(vec) is None:
            return None
        return self.combination(self.lattice.coordinates(vec)[0])


def _dot_mod(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q for residues below q < 2^31, a split into limbs of w
    bits, w from the length k of the summed axis: each partial sum of k
    products below 2^(w + bits(q)) stays below 2^63."""
    width = 63 - q.bit_length() - a.shape[-1].bit_length()
    shifts = range(0, q.bit_length(), width)
    return sum((a >> s & ((1 << width) - 1)) @ b % q * pow(2, s, q) % q for s in shifts) % q


def _round_half_even(a: int, b: int) -> int:
    """round(Fraction(a, b)) for b > 0, in integers."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q % 2))


class _Candidates:
    """(exps, form) for the denominator monomials m = prod(d_i^exps[i]) in
    the search order, form being m as a polynomial in the numerator
    generators p; the search walks these while the lattice does not span
    Q(p).

    Every delta generator is a linear form in the p's, so x * m(p) is an
    integer combination of the powers x * p^e, the chain `powers`.  The
    screen reads their images mod q, the chain `images` of
    E(x) * prod E(p_i)^e_i pointwise, None when q divides x's denominator.
    The lattice's fingerprints are F_q-linear, so each power's image is
    fingerprinted once, by one limbed dot product, and a candidate's
    fingerprints are the same integer combination of those numbers: the
    candidate is dropped when either is nonzero mod q.  An exact power is
    one product, made when a candidate that passes the screen first needs
    it.  The forms depend only on the number of generators, so they come
    from the chain `_forms` that every query and every bound share.
    """

    def __init__(self, x: CyclotomicReal, lattice: _MonomialLattice, bounds: SearchBounds):
        self.lattice = lattice
        self.forms = _forms(len(lattice.values))
        count, top = len(self.forms.factors), bounds.max_den_exp
        self.order = _search_order(count, top, bounds.max_candidates)
        self.powers = _Chain(x, lattice.values)
        start = evaluate(x, lattice.n)
        self.images = None if start is None else _Chain(start, lattice.images, lattice.mul_mod)
        self.prints: dict[tuple[int, ...], tuple[int, int]] = {}

    def __iter__(self):
        return ((exps, self.forms[exps]) for exps in self.order)

    def value(self, form: _Form) -> CyclotomicReal:
        """x * m(p) as one sum of the powers; the representation is
        canonical, so it equals the product chain's."""
        return sum_of([c * self.powers[e] for e, c in form.items()])

    def excluded(self, form: _Form) -> bool:
        """Whether a fingerprint of x * m(p) is nonzero, which proves its
        image mod q outside the span of the monomial images, and so x * m(p)
        outside the lattice; False when x has no image."""
        if self.images is None:
            return False
        for e in form.keys() - self.prints.keys():
            self.prints[e] = self.lattice.fingerprint(self.images[e])
        columns = zip(*(self.prints[e] for e in form))
        return any(sum(map(operator.mul, form.values(), f)) % self.lattice.q for f in columns)


# A set's lattice serves only the queries on that set, so the cache keeps
# the most recently used few; it is the one place a set's mod-q state lives.
@lru_cache(maxsize=4)
def _monomial_lattice(u: SlopeSet, max_num_deg: int) -> _MonomialLattice:
    return _MonomialLattice(u, max_num_deg)


def _images(u: SlopeSet) -> tuple[np.ndarray, ...]:
    """The free p-values at the roots of Phi_n mod q = split_prime(n)."""
    return tuple(evaluate(v, u.working_conductor) for _, v in _numerator_generators(u))


def _fixing_group(u: SlopeSet, images: Sequence[np.ndarray]) -> tuple[int, ...]:
    """The units a mod n whose sigma_a fixes every projection constant.

    By Galois theory this group H fixes exactly the field Q(p) the
    constants generate, whose degree is phi(n)/|H| (Washington, GTM 83,
    ch. 2).  sigma_a(g) takes at the root w^b the value g takes at w^(ab),
    so where g's images mod q = split_prime(n) differ from their
    permutation b -> ab, sigma_a moves g.  Every g has images, as
    `_MonomialLattice` shows; `images` holds them, as `_images(u)` returns
    them.  The units that pass form a group containing H, and it is H once
    its generators modulo +-1 fix every g exactly; otherwise every unit is
    tested exactly.
    """
    n = u.working_conductor
    gens = [v for _, v in _numerator_generators(u)]
    at = {b % n: k for k, b in enumerate(units(n))}  # the entry of each root w^b
    # the entry at b = 1 first: sigma_a(g) = g needs g(w^a) = g(w)
    group = tuple(a for k, a in enumerate(units(n)) if all(
        e[k] == e[0] and e[[at[a * b % n] for b in units(n)]].tobytes() == e.tobytes()
        for e in images
    ))
    if all(g.is_fixed_by(a) for a in _generators_mod_sign(group, n) for g in gens):
        return group
    return tuple(a for a in units(n) if all(g.is_fixed_by(a) for g in gens))


def _generators_mod_sign(group: Sequence[int], n: int) -> list[int]:
    """Elements of the unit group `group` that generate it together with -1."""
    out, span = [], {1 % n, -1 % n}
    for a in group:
        if a % n not in span:
            out.append(a)
            cosets, power = [1], a % n
            while power not in span:  # span * <a> is the union of a^k * span
                cosets.append(power)
                power = power * a % n
            span = {s * c % n for s in span for c in cosets}
    return out


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
        witness = MembershipWitness(
            generator_names=(),
            generator_values=(),
            numerator_terms=((int(x.as_rational()), ()),) if not x.is_zero else (),
            denominator_factors=(),
        )
        return MembershipVerdict(
            MembershipKind.PROVEN_IN, reason="integer", witness=witness
        )
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
    lattice = _monomial_lattice(u, bounds.max_num_deg)
    if not all(x_n.is_fixed_by(a) for a in lattice.galois):
        return MembershipVerdict(
            MembershipKind.PROVEN_NOT_IN,
            reason="outside the field generated by the projection constants",
        )

    if lattice.spans:
        # the Hermite rows span Q(p), which holds x: a candidate is a
        # member exactly when its pivot coordinates are integers
        hits = ((exps, lattice.combination(t)) for exps, t, den in lattice.walk(x_n, bounds) if den == 1)
    else:
        candidates = _Candidates(x_n, lattice, bounds)
        hits = ((exps, lattice.membership(candidates.value(form)))
                for exps, form in candidates if not candidates.excluded(form))
    for exps, combo in hits:
        if combo is not None:
            witness = MembershipWitness(
                generator_names=lattice.names,
                generator_values=lattice.values,
                numerator_terms=tuple(combo),
                denominator_factors=tuple(
                    (lattice.den_names[i], lattice.den_values[i], e)
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
        """NotRing on any ProvenNotIn, Ring when all are ProvenIn, else Unknown."""
        if any(v.is_proven_not_in for v in self.verdicts):
            return RingStatus.NOT_RING
        if all(v.is_proven_in for v in self.verdicts):
            return RingStatus.RING
        return RingStatus.UNKNOWN


@dataclass(frozen=True)
class RingReport:
    slopes: SlopeSet
    status: RingStatus
    criteria: tuple[CriterionResult, ...]
    # always (): the JSON keeps an empty "frame_scan" for schema 1, and the
    # benchmark's report checks still read the field
    frame_scan: tuple = ()
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


def ring_check(u: SlopeSet, bounds: Optional[SearchBounds] = None) -> RingReport:
    """Decide whether the origami set over u is a subring of C.

    The four equivalent criteria run on the distinguished frame with
    the full membership search, and the first one decided settles the
    question: the criteria are equivalent, so they never disagree.
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

    return RingReport(
        slopes=u,
        status=status,
        criteria=tuple(criteria),
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
        return Classification(SetKind.DISCRETE, "lattice Z + Z*e over the unit point e")
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
