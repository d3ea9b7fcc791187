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
search builds is a graded product start * prod factor_i^e_i, made by one
memoized chain from its neighbour with one exponent lowered.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .angles import Angle
from .cyclotomic import (
    CyclotomicReal,
    euler_phi,
    evaluate,
    rewrite_in_conductor,
    sin_of,
    cos_of,
    split_prime,
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

    Closed form sin(beta)^2 / sin(alpha-beta)^2, the second ratio element.
    """
    return ratio_elements(u)[1]


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
        i = next(k for k, e in enumerate(exps) if e)
        lower = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
        self[exps] = value = self.mul(self[lower], self.factors[i])
        return value


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


class _MonomialLattice:
    """Z-span of bounded monomials in the numerator generators.

    A combination of the monomials has its image mod q = split_prime(n) in
    the span of the pointwise powers E(p)^e.  That span is kept as one fully
    reduced echelon matrix `rows` over F_q, 1 at its own pivot and 0 at the
    other `pivots` (both None when q divides a denominator).  The exact
    `lattice`, `common_den` and Babai rows `_kernel` are built at the first
    exact query.  With one generator each Hermite row's tracked
    combination is then divided by the shifts of mu(p), so a hit comes back
    at about 100 bits, not 2,700, before the Babai step.  Pivot
    coordinates come from the lattice's one triangular solve.  Once the
    rows mod q, and so the Hermite rows, span Q(p), `_steps` holds
    multiplication by each delta generator as a d x d matrix on pivot
    coordinates, and `coordinates` walks a query's candidates with one
    vector-matrix product each.
    """

    def __init__(self, u: SlopeSet, max_num_deg: int):
        self.n = n = u.working_conductor
        gens = _numerator_generators(u)
        self.names = tuple(name for name, _ in gens)
        self.values = tuple(v for _, v in gens)
        count = len(gens)
        self.degree = max_num_deg if count <= 1 else max(4, max_num_deg // count)
        self.exponents = list(_graded_exponents(count, self.degree, self.degree))
        self.q = q = split_prime(n)
        self.images = [evaluate(v, n) for v in self.values]
        self.rows = self.pivots = None
        if all(e is not None for e in self.images):
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

    def mul_mod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b % self.q

    def residual(self, image: np.ndarray) -> np.ndarray:
        """The element of image + span mod q that is zero at every pivot,
        image - image[pivots] @ rows, so zero exactly on the span.  The
        product is split into limbs of w bits, w from the row count k: each
        partial sum of k products below 2^(w + bits(q)) stays below 2^63."""
        q, k = self.q, len(self.pivots)
        width = 63 - q.bit_length() - k.bit_length()
        coords = image[self.pivots]
        for shift in range(0, q.bit_length(), width):
            limb = coords >> shift & ((1 << width) - 1)
            image = (image - (limb @ self.rows) % q * pow(2, shift, q)) % q
        return image

    @cached_property
    def _exact(self) -> tuple[IntegerLattice, int, list[tuple[list[int], list[int], int]]]:
        chain = _Chain(CyclotomicReal.from_rational(1, self.n), self.values)
        monomials = [chain[e] for e in self.exponents]
        common_den = math.lcm(*(v._den for v in monomials))
        lattice = IntegerLattice(euler_phi(self.n))
        relations = [lattice.add([c * (common_den // v._den) for c in v._num]) for v in monomials]
        # With one generator the first relation the lattice closes is
        # +-mu(p), cleared to content 1, and its shifts span the kernel of
        # the monomial family.  Babai steps against those rows keep
        # certificates small.  Each w is a primitive integer multiple of
        # its row's Gram-Schmidt vector, reached by the same sweep with
        # exact coefficients (Cohen, GTM 138, section 2.6).
        first = next((r for r in relations if r is not None), None)
        rows = []
        if len(self.values) == 1 and first is not None:
            length, width = len(self.exponents), len(first)
            for j in range(length - width + 1):
                rows.append([0] * j + first + [0] * (length - j - width))
            # Hermite reduction leaves the tracked combinations at
            # thousands of bits.  Dividing each by the shifts of mu(p)
            # moves it by kernel rows only: the Hermite rows stay, each
            # Babai quotient of a hit moves by an integer, and the reduced
            # witness is the same unless a step rounds an exact half.
            lattice.reduce_combinations(rows)
        kernel: list[tuple[list[int], list[int], int]] = []
        for row in rows:
            w = row
            for b, v, bv in reversed(kernel):
                a = sum(map(operator.mul, w, v))
                if a:
                    w = [bv * x - a * y for x, y in zip(w, b)]
                    g = math.gcd(*w)
                    w = [x // g for x in w]
            kernel.append((row, w, sum(map(operator.mul, row, w))))
        return lattice, common_den, kernel

    lattice = property(lambda self: self._exact[0])
    common_den = property(lambda self: self._exact[1])
    _kernel = property(lambda self: self._exact[2])

    def pivot_coordinates(self, y: CyclotomicReal) -> tuple[list[int], int]:
        """(t, den), in lowest terms, with t / den the rational coordinates
        over the Hermite rows that reproduce common_den * y on the pivot
        columns, from `IntegerLattice.coordinates`.

        If common_den * y = s*H with s integral then s = t / den, so a
        non-integral t / den proves y outside the lattice.  Once y lies in
        the rational span of the rows, as it does when the lattice spans
        Q(p) and y lies in Q(p), the converse holds too.
        """
        lattice, common_den = self._exact[:2]
        t, den = lattice.coordinates(y._num)
        g = math.gcd(den * y._den, *(a * common_den for a in t))
        return [a * common_den // g for a in t], den * y._den // g

    @cached_property
    def _steps(self) -> tuple[list[np.ndarray], int]:
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
        return [m for _, m in _deltas([("", m) for m in matrices], one)], den

    def coordinates(self, x: CyclotomicReal) -> _Chain:
        """The pivot coordinates (t, den) of x * m(p), in lowest terms, by
        the exponents of the denominator monomial m in the delta generators;
        each is one vector-matrix product from its neighbour's.  Exact once
        the Hermite rows span Q(p) and x lies in Q(p), and then x * m(p)
        lies in the lattice exactly when den is 1."""
        steps, step_den = self._steps

        def step(value: tuple[np.ndarray, int], matrix: np.ndarray) -> tuple[np.ndarray, int]:
            t, den = value[0].dot(matrix), value[1] * step_den
            g = math.gcd(den, *t)
            return t // g, den // g

        t, den = self.pivot_coordinates(x)
        return _Chain((np.array(t, dtype=object), den), steps, step)

    def combination(self, t: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
        """The witness terms of the lattice element with integer pivot
        coordinates t, the ones `membership` finds for it."""
        return self._terms(self.lattice.combination(t))

    def _size_reduce(self, combo: list[int]) -> list[int]:
        """Babai's nearest plane against the kernel rows, last row first; row
        j is a shift of mu(p), nonzero in columns j to j + width - 1 only,
        so each step subtracts over that band."""
        c = list(combo)
        width = len(c) - len(self._kernel) + 1
        for j, (row, w, bw) in reversed(list(enumerate(self._kernel))):
            q = _round_half_even(sum(map(operator.mul, c, w)), bw)
            if q:
                c[j:j + width] = [a - q * b for a, b in zip(c[j:j + width], row[j:j + width])]
        return c

    def _terms(self, combo: list[int]) -> list[tuple[int, tuple[int, ...]]]:
        """(coefficient, exponents) of the size-reduced combination."""
        combo = self._size_reduce(combo)
        return [(c, self.exponents[i]) for i, c in enumerate(combo) if c]

    def membership(self, y: CyclotomicReal) -> Optional[list[tuple[int, tuple[int, ...]]]]:
        lattice, common_den = self._exact[:2]
        if common_den % y._den:
            return None
        scale = common_den // y._den
        combo = lattice.membership([c * scale for c in y._num])
        return None if combo is None else self._terms(combo)


def _round_half_even(a: int, b: int) -> int:
    """round(Fraction(a, b)) for b > 0, in integers."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q % 2))


def _combination(terms: Sequence[tuple[int, Sequence[int], int]]) -> tuple[list[int], int]:
    """(total, den) with total / den the sum of c * v / d over the terms
    (c, v, d), v an integer vector and d > 0, over the lcm of the d's."""
    den = math.lcm(*(d for _, _, d in terms))
    total = [0] * len(terms[0][1])
    for c, v, d in terms:
        f = c * (den // d)
        total = [a + f * b for a, b in zip(total, v)]
    return total, den


class _Candidates:
    """(exps, form) for the denominator monomials m = prod(d_i^exps[i]) in
    the search order, form being m as a polynomial in the numerator
    generators p; the search walks these while the lattice does not span
    Q(p) or q divides a denominator.

    Every delta generator is a linear form in the p's, so x * m(p) is an
    integer combination of the powers x * p^e, the chain `powers`.  The
    screen reads their images mod q, the chain `images` of
    E(x) * prod E(p_i)^e_i pointwise.  Its residual map is F_q-linear, so
    each power's image is reduced once against the echelon rows and a
    candidate's residual is the same combination of theirs.  An exact power
    is one product, made when a candidate that passes the screen first
    needs it, and its pivot coordinates are kept beside it, so the pivot
    test of a candidate is one integer combination of them.  The forms
    depend only on the number of generators, so they come from the chain
    `_forms` that every query and every bound share.
    """

    def __init__(self, x: CyclotomicReal, gens: Sequence[CyclotomicReal], bounds: SearchBounds):
        self.forms = _forms(len(gens))
        count, top = len(self.forms.factors), bounds.max_den_exp
        self.order = _search_order(count, top, bounds.max_candidates)
        self.powers = _Chain(x, gens)
        self.images: Optional[_Chain] = None  # made at the first screen
        self.residuals: dict[tuple[int, ...], np.ndarray] = {}
        self.coords: dict[tuple[int, ...], tuple[list[int], int]] = {}

    def __iter__(self):
        return ((exps, self.forms[exps]) for exps in self.order)

    def value(self, form: _Form) -> CyclotomicReal:
        """x * m(p) as one combination over a common denominator; the
        representation is canonical, so it equals the product chain's."""
        powers = [(c, self.powers[e]) for e, c in form.items()]
        num, den = _combination([(c, y._num, y._den) for c, y in powers])
        return CyclotomicReal._make(powers[0][1].conductor, num, den)

    def excluded(self, form: _Form, lattice: _MonomialLattice) -> bool:
        """Whether the image of x * m(p) mod q leaves the span of the
        monomial images, which proves x * m(p) outside the lattice; False
        whenever an image is undefined."""
        zero = (0,) * len(self.powers.factors)
        if self.images is None:
            start = evaluate(self.powers[zero], lattice.n)
            self.images = _Chain(start, lattice.images, lattice.mul_mod)
        if lattice.rows is None or self.images[zero] is None:
            return False
        for e in form.keys() - self.residuals.keys():
            self.residuals[e] = lattice.residual(self.images[e])
        q = lattice.q
        return bool((sum(c % q * self.residuals[e] % q for e, c in form.items()) % q).any())

    def off_lattice(self, form: _Form, lattice: _MonomialLattice) -> bool:
        """Whether a pivot coordinate of x * m(p) is not an integer, which
        proves x * m(p) outside the lattice."""
        for e in form.keys() - self.coords.keys():
            self.coords[e] = lattice.pivot_coordinates(self.powers[e])
        total, den = _combination([(c, *self.coords[e]) for e, c in form.items()])
        return any(a % den for a in total)


# A set's lattice and fixing group serve only the queries on that set, so
# each cache keeps the most recently used few.
@lru_cache(maxsize=4)
def _monomial_lattice(u: SlopeSet, max_num_deg: int) -> _MonomialLattice:
    return _MonomialLattice(u, max_num_deg)


@lru_cache(maxsize=4)
def _fixing_group(u: SlopeSet) -> tuple[int, ...]:
    """The units a mod n whose sigma_a fixes every projection constant.

    By Galois theory this group H fixes exactly the field Q(p) the
    constants generate, whose degree is phi(n)/|H| (Washington, GTM 83,
    ch. 2).  sigma_a(g) takes at the root w^b the value g takes at w^(ab),
    so where g's images mod q = split_prime(n) differ from their
    permutation b -> ab, sigma_a moves g.  The units that pass form a
    group containing H, and it is H once its generators modulo +-1 fix
    every g exactly; otherwise, or when q divides a denominator, every
    unit is tested exactly.
    """
    n = u.working_conductor
    gens = [v for _, v in _numerator_generators(u)]
    images = [evaluate(g, n) for g in gens]
    group = None
    if all(e is not None for e in images):
        at = {b % n: k for k, b in enumerate(units(n))}  # the entry of each root w^b
        # the entry at b = 1 first: sigma_a(g) = g needs g(w^a) = g(w)
        group = tuple(a for k, a in enumerate(units(n)) if all(
            e[k] == e[0] and e[[at[a * b % n] for b in units(n)]].tobytes() == e.tobytes()
            for e in images
        ))
        if not all(g.is_fixed_by(a) for a in _generators_mod_sign(group, n) for g in gens):
            group = None
    return group or tuple(a for a in units(n) if all(g.is_fixed_by(a) for g in gens))


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
    group = _fixing_group(u)
    if not all(x_n.is_fixed_by(a) for a in _generators_mod_sign(group, n)):
        return MembershipVerdict(
            MembershipKind.PROVEN_NOT_IN,
            reason="outside the field generated by the projection constants",
        )

    lattice = _monomial_lattice(u, bounds.max_num_deg)
    den_names, den_values = zip(*_deltas(_numerator_generators(u), 1))
    if lattice.rows is not None and len(lattice.rows) == euler_phi(n) // len(group):
        # The images span Q(p) mod q, so the Hermite rows span Q(p), which
        # holds x: a candidate is a member exactly when its pivot
        # coordinates are integers.
        coords = lattice.coordinates(x_n)
        order = _search_order(len(den_values), bounds.max_den_exp, bounds.max_candidates)
        hits = ((exps, lattice.combination(coords[exps][0]))
                for exps in order if coords[exps][1] == 1)
    else:
        candidates = _Candidates(x_n, lattice.values, bounds)
        sieve = lattice.rows is not None
        hits = ((exps, lattice.membership(candidates.value(form)))
                for exps, form in candidates
                if not ((sieve and candidates.excluded(form, lattice))
                        or candidates.off_lattice(form, lattice)))
    for exps, combo in hits:
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
