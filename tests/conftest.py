from functools import cache
from math import gcd

import pytest

from origami_rings import Angle, SlopeSet, cyclotomic
from origami_rings.cyclotomic import cyclotomic_polynomial, euler_phi


@pytest.fixture
def triangle() -> SlopeSet:
    # smallest ring example: the equilateral direction set
    return SlopeSet(["0", "pi/3", "2pi/3"])


@pytest.fixture
def four_slopes() -> SlopeSet:
    return SlopeSet(["0", "pi/4", "pi/3", "2pi/3"])


@pytest.fixture
def pentagon() -> SlopeSet:
    # the worked dense example: frame (pi/3, pi/4), free direction pi/5
    return SlopeSet(["0", "pi/5", "pi/4", "pi/3"])


@pytest.fixture
def int64_limit(monkeypatch):
    """Sets cyclotomic._INT64_BITS for one test.  _multiplier caches its
    verdict under the limit it ran at, so the cache starts and ends empty."""

    def set_limit(bits):
        cyclotomic._multiplier.cache_clear()
        monkeypatch.setattr(cyclotomic, "_INT64_BITS", bits)

    yield set_limit
    cyclotomic._multiplier.cache_clear()


def angle_pool(denominators) -> list[Angle]:
    """All reduced multiples k*pi/n for the given denominators n."""
    out = []
    for n in denominators:
        for k in range(1, n):
            if gcd(k, n) == 1:
                out.append(Angle(k, n))
    return out


@cache
def _zeta_power_rows_reference(n):
    """The former table: basis vectors of zeta_n^j for j = 0 .. n-1, each
    the previous one times zeta, reduced by zeta^phi = -(Phi_n - X^phi)."""
    phi = euler_phi(n)
    top = tuple(-c for c in cyclotomic_polynomial(n)[:phi])  # zeta^phi
    rows = []
    row = tuple([1] + [0] * (phi - 1))
    for _ in range(n):
        rows.append(row)
        shifted = (0,) + row[: phi - 1]
        lead = row[phi - 1]
        row = tuple(s + lead * t for s, t in zip(shifted, top)) if lead else shifted
    return tuple(rows)
