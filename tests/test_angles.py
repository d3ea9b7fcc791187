import math

import pytest

from origami_rings.angles import Angle, angle_difference


def test_parse_accepts_common_spellings():
    assert Angle.parse("0") == Angle.zero()
    assert Angle.parse("pi/4") == Angle(1, 4)
    assert Angle.parse("2pi/3") == Angle(2, 3)
    assert Angle.parse("2*pi/3") == Angle(2, 3)
    assert Angle.parse("2/3") == Angle(2, 3)
    assert Angle.parse(" pi/2 ") == Angle(1, 2)


def test_parse_rejects_garbage():
    for bad in ["", "pi/0", "2/0", "one", "0.5", "pi/", "-pi/3", "3pi/2", "pi"]:
        with pytest.raises(ValueError):
            Angle.parse(bad)


def test_fraction_is_reduced():
    assert Angle(2, 6).fraction == Angle(1, 3).fraction
    assert Angle(2, 6) == Angle(1, 3)


def test_range_is_half_open():
    # directions live in [0, pi)
    Angle(0, 1)
    Angle(11, 12)
    with pytest.raises(ValueError):
        Angle(1, 1)
    with pytest.raises(ValueError):
        Angle(7, 6)


def test_ordering_is_by_value():
    # 1/4 < 1/3 even though (1, 3) < (1, 4) as tuples
    assert Angle(1, 4) < Angle(1, 3)
    assert Angle(1, 5) < Angle(1, 4) < Angle(1, 3) < Angle(1, 2)
    assert sorted([Angle(2, 3), Angle(1, 5), Angle(1, 2)]) == [
        Angle(1, 5),
        Angle(1, 2),
        Angle(2, 3),
    ]


def test_radians():
    assert Angle.zero().radians == 0.0
    assert Angle(1, 2).radians == pytest.approx(math.pi / 2)
    assert Angle(2, 3).radians == pytest.approx(2 * math.pi / 3)


def test_conductor():
    # angle k*pi/n needs the 4n-th or 2n-th roots of unity: lcm(4, 2n)
    assert Angle.zero().conductor == 4
    assert Angle(1, 2).conductor == 4
    assert Angle(1, 3).conductor == 12
    assert Angle(1, 4).conductor == 8
    assert Angle(1, 5).conductor == 20
    assert Angle(2, 15).conductor == 60


def test_angle_difference_sign_and_magnitude():
    sign, diff = angle_difference(Angle(2, 3), Angle(1, 3))
    assert sign == 1 and diff == Angle(1, 3)
    sign, diff = angle_difference(Angle(1, 3), Angle(2, 3))
    assert sign == -1 and diff == Angle(1, 3)
    sign, diff = angle_difference(Angle(1, 4), Angle(1, 4))
    assert sign == 0 and diff == Angle.zero()


def test_str_round_trip():
    for a in [Angle.zero(), Angle(1, 3), Angle(2, 3), Angle(5, 12)]:
        assert Angle.parse(str(a)) == a


def test_hashable_and_frozen():
    assert len({Angle(1, 3), Angle(2, 6), Angle(1, 4)}) == 2
    with pytest.raises(Exception):
        Angle(1, 3).numerator = 2
