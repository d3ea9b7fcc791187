import pytest

from origami_rings.angles import Angle
from origami_rings.slopes import InvalidSlopeSetError, SlopeSet


def test_accepts_strings_and_angles():
    u = SlopeSet(["0", Angle(1, 3), "2pi/3"])
    assert u.size == 3
    assert u.slopes == (Angle.zero(), Angle(1, 3), Angle(2, 3))


def test_rejects_a_direction_that_is_neither_text_nor_angle():
    with pytest.raises(InvalidSlopeSetError, match="not a direction: 0.5"):
        SlopeSet(["0", 0.5, "pi/3"])


def test_requires_zero_and_three_members():
    with pytest.raises(InvalidSlopeSetError):
        SlopeSet(["pi/4", "pi/3", "pi/2"])  # no horizontal
    with pytest.raises(InvalidSlopeSetError):
        SlopeSet(["0", "pi/3"])
    with pytest.raises(InvalidSlopeSetError):
        SlopeSet(["0", "pi/3", "pi/3"])  # duplicates collapse


def test_default_frame_is_two_largest():
    u = SlopeSet(["0", "pi/5", "pi/4", "pi/3"])
    assert u.alpha == Angle(1, 3)
    assert u.beta == Angle(1, 4)
    assert u.free_slopes == (Angle(1, 5),)


def test_frame_override():
    u = SlopeSet(["0", "pi/5", "pi/4", "pi/3"], alpha="pi/4", beta="pi/5")
    assert (u.alpha, u.beta) == (Angle(1, 4), Angle(1, 5))
    with pytest.raises(InvalidSlopeSetError):
        SlopeSet(["0", "pi/4", "pi/3"], alpha="pi/2", beta="pi/4")
    with pytest.raises(InvalidSlopeSetError):
        SlopeSet(["0", "pi/4", "pi/3"], alpha="0", beta="pi/4")
    with pytest.raises(InvalidSlopeSetError):
        SlopeSet(["0", "pi/4", "pi/3"], alpha="pi/4", beta="pi/4")


def test_working_conductor_is_lcm():
    u = SlopeSet(["0", "pi/4", "pi/3"])
    # lcm(4, 8, 12)
    assert u.working_conductor == 24
    v = SlopeSet(["0", "pi/5", "pi/4", "pi/3"])
    assert v.working_conductor == 120


def test_p_table():
    u = SlopeSet(["0", "pi/5", "pi/4", "pi/3"])
    table = u.p_table
    assert set(table) == set(u.nonzero_slopes)
    assert table[u.alpha].is_zero
    assert table[u.beta] == 1
    # the free value is the dense generator, about 1.8905
    assert table[Angle(1, 5)].decimal(10) == "1.8905291854"
    for v in table.values():
        assert v.conductor == u.working_conductor


def test_union_keeps_frame():
    u = SlopeSet(["0", "pi/3", "2pi/3"])
    w = u.union(["pi/4", "pi/7"])
    assert w.size == 5
    assert (w.alpha, w.beta) == (u.alpha, u.beta)
    assert Angle(1, 7) in w


def test_membership_and_equality():
    u = SlopeSet(["0", "pi/3", "2pi/3"])
    assert Angle(1, 3) in u
    assert Angle(1, 4) not in u
    assert object() not in u
    assert u == SlopeSet([Angle.zero(), Angle(2, 3), Angle(1, 3)])
    assert u != SlopeSet(["0", "pi/4", "pi/3"])
    assert len({u, SlopeSet(["0", "pi/3", "2pi/3"])}) == 1


def test_str():
    u = SlopeSet(["0", "pi/3", "2pi/3"])
    assert str(u) == "{0, pi/3, 2pi/3}"
