from fractions import Fraction

import pytest

from robogather.scalars import EXACT, FLOAT64, FLOAT_EPS_MIN, FloatBackend, Point, get_backend


def test_exact_equality_is_decidable():
    assert EXACT.eq(Fraction(1, 3), Fraction(2, 6))
    assert not EXACT.eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))


def test_exact_rejects_non_integral_floats():
    with pytest.raises(TypeError):
        EXACT.scalar(0.1)
    assert EXACT.scalar(2.0) == Fraction(2)


def test_exact_parse_format_roundtrip():
    # traces write an exact coordinate as str(value): "p/q", or "p" if whole
    for value in (Fraction(3, 4), Fraction(-7), Fraction(22, 7)):
        assert EXACT.parse(str(value)) == value


def test_exact_parse_reads_strings_and_json_integers_only():
    # a JSON number that is not an integer was rounded to a float by the JSON
    # reader, so its decimal text is gone: it is an input error, not 1/10,
    # and so is an integral one (1e23 reads as 99999999999999991611392)
    assert EXACT.parse("0.1") == Fraction(1, 10)
    assert EXACT.parse(10**30 + 1) == Fraction(10**30 + 1)
    for number in (0.1, 5.0, 1e23, -0.0):
        with pytest.raises(TypeError):
            EXACT.parse(number)
    for flag in (True, False):
        with pytest.raises(ValueError):
            EXACT.parse(flag)


def test_float_tolerance_band():
    b = FloatBackend(eps_abs=1e-9, eps_rel=1e-9)
    assert b.eq(1.0, 1.0 + 5e-10)
    assert not b.eq(1.0, 1.0 + 5e-9)
    # relative part dominates at large magnitude
    assert b.eq(1e6, 1e6 + 5e-4)
    assert not b.eq(1e6, 1e6 + 5e-3)


def test_float_le_includes_tolerance():
    # a <= b within the tolerance, as the float SEC tests read enclosure
    assert FLOAT64.eq(1.0 + 1e-12, 1.0)
    assert not FLOAT64.eq(1.0 + 1e-6, 1.0)


def test_float_parses_rational_strings():
    assert FLOAT64.parse("3/4") == 0.75


def test_points_eq_componentwise():
    assert EXACT.points_eq(Point(Fraction(1, 2), Fraction(0)), Point(Fraction(2, 4), Fraction(0)))
    assert FLOAT64.points_eq(Point(1.0, 2.0), Point(1.0 + 1e-12, 2.0 - 1e-12))
    assert not FLOAT64.points_eq(Point(1.0, 2.0), Point(1.0, 2.1))


def test_get_backend():
    assert get_backend("exact") is EXACT
    assert get_backend("floating") is FLOAT64
    custom = get_backend("floating", eps_abs=1e-6)
    assert custom.eps_abs == 1e-6 and custom.eps_rel == FLOAT64.eps_rel
    with pytest.raises(ValueError):
        get_backend("decimal")


@pytest.mark.parametrize("eps", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["exact", "floating"])
def test_get_backend_rejects_a_tolerance_not_finite_and_non_negative(name, eps):
    with pytest.raises(ValueError, match="eps.abs"):
        get_backend(name, eps_abs=eps)
    with pytest.raises(ValueError, match="eps.rel"):
        get_backend(name, eps_rel=eps)


def test_get_backend_accepts_a_zero_tolerance():
    # one zero component is fine; the sum must clear the frame noise
    assert get_backend("floating", 0.0).eps_abs == 0.0
    assert get_backend("floating", 0.0, FLOAT_EPS_MIN).eps_rel == FLOAT_EPS_MIN
    assert get_backend("floating", eps_rel=0).eps_rel == 0


@pytest.mark.parametrize("eps_abs, eps_rel", [(0.0, 0), (1e-15, 0.0), (1e-15, 1e-15), (0, 0.9e-12)])
def test_get_backend_rejects_a_floating_tolerance_below_the_floor(eps_abs, eps_rel):
    with pytest.raises(ValueError, match="at least 1e-12"):
        get_backend("floating", eps_abs, eps_rel)
    assert get_backend("exact", eps_abs, eps_rel) is EXACT
