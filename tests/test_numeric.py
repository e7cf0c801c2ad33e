"""Unit tests for the exactness test and the logarithm helpers."""

from fractions import Fraction

import pytest

from repro.utils.numeric import ceil_log, floor_log, is_exact, log_base


class TestIsExact:
    def test_ints_are_exact(self):
        assert is_exact(3, -7, 0)

    def test_fractions_are_exact(self):
        assert is_exact(Fraction(1, 3))

    def test_floats_are_not_exact(self):
        assert not is_exact(0.5)

    def test_mixed_is_not_exact(self):
        assert not is_exact(1, 0.5)

    def test_bools_count_as_exact(self):
        assert is_exact(True)


class TestLogHelpers:
    def test_log_base_basic(self):
        assert log_base(8, 2) == pytest.approx(3.0)

    def test_log_base_clamps_small_x(self):
        assert log_base(0.5, 2) == 0.0

    def test_log_base_rejects_base_one(self):
        with pytest.raises(ValueError):
            log_base(10, 1)

    def test_floor_log_exact_power(self):
        assert floor_log(243, 3) == 5

    def test_floor_log_between_powers(self):
        assert floor_log(244, 3) == 5
        assert floor_log(242, 3) == 4

    def test_floor_log_one(self):
        assert floor_log(1, 7) == 0

    def test_floor_log_rejects_x_below_one(self):
        with pytest.raises(ValueError):
            floor_log(0, 2)

    def test_ceil_log_exact_power(self):
        assert ceil_log(243, 3) == 5

    def test_ceil_log_between_powers(self):
        assert ceil_log(244, 3) == 6

    def test_ceil_log_one(self):
        assert ceil_log(1, 2) == 0

    def test_ceil_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log(0, 2)

