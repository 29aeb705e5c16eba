"""Unit tests for the empirical CDF (Fig. 1's definition)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.metrics.cdf import EmpiricalCDF


class TestEmpiricalCDF:
    def test_paper_definition(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25  # indicator is ≤, inclusive
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0
        assert cdf(100.0) == 1.0

    def test_right_continuity_via_inclusive_indicator(self):
        cdf = EmpiricalCDF([2.0, 2.0, 5.0])
        assert cdf(2.0) == pytest.approx(2 / 3)
        assert cdf(1.999999) == 0.0

    def test_undetected_observations_weigh_down(self):
        cdf = EmpiricalCDF([1.0, math.inf])
        assert cdf(1.0) == 0.5
        assert cdf(1e12) == 0.5

    def test_series(self):
        cdf = EmpiricalCDF([1.0, 3.0])
        assert [cdf(x) for x in (0.0, 1.0, 2.0, 3.0)] == [0.0, 0.5, 0.5, 1.0]

    def test_quantile(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.25) == 1.0
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 4.0

    def test_quantile_with_undetected_mass(self):
        cdf = EmpiricalCDF([1.0, math.inf])
        assert cdf.quantile(0.5) == 1.0
        assert cdf.quantile(0.9) == math.inf

    def test_quantile_validation(self):
        cdf = EmpiricalCDF([1.0])
        with pytest.raises(ValidationError):
            cdf.quantile(0.0)
        with pytest.raises(ValidationError):
            cdf.quantile(1.5)

    def test_means(self):
        cdf = EmpiricalCDF([1.0, 3.0])
        assert cdf.mean_detected() == pytest.approx(2.0)
        with_inf = EmpiricalCDF([1.0, 3.0, math.inf])
        assert with_inf.mean_detected() == pytest.approx(2.0)
        assert EmpiricalCDF([math.inf]).mean_detected() == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            EmpiricalCDF([])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            EmpiricalCDF([1.0, math.nan])

    def test_monotone_non_decreasing(self):
        cdf = EmpiricalCDF([5.0, 1.0, 3.0, 3.0, 9.0])
        xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]
        values = [cdf(x) for x in xs]
        assert values == sorted(values)
