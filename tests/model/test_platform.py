"""Unit tests for the platform model."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.model.platform import Platform


class TestPlatform:
    def test_cores_range(self):
        assert list(Platform(4).cores()) == [0, 1, 2, 3]

    def test_iteration_and_len(self):
        platform = Platform(3)
        assert list(platform) == [0, 1, 2]
        assert len(platform) == 3

    def test_contains(self):
        platform = Platform(2)
        assert 0 in platform
        assert 1 in platform
        assert 2 not in platform
        assert -1 not in platform
        assert "0" not in platform

    def test_rejects_zero_cores(self):
        with pytest.raises(ValidationError):
            Platform(0)

    def test_rejects_negative_cores(self):
        with pytest.raises(ValidationError):
            Platform(-1)

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            Platform(2.5)  # type: ignore[arg-type]

    def test_validate_core_rejects_out_of_range(self):
        platform = Platform(2)
        platform.validate_core(1)  # no raise
        with pytest.raises(ValidationError):
            platform.validate_core(2)

    def test_equality(self):
        assert Platform(2) == Platform(2)
        assert Platform(2) != Platform(3)
