"""Empirical CDF, exactly as defined under the paper's Fig. 1.

    F̂_α(ε) = (1/α) · Σ_{i=1..α} I[ζ_i ≤ ε]

where ζ_i is the i-th observed detection time and I is the indicator
function.  Observations of ``inf`` (undetected attacks) are kept: they
weigh down the CDF without ever being counted as "≤ ε", matching the
definition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable

from repro.errors import ValidationError

__all__ = ["EmpiricalCDF"]


class EmpiricalCDF:
    """Right-continuous empirical distribution of a sample."""

    __slots__ = ("_finite", "_total")

    def __init__(self, observations: Iterable[float]) -> None:
        data = list(observations)
        if not data:
            raise ValidationError("empirical CDF needs at least one sample")
        for value in data:
            if math.isnan(value):
                raise ValidationError("NaN observation in empirical CDF")
        self._total = len(data)
        self._finite = sorted(v for v in data if not math.isinf(v))

    def __call__(self, epsilon: float) -> float:
        """``F̂(ε)``: fraction of observations ≤ ``ε``."""
        return bisect_right(self._finite, epsilon) / self._total

    def quantile(self, q: float) -> float:
        """Smallest observation ``v`` with ``F̂(v) ≥ q`` (``inf`` when the
        detected mass is insufficient)."""
        if not (0.0 < q <= 1.0):
            raise ValidationError(f"quantile must lie in (0, 1], got {q}")
        rank = math.ceil(q * self._total)
        if rank > len(self._finite):
            return math.inf
        return self._finite[rank - 1]

    def _finite_total(self) -> float:
        # Left to right from 0.0: the builtin ``sum`` of floats is
        # compensated from Python 3.12 on.
        total = 0.0
        for value in self._finite:
            total += value
        return total

    def mean_detected(self) -> float:
        """Mean over the *detected* observations only."""
        if not self._finite:
            return math.inf
        return self._finite_total() / len(self._finite)
