"""Comparison metrics between allocation schemes (Figs. 1–3).

* :func:`acceptance_improvement` — the Fig. 2 y-axis.  The paper prints
  the formula ``(δ_SingleCore − δ_HYDRA)/δ_SingleCore`` while describing
  HYDRA *outperforming* SingleCore on a ``[0, 100]`` axis; taken
  literally that is ≤ 0 whenever HYDRA accepts more, so this module
  implements the described quantity — the share of HYDRA-schedulable
  task sets that SingleCore loses (see DESIGN §4 note) — and exposes the
  raw ratios so alternative formulas remain derivable.
* :func:`tightness_gap` — the Fig. 3 y-axis:
  ``Δη = (η_OPT − η_HYDRA)/η_OPT × 100``.
* :func:`detection_speedup` — Fig. 1's headline numbers ("on average
  HYDRA can provide 19.81 % … faster detection"): relative reduction of
  the mean detection time versus a baseline.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ValidationError

__all__ = [
    "acceptance_improvement",
    "tightness_gap",
    "detection_speedup",
]


def acceptance_improvement(ratio_hydra: float, ratio_single: float) -> float:
    """Fig. 2 improvement (%): fraction of HYDRA's accepted mass that
    SingleCore fails to accept.

    Returns 0 when both ratios are 0 (nothing schedulable under either
    scheme) and can go negative in the (unobserved) case where
    SingleCore accepts more.
    """
    for name, value in (("hydra", ratio_hydra), ("single", ratio_single)):
        if not (0.0 <= value <= 1.0):
            raise ValidationError(
                f"acceptance ratio ({name}) must lie in [0, 1], got {value}"
            )
    if ratio_hydra == 0.0:
        return 0.0 if ratio_single == 0.0 else -math.inf
    return (ratio_hydra - ratio_single) / ratio_hydra * 100.0


def tightness_gap(tightness_opt: float, tightness_hydra: float) -> float:
    """Fig. 3 gap (%): ``(η_OPT − η_HYDRA) / η_OPT × 100``.

    ``η_OPT`` must be positive (the paper only evaluates this over task
    sets both schemes schedule).
    """
    if tightness_opt <= 0.0:
        raise ValidationError(
            f"optimal tightness must be positive, got {tightness_opt}"
        )
    gap = (tightness_opt - tightness_hydra) / tightness_opt * 100.0
    # The heuristic cannot beat the optimum; tiny negatives are LP/greedy
    # floating-point noise and are clamped to zero.
    return 0.0 if -1e-7 < gap < 0.0 else gap


def detection_speedup(
    times_scheme: Iterable[float], times_baseline: Iterable[float]
) -> float:
    """Mean-detection-time reduction (%) of a scheme vs. a baseline.

    ``(mean_baseline − mean_scheme) / mean_baseline × 100`` over the
    finite (detected) observations; positive when the scheme detects
    faster on average.
    """
    scheme = [t for t in times_scheme if not math.isinf(t)]
    baseline = [t for t in times_baseline if not math.isinf(t)]
    if not scheme or not baseline:
        raise ValidationError(
            "need at least one detected attack per scheme to compare"
        )
    mean_scheme = _mean(scheme)
    mean_baseline = _mean(baseline)
    if mean_baseline <= 0.0:
        raise ValidationError("baseline mean detection time must be positive")
    return (mean_baseline - mean_scheme) / mean_baseline * 100.0


def _mean(values: list[float]) -> float:
    # Left to right from 0.0: the builtin ``sum`` of floats is
    # compensated from Python 3.12 on.
    total = 0.0
    for value in values:
        total += value
    return total / len(values)
