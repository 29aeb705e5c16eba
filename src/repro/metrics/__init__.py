"""Evaluation metrics (paper Sec. IV).

* :mod:`repro.metrics.tightness` — Eq. (2)/(3).
* :mod:`repro.metrics.improvement` — scheme-vs-scheme comparisons.
* :mod:`repro.metrics.cdf` — Fig. 1's empirical CDF.
* :mod:`repro.metrics.importance` — ablation component-importance
  scoring (Sec. VI design-space study, generalised).
"""

from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.importance import (
    ImportanceScore,
    rank_scores,
    score_swap,
    swap_verdict,
)
from repro.metrics.improvement import (
    acceptance_improvement,
    detection_speedup,
    tightness_gap,
)
from repro.metrics.tightness import (
    cumulative_tightness,
    tightness,
    tightness_per_task,
)

__all__ = [
    "EmpiricalCDF",
    "ImportanceScore",
    "score_swap",
    "swap_verdict",
    "rank_scores",
    "acceptance_improvement",
    "detection_speedup",
    "tightness_gap",
    "tightness",
    "tightness_per_task",
    "cumulative_tightness",
]
