"""Bench: the monitoring-quality companion study (DESIGN §7).

Quantifies synthetically what the paper's Fig. 1 shows on one case
study: even when the SingleCore design *accepts* a task set, the
monitoring it achieves is looser (longer periods → slower detection).
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment


def test_quality_regeneration(benchmark, scale):
    experiment = get_experiment("quality")
    result = benchmark.pedantic(
        experiment.run_domain, args=(scale,), rounds=1, iterations=1
    )

    print()
    print(experiment.render_domain(result))

    usable = [p for p in result.points if p.both_accepted > 0]
    assert usable, "no commonly-accepted task sets"

    # Low utilisation: both schemes reach the desired periods.
    first = usable[0]
    assert first.mean_tightness_hydra >= 0.99
    assert first.mean_tightness_single >= 0.99

    # HYDRA's tightness is never worse where both accept.
    for point in usable:
        assert point.advantage >= -1e-9

    # And the gap opens at high utilisation (the Fig. 1 narrative).
    assert max(p.advantage for p in usable) > 0.1
