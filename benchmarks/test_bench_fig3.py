"""Bench: regenerate Fig. 3 (HYDRA vs the optimal assignment).

Paper reference: Fig. 3 plots the difference in cumulative tightness
``Δη = (η_OPT − η_HYDRA)/η_OPT`` on M = 2 with up to six security
tasks.  The paper's shape: zero through low/medium utilisation, rising
at high utilisation, with degradation "no more than 22 %".
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment


def test_fig3_regeneration(benchmark, scale):
    experiment = get_experiment("fig3")
    result = benchmark.pedantic(
        experiment.run_domain, args=(scale,), rounds=1, iterations=1
    )

    print()
    print(experiment.render_domain(result))

    points = [p for p in result.points if p.compared > 0]
    assert points, "no comparable task sets generated"

    # Low/medium utilisation: HYDRA matches the optimum.
    low_half = [p for p in points if p.utilization <= 1.0]
    for point in low_half:
        assert point.mean_gap <= 2.0, (
            f"gap at U={point.utilization} should be ~0"
        )

    # The gap never goes negative (OPT is an upper bound) and the mean
    # degradation stays within the paper's ballpark (≤ 22 %, with slack
    # for the smaller default sample).
    for point in points:
        assert point.mean_gap >= -1e-9
    assert max(p.mean_gap for p in points) <= 35.0
