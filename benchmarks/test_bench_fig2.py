"""Bench: regenerate Fig. 2 (acceptance-ratio improvement sweep).

Paper reference: Fig. 2 plots the improvement in acceptance ratio of
HYDRA over SingleCore against total utilisation for 2/4/8 cores.  The
paper's shape: ≈ 0 at low utilisation (both schemes schedule
everything), sharply positive at high utilisation (the dedicated core
saturates first).
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment


def test_fig2_regeneration(benchmark, scale):
    experiment = get_experiment("fig2")
    result = benchmark.pedantic(
        experiment.run_domain, args=(scale,), rounds=1, iterations=1
    )

    print()
    print(experiment.render_domain(result))

    for cores in result.core_counts:
        panel = result.panel(cores)
        low = panel[0]
        high_region = [p for p in panel if p.normalized_utilization >= 0.84]

        # Low utilisation: both schemes accept (nearly) everything.
        assert low.ratio_hydra >= 0.95
        assert low.ratio_single >= 0.95
        assert abs(low.improvement) <= 5.0

        # HYDRA never loses to SingleCore at any point.
        for point in panel:
            assert point.ratio_hydra >= point.ratio_single - 1e-9

        # High utilisation: HYDRA schedules strictly more task sets.
        assert high_region, "sweep must reach the high-utilisation region"
        assert any(p.improvement > 10.0 for p in high_region), (
            f"{cores} cores: no high-utilisation improvement observed"
        )
