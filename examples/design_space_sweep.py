#!/usr/bin/env python3
"""Synthetic design-space sweep (paper Sec. IV-B / Fig. 2) at example
scale.

Sweeps total utilisation on a 2-core platform, generating synthetic
task sets per the paper's recipe and recording how many each allocation
design schedules.  Shows the paper's headline: a dedicated security
core works at low load but collapses well before HYDRA's opportunistic
placement does.

The sweep is a scenario grid — the same document ``python -m repro
sweep --config`` reads — so both designs see the same task sets at
every utilisation point.

Run:  python examples/design_space_sweep.py
"""

from repro.experiments import SCALES, ScenarioExperiment, parse_scenario
from repro.metrics.improvement import acceptance_improvement

CORES = 2

GRID = {
    "sweep": {
        "name": "design-space",
        "seed": 42,
        "tasksets_per_point": 25,
        "utilization": {"start": 0.2, "stop": 0.9, "step": 0.1},
    },
    "grid": {
        "cores": [CORES],
        "allocator": ["hydra", "singlecore"],
        "heuristic": ["best-fit"],
        "ordering": ["utilization"],
        "admission": ["rta"],
    },
}


def main() -> None:
    experiment = ScenarioExperiment(parse_scenario(GRID))
    (panel,) = experiment.run_domain(SCALES["smoke"]).panels
    comparison = panel.comparison
    hydra_scheme, single_scheme = comparison.schemes()
    print(
        f"Acceptance sweep on {CORES} cores "
        f"({comparison.tasksets_per_point} synthetic task sets per point)\n"
    )
    print(f"{'U/M':>5} {'U_total':>8} {'HYDRA':>7} {'SingleCore':>11} "
          f"{'improvement':>12}")
    for hydra, single in zip(
        comparison.series(hydra_scheme), comparison.series(single_scheme)
    ):
        improvement = acceptance_improvement(
            hydra.acceptance, single.acceptance
        )
        print(
            f"{hydra.utilization / CORES:>5.2f} {hydra.utilization:>8.2f} "
            f"{hydra.acceptance:>7.2f} {single.acceptance:>11.2f} "
            f"{improvement:>11.1f}%"
        )
    print(
        "\nReading: both designs accept everything at low utilisation; "
        "as load grows,\nthe dedicated core saturates first because all "
        "security interference is\nconcentrated there (paper Fig. 2)."
    )


if __name__ == "__main__":
    main()
