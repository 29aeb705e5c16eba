"""Bench: regenerate Table I (the security-task catalogue).

Paper reference: Table I lists the six Tripwire/Bro security tasks and
their functions.  The regenerated table extends it with the timing
parameters and the per-scheme allocation on the UAV platform.
"""

from __future__ import annotations

from repro.experiments.registry import get_experiment


def test_table1_regeneration(benchmark):
    experiment = get_experiment("table1")
    table = benchmark.pedantic(experiment.run_domain, rounds=1, iterations=1)

    print()
    print(experiment.render_domain(table))

    rows = table.rows

    # Shape assertions mirroring the paper's table.
    assert len(rows) == 6
    assert sum(r.application == "tripwire" for r in rows) == 5
    assert sum(r.application == "bro" for r in rows) == 1
    # Every achieved period is admissible.
    for row in rows:
        assert row.period_des <= row.hydra_period <= row.period_max
        assert row.period_des <= row.single_period <= row.period_max
    # The dedicated core stretches periods at least as much as HYDRA
    # does overall (SingleCore concentrates all interference).
    assert sum(r.single_period for r in rows) >= sum(
        r.hydra_period for r in rows
    )
