"""Golden-regression fixtures: small fixed-seed experiment summaries.

The sweep engine's correctness story rests on reproducibility: the
same spec must yield the same trials on any worker count, any run, any
machine with the same numpy.  Each experiment that wants this pinned
declares a :class:`~repro.experiments.api.GoldenFixture` — a
deliberately small fixed-seed sweep plus a summariser — via its
``golden_fixture()`` hook, and this module collects them *from the
experiment registry*: adding a fixture to a new experiment is one
method, with no list here to keep in sync.

The summaries pin two layers:

* aggregate numbers a human can review (acceptance counts per point,
  detected/censored attack counts, tightness gaps, catalogue rows), and
* a sha256 over the canonical JSON of the *full* per-point payloads —
  every generated task set's verdict and tightness, every assigned
  period, every detection time — so even a change that happens to
  preserve the aggregates fails loudly.

Fixtures live in ``tests/experiments/golden/``; regenerate after an
*intended* behaviour change with::

    PYTHONPATH=src python tools/regen_golden.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.experiments.api import GoldenFixture
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.parallel import SweepEngine, SweepSpec

__all__ = [
    "golden_fixtures",
    "golden_summary",
    "fig2_mini_spec",
    "fig2_mini_aggregate",
    "fig3_mini_spec",
    "fig3_mini_aggregate",
    "table1_mini_spec",
    "table1_mini_aggregate",
    "workload_mini_spec",
    "workload_mini_aggregate",
    "allocator_mini_spec",
    "allocator_mini_aggregate",
    "partition_mini_spec",
]


# -- the mini specs ----------------------------------------------------------


def fig2_mini_spec() -> SweepSpec:
    """3 utilisation points × 50 task sets on 2 cores, paper seed."""
    from repro.experiments.fig2 import fig2_grid

    scale = ExperimentScale(
        name="golden-mini",
        tasksets_per_point=50,
        utilization_step=0.25,
        utilization_start=0.25,
        utilization_stop=0.75,
        core_counts=(2,),
        sim_trials=8,
        sim_duration=30_000.0,
        fig3_tasksets_per_point=3,
    )
    (spec,) = fig2_grid([2]).sweeps(scale)
    return spec


def fig3_mini_spec() -> SweepSpec:
    """3 utilisation points × 4 task sets of the OPT comparison."""
    from repro.experiments.fig3 import fig3_sweep_spec

    scale = SCALES["smoke"].with_overrides(fig3_tasksets_per_point=4)
    return fig3_sweep_spec(scale)


def table1_mini_spec() -> SweepSpec:
    """The (deterministic) Table I build on the 2-core UAV platform."""
    from repro.experiments.table1 import table1_sweep_spec

    return table1_sweep_spec(2)


def workload_mini_spec() -> SweepSpec:
    """A 3-family workload-axis scenario sweep, 3 points × 6 task sets.

    Pins the workload registry end to end: three families (the legacy
    recipe, the UUniFast splitter, the harmonic period regime), each
    drawing its task sets one ``generate`` call at a time, in grid
    order from the point's single stream
    (:func:`~repro.experiments.scenario.point_workloads`), with cell
    labels carrying the ``workload::`` prefix.
    """
    from repro.experiments.scenario import ScenarioExperiment, parse_scenario

    document = {
        "sweep": {
            "name": "workload-mini",
            "seed": 2018,
            "tasksets_per_point": 6,
            # high enough that rejections and stretched periods appear:
            # a fixture where every cell is a full-acceptance 1.000
            # could not discriminate generation changes at all.
            "utilization": {"start": 0.45, "stop": 0.95, "step": 0.25},
        },
        "grid": {
            "cores": [2],
            "workload": [
                "paper-synthetic", "uunifast", "harmonic-periods",
            ],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
        },
    }
    experiment = ScenarioExperiment(parse_scenario(document))
    (spec,) = experiment.sweeps(SCALES["smoke"])
    return spec


def allocator_mini_spec() -> list[SweepSpec]:
    """Every greedy allocator on shared task sets: an allocator-axis
    scenario grid at 2 and 4 cores (one spec each), 3 points × 8 task
    sets.  All of them run HYDRA's walk, each with its own core rule
    or core filter; ``hydra[gp]`` places as the closed form does, at
    about a second per task set, so it is left out."""
    from repro.experiments.scenario import ScenarioExperiment, parse_scenario

    allocators = [
        "hydra", "hydra[exact-rta]", "hydra[np]", "singlecore",
        "first-feasible", "slackiest-core", "binpack-first-fit",
        "binpack-best-fit", "binpack-worst-fit", "binpack-next-fit",
    ]
    document = {
        "sweep": {
            "name": "allocator-mini",
            "seed": 2018,
            "tasksets_per_point": 8,
            "utilization": {"start": 0.5, "stop": 0.9, "step": 0.2},
        },
        "grid": {
            "cores": [2, 4],
            "allocator": allocators,
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
        },
    }
    return ScenarioExperiment(parse_scenario(document)).sweeps(SCALES["smoke"])


def partition_mini_spec() -> list[SweepSpec]:
    """Every partitioning heuristic under every task ordering: a
    scenario grid at 2, 4 and 8 cores (one spec each), 3 points × 6
    task sets, with HYDRA and SingleCore on the exact-RTA partitions.
    The points reach near saturation, where probes are rejected and
    the heuristics' core orders decide which core a task lands on."""
    from repro.experiments.scenario import ScenarioExperiment, parse_scenario
    from repro.partition.heuristics import HEURISTICS, ORDERINGS

    document = {
        "sweep": {
            "name": "partition-mini",
            "seed": 2018,
            "tasksets_per_point": 6,
            "utilization": {"start": 0.6, "stop": 0.9, "step": 0.15},
        },
        "grid": {
            "cores": [2, 4, 8],
            "allocator": ["hydra", "singlecore"],
            "heuristic": list(HEURISTICS),
            "ordering": list(ORDERINGS),
            "admission": ["rta"],
        },
    }
    return ScenarioExperiment(parse_scenario(document)).sweeps(SCALES["smoke"])


# -- the aggregate summarisers -----------------------------------------------


def _payload_sha256(payloads) -> str:
    canonical = json.dumps(list(payloads), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fig2_mini_aggregate(spec: SweepSpec, payloads) -> list[dict[str, Any]]:
    from repro.experiments.scenario import cell_tallies, combo_label

    hydra_label, single_label = (
        combo_label(**c) for c in spec.params["combos"]
    )
    points = []
    for point, payload in zip(spec.points, payloads):
        (hydra,) = cell_tallies(payload, hydra_label)
        (single,) = cell_tallies(payload, single_label)
        points.append(
            {
                "utilization": point["utilization"],
                "tasksets": hydra.total,
                "accepted_hydra": hydra.accepted,
                "accepted_single": single.accepted,
            }
        )
    return points


def fig3_mini_aggregate(spec: SweepSpec, payloads) -> list[dict[str, Any]]:
    return [
        {
            "utilization": point["utilization"],
            "gaps": payload["gaps"],
            "hydra_failures": payload["hydra_failures"],
        }
        for point, payload in zip(spec.points, payloads)
    ]


def table1_mini_aggregate(spec: SweepSpec, payloads) -> list[dict[str, Any]]:
    (payload,) = payloads
    return list(payload["rows"])


def _cell_counts(payload) -> dict[str, dict[str, int]]:
    """Accepted and total task sets per scenario cell label."""
    from repro.experiments.scenario import cell_tallies

    counts = {}
    for label in sorted(payload["cells"]):
        (tally,) = cell_tallies(payload, label)
        counts[label] = {"accepted": tally.accepted, "total": tally.total}
    return counts


def workload_mini_aggregate(spec: SweepSpec, payloads) -> list[dict[str, Any]]:
    return [
        {"utilization": point["utilization"], "cells": _cell_counts(payload)}
        for point, payload in zip(spec.points, payloads)
    ]


def allocator_mini_aggregate(
    specs: list[SweepSpec], payloads
) -> list[dict[str, Any]]:
    """Cell counts per core count and point; also the ``partition_mini``
    fixture's summariser."""
    points = ((s, p) for s in specs for p in s.points)
    return [
        {
            "cores": spec.params["cores"],
            "utilization": point["utilization"],
            "cells": _cell_counts(payload),
        }
        for (spec, point), payload in zip(points, payloads)
    ]


# -- registry-driven fixture collection --------------------------------------


#: Fixtures with no home experiment in the registry (scenario sweeps
#: are built from TOML, not registered by name) — collected alongside
#: the registry-declared ones.
def _extra_fixtures() -> dict[str, GoldenFixture]:
    return {
        "workload_mini": GoldenFixture(
            name="workload_mini",
            build_spec=workload_mini_spec,
            summarize=workload_mini_aggregate,
        ),
        "allocator_mini": GoldenFixture(
            name="allocator_mini",
            build_spec=allocator_mini_spec,
            summarize=allocator_mini_aggregate,
        ),
        "partition_mini": GoldenFixture(
            name="partition_mini",
            build_spec=partition_mini_spec,
            summarize=allocator_mini_aggregate,
        ),
    }


def golden_fixtures() -> dict[str, GoldenFixture]:
    """Every registered experiment's golden fixture, keyed by fixture
    name (one JSON file each under ``tests/experiments/golden/``),
    plus the scenario-sweep extras (:func:`workload_mini_spec`,
    :func:`allocator_mini_spec`, :func:`partition_mini_spec`)."""
    from repro.experiments.registry import iter_experiments

    fixtures: dict[str, GoldenFixture] = {}
    for experiment in iter_experiments():
        fixture = experiment.golden_fixture()
        if fixture is not None:
            fixtures[fixture.name] = fixture
    fixtures.update(_extra_fixtures())
    return fixtures


def golden_summary(
    name: str, engine: SweepEngine | None = None
) -> dict[str, Any]:
    """Run the named golden experiment and summarise it for comparison
    against (or regeneration of) its checked-in fixture.

    A fixture whose ``build_spec`` returns a list of specs (one per
    core count) runs them in order; ``kind`` and ``seed`` are the first
    spec's, and its payloads hash as one sequence.
    """
    fixture = golden_fixtures()[name]
    built = fixture.build_spec()
    specs = built if isinstance(built, list) else [built]
    engine = engine or SweepEngine()
    payloads = [p for spec in specs for p in engine.run(spec).payloads]
    return {
        "name": name,
        "kind": specs[0].kind,
        "seed": specs[0].seed,
        "points": fixture.summarize(built, payloads),
        "payload_sha256": _payload_sha256(payloads),
    }
