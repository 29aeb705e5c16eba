"""Ablation studies for the design choices DESIGN §7 calls out.

These go beyond the paper's three figures and quantify *why* HYDRA is
built the way it is.  Three of them are fixed scenario grids — the
paper's design space is exactly the allocator × heuristic grid that
:mod:`repro.experiments.scenario` sweeps on shared task sets — so each
is a registered :class:`~repro.experiments.scenario.ScenarioExperiment`
whose ``grid`` is the ``[grid]`` table of the equivalent ``sweep
--config`` document:

* :class:`SolverAblationExperiment` — the cost of the GP-compatible
  linearised interference bound versus exact RTA, and what joint LP
  period refinement adds on top of greedy periods.
* :class:`CoreChoiceAblationExperiment` — HYDRA's argmax-tightness core
  rule versus cheaper rules (first feasible core, most-slack core).
* :class:`PartitioningAblationExperiment` — how the real-time
  partitioning heuristic (best/worst/first-fit) shapes HYDRA's room.

Two compute inline, because they measure what a grid cannot:

* :func:`search_ablation` — branch-and-bound versus exhaustive
  enumeration for the OPT baseline (same optimum, fewer LP solves).
* :func:`extension_ablation` — detection-time impact of the paper's §V
  extensions (global migration, non-preemptive security, precedence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.experiments.api import Experiment, RawRun
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.fig1 import build_uav_systems
from repro.experiments.registry import register_experiment
from repro.experiments.reporting import format_table, percent
from repro.experiments.runner import build_hydra_system
from repro.experiments.scenario import ScenarioExperiment, parse_scenario
from repro.metrics.cdf import EmpiricalCDF
from repro.model.platform import Platform
from repro.opt.branch_bound import branch_bound_optimal
from repro.opt.exhaustive import exhaustive_optimal
from repro.sim.attacks import sample_attacks, surfaces_of
from repro.sim.detection import detection_times
from repro.sim.runner import simulate_allocation
from repro.taskgen.security_apps import TRIPWIRE_PRECEDENCE
from repro.taskgen.synthetic import SyntheticConfig, generate_workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = [
    "SearchAblationResult",
    "search_ablation",
    "ExtensionCell",
    "extension_ablation",
    "format_search_ablation",
    "format_extension_ablation",
    "SolverAblationExperiment",
    "CoreChoiceAblationExperiment",
    "SearchAblationExperiment",
    "ExtensionAblationExperiment",
    "PartitioningAblationExperiment",
]


# -- the comparison ablations: fixed scenario grids ------------------------


class _GridAblation(ScenarioExperiment):
    """An ablation that is one fixed scenario grid.

    ``grid`` is the ``[grid]`` table of the equivalent ``sweep
    --config`` document; the seed, task sets per point and utilisation
    range come from the scale, so the registered name and that document
    run the same sweeps and share cache entries.
    """

    version = 2
    tags = ("ablation",)
    grid: Mapping[str, list]

    def __init__(self) -> None:
        super().__init__(
            parse_scenario(
                {
                    "sweep": {
                        "name": self.name,
                        "title": self.title,
                        "description": self.description,
                    },
                    "grid": dict(self.grid),
                }
            )
        )
        self.name = self.config.name


@register_experiment("ablation-solver")
class SolverAblationExperiment(_GridAblation):
    name = "ablation-solver"
    title = "Ablation: period solver (linearised vs exact RTA vs +LP)"
    description = (
        "Cost of the GP-compatible linearised interference bound versus "
        "exact RTA, and what joint LP period refinement adds."
    )
    order = 60
    grid = {
        "cores": [2],
        "allocator": ["hydra", "hydra[exact-rta]", "hydra+lp"],
        "heuristic": ["best-fit"],
        "ordering": ["utilization"],
        "admission": ["rta"],
    }


@register_experiment("ablation-core-choice")
class CoreChoiceAblationExperiment(_GridAblation):
    name = "ablation-core-choice"
    title = "Ablation: core-selection rule"
    description = (
        "HYDRA's argmax-tightness core rule versus cheaper rules "
        "(first feasible core, most-slack core)."
    )
    order = 70
    grid = {
        "cores": [4],
        "allocator": ["hydra", "first-feasible", "slackiest-core"],
        "heuristic": ["best-fit"],
        "ordering": ["utilization"],
        "admission": ["rta"],
    }


@register_experiment("ablation-partitioning")
class PartitioningAblationExperiment(_GridAblation):
    name = "ablation-partitioning"
    title = "Ablation: real-time partitioning heuristic"
    description = (
        "How the real-time partitioning heuristic (best/worst/first-fit) "
        "shapes HYDRA's room for security tasks."
    )
    order = 100
    grid = {
        "cores": [4],
        "heuristic": ["best-fit", "worst-fit", "first-fit"],
        "ordering": ["utilization"],
        "admission": ["rta"],
    }


# -- the inline ablations ----------------------------------------------------


@dataclass(frozen=True)
class SearchAblationResult:
    """Exhaustive vs branch-and-bound on identical systems."""

    systems: int
    agreements: int
    exhaustive_lp_solves: int
    bnb_lp_solves: int
    bnb_nodes: int

    @property
    def solve_reduction(self) -> float:
        if self.exhaustive_lp_solves == 0:
            return 0.0
        return (
            (self.exhaustive_lp_solves - self.bnb_lp_solves)
            / self.exhaustive_lp_solves
            * 100.0
        )


def search_ablation(
    scale: ExperimentScale | None = None,
    cores: int = 2,
    utilization_fraction: float = 0.6,
) -> SearchAblationResult:
    """Compare the two optimal searches over sampled systems."""
    scale = scale or get_scale()
    platform = Platform(cores)
    config = SyntheticConfig(security_task_count=(2, 6))
    rng = np.random.default_rng(scale.seed + 71)
    systems = agreements = exhaustive_solves = bnb_solves = nodes = 0
    for _ in range(scale.fig3_tasksets_per_point):
        workload = generate_workload(
            platform, utilization_fraction * cores, rng, config
        )
        system = build_hydra_system(workload)
        if system is None:
            continue
        exhaustive = exhaustive_optimal(system, prune=False)
        bnb, stats = branch_bound_optimal(system)
        systems += 1
        ns = len(system.security_tasks)
        exhaustive_solves += cores**ns
        bnb_solves += stats.leaves_solved
        nodes += stats.nodes
        if exhaustive is None and bnb is None:
            agreements += 1
        elif (
            exhaustive is not None
            and bnb is not None
            and abs(exhaustive.tightness - bnb.tightness) < 1e-6
        ):
            agreements += 1
    return SearchAblationResult(
        systems=systems,
        agreements=agreements,
        exhaustive_lp_solves=exhaustive_solves,
        bnb_lp_solves=bnb_solves,
        bnb_nodes=nodes,
    )


@dataclass(frozen=True)
class ExtensionCell:
    """Detection statistics for one simulator mode.

    ``mean_detection`` is ``None`` when no attack was detected, and
    ``p90_detection`` when fewer than 90 % were (the horizon cut the
    rest off).
    """

    mode: str
    mean_detection: float | None
    p90_detection: float | None
    missed_deadlines: int


def extension_ablation(
    scale: ExperimentScale | None = None,
    cores: int = 4,
) -> list[ExtensionCell]:
    """Detection impact of the §V extensions on the UAV case study.

    The ``non-preemptive`` row runs plain HYDRA's allocation with
    non-preemptive security — demonstrating the blocking damage — while
    ``non-preemptive+aware`` re-allocates with the blocking-aware
    :class:`~repro.core.nonpreemptive.NonPreemptiveHydraAllocator`,
    which must bring the real-time deadline misses back to zero.
    """
    from repro.allocators import get_allocator

    scale = scale or get_scale()
    hydra_system, hydra_alloc, _, _ = build_uav_systems(cores)
    surfaces = surfaces_of(hydra_system.security_tasks)
    aware_alloc = get_allocator("hydra[np]").allocate(hydra_system)
    modes: list[tuple[str, object, dict]] = [
        ("partitioned", hydra_alloc, {}),
        ("global", hydra_alloc, {"security_mode": "global"}),
        ("non-preemptive", hydra_alloc, {"preemptible_security": False}),
        ("precedence", hydra_alloc, {"precedence": TRIPWIRE_PRECEDENCE}),
    ]
    if aware_alloc.schedulable:
        modes.append(
            (
                "non-preemptive+aware",
                aware_alloc,
                {"preemptible_security": False},
            )
        )
    cells: list[ExtensionCell] = []
    for mode_name, allocation, kwargs in modes:
        rng = np.random.default_rng(scale.seed + 83)
        result = simulate_allocation(
            hydra_system,
            allocation,
            duration=scale.sim_duration,
            rng=rng,
            **kwargs,
        )
        tail = max(a.period for a in allocation.assignments) * 2.0
        window_end = max(
            scale.sim_duration - tail, scale.sim_duration * 0.25
        )
        attacks = sample_attacks(
            scale.sim_trials, (0.0, window_end), surfaces, rng=rng
        )
        times = detection_times(
            result, attacks, hydra_system.security_tasks
        )
        cdf = EmpiricalCDF(times)
        security_names = set(hydra_system.security_tasks.names)
        rt_misses = [
            m for m in result.misses if m.task not in security_names
        ]
        cells.append(
            ExtensionCell(
                mode=mode_name,
                mean_detection=_finite(cdf.mean_detected()),
                p90_detection=_finite(cdf.quantile(0.9)),
                missed_deadlines=len(rt_misses),
            )
        )
    return cells


def _finite(value: float) -> float | None:
    return None if math.isinf(value) else value


def _optional_float(value: Any) -> float | None:
    return None if value is None else float(value)


# -- formatting --------------------------------------------------------------


def format_search_ablation(result: SearchAblationResult) -> str:
    return format_table(
        ["systems", "agreements", "LP solves (exh)", "LP solves (BnB)",
         "nodes", "solve reduction"],
        [
            (
                result.systems,
                result.agreements,
                result.exhaustive_lp_solves,
                result.bnb_lp_solves,
                result.bnb_nodes,
                percent(result.solve_reduction),
            )
        ],
        title="Optimal search: exhaustive vs branch-and-bound",
    )


# -- experiment-protocol ports ------------------------------------------------


@register_experiment("ablation-search")
class SearchAblationExperiment(Experiment):
    """The OPT-search ablation; computes inline (no Monte-Carlo sweep),
    so ``sweeps`` is empty and aggregation does the work."""

    name = "ablation-search"
    title = "Ablation: optimal search (exhaustive vs branch-and-bound)"
    description = (
        "Branch-and-bound versus exhaustive enumeration for the OPT "
        "baseline: same optimum, fewer LP solves."
    )
    version = 1
    tags = ("ablation",)
    order = 80
    columns = (
        "systems", "agreements", "exhaustive_lp_solves", "bnb_lp_solves",
        "bnb_nodes",
    )

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        return []

    def aggregate_domain(self, raw: RawRun) -> SearchAblationResult:
        return search_ablation(raw.scale)

    def encode_data(self, domain: SearchAblationResult) -> dict[str, Any]:
        return {
            "systems": domain.systems,
            "agreements": domain.agreements,
            "exhaustive_lp_solves": domain.exhaustive_lp_solves,
            "bnb_lp_solves": domain.bnb_lp_solves,
            "bnb_nodes": domain.bnb_nodes,
        }

    def decode_data(self, data: Mapping[str, Any]) -> SearchAblationResult:
        return SearchAblationResult(
            systems=int(data["systems"]),
            agreements=int(data["agreements"]),
            exhaustive_lp_solves=int(data["exhaustive_lp_solves"]),
            bnb_lp_solves=int(data["bnb_lp_solves"]),
            bnb_nodes=int(data["bnb_nodes"]),
        )

    def render_domain(self, domain: SearchAblationResult) -> str:
        return format_search_ablation(domain)

    def table_rows(
        self, domain: SearchAblationResult
    ) -> list[Sequence[Any]]:
        return [
            (domain.systems, domain.agreements, domain.exhaustive_lp_solves,
             domain.bnb_lp_solves, domain.bnb_nodes)
        ]


@register_experiment("ablation-extension")
class ExtensionAblationExperiment(Experiment):
    """The §V-extensions ablation; simulates the UAV case study inline
    (deterministic per scale), so ``sweeps`` is empty."""

    name = "ablation-extension"
    title = "Ablation: §V extensions — detection impact"
    description = (
        "Detection-time impact of global migration, non-preemptive "
        "security, and precedence constraints on the UAV case study."
    )
    version = 1
    tags = ("ablation",)
    order = 90
    columns = ("mode", "mean_detection", "p90_detection", "missed_deadlines")

    def __init__(self, cores: int = 4) -> None:
        self.cores = cores

    def sweeps(self, scale: ExperimentScale) -> list["SweepSpec"]:
        return []

    def aggregate_domain(self, raw: RawRun) -> list[ExtensionCell]:
        return extension_ablation(raw.scale, cores=self.cores)

    def encode_data(self, domain: list[ExtensionCell]) -> dict[str, Any]:
        return {
            "cells": [
                {
                    "mode": c.mode,
                    "mean_detection": c.mean_detection,
                    "p90_detection": c.p90_detection,
                    "missed_deadlines": c.missed_deadlines,
                }
                for c in domain
            ],
        }

    def decode_data(self, data: Mapping[str, Any]) -> list[ExtensionCell]:
        return [
            ExtensionCell(
                mode=str(c["mode"]),
                mean_detection=_optional_float(c["mean_detection"]),
                p90_detection=_optional_float(c["p90_detection"]),
                missed_deadlines=int(c["missed_deadlines"]),
            )
            for c in data["cells"]
        ]

    def render_domain(self, domain: list[ExtensionCell]) -> str:
        return format_extension_ablation(domain)

    def table_rows(self, domain: list[ExtensionCell]) -> list[Sequence[Any]]:
        return [
            (c.mode, c.mean_detection, c.p90_detection, c.missed_deadlines)
            for c in domain
        ]


def format_extension_ablation(cells: list[ExtensionCell]) -> str:
    def ms(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.0f}"

    return format_table(
        ["mode", "mean detection (ms)", "p90 (ms)", "RT deadline misses"],
        [
            (
                c.mode,
                ms(c.mean_detection),
                ms(c.p90_detection),
                c.missed_deadlines,
            )
            for c in cells
        ],
        title="§V extensions — detection impact (UAV case study, HYDRA)",
    )
