"""Parity of the three optimal-search routes.

The OPT baseline can be computed three ways — exhaustive enumeration
(``repro.opt.exhaustive``), branch-and-bound (``repro.opt.branch_bound``)
and a direct per-assignment LP enumeration (``repro.opt.joint``, no
search wrapper at all).  On any instance they must agree on the optimal
cumulative tightness; one non-trivial instance (optimum splits the
cores, tightness < NS) is pinned as a golden fixture.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.allocators import run_allocator
from repro.experiments.runner import build_hydra_system
from repro.model.priority import security_priority_order
from repro.opt.branch_bound import branch_bound_optimal
from repro.opt.exhaustive import exhaustive_optimal
from repro.opt.joint import solve_assignment_lp
from repro.model import Partition, Platform, SystemModel
from repro.taskgen.synthetic import SyntheticConfig, generate_workload
from workload_sample import task_from_dict, taskset_from_dict

FIXTURE = Path(__file__).parent / "golden" / "parity_small.json"


def system_from_dict(data):
    """The system of the pinned fixture (plain-JSON task lists)."""
    partition = data["partition"]
    platform = Platform(int(partition["num_cores"]))
    return SystemModel(
        platform=platform,
        rt_partition=Partition(
            platform,
            [task_from_dict(d) for d in partition["tasks"]],
            dict(partition["core_of"]),
        ),
        security_tasks=taskset_from_dict(data["security_tasks"]),
        weights=dict(data.get("weights", {})),
    )


def _brute_force_lp_optimum(system):
    """Max tightness over every assignment, solved purely by the LP."""
    ordered = [t.name for t in security_priority_order(system.security_tasks)]
    cores = list(system.platform.cores())
    best = None
    for combo in itertools.product(cores, repeat=len(ordered)):
        solution = solve_assignment_lp(system, dict(zip(ordered, combo)))
        if solution is not None and (
            best is None or solution.tightness > best.tightness
        ):
            best = solution
    return best


def _small_systems(count: int = 6):
    """Generated ≤6-security-task, 2-core instances (fixed seeds)."""
    rng = np.random.default_rng(20180319)
    config = SyntheticConfig(security_task_count=(2, 6))
    systems = []
    while len(systems) < count:
        workload = generate_workload(2, 1.1, rng, config)
        system = build_hydra_system(workload)
        if system is not None:
            systems.append(system)
    return systems


class TestParity:
    def test_three_routes_agree_on_generated_instances(self):
        compared = 0
        for system in _small_systems():
            exhaustive = exhaustive_optimal(system, prune=False)
            bnb, _ = branch_bound_optimal(system)
            brute = _brute_force_lp_optimum(system)
            if exhaustive is None:
                assert bnb is None and brute is None
                continue
            compared += 1
            assert bnb is not None and brute is not None
            assert exhaustive.tightness == pytest.approx(
                bnb.tightness, abs=1e-6
            )
            assert exhaustive.tightness == pytest.approx(
                brute.tightness, abs=1e-6
            )
        assert compared >= 3  # the seeds must exercise real instances

    def test_registry_optimal_specs_agree(self):
        (system, *_rest) = _small_systems(1)
        exhaustive = run_allocator("optimal", system)
        bnb = run_allocator("optimal[branch-bound]", system)
        exhaustive, bnb = exhaustive.allocation, bnb.allocation
        assert exhaustive.schedulable == bnb.schedulable
        if exhaustive.schedulable:
            assert exhaustive.cumulative_tightness() == pytest.approx(
                bnb.cumulative_tightness(), abs=1e-6
            )


class TestGoldenFixture:
    def test_pinned_instance_reproduces(self):
        document = json.loads(FIXTURE.read_text())
        system = system_from_dict(document["system"])
        expected = document["optimal"]

        exhaustive = exhaustive_optimal(system, prune=False)
        bnb, _ = branch_bound_optimal(system)
        brute = _brute_force_lp_optimum(system)

        for label, result in (
            ("exhaustive", exhaustive),
            ("branch-bound", bnb),
            ("brute-LP", brute),
        ):
            assert result is not None, label
            assert result.tightness == pytest.approx(
                expected["tightness"], abs=1e-9
            ), label
        assert exhaustive.assignment == {
            name: int(core) for name, core in expected["assignment"].items()
        }
        for name, period in expected["periods"].items():
            assert math.isclose(
                exhaustive.periods[name], period, rel_tol=1e-9
            ), name

    def test_pinned_instance_is_nontrivial(self):
        document = json.loads(FIXTURE.read_text())
        expected = document["optimal"]
        # The optimum must exercise both the core choice and the period
        # trade-off, or the parity check proves nothing.
        assert len(set(expected["assignment"].values())) > 1
        assert expected["tightness"] < len(expected["periods"]) - 1e-6
