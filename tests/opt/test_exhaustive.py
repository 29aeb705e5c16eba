"""Unit tests for the exhaustive optimal search."""

from __future__ import annotations

import itertools

import pytest

from linprog_reference import solve_lp_highs
from repro.opt import joint
from repro.opt.exhaustive import exhaustive_optimal
from repro.opt.joint import solve_assignment_lp


class TestExhaustiveOptimal:
    def test_finds_a_solution(self, loaded_system):
        result = exhaustive_optimal(loaded_system)
        assert result is not None
        assert set(result.assignment) == set(
            loaded_system.security_tasks.names
        )

    def test_optimum_dominates_every_assignment(self, loaded_system):
        result = exhaustive_optimal(loaded_system)
        assert result is not None
        names = list(loaded_system.security_tasks.names)
        for combo in itertools.product([0, 1], repeat=len(names)):
            assignment = dict(zip(names, combo))
            solution = solve_assignment_lp(loaded_system, assignment)
            if solution is not None:
                assert result.tightness >= solution.tightness - 1e-9

    def test_pruning_is_lossless(self, loaded_system):
        pruned = exhaustive_optimal(loaded_system, prune=True)
        unpruned = exhaustive_optimal(loaded_system, prune=False)
        assert pruned is not None and unpruned is not None
        assert pruned.tightness == pytest.approx(unpruned.tightness)

    def test_relaxed_system_reaches_full_tightness(self, two_core_system):
        result = exhaustive_optimal(two_core_system)
        assert result is not None
        assert result.tightness == pytest.approx(
            len(two_core_system.security_tasks), rel=1e-6
        )

    def test_explored_counts(self, two_core_system):
        result = exhaustive_optimal(two_core_system, prune=False)
        assert result is not None
        # 2 tasks on 2 cores → 4 assignments, all feasible here.
        assert result.explored == 4
        assert result.pruned == 0

    def test_infeasible_system_returns_none(self, loaded_system):
        from dataclasses import replace
        from repro.model.task import SecurityTask, TaskSet

        impossible = TaskSet(
            [
                SecurityTask(
                    name="x", wcet=90.0, period_des=100.0, period_max=101.0
                ),
            ]
        )
        system = replace(
            loaded_system, security_tasks=impossible, weights={}
        )
        # Core 0 (u=.7) and core 1 (u=.55) both leave < 90% needed.
        assert exhaustive_optimal(system) is None

    def test_scipy_backend_agrees(self, loaded_system, monkeypatch):
        ours = exhaustive_optimal(loaded_system)
        monkeypatch.setattr(joint, "solve_lp", solve_lp_highs)
        scipy_result = exhaustive_optimal(loaded_system)
        assert ours is not None and scipy_result is not None
        assert ours.tightness == pytest.approx(
            scipy_result.tightness, rel=1e-6
        )
