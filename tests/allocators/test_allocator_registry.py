"""Tests for the first-class allocator API: registry resolution, typed
unknown-name errors, the run_allocator envelope, and sim integration."""

from __future__ import annotations

import pytest

from repro.allocators import (
    AllocationResult,
    Allocator,
    BinPackingAllocator,
    UnknownAllocatorError,
    allocator_names,
    get_allocator,
    get_allocator_info,
    iter_allocator_info,
    register_allocator,
    run_allocator,
    unregister_allocator,
)
from repro.errors import ConfigError, ReproError
from repro.model.allocation import Allocation


class TestRegistry:
    def test_every_spec_resolves_to_its_own_name(self):
        names = allocator_names()
        assert "hydra" in names and "optimal" in names
        for spec in names:
            assert get_allocator(spec).name == spec

    def test_expected_builtins_present(self):
        names = set(allocator_names())
        # the paper's three schemes …
        assert {"hydra", "singlecore", "optimal"} <= names
        # … every opt/ solver route …
        assert {
            "hydra[gp]", "hydra+lp", "optimal[branch-bound]",
            "hydra[exact-rta]",
        } <= names
        # … and the classic bin-packing family.
        assert {
            "binpack-first-fit", "binpack-best-fit", "binpack-worst-fit",
            "binpack-next-fit",
        } <= names

    def test_unknown_spec_is_typed_and_lists_known_names(self):
        with pytest.raises(UnknownAllocatorError) as excinfo:
            get_allocator("magic")
        message = str(excinfo.value)
        assert "magic" in message
        assert "hydra" in message and "optimal" in message
        # part of the library hierarchy *and* a ValueError for generic
        # input-validation handlers
        assert isinstance(excinfo.value, ConfigError)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)

    def test_info_metadata(self):
        info = get_allocator_info("hydra")
        assert info.name == "hydra"
        assert info.title
        assert "paper" in info.tags
        data = info.to_dict()
        assert data["name"] == "hydra" and isinstance(data["tags"], list)

    def test_iteration_order_is_registration_order(self):
        names = [i.name for i in iter_allocator_info()]
        assert names == allocator_names()
        assert names[0] == "hydra"

    def test_register_unregister_round_trip(self):
        @register_allocator("test-noop", title="always fails", tags=("test",))
        class NoopAllocator(Allocator):
            name = "test-noop"

            def allocate(self, system):
                return Allocation(
                    scheme=self.name, schedulable=False, failed_task=None
                )

        try:
            assert "test-noop" in allocator_names()
            assert isinstance(get_allocator("test-noop"), NoopAllocator)
            with pytest.raises(ConfigError, match="already registered"):
                register_allocator("test-noop")(NoopAllocator)
            register_allocator("test-noop", replace=True, title="v2")(
                NoopAllocator
            )
            assert get_allocator_info("test-noop").title == "v2"
        finally:
            unregister_allocator("test-noop")
        assert "test-noop" not in allocator_names()

    def test_nameless_factory_rejected(self):
        with pytest.raises(ConfigError, match="registry name"):
            register_allocator()(lambda: None)


class TestBinPacking:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="first-fit"):
            BinPackingAllocator(rule="middle-fit")

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError, match="closed-form"):
            BinPackingAllocator(solver="oracle")

    def test_rules_place_all_tasks(self, loaded_system):
        for rule in ("first-fit", "best-fit", "worst-fit", "next-fit"):
            allocation = BinPackingAllocator(rule=rule).allocate(loaded_system)
            assert allocation.scheme == f"binpack-{rule}"
            if allocation.schedulable:
                placed = {a.task.name for a in allocation.assignments}
                assert placed == set(loaded_system.security_tasks.names)

    def test_first_fit_prefers_low_cores(self, two_core_system):
        allocation = BinPackingAllocator(rule="first-fit").allocate(
            two_core_system
        )
        assert allocation.schedulable
        # Both security tasks fit next to the light RT load on core 0.
        assert set(allocation.cores().values()) == {0}

    def test_worst_fit_spreads(self, two_core_system):
        allocation = BinPackingAllocator(rule="worst-fit").allocate(
            two_core_system
        )
        assert allocation.schedulable
        # Core 1 is empty, so worst-fit must start there.
        assert allocation.assignments[0].core == 1


class TestRunAllocator:
    def test_returns_typed_result(self, two_core_system):
        result = run_allocator("hydra", two_core_system)
        assert isinstance(result, AllocationResult)
        assert result.allocator == "hydra"
        assert result.allocation.scheme == "hydra"
        assert result.allocation.schedulable
        assert result.elapsed_s >= 0.0

    def test_accepts_allocator_instance(self, two_core_system):
        result = run_allocator(
            BinPackingAllocator(rule="best-fit"), two_core_system
        )
        assert result.allocator == "binpack-best-fit"
        assert result.allocation.schedulable

    def test_diagnostics_merge_info_and_extras(self, two_core_system):
        result = run_allocator(
            "optimal", two_core_system, extra_diagnostics={"trial": 7}
        )
        assert result.diagnostics["trial"] == 7
        assert "explored" in result.diagnostics  # from Allocation.info


class TestSimIntegration:
    def test_simulate_allocation_accepts_result(self, two_core_system):
        from repro.sim.runner import build_sim_tasks, simulate_allocation

        result = run_allocator("hydra", two_core_system)
        tasks = build_sim_tasks(two_core_system, result)
        assert {t.name for t in tasks} >= set(
            two_core_system.security_tasks.names
        )
        sim = simulate_allocation(
            two_core_system, result, duration=1000.0, rng=7
        )
        raw = simulate_allocation(
            two_core_system, result.allocation, duration=1000.0, rng=7
        )
        assert len(sim.jobs) == len(raw.jobs)

    def test_any_registered_strategy_simulates(self, loaded_system):
        from repro.sim.runner import simulate_allocation

        for spec in ("binpack-worst-fit", "hydra+lp"):
            result = run_allocator(spec, loaded_system)
            assert result.allocation.schedulable
            sim = simulate_allocation(
                loaded_system, result, duration=2000.0, rng=3
            )
            assert sim.jobs


class TestReviewRegressions:
    """Pins for defects found in review: builtin-name collisions,
    next-fit pointer semantics, and pre-placement utilisation ranking."""

    def test_builtin_name_collision_detected_on_fresh_registry(self):
        # Even if a plugin registers before any lookup primed the
        # builtins, claiming a builtin name without replace=True must
        # fail (the decorator loads the builtins first).
        with pytest.raises(ConfigError, match="already registered"):
            register_allocator("hydra")(lambda: None)
        assert get_allocator("hydra").name == "hydra"  # registry intact

    @staticmethod
    def _pointer_system(extra_sec):
        from repro.model import (
            Partition,
            Platform,
            RealTimeTask,
            SystemModel,
            TaskSet,
        )
        from repro.model.task import SecurityTask

        platform = Platform(2)
        rt = TaskSet([RealTimeTask(name="r0", wcet=5.0, period=10.0)])
        partition = Partition(platform, rt, {"r0": 0})
        security = TaskSet(
            [
                # Infeasible on core 0 ((55+5)/0.5 = 120 > T_max), so the
                # next-fit pointer is forced onto core 1.
                SecurityTask(
                    name="s_hi", wcet=55.0, period_des=60.0, period_max=80.0
                ),
                *extra_sec,
            ]
        )
        return SystemModel(
            platform=platform, rt_partition=partition, security_tasks=security
        )

    def test_next_fit_never_revisits_earlier_cores(self):
        from repro.model.task import SecurityTask

        system = self._pointer_system(
            [
                SecurityTask(  # feasible on either core
                    name="s_lo", wcet=2.0, period_des=100.0,
                    period_max=1000.0,
                )
            ]
        )
        first = BinPackingAllocator(rule="first-fit").allocate(system)
        nxt = BinPackingAllocator(rule="next-fit").allocate(system)
        assert first.schedulable and nxt.schedulable
        assert first.assignment_for("s_lo").core == 0  # lowest feasible
        assert nxt.assignment_for("s_lo").core == 1  # pointer stays put

    def test_next_fit_pointer_failure_is_unschedulable_not_backtrack(self):
        from repro.model.task import SecurityTask

        system = self._pointer_system(
            [
                # Feasible only on core 0 ((10+55)/(1-55/60) ≈ 780 > 300
                # behind s_hi on core 1), which the pointer has passed.
                SecurityTask(
                    name="s2", wcet=10.0, period_des=100.0, period_max=300.0
                )
            ]
        )
        assert BinPackingAllocator(rule="first-fit").allocate(
            system
        ).schedulable
        nxt = BinPackingAllocator(rule="next-fit").allocate(system)
        assert not nxt.schedulable
        assert nxt.failed_task == "s2"
        # and the pointer resets between allocate() calls
        again = BinPackingAllocator(rule="next-fit")
        again.allocate(system)
        assert not again.allocate(system).schedulable

    def test_best_and_worst_fit_rank_by_preplacement_utilisation(
        self, two_core_system
    ):
        # core 0 carries the RT pair (util 0.2), core 1 is empty: the
        # documented pre-placement ranking must send best-fit to the
        # fuller core 0 and worst-fit to the emptier core 1.
        best = BinPackingAllocator(rule="best-fit").allocate(two_core_system)
        worst = BinPackingAllocator(rule="worst-fit").allocate(two_core_system)
        assert best.assignments[0].core == 0
        assert worst.assignments[0].core == 1
