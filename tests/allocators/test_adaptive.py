"""The period-adapting allocator family (``allocators/adaptive.py``).

Pins the three documented behaviours: closed-form over HYDRA is a fixed
point, exact-RTA re-adaptation is never looser, and the Contego-style
mode-change variant only ever *loosens* periods (within ``T_max``) and
reverts whole cores atomically when a mode solve fails.
"""

from __future__ import annotations

import math

import pytest

from repro.allocators import allocator_names, get_allocator
from repro.allocators.adaptive import AdaptiveAllocator
from repro.core.hydra import HydraAllocator
from repro.core.verify import verify_allocation
from repro.errors import ValidationError
from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)

_TOL = 1e-9


def make_system(
    rt_per_core: dict[int, list[tuple[float, float]]],
    security: list[tuple[float, float, float]],
    cores: int = 2,
) -> SystemModel:
    """(wcet, period) RT pairs per core; (wcet, T_des, T_max) security."""
    platform = Platform(cores)
    rt_tasks = []
    mapping = {}
    for core, pairs in rt_per_core.items():
        for i, (wcet, period) in enumerate(pairs):
            name = f"rt{core}_{i}"
            rt_tasks.append(
                RealTimeTask(name=name, wcet=wcet, period=period)
            )
            mapping[name] = core
    security_tasks = TaskSet(
        [
            SecurityTask(
                name=f"sec{i}", wcet=wcet, period_des=tdes, period_max=tmax
            )
            for i, (wcet, tdes, tmax) in enumerate(security)
        ]
    )
    return SystemModel(
        platform=platform,
        rt_partition=Partition(platform, TaskSet(rt_tasks), mapping),
        security_tasks=security_tasks,
    )


@pytest.fixture
def stretched_system() -> SystemModel:
    """Loaded enough that HYDRA stretches periods beyond T_des."""
    return make_system(
        {0: [(4.0, 10.0), (30.0, 100.0)], 1: [(5.0, 20.0), (45.0, 150.0)]},
        [(20.0, 200.0, 2000.0), (30.0, 300.0, 3000.0),
         (40.0, 400.0, 4000.0)],
    )


class TestConstruction:
    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown period solver"):
            AdaptiveAllocator(solver="magic")

    def test_rejects_deflating_mode_factor(self):
        with pytest.raises(ValidationError, match="mode_factor"):
            AdaptiveAllocator(mode_factor=0.5)

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_rejects_a_non_finite_mode_factor(self, factor):
        # nan used to fail only inside allocate, with an untyped
        # ValueError; inf used to revert cores silently.
        with pytest.raises(ValidationError, match="mode_factor"):
            AdaptiveAllocator(mode_factor=factor)

    def test_names_encode_variant(self):
        assert AdaptiveAllocator().name == "adaptive"
        assert AdaptiveAllocator(solver="exact-rta").name == (
            "adaptive[exact-rta]"
        )
        assert AdaptiveAllocator(
            solver="exact-rta", mode_factor=1.5
        ).name == "adaptive[contego]"
        assert AdaptiveAllocator(inner="best-fit").name == (
            "adaptive@best-fit"
        )

    def test_registered_variants_round_trip(self):
        for spec in ("adaptive", "adaptive[exact-rta]",
                     "adaptive[contego]"):
            assert spec in allocator_names()
            allocation = get_allocator(spec).allocate(
                make_system({0: [(2.0, 10.0)]}, [(1.0, 50.0, 500.0)])
            )
            assert allocation.scheme == spec


class TestClosedFormFixedPoint:
    def test_hydra_periods_unchanged(self, stretched_system):
        base = HydraAllocator().allocate(stretched_system)
        adapted = AdaptiveAllocator().allocate(stretched_system)
        assert adapted.schedulable
        base_periods = {a.task.name: a.period for a in base.assignments}
        for assignment in adapted.assignments:
            assert assignment.period == pytest.approx(
                base_periods[assignment.task.name], abs=_TOL
            )
        assert adapted.info["adapted_cores"] == ()
        assert adapted.info["reverted_cores"] == ()
        assert adapted.info["tightened_tasks"] == 0
        assert adapted.info["inner"] == base.scheme

    def test_placement_is_preserved(self, stretched_system):
        base = HydraAllocator().allocate(stretched_system)
        adapted = AdaptiveAllocator(solver="exact-rta").allocate(
            stretched_system
        )
        assert {a.task.name: a.core for a in adapted.assignments} == {
            a.task.name: a.core for a in base.assignments
        }


@pytest.fixture
def linearisation_gap_system() -> SystemModel:
    """A system where HYDRA's linearised Eq. (5) period is strictly
    looser than the exact-RTA optimum on at least one core."""
    return make_system(
        {0: [(4.6, 25.7), (7.2, 20.3)], 1: [(5.5, 30.5), (4.1, 25.6)]},
        [(24.0, 280.0, 1280.0), (28.3, 101.0, 3200.0),
         (25.3, 127.0, 2140.0)],
    )


class TestExactNeverLooser:
    def test_periods_tighten_or_match(self, linearisation_gap_system):
        base = HydraAllocator().allocate(linearisation_gap_system)
        adapted = AdaptiveAllocator(solver="exact-rta").allocate(
            linearisation_gap_system
        )
        assert adapted.schedulable
        base_periods = {a.task.name: a.period for a in base.assignments}
        tightened = 0
        for assignment in adapted.assignments:
            assert assignment.period <= (
                base_periods[assignment.task.name] + _TOL
            )
            if assignment.period < (
                base_periods[assignment.task.name] - _TOL
            ):
                tightened += 1
        assert adapted.info["tightened_tasks"] == tightened
        # This system is loaded enough that the linearisation is not
        # exact — the pass must actually find tighter periods.
        assert tightened > 0

    def test_result_passes_independent_verifier(self, stretched_system):
        adapted = AdaptiveAllocator(solver="exact-rta").allocate(
            stretched_system
        )
        verify_allocation(stretched_system, adapted)


class TestContego:
    def test_mode_change_only_loosens(self, stretched_system):
        normal = AdaptiveAllocator(solver="exact-rta").allocate(
            stretched_system
        )
        contego = AdaptiveAllocator(
            solver="exact-rta", mode_factor=1.5
        ).allocate(stretched_system)
        assert contego.schedulable
        assert contego.info["mode_factor"] == 1.5
        normal_periods = {a.task.name: a.period for a in normal.assignments}
        for assignment in contego.assignments:
            reverted = assignment.core in contego.info["reverted_cores"]
            if not reverted:
                assert assignment.period >= (
                    normal_periods[assignment.task.name] - _TOL
                )
            assert assignment.period <= assignment.task.period_max + _TOL

    def test_infeasible_mode_reverts_core_atomically(self):
        # Core 0 carries so much RT load that a 3x mode change leaves no
        # slack for the security task; the core must revert to the
        # inner allocator's periods wholesale.
        system = make_system(
            {0: [(4.0, 10.0), (35.0, 100.0)], 1: [(1.0, 50.0)]},
            [(20.0, 200.0, 800.0), (1.0, 100.0, 1000.0)],
        )
        base = HydraAllocator().allocate(system)
        assert base.schedulable
        contego = AdaptiveAllocator(
            solver="exact-rta", mode_factor=3.0
        ).allocate(system)
        assert contego.schedulable  # reverting keeps the admitted periods
        base_periods = {a.task.name: a.period for a in base.assignments}
        for assignment in contego.assignments:
            if assignment.core in contego.info["reverted_cores"]:
                assert assignment.period == pytest.approx(
                    base_periods[assignment.task.name], abs=_TOL
                )
        verify_allocation(system, contego)

    def test_inner_failure_propagates(self):
        # Security demand that cannot fit anywhere: inner fails, and the
        # adaptive wrapper reports the failure under its own scheme name.
        system = make_system(
            {0: [(9.0, 10.0)], 1: [(9.0, 10.0)]},
            [(50.0, 60.0, 70.0)],
        )
        allocation = AdaptiveAllocator(solver="exact-rta").allocate(system)
        assert not allocation.schedulable
        assert allocation.scheme == "adaptive[exact-rta]"
        assert allocation.failed_task is not None
        assert allocation.info["inner"] == "hydra"


class TestNonHydraInner:
    def test_retightens_bin_packer_periods(self):
        """An inner whose periods are not per-core optimal gives the
        adaptive pass real work: periods move, and never loosen."""
        system = make_system(
            {0: [(4.0, 10.0), (30.0, 100.0)],
             1: [(5.0, 20.0), (45.0, 150.0)]},
            [(20.0, 200.0, 2000.0), (30.0, 300.0, 3000.0),
             (40.0, 400.0, 4000.0)],
        )
        inner_name = "binpack-best-fit"
        base = get_allocator(inner_name).allocate(system)
        assert base.schedulable
        adapted = AdaptiveAllocator(
            inner=inner_name, solver="exact-rta"
        ).allocate(system)
        assert adapted.schedulable
        assert adapted.scheme == "adaptive[exact-rta]@binpack-best-fit"
        base_periods = {a.task.name: a.period for a in base.assignments}
        for assignment in adapted.assignments:
            assert assignment.period <= (
                base_periods[assignment.task.name] + _TOL
            )
            assert not math.isinf(assignment.period)
        verify_allocation(system, adapted)
