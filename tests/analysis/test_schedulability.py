"""Unit tests for the admission tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.schedulability import (
    ADMISSION_TESTS,
    get_admission_test,
    hyperbolic_test,
    liu_layland_bound,
    liu_layland_test,
    rta_batch_test,
    rta_test,
    utilization_test,
)
from repro.model.task import RealTimeTask
from repro.sim.engine import SimTask, Simulator


def rt(name: str, wcet: float, period: float,
       deadline: float | None = None) -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period,
                        deadline=deadline)


@st.composite
def implicit_deadline_sets(draw) -> list[RealTimeTask]:
    n = draw(st.integers(min_value=1, max_value=6))
    tasks = []
    for i in range(n):
        period = draw(st.floats(min_value=1.0, max_value=1000.0))
        utilization = draw(st.floats(min_value=0.01, max_value=0.6))
        tasks.append(rt(f"t{i}", period * utilization, period))
    return tasks


def simulated_misses(tasks: list[RealTimeTask], duration: float) -> set[str]:
    """Names of the tasks that miss a deadline when ``tasks`` run on one
    core in rate-monotonic order from a synchronous release."""
    ordered = sorted(tasks, key=lambda t: (t.period, -t.wcet, t.name))
    sim = [
        SimTask(name=t.name, wcet=t.wcet, period=t.period,
                deadline=t.deadline, priority=i, core=0)
        for i, t in enumerate(ordered)
    ]
    result = Simulator(sim, num_cores=1, duration=duration).run()
    return {miss.task for miss in result.misses}


class TestUtilizationBounds:
    def test_liu_layland_bound_known_values(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(2 * (2**0.5 - 1))
        assert liu_layland_bound(1000) == pytest.approx(
            math.log(2), abs=1e-3
        )

    def test_liu_layland_bound_degenerate(self):
        assert liu_layland_bound(0) == 0.0

    def test_liu_layland_test(self):
        assert liu_layland_test([rt("a", 1, 4), rt("b", 1, 4)])
        assert not liu_layland_test([rt("a", 2, 4), rt("b", 2, 4)])

    def test_hyperbolic_dominates_liu_layland(self):
        # An asymmetric set accepted by hyperbolic but rejected by LL:
        # U = (0.6, 0.25) → Π(U+1) = 2.0 ≤ 2 but ΣU = 0.85 > LL(2) ≈ .828.
        tasks = [rt("a", 0.6, 1.0), rt("b", 1.0, 4.0)]
        assert not liu_layland_test(tasks)
        assert hyperbolic_test(tasks)

    def test_hyperbolic_rejects_full_load(self):
        assert not hyperbolic_test([rt("a", 1, 2), rt("b", 1, 2)])

    def test_utilization_test_boundary(self):
        assert utilization_test([rt("a", 5, 10), rt("b", 5, 10)])
        assert not utilization_test([rt("a", 6, 10), rt("b", 5, 10)])


class TestAdmissionRegistry:
    @pytest.mark.parametrize(
        "name", ["rta", "hyperbolic", "liu-layland", "utilization"]
    )
    def test_known_names(self, name):
        test = get_admission_test(name)
        assert callable(test)
        assert test([rt("a", 1, 100)])

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_admission_test("magic")

    def test_tests_ordered_by_permissiveness(self):
        # utilization ⊇ rta ⊇ hyperbolic ⊇ liu-layland on this set.
        tasks = [rt("a", 2, 4), rt("b", 4, 8)]  # harmonic, U = 1.0
        assert utilization_test(tasks)
        assert rta_test(tasks)
        assert not hyperbolic_test(tasks)
        assert not liu_layland_test(tasks)


class TestEveryAdmissionTest:
    """Claims every registered test makes, whatever its precision."""

    @pytest.mark.parametrize("name", ADMISSION_TESTS)
    def test_empty_task_set_is_admitted(self, name):
        assert get_admission_test(name)([])

    @pytest.mark.parametrize("name", ADMISSION_TESTS)
    def test_over_utilized_core_is_rejected(self, name):
        tasks = [rt("a", 6, 10), rt("b", 6, 10)]  # U = 1.2
        assert not get_admission_test(name)(tasks)

    @pytest.mark.parametrize("name", ADMISSION_TESTS)
    @given(tasks=implicit_deadline_sets())
    @settings(max_examples=60, deadline=None)
    def test_admits_nothing_utilization_rejects(self, name, tasks):
        """``Σ U ≤ 1`` is necessary, so no test may admit beyond it."""
        if get_admission_test(name)(tasks):
            assert utilization_test(tasks)

    @pytest.mark.parametrize("name", ADMISSION_TESTS)
    @given(tasks=implicit_deadline_sets())
    @settings(max_examples=60, deadline=None)
    def test_admits_whatever_liu_layland_admits(self, name, tasks):
        """The Liu–Layland bound is sufficient, so every test admits at
        least what it admits."""
        if liu_layland_test(tasks):
            assert get_admission_test(name)(tasks)

    @pytest.mark.parametrize("name", ["rta", "rta-batch"])
    @given(tasks=implicit_deadline_sets())
    @settings(max_examples=60, deadline=None)
    def test_exact_tests_admit_whatever_hyperbolic_admits(self, name, tasks):
        if hyperbolic_test(tasks):
            assert get_admission_test(name)(tasks)


class TestConstrainedDeadlines:
    def test_demand_within_a_short_deadline_is_rejected(self):
        # U = 0.6, but 12 units of work are due by t = 6.
        tasks = [rt("a", 6.0, 20.0, deadline=6.0),
                 rt("b", 6.0, 20.0, deadline=6.0)]
        assert utilization_test(tasks)  # necessary only: blind to D
        assert not rta_test(tasks)
        assert not rta_batch_test(tasks)
        assert simulated_misses(tasks, 40.0) == {"b"}

    def test_demand_that_fits_the_deadline_is_admitted(self):
        tasks = [rt("a", 2.0, 20.0, deadline=6.0),
                 rt("b", 2.0, 20.0, deadline=6.0)]
        assert rta_test(tasks)
        assert rta_batch_test(tasks)
        assert simulated_misses(tasks, 40.0) == set()


class TestBreakdown:
    """How far a set's WCETs can grow before RM misses a deadline."""

    def test_harmonic_set_is_schedulable_up_to_full_load(self):
        tasks = [rt("a", 2.0, 4.0), rt("b", 4.0, 8.0)]  # U = 1
        assert rta_test(tasks)
        assert simulated_misses(tasks, 16.0) == set()
        grown = [rt("a", 2.0, 4.0), rt("b", 4.0 * (1 + 1e-6), 8.0)]
        assert not rta_test(grown)

    def test_non_harmonic_pair_breaks_down_below_full_load(self):
        # R_b = 3 + 2 = 5 ≤ 7; at 3.01 the second release of a lands
        # inside b's window and R_b = 3.01 + 4 > 7, at U ≈ 0.83.
        tasks = [rt("a", 2.0, 5.0), rt("b", 3.0, 7.0)]
        grown = [rt("a", 2.0, 5.0), rt("b", 3.01, 7.0)]
        assert rta_test(tasks)
        assert not rta_test(grown)
        assert utilization_test(grown)
        # Π (U_i + 1) = 1.4 · 10/7 = 2: the hyperbolic bound is tight here.
        assert hyperbolic_test(tasks)
        assert not hyperbolic_test(grown)
        assert simulated_misses(tasks, 35.0) == set()
        assert simulated_misses(grown, 35.0) == {"b"}

    @given(tasks=implicit_deadline_sets(),
           factor=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_scaling_wcets_down_keeps_a_set_schedulable(self, tasks, factor):
        if rta_test(tasks):
            scaled = [rt(t.name, t.wcet * factor, t.period) for t in tasks]
            assert rta_test(scaled)
