"""Cross-module property-based tests (hypothesis).

These pin down the mathematical relationships DESIGN §2 relies on:
closed form ⇔ GP solver agreement, LP optimality vs greedy, exact RTA
dominating the linear bound, feasibility monotonicity, and simulator vs
analysis consistency.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.analysis.rta import response_time
from repro.model.task import SecurityTask
from repro.opt.period import adapt_period, adapt_period_exact
from repro.opt.period_gp import adapt_period_gp

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

_wcets = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
_periods = st.floats(min_value=1.0, max_value=1000.0, allow_nan=False)


@st.composite
def security_tasks(draw) -> SecurityTask:
    tdes = draw(st.floats(min_value=10.0, max_value=500.0))
    factor = draw(st.floats(min_value=1.0, max_value=20.0))
    wcet = draw(st.floats(min_value=0.1, max_value=tdes))
    return SecurityTask(
        name="s", wcet=wcet, period_des=tdes, period_max=tdes * factor
    )


@st.composite
def environments(draw) -> InterferenceEnv:
    n = draw(st.integers(min_value=0, max_value=5))
    interferers = []
    for _ in range(n):
        period = draw(_periods)
        utilization = draw(st.floats(min_value=0.01, max_value=0.3))
        interferers.append(Interferer(period * utilization, period))
    return InterferenceEnv(interferers)


# --------------------------------------------------------------------------
# Period adaptation properties
# --------------------------------------------------------------------------


class TestPeriodAdaptationProperties:
    @settings(max_examples=120, deadline=None)
    @given(task=security_tasks(), env=environments())
    def test_closed_form_solution_is_feasible_and_minimal(self, task, env):
        solution = adapt_period(task, env)
        if solution is None:
            # Infeasibility must be certified by the constraint itself:
            # even T_max fails Eq. (6) (or the core is saturated).
            if env.utilization < 1.0:
                lhs = task.wcet + env.interference(task.period_max)
                assert lhs > task.period_max - 1e-6
            return
        assert task.period_des - 1e-9 <= solution.period
        assert solution.period <= task.period_max + 1e-9
        lhs = task.wcet + env.interference(solution.period)
        assert lhs <= solution.period + 1e-6
        # Minimality: tightening by 0.1% violates a constraint.
        smaller = solution.period * 0.999
        if smaller >= task.period_des:
            assert task.wcet + env.interference(smaller) > smaller

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(task=security_tasks(), env=environments())
    def test_gp_route_matches_closed_form(self, task, env):
        closed = adapt_period(task, env)
        gp = adapt_period_gp(task, env)
        if closed is None:
            # Skip razor-edge infeasibility (minimum period within one
            # part in 10⁴ of T_max): there the interior-point tolerance
            # legitimately differs from the exact closed form.
            from repro.analysis.interference import min_feasible_period

            lower = min_feasible_period(task, env)
            if lower <= task.period_max * (1.0 + 1e-4):
                return
            assert gp is None
        else:
            assert gp is not None
            assert gp.period == pytest.approx(closed.period, rel=1e-4)

    @settings(max_examples=120, deadline=None)
    @given(task=security_tasks(), env=environments())
    def test_exact_rta_dominates_linear_bound(self, task, env):
        linear = adapt_period(task, env)
        exact = adapt_period_exact(task, env)
        if linear is not None:
            assert exact is not None
            assert exact.period <= linear.period + 1e-9

    @settings(max_examples=120, deadline=None)
    @given(task=security_tasks(), env=environments())
    def test_linear_interference_upper_bounds_exact_demand(self, task, env):
        # (1 + T/Ti)·Ci ≥ ceil(T/Ti)·Ci for every window length T.
        solution = adapt_period(task, env)
        if solution is None:
            return
        t = solution.period
        exact_demand = sum(
            math.ceil(t / i.period) * i.wcet for i in env.interferers
        )
        assert env.interference(t) >= exact_demand - 1e-9


# --------------------------------------------------------------------------
# Joint LP properties
# --------------------------------------------------------------------------


@st.composite
def small_systems(draw):
    from repro.model import Partition, Platform, SystemModel, TaskSet
    from repro.model.task import RealTimeTask

    cores = draw(st.integers(min_value=1, max_value=3))
    platform = Platform(cores)
    rt_tasks = []
    mapping = {}
    for core in range(cores):
        count = draw(st.integers(min_value=0, max_value=2))
        for i in range(count):
            period = draw(st.floats(min_value=5.0, max_value=100.0))
            util = draw(st.floats(min_value=0.05, max_value=0.35))
            name = f"r{core}_{i}"
            rt_tasks.append(
                RealTimeTask(name=name, wcet=period * util, period=period)
            )
            mapping[name] = core
    n_sec = draw(st.integers(min_value=1, max_value=4))
    security = []
    for i in range(n_sec):
        tdes = draw(st.floats(min_value=50.0, max_value=300.0))
        factor = draw(st.floats(min_value=2.0, max_value=10.0))
        util = draw(st.floats(min_value=0.02, max_value=0.3))
        security.append(
            SecurityTask(
                name=f"s{i}",
                wcet=tdes * util,
                period_des=tdes,
                period_max=tdes * factor,
            )
        )
    return SystemModel(
        platform=platform,
        rt_partition=Partition(platform, TaskSet(rt_tasks), mapping),
        security_tasks=TaskSet(security),
    )


class TestJointOptimisationProperties:
    @settings(max_examples=50, deadline=None)
    @given(system=small_systems(), data=st.data())
    def test_lp_dominates_sequential_greedy(self, system, data):
        from repro.opt.joint import (
            solve_assignment_lp,
            solve_assignment_sequential,
        )

        assignment = {
            name: data.draw(
                st.integers(0, system.platform.num_cores - 1), label=name
            )
            for name in system.security_tasks.names
        }
        lp = solve_assignment_lp(system, assignment)
        seq = solve_assignment_sequential(system, assignment)
        if seq is not None:
            assert lp is not None
            assert lp.tightness >= seq.tightness - 1e-7

    @settings(max_examples=40, deadline=None)
    @given(system=small_systems(), data=st.data())
    def test_feasibility_check_matches_lp(self, system, data):
        from repro.opt.joint import assignment_feasible, solve_assignment_lp

        assignment = {
            name: data.draw(
                st.integers(0, system.platform.num_cores - 1), label=name
            )
            for name in system.security_tasks.names
        }
        fast = assignment_feasible(system, assignment)
        lp = solve_assignment_lp(system, assignment)
        assert fast == (lp is not None)

    @settings(max_examples=25, deadline=None)
    @given(system=small_systems())
    def test_hydra_never_beats_optimal(self, system):
        from repro.core.hydra import HydraAllocator
        from repro.core.optimal import OptimalAllocator

        hydra = HydraAllocator().allocate(system)
        if not hydra.schedulable:
            return
        optimal = OptimalAllocator(search="branch-bound").allocate(system)
        assert optimal.schedulable
        assert optimal.cumulative_tightness() >= (
            hydra.cumulative_tightness() - 1e-7
        )

    @settings(max_examples=25, deadline=None)
    @given(system=small_systems())
    def test_branch_bound_equals_exhaustive(self, system):
        from repro.opt.branch_bound import branch_bound_optimal
        from repro.opt.exhaustive import exhaustive_optimal

        exhaustive = exhaustive_optimal(system)
        bnb, _ = branch_bound_optimal(system)
        if exhaustive is None:
            assert bnb is None
        else:
            assert bnb is not None
            assert bnb.tightness == pytest.approx(
                exhaustive.tightness, abs=1e-6
            )


# --------------------------------------------------------------------------
# RTA vs simulator consistency
# --------------------------------------------------------------------------


class TestAnalysisSimulatorConsistency:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_synchronous_response_time_matches_rta(self, data, n):
        from repro.sim.engine import SimTask, Simulator

        tasks = []
        total_util = 0.0
        for i in range(n):
            period = data.draw(
                st.floats(min_value=5.0, max_value=100.0), label=f"T{i}"
            )
            util = data.draw(
                st.floats(min_value=0.05, max_value=0.25), label=f"u{i}"
            )
            total_util += util
            tasks.append((period * util, period))
        if total_util >= 0.95:
            return
        tasks.sort(key=lambda ct: ct[1])
        sim_tasks = [
            SimTask(
                name=f"t{i}", wcet=c, period=t, priority=i, core=0
            )
            for i, (c, t) in enumerate(tasks)
        ]
        lowest = sim_tasks[-1]
        expected = response_time(
            lowest.wcet, [(c, t) for c, t in tasks[:-1]]
        )
        horizon = max(expected * 2.0, lowest.period) + 1.0
        result = Simulator(sim_tasks, num_cores=1, duration=horizon).run()
        first = result.completed_jobs_of(lowest.name)
        if first:
            # The synchronous (critical-instant) release gives exactly
            # the analytical worst case for the first job.
            assert first[0].completion == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("security_only", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(system=small_systems())
    def test_first_completion_is_the_rta_fixed_point_on_every_core(
        self, system, security_only
    ):
        # The multi-core critical instant: every task of an allocated
        # system released at 0 finishes its first job at its exact RTA
        # response time among the higher-priority tasks of its core.
        # With ``security_only`` the security band simulates the
        # monitors alone, and each must still meet that fixed point over
        # the real-time tasks it never simulated: an oracle for the band
        # that does not go through the kernel.
        from repro.analysis.schedulability import partition_schedulable
        from repro.core.hydra import HydraAllocator
        from repro.sim.runner import build_sim_tasks, simulate_allocation

        if not partition_schedulable(system.rt_partition):
            return
        allocation = HydraAllocator().allocate(system)
        if not allocation.schedulable:
            return
        tasks = build_sim_tasks(system, allocation)
        expected = {
            task.name: response_time(
                task.wcet,
                [
                    (other.wcet, other.period)
                    for other in tasks
                    if other.core == task.core
                    and other.priority < task.priority
                ],
            )
            for task in tasks
            if task.kind == "security" or not security_only
        }
        horizon = max(expected.values()) + 1.0
        result = simulate_allocation(
            system, allocation, duration=horizon, security_only=security_only
        )
        if security_only:
            assert {job.task for job in result.jobs} == set(expected)
        for name, response in expected.items():
            first = result.track(name).completion[0]
            assert first == pytest.approx(response, rel=1e-9)

    @pytest.mark.parametrize("security_only", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(system=small_systems())
    def test_no_deadline_misses_for_admitted_allocations(
        self, system, security_only
    ):
        from repro.analysis.schedulability import partition_schedulable
        from repro.core.hydra import HydraAllocator
        from repro.sim.runner import simulate_allocation

        if not partition_schedulable(system.rt_partition):
            return
        allocation = HydraAllocator().allocate(system)
        if not allocation.schedulable:
            return
        horizon = min(
            max(a.period for a in allocation.assignments) * 3.0, 10_000.0
        )
        result = simulate_allocation(
            system, allocation, duration=horizon, security_only=security_only
        )
        assert not result.missed_any_deadline
        if security_only:
            # The misses checked are the security tasks' own.
            assert {job.task for job in result.jobs} == set(
                system.security_tasks.names
            )
