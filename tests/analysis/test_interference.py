"""Unit tests for the Eq. (5) linearised interference bound."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.interference import (
    Interferer,
    InterferenceEnv,
    min_feasible_period,
)
from repro.errors import ValidationError
from repro.model.task import RealTimeTask, SecurityTask


def rt(wcet: float, period: float, name: str = "r") -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period)


def sec(wcet: float = 5.0, tdes: float = 100.0, tmax: float = 1000.0,
        name: str = "s") -> SecurityTask:
    return SecurityTask(
        name=name, wcet=wcet, period_des=tdes, period_max=tmax
    )


class TestInterferer:
    def test_from_rt(self):
        i = Interferer.from_rt(rt(2.0, 10.0))
        assert (i.wcet, i.period) == (2.0, 10.0)
        assert i.utilization == pytest.approx(0.2)

    def test_from_security_uses_assigned_period(self):
        i = Interferer.from_security(sec(wcet=5.0), 250.0)
        assert i.period == 250.0
        assert i.utilization == pytest.approx(0.02)

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            Interferer(0.0, 10.0)
        with pytest.raises(ValidationError):
            Interferer(1.0, -1.0)


class TestInterferenceEnv:
    def test_aggregates(self):
        env = InterferenceEnv(
            [Interferer(2.0, 10.0), Interferer(3.0, 30.0)]
        )
        assert env.total_wcet == pytest.approx(5.0)
        assert env.utilization == pytest.approx(0.2 + 0.1)
        assert len(env.interferers) == 2

    def test_sums_add_left_to_right(self):
        """K' and U of C = 0.1, 0.2, 0.3 (T = 1) add in order to
        0.6000000000000001 on every Python version; a compensated sum
        (the builtin ``sum`` of floats from 3.12 on) would return 0.6."""
        env = InterferenceEnv(
            [Interferer(wcet, 1.0) for wcet in (0.1, 0.2, 0.3)]
        )
        assert env.total_wcet == 0.6000000000000001
        assert env.utilization == 0.6000000000000001

    def test_empty_env(self):
        env = InterferenceEnv()
        assert env.total_wcet == 0.0
        assert env.utilization == 0.0
        assert env.interference(123.0) == 0.0

    def test_interference_formula_matches_paper(self):
        # Eq. (5): Σ (1 + Ts/Tr)·Cr expanded = ΣCr + Ts·ΣCr/Tr.
        env = InterferenceEnv([Interferer(2.0, 10.0)])
        ts = 50.0
        expected = (1 + ts / 10.0) * 2.0
        assert env.interference(ts) == pytest.approx(expected)

    def test_interference_rejects_nonpositive_window(self):
        env = InterferenceEnv([Interferer(2.0, 10.0)])
        with pytest.raises(ValidationError):
            env.interference(0.0)

    def test_on_core_combines_rt_and_security(self):
        env = InterferenceEnv.on_core(
            [rt(2.0, 10.0)], [(sec(wcet=5.0), 200.0)]
        )
        assert env.total_wcet == pytest.approx(7.0)
        assert env.utilization == pytest.approx(0.2 + 0.025)

    def test_extended(self):
        env = InterferenceEnv([Interferer(2.0, 10.0)])
        bigger = env.extended([Interferer(1.0, 10.0)])
        assert bigger.total_wcet == pytest.approx(3.0)
        assert env.total_wcet == pytest.approx(2.0)

    def test_extended_chain_sums_like_one_env(self):
        env = InterferenceEnv()
        for wcet in (0.1, 0.2, 0.3):
            env = env.extended([Interferer(wcet, 1.0)])
        assert env.total_wcet == 0.6000000000000001
        assert env.utilization == 0.6000000000000001

    @settings(max_examples=200, deadline=None)
    @given(
        chain=st.lists(
            st.lists(
                st.builds(
                    Interferer,
                    st.floats(min_value=1e-3, max_value=50.0),
                    st.floats(min_value=1.0, max_value=1000.0),
                ),
                max_size=4,
            ),
            max_size=8,
        )
    )
    def test_extended_chain_equals_one_env(self, chain):
        """Any chain of ``extended`` calls, empty and multi-interferer
        extensions included, gives the interferers and the very floats
        of one environment over the concatenated interferers."""
        env = InterferenceEnv()
        for extra in chain:
            env = env.extended(extra)
        whole = InterferenceEnv([i for extra in chain for i in extra])
        assert env.interferers == whole.interferers
        assert env.total_wcet == whole.total_wcet
        assert env.utilization == whole.utilization


class TestLinearHelpers:
    def test_linear_bound_met_true_and_false(self):
        env = InterferenceEnv.on_core([rt(5.0, 10.0)])  # U = .5
        task = sec(wcet=10.0, tdes=100.0, tmax=1000.0)
        # At T = 100: 10 + (5 + .5*100) = 65 ≤ 100 → Eq. (6) met.
        assert task.wcet + env.interference(100.0) <= 100.0
        # At T = 20: 10 + (5 + 10) = 25 > 20 → not met.
        assert task.wcet + env.interference(20.0) > 20.0

    def test_min_feasible_period_formula(self):
        env = InterferenceEnv.on_core([rt(5.0, 10.0)])
        task = sec(wcet=10.0)
        # (Cs + K') / (1 − U) = 15 / 0.5 = 30.
        assert min_feasible_period(task, env) == pytest.approx(30.0)

    def test_min_feasible_period_saturated_core(self):
        env = InterferenceEnv.on_core([rt(10.0, 10.0)])  # U = 1
        assert min_feasible_period(sec(), env) == math.inf

    def test_min_feasible_period_idle_core(self):
        env = InterferenceEnv()
        task = sec(wcet=7.0)
        assert min_feasible_period(task, env) == pytest.approx(7.0)

    def test_min_feasible_satisfies_bound_exactly(self):
        env = InterferenceEnv.on_core(
            [rt(3.0, 17.0), rt(2.0, 29.0)]
        )
        task = sec(wcet=4.0)
        t_min = min_feasible_period(task, env)
        assert task.wcet + env.interference(t_min) == pytest.approx(t_min)


# ------------------------------------------------------------ properties


@st.composite
def rt_cores(draw):
    """0-6 real-time tasks, each with ``C/T`` in ``[0.01, 0.4]``, so the
    core's utilisation lands on both sides of 1."""
    tasks = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        period = draw(st.floats(min_value=1.0, max_value=1000.0))
        share = draw(st.floats(min_value=0.01, max_value=0.4))
        tasks.append(rt(period * share, period, name=f"r{i}"))
    return tasks


@st.composite
def hp_security(draw):
    """0-3 ``(security task, assigned period)`` pairs."""
    pairs = []
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        wcet = draw(st.floats(min_value=0.1, max_value=50.0))
        period = wcet * draw(st.floats(min_value=1.0, max_value=100.0))
        pairs.append((sec(wcet=wcet, tdes=period, tmax=period, name=f"s{i}"),
                      period))
    return pairs


@settings(max_examples=100, deadline=None)
@given(
    rt_tasks=rt_cores(),
    security=hp_security(),
    window=st.floats(min_value=1.0, max_value=1e4),
)
def test_linear_interference_is_the_eq5_sum(rt_tasks, security, window):
    """``I = Σ_r (1 + Ts/Tr)·Cr + Σ_h (1 + Ts/Th)·Ch`` term by term."""
    expected = math.fsum(
        [(1 + window / t.period) * t.wcet for t in rt_tasks]
        + [(1 + window / period) * s.wcet for s, period in security]
    )
    assert math.isclose(
        InterferenceEnv.on_core(rt_tasks, security).interference(window),
        expected,
        rel_tol=1e-12,
        abs_tol=1e-9,
    )


@settings(max_examples=100, deadline=None)
@given(rt_tasks=rt_cores(), wcet=st.floats(min_value=0.1, max_value=100.0))
def test_min_feasible_period_is_the_root_of_eq6(rt_tasks, wcet):
    """Finite exactly when the interferers leave spare capacity, and then
    the period where ``Cs + I(Ts) = Ts``: the left side grows with slope
    ``U < 1``, so no shorter period meets Eq. (6)."""
    env = InterferenceEnv.on_core(rt_tasks)
    period = min_feasible_period(sec(wcet=wcet, tdes=1e6, tmax=1e7), env)
    if env.utilization >= 1.0:
        assert period == math.inf
    else:
        assert math.isclose(
            wcet + env.interference(period), period, rel_tol=1e-9
        )
