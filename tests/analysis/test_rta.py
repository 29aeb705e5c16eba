"""Unit tests for exact response-time analysis."""

from __future__ import annotations

import math

import pytest

from repro.analysis.admission import ExactAdmissionCore
from repro.analysis.blocking import rt_schedulable_with_blocking
from repro.analysis.interference import Interferer
from repro.analysis.rta import (
    core_response_times,
    response_time,
    rta_schedulable,
)
from repro.analysis.schedulability import rta_test
from repro.errors import ValidationError
from repro.model.task import RealTimeTask


def rt(name: str, wcet: float, period: float) -> RealTimeTask:
    return RealTimeTask(name=name, wcet=wcet, period=period)


class TestResponseTime:
    def test_no_interference(self):
        assert response_time(3.0, []) == 3.0

    def test_textbook_example(self):
        # Classic example: C=(1,2,3), T=(4,6,12) under RM.
        # R1 = 1; R2 = 2 + ceil(R2/4)*1 → 3;
        # R3: 6 → 7 → 9 → 10 → 10 (fixed point):
        #   3 + ceil(10/4)*1 + ceil(10/6)*2 = 3 + 3 + 4 = 10.
        assert response_time(1.0, []) == 1.0
        assert response_time(2.0, [(1.0, 4.0)]) == 3.0
        assert response_time(3.0, [(1.0, 4.0), (2.0, 6.0)]) == pytest.approx(
            10.0
        )

    def test_accepts_interferer_objects(self):
        assert response_time(2.0, [Interferer(1.0, 4.0)]) == 3.0

    def test_limit_exceeded_returns_inf(self):
        assert response_time(3.0, [(1.0, 4.0), (2.0, 6.0)], limit=9.0) == (
            math.inf
        )

    def test_saturated_interferers_return_inf(self):
        assert response_time(1.0, [(5.0, 10.0), (5.0, 10.0)]) == math.inf

    def test_interference_adds_left_to_right(self):
        """0.001 + (0.1 + 0.2 + 0.3) added in order is
        0.6010000000000001 on every Python version; a compensated sum
        (the builtin ``sum`` of floats from 3.12 on) would give 0.601."""
        pairs = [(0.1, 100.0), (0.2, 100.0), (0.3, 100.0)]
        assert response_time(0.001, pairs) == 0.6010000000000001

    def test_blocking_term_added_once(self):
        without = response_time(2.0, [(1.0, 10.0)])
        with_blocking = response_time(2.0, [(1.0, 10.0)], blocking=1.0)
        assert with_blocking >= without + 1.0 - 1e-9

    def test_blocking_can_cascade_through_ceilings(self):
        # Blocking pushing R across a release boundary adds more than
        # the blocking itself.
        base = response_time(3.0, [(1.0, 4.0)])  # 3 + 1 = 4 → ceil grows
        assert base == pytest.approx(4.0)
        blocked = response_time(3.0, [(1.0, 4.0)], blocking=1.0)
        assert blocked == pytest.approx(6.0)  # 3+1+ceil(6/4)*1 = 6

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValidationError):
            response_time(0.0, [])
        with pytest.raises(ValidationError):
            response_time(1.0, [(0.0, 5.0)])
        with pytest.raises(ValidationError):
            response_time(1.0, [], blocking=-1.0)

    def test_response_independent_of_own_period(self):
        # The fixed point only involves the interferers, a structural
        # fact the exact-RTA allocator exploits.
        interferers = [(2.0, 7.0), (3.0, 13.0)]
        r = response_time(4.0, interferers)
        assert r == response_time(4.0, interferers, limit=r + 100.0)


class TestCoreResponseTimes:
    def test_rm_order_and_values(self):
        tasks = [rt("lo", 3.0, 12.0), rt("hi", 1.0, 4.0), rt("mid", 2.0, 6.0)]
        results = core_response_times(tasks)
        assert list(results) == ["hi", "mid", "lo"]
        assert results["hi"] == 1.0
        assert results["mid"] == 3.0
        assert results["lo"] == pytest.approx(10.0)

    def test_unschedulable_marked_inf(self):
        tasks = [rt("hi", 3.0, 4.0), rt("lo", 3.0, 6.0)]
        results = core_response_times(tasks)
        assert results["hi"] == 3.0
        assert results["lo"] == math.inf

    def test_empty_core(self):
        assert core_response_times([]) == {}


class TestRtaSchedulable:
    def test_exactly_full_harmonic_set(self):
        # C=(1,2,3), T=(4,6,12): schedulable, exactly full at t = 12.
        tasks = [rt("a", 1, 4), rt("b", 2, 6), rt("c", 3, 12)]
        assert rta_schedulable(tasks)

    def test_overloaded_set_rejected(self):
        tasks = [rt("a", 3, 4), rt("b", 3, 6)]
        assert not rta_schedulable(tasks)

    def test_rta_beats_liu_layland(self):
        # U = 1.0 harmonic set passes RTA but exceeds the LL bound.
        from repro.analysis.schedulability import liu_layland_test

        tasks = [rt("a", 2, 4), rt("b", 4, 8)]
        assert rta_schedulable(tasks)
        assert not liu_layland_test(tasks)

    def test_single_task(self):
        assert rta_schedulable([rt("a", 10, 10)])

    def test_empty(self):
        assert rta_schedulable([])

    def test_same_named_tasks_each_meet_their_own_deadline(self):
        # "a" responds at 3 behind "h" but must finish by 2; a second,
        # lower-priority "a" with a lax deadline must not mask the miss.
        h = rt("h", 2, 4)
        a = RealTimeTask(name="a", wcet=1.0, period=5.0, deadline=2.0)
        a2 = rt("a", 1, 100)
        tasks = [h, a, a2]
        assert not rta_schedulable(tasks)
        assert not rta_test(tasks)
        assert not rt_schedulable_with_blocking(tasks, 0.0)
        assert not ExactAdmissionCore([h, a]).admits(a2)
