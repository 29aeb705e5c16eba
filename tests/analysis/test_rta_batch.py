"""Equivalence suite: batched RTA vs the scalar fixed-point solver.

The batched solver backs the registered ``rta-batch`` admission test,
so it must agree with the scalar one — including unschedulable
(``inf``) verdicts — up to a few ulp of round-off.  The random-core
sweep below covers 200 generated cores spanning schedulable, overloaded
and exactly-critical utilisations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.rta import (
    core_response_times,
    response_time,
    response_times_batch,
    rta_schedulable,
    rta_schedulable_batch,
)
from repro.analysis.schedulability import get_admission_test
from repro.errors import ValidationError
from repro.model.priority import rate_monotonic_order
from repro.model.task import RealTimeTask


def _random_core(rng: np.random.Generator) -> list[RealTimeTask]:
    """One random core: n tasks, total utilisation spanning ~0.2 … ~1.3
    so both schedulable and unschedulable cores appear."""
    n = int(rng.integers(1, 30))
    periods = rng.uniform(5.0, 1000.0, n)
    target = rng.uniform(0.2, 1.3)
    shares = rng.dirichlet(np.ones(n)) * target
    tasks = []
    for i, (u, p) in enumerate(zip(shares, periods)):
        wcet = min(max(u * p, 1e-4), p)  # keep C ≤ T (= implicit deadline)
        tasks.append(RealTimeTask(name=f"t{i:03d}", wcet=float(wcet),
                                  period=float(p)))
    return tasks


def _batch_response_times(tasks: list[RealTimeTask]) -> dict[str, float]:
    """Name → response time from one :func:`response_times_batch` solve
    over ``tasks`` in rate-monotonic order."""
    ordered = rate_monotonic_order(tasks)
    responses = response_times_batch(
        [t.wcet for t in ordered],
        [t.period for t in ordered],
        [t.deadline for t in ordered],
    )
    return {t.name: float(r) for t, r in zip(ordered, responses)}


class TestRandomCoreEquivalence:
    def test_batch_matches_scalar_on_200_random_cores(self):
        rng = np.random.default_rng(20180319)
        saw_inf = saw_finite = 0
        for _ in range(200):
            tasks = _random_core(rng)
            scalar = core_response_times(tasks)
            batch = _batch_response_times(tasks)
            assert scalar.keys() == batch.keys()
            for name in scalar:
                s, b = scalar[name], batch[name]
                if math.isinf(s):
                    saw_inf += 1
                    assert math.isinf(b), (
                        f"{name}: scalar=inf but batch={b}"
                    )
                else:
                    saw_finite += 1
                    assert b == pytest.approx(s, abs=1e-9), (
                        f"{name}: scalar={s} batch={b}"
                    )
            assert rta_schedulable(tasks) == rta_schedulable_batch(tasks)
        # The sweep must actually exercise both verdict kinds.
        assert saw_inf > 0
        assert saw_finite > 0


class TestLowLevelBatch:
    def test_empty_core(self):
        assert response_times_batch([], []).size == 0
        assert rta_schedulable_batch([]) is True

    def test_single_task_is_its_own_wcet(self):
        out = response_times_batch([3.0], [10.0])
        assert out[0] == pytest.approx(3.0)

    def test_matches_scalar_with_blocking(self):
        wcets, periods = [1.0, 2.0, 3.0], [8.0, 20.0, 50.0]
        batch = response_times_batch(wcets, periods, blocking=2.5)
        for i in range(3):
            interferers = list(zip(wcets[:i], periods[:i]))
            scalar = response_time(wcets[i], interferers, blocking=2.5)
            assert batch[i] == pytest.approx(scalar, abs=1e-9)

    def test_saturated_interferers_give_inf(self):
        # Interferer utilisation of task 2 is exactly 1.0.
        out = response_times_batch([5.0, 5.0, 1.0], [10.0, 10.0, 100.0])
        assert math.isinf(out[2])

    def test_deadline_limit_marks_inf(self):
        # Task 1's fixed point is 1 + ⌈6/6⌉·5 = 6, above a deadline of 5.
        out = response_times_batch(
            [5.0, 1.0], [6.0, 50.0], deadlines=[6.0, 5.0]
        )
        assert math.isinf(out[1])
        unlimited = response_times_batch([5.0, 1.0], [6.0, 50.0])
        assert unlimited[1] == pytest.approx(6.0)
        # The scalar path agrees on both verdicts.
        assert math.isinf(response_time(1.0, [(5.0, 6.0)], limit=5.0))
        assert response_time(1.0, [(5.0, 6.0)]) == pytest.approx(6.0)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            response_times_batch([0.0], [10.0])
        with pytest.raises(ValidationError):
            response_times_batch([1.0], [-1.0])
        with pytest.raises(ValidationError):
            response_times_batch([1.0], [10.0], blocking=-0.5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            response_times_batch([1.0, 2.0], [10.0])
        with pytest.raises(ValidationError):
            response_times_batch([1.0], [10.0], deadlines=[5.0, 6.0])


class TestRegisteredTests:
    def test_rta_and_rta_batch_agree_on_random_cores(self):
        rta = get_admission_test("rta")
        rta_batch = get_admission_test("rta-batch")
        rng = np.random.default_rng(99)
        for _ in range(40):
            tasks = _random_core(rng)
            assert rta(tasks) == rta_batch(tasks)

    def test_rta_batch_registered_as_admission_test(self):
        test = get_admission_test("rta-batch")
        assert test([RealTimeTask(name="a", wcet=1.0, period=10.0)])
