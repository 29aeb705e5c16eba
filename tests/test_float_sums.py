"""Sums that reach a result document add left to right.

``0.1 + 0.2 + 0.3`` added in order is ``0.6000000000000001`` on every
Python version.  The builtin ``sum`` of floats is compensated from
Python 3.12 on and returns ``0.6``, which would move result bytes
between interpreter versions; each value below must see the former.
"""

from __future__ import annotations

import math

from repro.analysis.schedulability import liu_layland_test, utilization_test
from repro.experiments.api import RawRun
from repro.experiments.config import get_scale
from repro.experiments.detection import DetectionCell
from repro.experiments.fig3 import Fig3Experiment
from repro.experiments.parallel import SweepResult, SweepSpec, SweepStats
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.improvement import detection_speedup
from repro.model.allocation import Allocation, SecurityAssignment
from repro.model.platform import Platform
from repro.model.system import Partition, SystemModel
from repro.model.task import (
    RealTimeTask,
    SecurityTask,
    TaskSet,
    total_utilization,
)
from repro.opt import joint
from repro.opt.gp import Monomial, Posynomial
from repro.workloads.builtin import CaseStudyWorkload

#: 0.6000000000000001: evaluated in source order, never compensated.
IN_ORDER = 0.1 + 0.2 + 0.3


def _system() -> SystemModel:
    """RT tasks u = 0.1, 0.2, 0.3 on core 0, and four security tasks
    there whose first three have C = 0.1, 0.2, 0.3."""
    platform = Platform(2)
    rt = TaskSet(
        RealTimeTask(name=f"r{i}", wcet=wcet, period=1.0)
        for i, wcet in enumerate((0.1, 0.2, 0.3))
    )
    security = TaskSet(
        SecurityTask(
            name=f"s{i}", wcet=wcet, period_des=1.0,
            period_max=100.0 * (i + 1),
        )
        for i, wcet in enumerate((0.1, 0.2, 0.3, 0.05))
    )
    partition = Partition(platform, rt, {t.name: 0 for t in rt})
    return SystemModel(
        platform=platform, rt_partition=partition, security_tasks=security
    )


def test_system_utilizations():
    system = _system()
    assert system.rt_partition.utilization_of(0) == IN_ORDER
    assert total_utilization(system.rt_tasks) == IN_ORDER
    assert total_utilization(system.security_tasks) == IN_ORDER + 0.05


def test_joint_lp_rows(monkeypatch):
    """The budget is 1 − Σ U_r and the last task's K is C + Σ C_r +
    Σ C_h, every Σ over 0.1, 0.2, 0.3."""
    captured = {}
    solve_lp = joint.solve_lp

    def spy(c, **kwargs):
        captured.update(kwargs)
        return solve_lp(c, **kwargs)

    monkeypatch.setattr(joint, "solve_lp", spy)
    system = _system()
    solution = joint.solve_assignment_lp(
        system, {t.name: 0 for t in system.security_tasks}
    )
    assert solution is not None
    assert captured["b_ub"] == [1.0 - IN_ORDER] * 4
    assert captured["a_ub"][3][3] == 0.05 + IN_ORDER + IN_ORDER


def test_fig3_mean_gap():
    spec = SweepSpec(
        kind="fig3-gap", seed=0, points=({"utilization": 0.5},), params={}
    )
    payload = {"gaps": [0.1, 0.2, 0.3], "hydra_failures": 0}
    raw = RawRun(
        sweeps=(SweepResult(spec, (payload,), SweepStats()),),
        scale=get_scale("smoke"),
    )
    (point,) = Fig3Experiment().aggregate_domain(raw).points
    assert point.mean_gap == IN_ORDER / 3


def test_detection_cell_mean_detected():
    cell = DetectionCell(
        utilization=0.5, scheme="hydra", times=(0.1, 0.2, 0.3),
        censored=1, undetectable=0, allocated=1, total=1,
    )
    assert cell.mean_detected == IN_ORDER / 3


def test_cdf_means():
    assert EmpiricalCDF([0.3, 0.1, 0.2]).mean_detected() == IN_ORDER / 3
    assert EmpiricalCDF([0.3, 0.1, math.inf, 0.2]).mean_detected() == (
        IN_ORDER / 3
    )


def test_detection_speedup():
    baseline = IN_ORDER / 3
    assert detection_speedup([0.1], [0.1, 0.2, 0.3]) == (
        (baseline - 0.1) / baseline * 100.0
    )


def _unit_period_tasks(*utilizations: float) -> list[RealTimeTask]:
    return [
        RealTimeTask(name=f"r{i}", wcet=u, period=1.0)
        for i, u in enumerate(utilizations)
    ]


def test_admission_tests_add_left_to_right():
    """A fourth utilisation chosen so that 0.1 + 0.2 + 0.3 + u, added in
    order, lands one ulp above each test's threshold, and the correctly
    rounded sum (3.12's builtin ``sum``) on it."""
    ll = _unit_period_tasks(0.1, 0.2, 0.3, 0.15682846001188405)
    assert IN_ORDER + 0.15682846001188405 > 4 * (2.0 ** 0.25 - 1.0) + 1e-12
    assert math.fsum(t.utilization for t in ll) <= (
        4 * (2.0 ** 0.25 - 1.0) + 1e-12
    )
    assert not liu_layland_test(ll)

    full = _unit_period_tasks(0.1, 0.2, 0.3, 0.40000000000100017)
    assert math.fsum(t.utilization for t in full) <= 1.0 + 1e-12
    assert not utilization_test(full)


def test_case_study_achieved_utilization():
    rt = TaskSet(_unit_period_tasks(0.1, 0.2, 0.3))
    security = TaskSet([
        SecurityTask(name="s", wcet=0.05, period_des=1.0, period_max=2.0)
    ])
    family = CaseStudyWorkload("sums", lambda: rt, lambda: security)
    workload = family.generate(2, 0.5)
    assert workload.target_utilization == IN_ORDER + 0.05


def test_posynomial_evaluate():
    terms = [Monomial(c, {}) for c in (0.1, 0.2, 0.3)]
    assert Posynomial(terms).evaluate({}) == IN_ORDER


def test_allocation_security_utilization():
    system = _system()
    allocation = Allocation(
        scheme="sums",
        schedulable=True,
        assignments=tuple(
            SecurityAssignment(task=system.security_tasks[f"s{i}"], core=0,
                               period=1.0)
            for i in range(3)
        ),
    )
    assert allocation.security_utilization() == IN_ORDER
