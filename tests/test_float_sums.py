"""Sums that reach a result document add left to right.

``0.1 + 0.2 + 0.3`` added in order is ``0.6000000000000001`` on every
Python version.  The builtin ``sum`` of floats is compensated from
Python 3.12 on and returns ``0.6``, which would move result bytes
between interpreter versions; each value below must see the former.
"""

from __future__ import annotations

import math

from repro.experiments.api import RawRun
from repro.experiments.config import get_scale
from repro.experiments.detection import DetectionCell
from repro.experiments.fig3 import Fig3Experiment
from repro.experiments.parallel import SweepResult, SweepSpec, SweepStats
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.improvement import detection_speedup
from repro.model.platform import Platform
from repro.model.system import Partition, SystemModel
from repro.model.task import RealTimeTask, SecurityTask, TaskSet
from repro.opt import joint

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
    assert system.total_rt_utilization == IN_ORDER
    assert system.total_security_utilization_des == IN_ORDER + 0.05


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
    assert EmpiricalCDF([0.3, 0.1, 0.2]).mean() == IN_ORDER / 3
    assert EmpiricalCDF([0.3, 0.1, math.inf, 0.2]).mean() == math.inf
    assert EmpiricalCDF([0.3, 0.1, math.inf, 0.2]).mean_detected() == (
        IN_ORDER / 3
    )


def test_detection_speedup():
    baseline = IN_ORDER / 3
    assert detection_speedup([0.1], [0.1, 0.2, 0.3]) == (
        (baseline - 0.1) / baseline * 100.0
    )
