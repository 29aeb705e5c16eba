"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def rt_pair() -> TaskSet:
    """Two real-time tasks with comfortable slack."""
    return TaskSet(
        [
            RealTimeTask(name="rt_fast", wcet=1.0, period=10.0),
            RealTimeTask(name="rt_slow", wcet=10.0, period=100.0),
        ]
    )


@pytest.fixture
def security_pair() -> TaskSet:
    """Two security tasks with distinct priorities (by T_max)."""
    return TaskSet(
        [
            SecurityTask(
                name="sec_hi", wcet=5.0, period_des=100.0, period_max=500.0
            ),
            SecurityTask(
                name="sec_lo", wcet=8.0, period_des=150.0, period_max=900.0
            ),
        ]
    )


@pytest.fixture
def two_core_system(rt_pair, security_pair) -> SystemModel:
    """A 2-core system: both RT tasks on core 0, core 1 empty."""
    platform = Platform(2)
    partition = Partition(
        platform, rt_pair, {"rt_fast": 0, "rt_slow": 0}
    )
    return SystemModel(
        platform=platform,
        rt_partition=partition,
        security_tasks=security_pair,
    )


@pytest.fixture
def loaded_system() -> SystemModel:
    """A 2-core system with real load on both cores and three security
    tasks, tight enough that periods stretch beyond T_des."""
    platform = Platform(2)
    rt = TaskSet(
        [
            RealTimeTask(name="r0", wcet=4.0, period=10.0),  # u = .4
            RealTimeTask(name="r1", wcet=30.0, period=100.0),  # u = .3
            RealTimeTask(name="r2", wcet=5.0, period=20.0),  # u = .25
            RealTimeTask(name="r3", wcet=45.0, period=150.0),  # u = .3
        ]
    )
    partition = Partition(
        platform, rt, {"r0": 0, "r1": 0, "r2": 1, "r3": 1}
    )
    security = TaskSet(
        [
            SecurityTask(
                name="s0", wcet=20.0, period_des=200.0, period_max=2000.0
            ),
            SecurityTask(
                name="s1", wcet=30.0, period_des=300.0, period_max=3000.0
            ),
            SecurityTask(
                name="s2", wcet=40.0, period_des=400.0, period_max=4000.0
            ),
        ]
    )
    return SystemModel(
        platform=platform, rt_partition=partition, security_tasks=security
    )
