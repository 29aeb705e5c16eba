"""Allocators that extend one interference environment per core give
the periods and cores of a per-probe rebuild.

HYDRA and its greedy relatives build each core's
:class:`InterferenceEnv` once and extend it by one interferer whenever
a security task is committed there.  These properties hold every such
allocator to the from-scratch formulation: each committed period
equals, bit for bit, the solve against
``InterferenceEnv.on_core(rt_on_core, earlier_on_core)``, and HYDRA
(every inner solver, and the blocking-aware variant) picks the same
argmax core, or fails on the same task, as Algorithm 1 with the
environment rebuilt for every probe.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocators import get_allocator
from repro.analysis.blocking import max_tolerable_blocking
from repro.analysis.interference import Interferer, InterferenceEnv
from repro.core.hydra import PERIOD_SOLVERS
from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)
from repro.model.priority import security_priority_order

#: The allocators besides HYDRA whose probes read a per-core
#: environment (HYDRA's variants replay against ``_reference_hydra``).
ALLOCATORS = (
    "singlecore",
    "first-feasible",
    "slackiest-core",
    "binpack-first-fit",
    "binpack-best-fit",
    "binpack-worst-fit",
    "binpack-next-fit",
)

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def systems(draw) -> SystemModel:
    """2–4 cores, up to 8 real-time tasks (the last core is often left
    free, so SingleCore applies) and 1–6 security tasks heavy enough
    that many periods are set by interference and some task sets
    fail."""
    cores = draw(st.integers(min_value=2, max_value=4))
    spare = draw(st.booleans())
    rt_tasks, mapping = [], {}
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        period = draw(st.floats(min_value=10.0, max_value=200.0))
        utilization = draw(st.floats(min_value=0.02, max_value=0.3))
        task = RealTimeTask(
            name=f"rt{i}", wcet=period * utilization, period=period
        )
        rt_tasks.append(task)
        last = cores - 2 if spare else cores - 1
        mapping[task.name] = draw(st.integers(min_value=0, max_value=last))
    security = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        tdes = draw(st.floats(min_value=50.0, max_value=800.0))
        share = draw(st.floats(min_value=0.01, max_value=0.5))
        security.append(
            SecurityTask(
                name=f"s{i}",
                wcet=tdes * share,
                period_des=tdes,
                period_max=tdes * draw(st.floats(min_value=1.0, max_value=4.0)),
            )
        )
    platform = Platform(cores)
    return SystemModel(
        platform=platform,
        rt_partition=Partition(platform, TaskSet(rt_tasks), mapping),
        security_tasks=TaskSet(security),
    )


def _rebuilt_env(system, earlier, core) -> InterferenceEnv:
    """The environment of ``core`` rebuilt from scratch."""
    return InterferenceEnv.on_core(
        system.rt_partition.tasks_on(core), earlier[core]
    )


def _reference_hydra(system, solve, budgets=None):
    """Algorithm 1 with the environment rebuilt for every probe:
    ``[(task, core, period), ...]``, or the name of the task no core
    accepts.  ``budgets`` filters cores as the blocking-aware variant
    does."""
    earlier = {core: [] for core in system.platform}
    placed = []
    for task in security_priority_order(system.security_tasks):
        best_core, best = None, None
        for core in system.platform:
            if budgets is not None and task.wcet > budgets[core] + 1e-12:
                continue
            candidate = solve(task, _rebuilt_env(system, earlier, core))
            if candidate is None:
                continue
            if best is None or candidate.tightness > best.tightness + 1e-12:
                best, best_core = candidate, core
        if best is None:
            return task.name
        earlier[best_core].append((task, best.period))
        placed.append((task.name, best_core, best.period))
    return placed


@pytest.mark.parametrize("name", ALLOCATORS)
@PROPERTY_SETTINGS
@given(system=systems())
def test_committed_periods_match_a_per_probe_rebuild(name, system):
    """Each committed period is the solve against the core's rebuilt
    environment, bit for bit."""
    allocator = get_allocator(name)
    if name == "singlecore" and all(
        system.rt_partition.tasks_on(core) for core in system.platform
    ):
        return  # no core is free of real-time tasks
    allocation = allocator.allocate(system)
    solve = PERIOD_SOLVERS[allocator.solver_name]
    earlier = {core: [] for core in system.platform}
    for assignment in allocation.assignments:
        env = _rebuilt_env(system, earlier, assignment.core)
        assert solve(assignment.task, env).period == assignment.period
        earlier[assignment.core].append((assignment.task, assignment.period))


@pytest.mark.parametrize("name", ["hydra", "hydra[gp]", "hydra[exact-rta]"])
@PROPERTY_SETTINGS
@given(system=systems())
def test_hydra_keeps_its_argmax_core(name, system):
    """Same cores, periods and failing task as Algorithm 1 rebuilt per
    probe, with every inner solver."""
    allocator = get_allocator(name)
    allocation = allocator.allocate(system)
    reference = _reference_hydra(system, PERIOD_SOLVERS[allocator.solver_name])
    if allocation.schedulable:
        assert [
            (a.task.name, a.core, a.period) for a in allocation.assignments
        ] == reference
    else:
        assert allocation.failed_task == reference


@PROPERTY_SETTINGS
@given(system=systems())
def test_nonpreemptive_hydra_keeps_its_argmax_core(system):
    """The blocking-aware variant replays the same way over the cores
    whose blocking budget admits each task."""
    allocation = get_allocator("hydra[np]").allocate(system)
    budgets = {
        core: max_tolerable_blocking(system.rt_partition.tasks_on(core))
        for core in system.platform
    }
    reference = _reference_hydra(system, PERIOD_SOLVERS["closed-form"], budgets)
    if allocation.schedulable:
        assert [
            (a.task.name, a.core, a.period) for a in allocation.assignments
        ] == reference
    else:
        assert allocation.failed_task == reference


@settings(max_examples=100, deadline=None)
@given(
    rt=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0),
            st.floats(min_value=10.0, max_value=1000.0),
        ),
        max_size=6,
    ),
    security=st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=10.0),
            st.floats(min_value=10.0, max_value=1000.0),
        ),
        max_size=6,
    ),
)
def test_extended_chain_equals_on_core(rt, security):
    """Extending an environment one interferer at a time gives the
    floats of one :meth:`InterferenceEnv.on_core` call."""
    rt_tasks = [
        RealTimeTask(name=f"rt{i}", wcet=c, period=t)
        for i, (c, t) in enumerate(rt)
    ]
    placed = [
        (SecurityTask(name=f"s{i}", wcet=c, period_des=t, period_max=t), t)
        for i, (c, t) in enumerate(security)
    ]
    chained = InterferenceEnv.on_core(rt_tasks)
    for task, period in placed:
        chained = chained.extended([Interferer.from_security(task, period)])
    direct = InterferenceEnv.on_core(rt_tasks, placed)
    assert chained.interferers == direct.interferers
    assert chained.total_wcet == direct.total_wcet
    assert chained.utilization == direct.utilization
