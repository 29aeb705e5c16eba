"""Every core-by-core allocator is HYDRA's one walk with its own core
rule or core filter.

The registry builds ``hydra[np]``, SingleCore, the two ablation rules
and the four bin-packing rules as :class:`HydraAllocator` instances
that do not override ``allocate``; ``first-feasible`` and
``binpack-first-fit`` share one rule, so they place identically, while
``slackiest-core`` keeps a key of its own.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.allocators import get_allocator
from repro.core.hydra import HydraAllocator
from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)
from test_per_core_envs import PROPERTY_SETTINGS, systems

GREEDY = (
    "hydra",
    "hydra[gp]",
    "hydra[exact-rta]",
    "hydra[np]",
    "singlecore",
    "first-feasible",
    "slackiest-core",
    "binpack-first-fit",
    "binpack-best-fit",
    "binpack-worst-fit",
    "binpack-next-fit",
)


@pytest.mark.parametrize("spec", GREEDY)
def test_every_greedy_spec_runs_the_one_walk(spec):
    allocator = get_allocator(spec)
    assert isinstance(allocator, HydraAllocator)
    assert type(allocator).allocate is HydraAllocator.allocate
    assert allocator.name == spec


@PROPERTY_SETTINGS
@given(system=systems())
def test_first_feasible_places_as_binpack_first_fit(system):
    """Same cores, periods and failing task on every system."""
    first = get_allocator("first-feasible").allocate(system)
    packed = get_allocator("binpack-first-fit").allocate(system)
    assert [(a.task.name, a.core, a.period) for a in first.assignments] == [
        (a.task.name, a.core, a.period) for a in packed.assignments
    ]
    assert first.schedulable == packed.schedulable
    assert first.failed_task == packed.failed_task


def test_slackiest_core_ties_where_worst_fit_does_not():
    """``1 − U`` rounds two tiny loads to one slack, so slackiest-core
    falls back to the lower core while worst-fit takes the lighter."""
    platform = Platform(2)
    rt = TaskSet(
        [
            RealTimeTask(name="heavier", wcet=2e-15, period=100.0),
            RealTimeTask(name="lighter", wcet=1e-15, period=100.0),
        ]
    )
    system = SystemModel(
        platform=platform,
        rt_partition=Partition(platform, rt, {"heavier": 0, "lighter": 1}),
        security_tasks=TaskSet(
            [SecurityTask(name="s", wcet=1.0, period_des=50.0, period_max=50.0)]
        ),
    )
    slackiest = get_allocator("slackiest-core").allocate(system)
    worst = get_allocator("binpack-worst-fit").allocate(system)
    assert slackiest.assignment_for("s").core == 0
    assert worst.assignment_for("s").core == 1
