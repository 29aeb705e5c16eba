"""Every registered allocator's allocation, run on the simulator.

An allocator promises that each security task meets its assigned period
without costing a real-time task its deadline.  The simulator is an
oracle independent of the analysis the allocators use: from the
synchronous release (the critical instant), no job of the allocated
system may miss its deadline.  ``hydra[np]`` allocates for
non-preemptive security tasks, so its allocation runs them that way.
"""

from __future__ import annotations

import pytest

from repro.allocators import allocator_names, get_allocator
from repro.sim.runner import simulate_allocation

#: Allocators that place security tasks which run to completion once
#: started.
NON_PREEMPTIVE = {"hydra[np]"}


@pytest.mark.parametrize("spec", allocator_names())
def test_allocation_runs_without_a_deadline_miss(spec, two_core_system):
    allocation = get_allocator(spec).allocate(two_core_system)
    assert allocation.schedulable, spec
    # Ten times the longest maximum period: every security task
    # releases several jobs whatever period it was given.
    horizon = 10 * max(t.period_max for t in two_core_system.security_tasks)
    result = simulate_allocation(
        two_core_system,
        allocation,
        duration=horizon,
        preemptible_security=spec not in NON_PREEMPTIVE,
    )
    assert result.misses == [], spec
    for assignment in allocation.assignments:
        track = result.track(assignment.task.name)
        assert len(track.completion) >= 10
        worst = max(
            done - release
            for release, done in zip(track.release, track.completion)
        )
        assert worst <= assignment.period + 1e-9
    for task in two_core_system.rt_tasks:
        track = result.track(task.name)
        assert len(track.completion) == round(horizon / task.period)
