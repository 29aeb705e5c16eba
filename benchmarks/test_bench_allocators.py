"""Benchmarks of the first-class allocator API.

``test_allocator_dispatch`` is pinned by the CI benchmark gate
(``tools/check_bench.py``): it measures the full registry round trip a
sweep cell pays per task set — spec lookup, strategy instantiation,
the HYDRA allocation itself, and the typed
:class:`~repro.model.allocation.AllocationResult` envelope.  If the
registry ever grows import-time or per-call overhead, paper-scale
scenario grids (thousands of cells) feel it first.

The remaining benchmarks compare the registered strategy families on
one fixed mid-load system — not gated, but reported so a PR that slows
a family down shows up in the ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import pytest

from repro.allocators import get_allocator, run_allocator
from repro.model import (
    Partition,
    Platform,
    RealTimeTask,
    SecurityTask,
    SystemModel,
    TaskSet,
)


@pytest.fixture(scope="module")
def system() -> SystemModel:
    """A 4-core system with mixed load and five security tasks."""
    platform = Platform(4)
    rt = []
    assignment = {}
    for core in range(4):
        for j in range(3):
            name = f"rt{core}_{j}"
            period = 10.0 * (j + 1) + 7.0 * core
            rt.append(
                RealTimeTask(name=name, wcet=period * 0.15, period=period)
            )
            assignment[name] = core
    security = [
        SecurityTask(
            name=f"s{i}",
            wcet=4.0 + 3.0 * i,
            period_des=80.0 + 40.0 * i,
            period_max=(80.0 + 40.0 * i) * 6.0,
        )
        for i in range(5)
    ]
    return SystemModel(
        platform=platform,
        rt_partition=Partition(platform, TaskSet(rt), assignment),
        security_tasks=TaskSet(security),
    )


def test_allocator_dispatch(benchmark, system):
    """Registry spec → strategy → AllocationResult, end to end (gated)."""

    def dispatch():
        return run_allocator("hydra", system)

    result = benchmark(dispatch)
    assert result.allocator == "hydra"
    assert result.allocation.schedulable
    assert result.elapsed_s >= 0.0


def test_allocator_lookup_only(benchmark):
    """Pure registry resolution cost (no allocation)."""
    allocator = benchmark(get_allocator, "binpack-best-fit")
    assert allocator.name == "binpack-best-fit"


@pytest.mark.parametrize(
    "spec",
    ["hydra", "first-feasible", "binpack-best-fit", "binpack-worst-fit"],
)
def test_strategy_families(benchmark, system, spec):
    """Per-family allocation cost on the shared fixed system."""
    allocator = get_allocator(spec)
    allocation = benchmark(allocator.allocate, system)
    assert allocation.schedulable
