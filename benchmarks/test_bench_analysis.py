"""Bench: incremental exact-RTA admission against rebuild-and-test.

One speedup *ratio* gate (enforced by ``tools/check_bench.py`` on the
current run, machine-independently, since both sides come from the same
process): a fig2-style utilisation sweep partitioned through the
incremental :class:`~repro.analysis.admission.ExactAdmissionCore` path
is **≥ 2×** the rebuild-and-test callable path.

The fast side is also pinned against the committed baseline like the
other hot paths, so it cannot silently regress even while the ratio
still clears.

The workload sits in the regime the paper's sweeps live in: cores near
the schedulability cliff (high per-core utilisation — lots of
fixed-point iterations, frequent rejections), where the incremental
admission state earns its keep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.schedulability import rta_test
from repro.model.platform import Platform
from repro.model.task import RealTimeTask
from repro.partition.heuristics import try_partition_tasks
from repro.taskgen.synthetic import generate_workload

#: Fig2-style sweep: best-fit partitioning on M=4 at the saturation end
#: of the utilisation axis, where acceptance starts dropping.
_SWEEP_PLATFORM = Platform(4)
_SWEEP_UTILS = (2.8, 3.2, 3.4)
_SWEEP_TRIALS = 20


@pytest.fixture(scope="module")
def sweep_sets() -> list[list[RealTimeTask]]:
    sets = []
    for u in _SWEEP_UTILS:
        for k in range(_SWEEP_TRIALS):
            rng = np.random.default_rng(20180308 + 1000 * k + int(u * 100))
            workload = generate_workload(_SWEEP_PLATFORM, u, rng)
            sets.append(list(workload.rt_tasks))
    return sets


@pytest.mark.benchmark(min_rounds=15)
def test_partition_sweep_fast(benchmark, sweep_sets):
    """Pinned + ratio-gated: fig2-style sweep through the incremental
    exact-RTA admission path."""

    def sweep() -> int:
        placed = 0
        for tasks in sweep_sets:
            partition = try_partition_tasks(
                tasks, _SWEEP_PLATFORM, admission="rta"
            )
            placed += partition is not None
        return placed

    placed = benchmark(sweep)
    assert 0 < placed <= len(sweep_sets)


@pytest.mark.benchmark(min_rounds=15)
def test_partition_sweep_generic(benchmark, sweep_sets):
    """Reference sweep through the rebuild-and-test admission path —
    must place exactly the same task sets as the fast path."""

    def sweep() -> list[bool]:
        return [
            try_partition_tasks(
                tasks, _SWEEP_PLATFORM, admission=lambda ts: rta_test(ts)
            )
            is not None
            for tasks in sweep_sets
        ]

    generic = benchmark(sweep)
    fast = [
        try_partition_tasks(tasks, _SWEEP_PLATFORM, admission="rta")
        is not None
        for tasks in sweep_sets
    ]
    assert generic == fast
