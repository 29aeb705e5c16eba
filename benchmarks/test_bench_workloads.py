"""Benchmarks of the workload generation hot path.

``test_workload_per_instance_loop`` is pinned by the CI benchmark gate
(``tools/check_bench.py``): it draws a whole 2-core utilisation sweep
through the per-instance :func:`generate_workload` loop: per task set,
two Randfixedsum table builds and two period draws (real-time and
security).  This is the route every scenario and detection point pays
(``point_workloads`` calls each family's ``generate`` once per task
set).  ``test_workload_dispatch`` pins nothing; it tracks the registry
round trip (spec → generator → instance) a scenario cell pays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.taskgen.synthetic import generate_workload, utilization_sweep
from repro.workloads import run_workload

#: A 2-core paper sweep (39 points) × 3 task sets per point.
TARGETS = [u for u in utilization_sweep(2) for _ in range(3)]


def test_workload_per_instance_loop(benchmark):
    """The per-instance route over a full sweep (gated)."""

    def loop():
        rng = np.random.default_rng(7)
        return [generate_workload(2, u, rng) for u in TARGETS]

    workloads = benchmark(loop)
    assert len(workloads) == len(TARGETS)
    assert all(len(w.rt_tasks) > 0 for w in workloads)


@pytest.mark.parametrize("spec", ["paper-synthetic", "uunifast"])
def test_workload_dispatch(benchmark, spec):
    """Registry spec → generator → one instance, end to end."""
    workload = benchmark(run_workload, spec, 2, 1.3, 42)
    assert workload.rt_tasks
