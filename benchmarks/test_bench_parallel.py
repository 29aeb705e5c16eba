"""Bench: the sweep engine — serial vs parallel vs cache-hit.

Three properties of the engine are measured on a Fig. 1-sized
acceptance mini-sweep (one panel's worth of utilisation points):

* a parallel run returns **byte-identical** payloads to the serial
  run (asserted unconditionally);
* with ≥ 2 CPUs, fanning points over workers beats the serial run by
  ≥ 1.1× — a median-ratio gate in ``tools/check_bench.py`` over the
  two timed legs (skipped on 1-CPU runs), not a pytest assertion, so
  small boxes still pass tier-1;
* a cache-warm rerun is an order of magnitude faster than computing
  (it reads one shard index plus a few records) and returns identical
  payloads;
* reusing one persistent :class:`WorkerPool` across a multi-panel,
  ``repro all --scale smoke``-shaped batch of sweeps beats the old
  fork-a-pool-per-sweep behaviour by ≥ 1.5× on fan-out wall time
  (asserted on any CPU count — the win is eliminated spawn/teardown
  latency, not parallel compute).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.executors import PoolExecutor
from repro.experiments.fig2 import fig2_sweep_spec
from repro.experiments.parallel import SweepEngine, SweepSpec
from repro.experiments.pool import WorkerPool
from repro.experiments.store import ResultStore

#: Workers for the parallel leg (capped by the visible CPU count so
#: single-core CI boxes measure overhead honestly, not oversubscription).
_WORKERS = min(4, os.cpu_count() or 1)


def _payload_bytes(result) -> bytes:
    return json.dumps(result.payloads, sort_keys=True).encode()


def _mini_spec(scale):
    """One Fig. 2 panel (2 cores) at a sweep size that takes seconds."""
    bench_scale = scale.with_overrides(
        tasksets_per_point=max(12, scale.tasksets_per_point // 2),
        utilization_step=0.1,
        utilization_start=0.1,
        utilization_stop=0.9,
    )
    return fig2_sweep_spec(2, bench_scale)


#: Timed rounds per leg; the ratio gate compares per-round medians.
#: Five keep the median ratio clear of the 1.1 floor (×1.29–×1.68 over
#: five runs on a 2-CPU box; three rounds read ×1.18–×2.26).
_SPEEDUP_ROUNDS = 5


@pytest.fixture(scope="module")
def serial_bytes(scale) -> bytes:
    """Payload bytes of one serial run: both timed legs must match."""
    return _payload_bytes(SweepEngine(workers=1).run(_mini_spec(scale)))


def test_parallel_sweep_serial(benchmark, scale, serial_bytes):
    """Ratio-gated reference leg: the mini-sweep run serially."""
    spec = _mini_spec(scale)
    result = benchmark.pedantic(
        SweepEngine(workers=1).run,
        args=(spec,),
        rounds=_SPEEDUP_ROUNDS,
        iterations=1,
    )
    assert _payload_bytes(result) == serial_bytes


def test_parallel_sweep_pooled(benchmark, scale, serial_bytes):
    """Ratio-gated fast leg: the same sweep over ``_WORKERS`` pooled
    workers, spawned and warmed by one untimed run."""
    spec = _mini_spec(scale)
    with WorkerPool(_WORKERS) as pool:
        executor = PoolExecutor(pool=pool)
        engine = SweepEngine(executor=executor)
        warm = engine.run(spec)
        result = benchmark.pedantic(
            engine.run, args=(spec,), rounds=_SPEEDUP_ROUNDS, iterations=1
        )
    assert _payload_bytes(warm) == serial_bytes
    assert _payload_bytes(result) == serial_bytes


#: A ``repro all --scale smoke``-shaped batch: every paper experiment
#: contributes a panel or three, so model it as 12 small sweeps.
_FANOUT_PANELS = 12
_FANOUT_POINTS = 8
#: Fixed at 2 (not CPU-capped): the measured effect is pool
#: spawn/teardown latency, which exists — and is eliminated by reuse —
#: regardless of how many CPUs back the workers.
_FANOUT_WORKERS = 2


def _fanout_specs() -> list[SweepSpec]:
    """Calibration sweeps: per-point cost ≈ 0, so wall time *is* the
    engine's dispatch overhead (what this benchmark pins)."""
    return [
        SweepSpec(
            kind="calibration",
            seed=1000 + panel,
            points=tuple({"index": i} for i in range(_FANOUT_POINTS)),
        )
        for panel in range(_FANOUT_PANELS)
    ]


def _run_with_fork_per_sweep(specs) -> list:
    """The pre-pool engine behaviour: every sweep forks (and reaps) its
    own worker pool."""
    results = []
    for spec in specs:
        with WorkerPool(_FANOUT_WORKERS) as pool:
            executor = PoolExecutor(pool=pool)
            results.append(SweepEngine(executor=executor).run(spec))
    return results


def _run_with_persistent_pool(specs) -> list:
    with WorkerPool(_FANOUT_WORKERS) as pool:
        executor = PoolExecutor(pool=pool)
        engine = SweepEngine(executor=executor)
        return [engine.run(spec) for spec in specs]


def test_persistent_pool_fanout(benchmark):
    """Pinned: multi-sweep fan-out through one persistent pool must
    stay fast — and beat per-sweep forking ≥ 1.5×."""
    specs = _fanout_specs()

    start = time.perf_counter()
    forked = _run_with_fork_per_sweep(specs)
    forked_s = time.perf_counter() - start

    persistent = benchmark.pedantic(
        _run_with_persistent_pool, args=(specs,), rounds=3, iterations=1
    )
    start = time.perf_counter()
    persistent_again = _run_with_persistent_pool(specs)
    persistent_s = time.perf_counter() - start

    speedup = forked_s / persistent_s if persistent_s > 0 else float("inf")
    print()
    print(
        f"fan-out over {_FANOUT_PANELS} sweeps: per-sweep fork "
        f"{forked_s*1000:.0f}ms vs persistent pool "
        f"{persistent_s*1000:.0f}ms → ×{speedup:.1f} "
        f"({_FANOUT_WORKERS} workers, {os.cpu_count()} CPU(s))"
    )

    # Determinism first: pooling strategy never changes a byte.
    for a, b, c in zip(forked, persistent, persistent_again):
        assert _payload_bytes(a) == _payload_bytes(b) == _payload_bytes(c)

    # The acceptance bar: reuse must amortise spawn/teardown.  This
    # holds on any CPU count — the eliminated cost is fork latency.
    assert speedup >= 1.5, (
        f"persistent pool only ×{speedup:.2f} faster than "
        f"per-sweep forking"
    )


def test_cache_hit_latency(scale, tmp_path):
    spec = _mini_spec(scale)

    cold_engine = SweepEngine(workers=1, cache=ResultStore(tmp_path))
    start = time.perf_counter()
    cold = cold_engine.run(spec)
    cold_s = time.perf_counter() - start

    warm_engine = SweepEngine(workers=1, cache=ResultStore(tmp_path))
    start = time.perf_counter()
    warm = warm_engine.run(spec)
    warm_s = time.perf_counter() - start

    print()
    print(
        f"cold {cold_s:.2f}s vs cache-warm {warm_s*1000:.0f}ms "
        f"→ ×{cold_s / warm_s:.0f} faster on hit"
    )

    assert warm.stats.computed_points == 0
    assert warm.stats.cached_points == len(spec.points)
    assert _payload_bytes(cold) == _payload_bytes(warm)
    # Reading a few JSON files must beat recomputing the sweep by a
    # wide margin; 5× is conservative (observed: orders of magnitude).
    assert warm_s < cold_s / 5.0
