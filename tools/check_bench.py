#!/usr/bin/env python
"""Gate pinned hot-path benchmarks against a committed baseline.

Usage::

    python tools/check_bench.py benchmarks/baselines/baseline.json \
        bench.json [--tolerance 0.30]

Both files are ``pytest-benchmark --benchmark-json`` outputs.  The
pinned benchmarks cover the sweep engine's hot paths:

* ``test_rta_batch`` — the vectorised kernel behind the ``rta-batch``
  admission test,
* ``test_persistent_pool_fanout`` — multi-sweep fan-out through the
  persistent worker pool,
* ``test_subprocess_executor_fanout`` — multi-sweep fan-out through
  persistent ``subprocess-workers`` NDJSON workers (the fault-tolerant
  executor backend's dispatch overhead),
* ``test_store_warm_read`` / ``test_store_put_many`` — the sharded
  result store's batched read/write paths,
* ``test_allocator_dispatch`` — the allocator-registry round trip a
  sweep cell pays per task set (spec lookup → strategy → typed
  AllocationResult),
* ``test_workload_per_instance_loop`` — task-set generation over a
  whole utilisation sweep through the per-instance
  ``generate_workload`` loop, the one route every point runner takes,
* ``test_ablate_runset`` / ``test_ablate_cached_rescore`` — the
  ablation harness's run-set expansion (config → swap-one variants →
  content-addressed ids) and the warm-cache re-scoring loop,
* ``test_detection_scoring`` — indexed attack scoring over a simulated
  schedule (the detection-latency sweep's per-attack hot path),
* ``test_partition_sweep_fast`` — the incremental-admission partition
  sweep; it — like the detection index against its per-attack scan
  reference — is additionally held to a *speedup floor* against its
  in-run reference (:data:`RATIO_GATES`).

:data:`RATIO_GATES` also keeps eligible simulations on the per-core
kernel: ``Simulator.run()`` (``test_simulate_kernel``) against the
reference event loop on the same system (``test_simulate_reference``),
and detection simulations on the security band
(``test_simulate_security_band``) against that kernel.

:data:`RATIO_GATES` also holds the sweep engine's own speed claims,
gated here rather than asserted in pytest so tier-1 stays deterministic
on small or loaded boxes: the pooled engine over the serial one
(``test_parallel_sweep_pooled`` vs ``test_parallel_sweep_serial``), a
cache-warm rerun over computing into an empty store
(``test_cache_hit_latency`` vs ``test_cache_miss_latency``), and one
persistent pool over forking a pool per sweep
(``test_persistent_pool_fanout`` vs ``test_fork_per_sweep_fanout``).
The pooled-engine gate needs parallel hardware: it is skipped, and the
skip reported, when the current run's ``machine_info.cpu.count`` is
below :data:`MIN_CPUS`.

Raw means are meaningless across machines (the committed baseline was
recorded on one box, CI runs on another), so every pinned mean is
**normalised by the calibration benchmark's mean from the same file**
(``test_randfixedsum`` — a numpy-bound kernel nobody optimises by
accident).  The gate fails when a pinned benchmark's normalised mean
regresses more than ``--tolerance`` (default 30%) past the baseline.
The calibration draws ``nsets = 50`` vectors on purpose: that is the
vector route, which keeps the full numpy table and which the one-vector
band walk every task set takes (``test_randfixedsum_single``, unpinned)
leaves alone.  It draws one fixed ``(n, u)`` every round, so no cache
may ever serve it: a cache would shrink its mean and so inflate every
normalised mean the gate checks.

Regenerate the baseline after an *intended* perf change::

    PYTHONPATH=src REPRO_SCALE=smoke python -m pytest \
        benchmarks/test_bench_micro.py benchmarks/test_bench_parallel.py \
        benchmarks/test_bench_executors.py \
        benchmarks/test_bench_store.py benchmarks/test_bench_allocators.py \
        benchmarks/test_bench_workloads.py \
        benchmarks/test_bench_ablate.py \
        benchmarks/test_bench_analysis.py \
        benchmarks/test_bench_sim.py \
        --benchmark-json=/tmp/bench.json -q
    python tools/check_bench.py --slim /tmp/bench.json \
        benchmarks/baselines/baseline.json

(``--slim`` strips the per-round raw data pytest-benchmark embeds —
the committed baseline only needs names, means, and provenance.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Benchmark (function) names whose normalised means are gated.
PINNED = (
    "test_rta_batch",
    "test_partition_sweep_fast",
    "test_persistent_pool_fanout",
    "test_subprocess_executor_fanout",
    "test_store_warm_read",
    "test_store_put_many",
    "test_allocator_dispatch",
    "test_workload_per_instance_loop",
    "test_ablate_runset",
    "test_ablate_cached_rescore",
    "test_detection_scoring",
)

#: The normaliser: CPU-bound, stable, present in every gated run.
CALIBRATION = "test_randfixedsum"

#: Speedup floors checked on the *current* run alone: the slow
#: reference and the fast path come from the same process, so the
#: ratio of their medians is machine-independent.  Each entry is
#: ``(slow benchmark, fast benchmark, minimum slow/fast ratio)``.
RATIO_GATES = (
    # Fig2-style partition sweep: incremental admission vs rebuild-and-test.
    ("test_partition_sweep_generic", "test_partition_sweep_fast", 2.0),
    # Detection scoring: per-monitor sorted index vs the per-attack
    # scan over every job (O(jobs × attacks)).
    ("test_detection_scan_reference", "test_detection_scoring", 4.0),
    # Simulation: the per-core kernel Simulator.run() takes on the
    # 2-core UAV system vs the reference event loop (measured ×8.3–×8.4
    # on a 2-CPU box).
    ("test_simulate_reference", "test_simulate_kernel", 3.0),
    # Detection simulation: the security band (the monitors alone, in
    # the idle time the real-time band leaves) vs the per-core kernel on
    # the same system (measured ×4.5–×5.5 on a 2-CPU box).
    ("test_simulate_kernel", "test_simulate_security_band", 2.5),
    # Sweep engine: the mini-sweep over a warm worker pool vs serial.
    ("test_parallel_sweep_serial", "test_parallel_sweep_pooled", 1.1),
    # Store: the mini-sweep served by a warm store vs computed into an
    # empty one (measured ×33 on a 2-CPU box).
    ("test_cache_miss_latency", "test_cache_hit_latency", 5.0),
    # Pool reuse: 12 small sweeps through one persistent pool vs a pool
    # forked per sweep (measured ×4.0–×4.4); holds on one CPU too,
    # since the saving is fork latency, not parallel compute.
    ("test_fork_per_sweep_fanout", "test_persistent_pool_fanout", 1.5),
)

#: Ratio gates (by fast benchmark) that only hold with this many CPUs:
#: on one CPU the pooled leg runs a single worker and cannot win.
MIN_CPUS = {"test_parallel_sweep_pooled": 2}


def load_stats(path: Path, stat: str = "mean") -> dict[str, float]:
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"check_bench: cannot read {path}: {exc}")
    stats: dict[str, float] = {}
    for bench in document.get("benchmarks", []):
        stats[bench["name"]] = float(bench["stats"][stat])
    return stats


def cpu_count(path: Path) -> int | None:
    """CPU count pytest-benchmark recorded for a run, if any."""
    document = json.loads(path.read_text())
    count = document.get("machine_info", {}).get("cpu", {}).get("count")
    return int(count) if count else None


def slim(source: Path, destination: Path) -> int:
    """Reduce a full pytest-benchmark JSON to the committed-baseline
    form: provenance plus per-benchmark name and stats (no raw rounds)."""
    document = json.loads(source.read_text())
    reduced = {
        "machine_info": document.get("machine_info", {}),
        "datetime": document.get("datetime"),
        "benchmarks": [
            {
                "name": bench["name"],
                "fullname": bench.get("fullname", bench["name"]),
                "stats": {
                    key: value
                    for key, value in bench["stats"].items()
                    if key != "data"
                },
            }
            for bench in document.get("benchmarks", [])
        ],
    }
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(json.dumps(reduced, indent=2, sort_keys=True) + "\n")
    print(f"wrote {destination} ({len(reduced['benchmarks'])} benchmarks)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", type=Path,
        help="committed baseline JSON (or the source run with --slim)",
    )
    parser.add_argument(
        "current", type=Path,
        help="fresh benchmark JSON (or the destination with --slim)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative regression of the normalised mean "
        "(default: 0.30 = 30%%)",
    )
    parser.add_argument(
        "--slim",
        action="store_true",
        help="write a slimmed baseline from BASELINE to CURRENT "
        "instead of gating",
    )
    args = parser.parse_args(argv)

    if args.slim:
        return slim(args.baseline, args.current)

    baseline = load_stats(args.baseline)
    current = load_stats(args.current)
    # Ratio gates compare two benchmarks from the same run by their
    # per-round *medians*: with the deliberately long rounds of the
    # gated pairs (see benchmarks/test_bench_analysis.py), sustained
    # machine load slows both sides proportionally and cancels in the
    # median ratio, while the per-round minimum hinges on a single
    # lucky round per side and the mean chases outliers.
    current_ratio_stat = load_stats(args.current, stat="median")

    ratio_names = [name for pair in RATIO_GATES for name in pair[:2]]
    missing = [
        name
        for name in (*PINNED, CALIBRATION)
        for means, origin in ((baseline, "baseline"), (current, "current"))
        if name not in means
    ] + [name for name in ratio_names if name not in current]
    if missing:
        sys.exit(
            f"check_bench: benchmark(s) missing from baseline/current "
            f"run: {sorted(set(missing))}"
        )

    failures = []
    print(
        f"{'benchmark':<32} {'base (norm)':>12} {'now (norm)':>12} "
        f"{'ratio':>7}  verdict"
    )
    for name in PINNED:
        base_norm = baseline[name] / baseline[CALIBRATION]
        cur_norm = current[name] / current[CALIBRATION]
        ratio = cur_norm / base_norm
        regressed = ratio > 1.0 + args.tolerance
        verdict = "REGRESSED" if regressed else (
            "improved" if ratio < 1.0 else "ok"
        )
        print(
            f"{name:<32} {base_norm:>12.3f} {cur_norm:>12.3f} "
            f"{ratio:>6.2f}x  {verdict}"
        )
        if regressed:
            failures.append((name, ratio))

    cpus = cpu_count(args.current)
    for slow, fast, floor in RATIO_GATES:
        needed = MIN_CPUS.get(fast, 1)
        if cpus is not None and cpus < needed:
            print(
                f"{fast:<32} speedup vs {slow}: skipped "
                f"({cpus} CPU(s) in this run, gate needs {needed})"
            )
            continue
        ratio = current_ratio_stat[slow] / current_ratio_stat[fast]
        ok = ratio >= floor
        print(
            f"{fast:<32} speedup vs {slow}: {ratio:.1f}x "
            f"(floor {floor:g}x)  {'ok' if ok else 'TOO SLOW'}"
        )
        if not ok:
            failures.append((f"{fast} speedup", ratio))

    print(
        f"calibration ({CALIBRATION}): baseline "
        f"{baseline[CALIBRATION] * 1e3:.3f}ms vs current "
        f"{current[CALIBRATION] * 1e3:.3f}ms"
    )
    if failures:
        summary = ", ".join(f"{n} ×{r:.2f}" for n, r in failures)
        print(
            f"check_bench: FAIL — pinned hot path regressed beyond "
            f"{args.tolerance:.0%} or speedup floor missed: {summary}",
            file=sys.stderr,
        )
        return 1
    print(f"check_bench: OK — no pinned path regressed > {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
