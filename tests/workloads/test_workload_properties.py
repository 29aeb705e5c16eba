"""Property-based tests (hypothesis) over the whole workload registry.

The :class:`~repro.workloads.api.WorkloadGenerator` contract, audited
for *every* registered family:

* all WCETs strictly positive;
* recipe-backed generators (``config`` is not ``None``) keep the
  achieved total utilisation on target, task counts and periods inside
  the configured bounds, and the desired security utilisation at most
  ``security_utilization_fraction`` of the real-time utilisation;
* same seed ⇒ byte-identical task sets — per call, per grid-point
  batch, and through the sweep engine serial vs. pooled (which proves
  generators draw only from the stream they are given).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import SweepEngine, SweepSpec
from repro.experiments.scenario import point_workloads
from repro.model.platform import Platform
from repro.workloads import (
    get_workload,
    run_workload,
    workload_names,
    workload_to_dict,
)

_SPECS = workload_names()

_PLATFORMS = st.sampled_from([1, 2, 4])
_FRACTIONS = st.floats(min_value=0.05, max_value=0.95)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _canonical(workload) -> str:
    return json.dumps(workload_to_dict(workload), sort_keys=True)


def _count_bounds(config, which: str, m: int) -> tuple[int, int]:
    override = getattr(config, f"{which}_task_count")
    if override is not None:
        return override
    lo, hi = getattr(config, f"{which}_tasks_per_core")
    return lo * m, hi * m


@pytest.mark.parametrize("spec", _SPECS)
@given(m=_PLATFORMS, fraction=_FRACTIONS, seed=_SEEDS)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_generator_contract(spec, m, fraction, seed):
    generator = get_workload(spec)
    target = fraction * m
    workload = generator.generate(m, target, np.random.default_rng(seed))

    # -- universal: strictly positive WCETs, platform respected -------
    assert workload.platform.num_cores == m
    for task in workload.rt_tasks:
        assert task.wcet > 0.0, f"{spec}: rt wcet {task.wcet}"
    for task in workload.security_tasks:
        assert task.wcet > 0.0, f"{spec}: sec wcet {task.wcet}"

    config = generator.config
    if config is None:
        return  # fixed case studies: parameters are the workload

    # -- achieved utilisation on target -------------------------------
    assert workload.total_utilization == pytest.approx(
        target, rel=1e-6, abs=1e-9
    ), f"{spec}: achieved {workload.total_utilization} vs target {target}"

    # -- security share capped at the configured fraction -------------
    cap = config.security_utilization_fraction
    assert workload.security_utilization_des <= (
        cap * workload.rt_utilization + 1e-9
    ), f"{spec}: security share above the {cap} cap"

    # -- task counts inside the configured bounds ---------------------
    nr_lo, nr_hi = _count_bounds(config, "rt", m)
    ns_lo, ns_hi = _count_bounds(config, "security", m)
    assert nr_lo <= len(workload.rt_tasks) <= nr_hi, spec
    assert ns_lo <= len(workload.security_tasks) <= ns_hi, spec

    # -- periods inside the configured ranges -------------------------
    p_lo, p_hi = config.rt_period_range
    for task in workload.rt_tasks:
        assert p_lo - 1e-9 <= task.period <= p_hi + 1e-9, (
            f"{spec}: rt period {task.period} outside [{p_lo}, {p_hi}]"
        )
    s_lo, s_hi = config.security_period_des_range
    for task in workload.security_tasks:
        assert s_lo - 1e-9 <= task.period_des <= s_hi + 1e-9, spec
        assert task.period_max == pytest.approx(
            config.period_max_factor * task.period_des
        )

    # -- per-task utilisation never demands more than one core --------
    for task in workload.rt_tasks:
        assert task.utilization <= 1.0 + 1e-9, spec


@pytest.mark.parametrize("spec", _SPECS)
@given(m=_PLATFORMS, fraction=_FRACTIONS, seed=_SEEDS)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_same_seed_is_byte_identical(spec, m, fraction, seed):
    target = fraction * m
    a = run_workload(spec, m, target, np.random.default_rng(seed))
    b = run_workload(spec, m, target, np.random.default_rng(seed))
    assert _canonical(a) == _canonical(b)


@pytest.mark.parametrize("spec", _SPECS)
@given(seed=_SEEDS)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_same_seed_is_byte_identical(spec, seed):
    """A grid point's batch (the family's task sets drawn back to back
    from the point's stream by :func:`point_workloads`) repeats byte
    for byte."""

    def batch():
        pairs = point_workloads(
            Platform(2), [{"workload": spec}], 4, 0.8,
            np.random.default_rng(seed),
        )
        return [(family, _canonical(w)) for family, w in pairs]

    a, b = batch(), batch()
    assert len(a) == 4
    assert {family for family, _ in a} == {spec}
    assert a == b


def _sample_spec(spec: str) -> SweepSpec:
    return SweepSpec(
        kind="workload-sample",
        seed=2018,
        points=tuple(
            {"utilization": u} for u in (0.25, 0.75, 1.25)
        ),
        params={"cores": 2, "workload": spec},
    )


@pytest.mark.parametrize("spec", _SPECS)
def test_serial_and_pooled_generation_byte_identical(spec):
    """SeedSequence determinism through the engine: a pooled run of the
    ``workload-sample`` kind reproduces the serial bytes exactly."""
    sweep = _sample_spec(spec)
    serial = SweepEngine(workers=1).run(sweep)
    pooled = SweepEngine(workers=2).run(sweep)
    assert (
        json.dumps(serial.payloads, sort_keys=True)
        == json.dumps(pooled.payloads, sort_keys=True)
    )


def test_sample_runner_cache_round_trip(tmp_path):
    sweep = _sample_spec("uunifast")
    cold = SweepEngine(cache=str(tmp_path)).run(sweep)
    computed: list[int] = []
    warm = SweepEngine(
        cache=str(tmp_path), on_point_computed=computed.append
    ).run(sweep)
    assert warm.payloads == cold.payloads
    assert computed == []  # warm run came entirely from the cache


def test_sample_runner_cache_keys_on_workload_spec(tmp_path):
    """Two families at the same seed/point must occupy distinct cache
    entries — the workload spec is part of the key payload."""
    engine = SweepEngine(cache=str(tmp_path))
    paper = engine.run(_sample_spec("paper-synthetic"))
    uunifast = engine.run(_sample_spec("uunifast"))
    assert paper.stats.computed_points == 3
    assert uunifast.stats.computed_points == 3  # no false cache hits
    assert paper.payloads != uunifast.payloads
