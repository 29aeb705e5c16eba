"""Unit tests for the sweep engine, its determinism and its cache.

The engine's contract: for a fixed :class:`SweepSpec`, the aggregated
results are *byte-identical* regardless of worker count, and a
cache-warm second run returns the same bytes without recomputing a
single point.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.allocators import get_allocator
from repro.errors import ValidationError
from repro.experiments.config import SCALES
from repro.experiments.fig2 import fig2_grid
from repro.experiments.parallel import (
    SweepEngine,
    SweepSpec,
    execute_point,
    register_point_runner,
    synthetic_config_from_dict,
    synthetic_config_to_dict,
)
from repro.experiments.registry import get_experiment
from repro.experiments.runner import spawn_streams
from repro.experiments.scenario import run_scenario_point
from repro.experiments.store import ResultStore, cache_key
from repro.taskgen.synthetic import SyntheticConfig


def _mini_spec(points: int = 3, trials: int = 4) -> SweepSpec:
    smoke = SCALES["smoke"]
    scale = smoke.with_overrides(tasksets_per_point=trials)
    (spec,) = fig2_grid([2]).sweeps(scale)
    return SweepSpec(
        kind=spec.kind,
        seed=spec.seed,
        points=spec.points[:points],
        params=spec.params,
    )


def _bytes(result) -> bytes:
    return json.dumps(result.payloads, sort_keys=True).encode()


class TestDeterminism:
    def test_serial_and_parallel_runs_are_byte_identical(self):
        spec = _mini_spec()
        serial = SweepEngine(workers=1).run(spec)
        parallel = SweepEngine(workers=4).run(spec)
        assert _bytes(serial) == _bytes(parallel)
        assert serial.stats.computed_points == len(spec.points)
        assert parallel.stats.computed_points == len(spec.points)

    def test_engine_matches_legacy_serial_streams(self):
        """Point ``i``'s engine stream is ``spawn_streams``' stream ``i``
        — the exact randomness the pre-engine serial loops consumed."""
        spec = _mini_spec(points=2, trials=3)
        result = SweepEngine().run(spec)
        streams = spawn_streams(spec.seed, len(spec.points))
        for point, payload, rng in zip(
            spec.points, result.payloads, streams
        ):
            expected = run_scenario_point(dict(point), dict(spec.params), rng)
            assert payload == expected
            assert all(
                len(cell) == 3 for cell in payload["cells"].values()
            )

    def test_fig2_identical_across_worker_counts(self):
        smoke = SCALES["smoke"]
        fig2 = get_experiment("fig2")
        serial = fig2.run_domain(smoke, SweepEngine(workers=1))
        parallel = fig2.run_domain(smoke, SweepEngine(workers=4))
        assert serial == parallel


class TestCache:
    def test_warm_run_recomputes_nothing(self, tmp_path):
        spec = _mini_spec()
        computed: list[int] = []
        engine = SweepEngine(
            cache=ResultStore(tmp_path), on_point_computed=computed.append
        )
        cold = engine.run(spec)
        assert sorted(computed) == list(range(len(spec.points)))
        assert cold.stats.computed_points == len(spec.points)

        computed.clear()
        warm = engine.run(spec)
        assert computed == []  # the call-counting hook never fired
        assert warm.stats.computed_points == 0
        assert warm.stats.cached_points == len(spec.points)
        assert _bytes(cold) == _bytes(warm)

    def test_parallel_run_reuses_serial_cache(self, tmp_path):
        spec = _mini_spec()
        cold = SweepEngine(workers=1, cache=ResultStore(tmp_path)).run(spec)
        warm_cache = ResultStore(tmp_path)
        warm = SweepEngine(workers=4, cache=warm_cache).run(spec)
        assert warm.stats.cached_points == len(spec.points)
        assert warm_cache.hits == len(spec.points)
        assert _bytes(cold) == _bytes(warm)

    def test_extended_sweep_only_computes_new_points(self, tmp_path):
        short = _mini_spec(points=2)
        extended = _mini_spec(points=3)
        assert extended.points[:2] == short.points

        engine = SweepEngine(cache=ResultStore(tmp_path))
        engine.run(short)
        result = engine.run(extended)
        assert result.stats.cached_points == 2
        assert result.stats.computed_points == 1

    def test_different_seeds_do_not_collide(self, tmp_path):
        spec = _mini_spec(points=2)
        other = SweepSpec(
            kind=spec.kind,
            seed=spec.seed + 1,
            points=spec.points,
            params=spec.params,
        )
        engine = SweepEngine(cache=ResultStore(tmp_path))
        engine.run(spec)
        result = engine.run(other)
        assert result.stats.computed_points == len(other.points)

    @pytest.mark.parametrize(
        "corruption",
        ["{ not json", "[]", "null", '{"key": null}', ""],
        ids=["invalid-json", "array", "null", "no-payload", "empty"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, corruption):
        """Scribbling over the shard's record log downgrades the entry
        to a miss (recomputed), never to a wrong payload."""
        spec = _mini_spec(points=1)
        cache = ResultStore(tmp_path)
        engine = SweepEngine(cache=cache)
        engine.run(spec)
        data = tmp_path / spec.kind / "data.jsonl"
        data.write_text(corruption)
        rerun = SweepEngine(cache=ResultStore(tmp_path)).run(spec)
        assert rerun.stats.computed_points == 1

    def test_cache_key_is_canonical(self):
        assert cache_key({"a": 1, "b": 2}) == cache_key({"b": 2, "a": 1})
        assert cache_key({"a": 1}) != cache_key({"a": 2})


class TestSpec:
    def test_round_trips_through_json(self):
        spec = _mini_spec()
        rebuilt = SweepSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert rebuilt == spec

    def test_rejects_empty_points(self):
        with pytest.raises(ValidationError):
            SweepSpec(kind="scenario", seed=1, points=())

    def test_key_payload_excludes_point_count(self):
        short, extended = _mini_spec(points=2), _mini_spec(points=3)
        assert short.key_payload(0) == extended.key_payload(0)

    def test_unknown_kind_raises(self):
        spec = SweepSpec(kind="no-such-kind", seed=1, points=({"x": 1},))
        with pytest.raises(ValidationError):
            execute_point(spec, 0)

    def test_duplicate_runner_registration_raises(self):
        with pytest.raises(ValidationError):
            register_point_runner("scenario")(lambda p, q, r: {})


class TestSerialisationHelpers:
    def test_synthetic_config_round_trip(self):
        config = SyntheticConfig(
            security_task_count=(2, 6), period_granularity=5.0
        )
        rebuilt = synthetic_config_from_dict(
            json.loads(json.dumps(synthetic_config_to_dict(config)))
        )
        assert rebuilt == config

    def test_comparison_allocator_specs_resolve(self):
        """Every spec the solver and core-choice ablations sweep
        resolves through the registry the scenario runner uses."""
        for spec in (
            "hydra", "hydra[exact-rta]", "hydra+lp", "first-feasible",
            "slackiest-core",
        ):
            assert get_allocator(spec).name == spec

    def test_unknown_allocator_spec_raises(self):
        from repro.allocators import UnknownAllocatorError

        with pytest.raises(UnknownAllocatorError, match="known allocators"):
            get_allocator("magic")


class TestEngineConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValidationError):
            SweepEngine(workers=-1)

    def test_workers_zero_and_none_mean_serial(self):
        assert SweepEngine(workers=0).workers == 1
        assert SweepEngine(workers=None).workers == 1

    def test_cache_path_coerced(self, tmp_path):
        engine = SweepEngine(cache=str(tmp_path / "c"))
        assert isinstance(engine.cache, ResultStore)

    def test_serial_engine_never_imports_executors(self):
        """The serial default runs points inline: importing the
        executors package would add its import time to every serial
        CLI run and job."""
        code = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.experiments.parallel import SweepEngine, SweepSpec\n"
            "repro.cli.build_parser()\n"
            "SweepEngine().run(SweepSpec(kind='calibration', seed=1,\n"
            "                            points=({'i': 0}, {'i': 1})))\n"
            "print('repro.executors' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "False"

    def test_legacy_cache_instance_accepted(self, tmp_path):
        cache = ResultStore(tmp_path)
        assert SweepEngine(cache=cache).cache is cache


class TestFig1Degenerate:
    def test_single_core_only_scale_returns_empty_result(self):
        """core_counts=(1,) has no SingleCore-comparable panel; the
        pre-engine loop returned an empty result rather than raising."""
        scale = SCALES["smoke"].with_overrides(core_counts=(1,))
        fig1 = get_experiment("fig1")
        assert fig1.sweeps(scale) == []
        assert fig1.run_domain(scale).panels == ()

    def test_single_core_panels_are_skipped(self):
        scale = SCALES["smoke"].with_overrides(core_counts=(1, 2))
        result = get_experiment("fig1").run_domain(scale)
        assert [panel.cores for panel in result.panels] == [2]
        assert result.panels == get_experiment("fig1").run_domain(
            SCALES["smoke"]
        ).panels


class TestFig2Degenerate:
    def test_single_core_panels_are_skipped(self):
        """SingleCore needs a spare core, so a 1-core platform has no
        Fig. 2 panel — not one reporting SingleCore at 0 %."""
        scale = SCALES["smoke"].with_overrides(core_counts=(1, 2))
        result = get_experiment("fig2").run_domain(scale)
        assert result.core_counts == [2]
        assert result.points == get_experiment("fig2").run_domain(
            SCALES["smoke"]
        ).points

    def test_single_core_only_scale_returns_empty_result(self):
        scale = SCALES["smoke"].with_overrides(core_counts=(1,))
        fig2 = get_experiment("fig2")
        assert fig2.sweeps(scale) == []
        assert fig2.run_domain(scale).points == ()
