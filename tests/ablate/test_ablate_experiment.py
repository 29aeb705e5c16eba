"""AblationExperiment end to end: engine, cache, jobs, server."""

from __future__ import annotations

import json

import pytest

from repro.ablate import AblationExperiment, parse_ablation
from repro.experiments.api import ExperimentResult
from repro.experiments.config import get_scale
from repro.experiments.parallel import SweepEngine
from repro.experiments.store import ResultStore
from repro.jobs import JobRequest, JobRunner
from repro.server import JobServiceApp


def _config(axes=("ordering",), cores=(2,), **sweep):
    return parse_ablation(
        {
            "ablation": {"name": "e2e", "axes": list(axes)},
            "baseline": {"cores": list(cores)},
            "sweep": sweep,
        }
    )


@pytest.fixture(scope="module")
def scale():
    return get_scale("smoke")


@pytest.fixture(scope="module")
def result(scale) -> ExperimentResult:
    return AblationExperiment(_config()).run(scale)


class TestResultShape:
    def test_ranked_components_cover_every_variant(self, result, scale):
        experiment = AblationExperiment(_config())
        domain = experiment.decode_data(result.data)
        assert domain.scale == "smoke"
        assert domain.cores == (2,)
        assert domain.baseline.total > 0
        # utilization + rm orderings minus the incumbent
        assert sorted(c.component for c in domain.components) == [
            "input", "rm",
        ]
        for report in domain.components:
            assert report.axis == "ordering"
            assert report.verdict in ("load-bearing", "neutral", "harmful")
            assert report.run.run_id != domain.baseline.run_id

    def test_spec_hash_matches_derivation(self, result, scale):
        experiment = AblationExperiment(_config())
        assert result.spec_hash == experiment.spec_hash(scale)
        assert result.experiment == "ablate:e2e"

    def test_json_round_trip_is_exact(self, result):
        restored = ExperimentResult.from_json(result.to_json())
        assert restored == result

    def test_domain_round_trip_is_exact(self, result):
        experiment = AblationExperiment(_config())
        domain = experiment.decode_data(result.data)
        assert experiment.decode_data(experiment.encode_data(domain)) == domain

    def test_render_is_stable_across_decode(self, result):
        experiment = AblationExperiment(_config())
        text = experiment.render(result)
        assert "swap-one component importance" in text
        assert "baseline:" in text
        restored = ExperimentResult.from_json(result.to_json())
        assert experiment.render(restored) == text

    def test_csv_rows_lead_with_baseline(self, result):
        lines = result.to_csv().splitlines()
        assert lines[0].startswith("rank,axis,component,run_id")
        assert lines[1].startswith("0,baseline,")
        assert len(lines) == 2 + 2  # header + baseline + two variants


class TestExecutionEquivalence:
    def test_serial_pooled_cached_identical(self, tmp_path, scale, result):
        experiment = AblationExperiment(_config())
        pooled = experiment.run(scale, SweepEngine(workers=2))
        assert pooled == result
        store = ResultStore(tmp_path / "cache")
        cold = experiment.run(scale, SweepEngine(cache=store))
        warm_engine = SweepEngine(cache=store)
        warm = experiment.run(scale, warm_engine)
        assert cold == result
        assert warm == result

    def test_warm_rerun_computes_nothing(self, tmp_path, scale):
        experiment = AblationExperiment(_config())
        runner = JobRunner(cache_dir=tmp_path / "cache")
        first = runner.run_experiment(experiment, scale)
        assert first.computed_points == first.total_points > 0
        runner.close()
        # A fresh runner over the same store: everything cache-served.
        rerun = JobRunner(cache_dir=tmp_path / "cache")
        second = rerun.run_experiment(experiment, scale)
        assert second.computed_points == 0
        assert second.cached_points == second.total_points
        assert second.result == first.result
        rerun.close()

    def test_skipped_variant_keeps_pairing_straight(self, scale):
        # A single-core allocator study skips singlecore; aggregation
        # must still pair sweeps to runs correctly.
        config = parse_ablation(
            {
                "ablation": {"name": "skip", "axes": ["allocator"]},
                "baseline": {
                    "cores": [1],
                    "allocator": "binpack-first-fit",
                },
            }
        )
        experiment = AblationExperiment(config)
        domain = experiment.decode_data(experiment.run(scale).data)
        assert [(s.axis, s.component) for s in domain.skipped] == [
            ("allocator", "singlecore")
        ]
        assert all(
            c.component != "singlecore" for c in domain.components
        )


class TestJobsAndServer:
    def test_ablation_doc_via_job_request(self, tmp_path, scale):
        doc = {
            "ablation": {"name": "e2e", "axes": ["ordering"]},
            "baseline": {"cores": [2]},
        }
        request = JobRequest.from_dict(
            {"ablation": doc, "scale": "smoke"}
        )
        assert request.ablation == doc
        runner = JobRunner(cache_dir=tmp_path / "cache")
        job = runner.run(request)
        assert job.state == "done"
        assert job.result.experiment == "ablate:e2e"
        runner.close()

    def test_bare_ablation_doc_detected_before_sweep(self):
        # An ablation doc may carry its own [sweep] table; the
        # baseline key must win the shape detection.
        request = JobRequest.from_dict(
            {
                "ablation": {"name": "x"},
                "baseline": {"cores": [2]},
                "sweep": {"seed": 7},
            }
        )
        assert request.ablation is not None
        assert request.spec is None

    def test_exactly_one_source_enforced(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="exactly one"):
            JobRequest(experiment="fig2", ablation={"baseline": {}})
        with pytest.raises(ValidationError, match="exactly one"):
            JobRequest()
        with pytest.raises(ValidationError, match="overrides only apply"):
            JobRequest(
                ablation={"baseline": {"cores": [2]}},
                allocators=("hydra",),
            )

    def test_request_round_trips_through_dict(self):
        request = JobRequest.from_dict(
            {"ablation": {"baseline": {"cores": [2]}}, "scale": "smoke"}
        )
        assert JobRequest.from_dict(request.to_dict()) == request

    def test_served_result_identical_to_direct_run(self, tmp_path, scale):
        doc = {
            "ablation": {"name": "e2e", "axes": ["ordering"]},
            "baseline": {"cores": [2]},
        }
        runner = JobRunner(cache_dir=tmp_path / "cache")
        app = JobServiceApp(runner)
        status, payload = app.handle(
            "POST", "/jobs", {"ablation": doc, "scale": "smoke"}
        )
        assert status == 202
        job = runner.get(payload["id"])
        assert job.wait(120)
        status, served = app.handle(
            "GET", f"/jobs/{payload['id']}/result", None
        )
        assert status == 200
        direct = AblationExperiment(
            parse_ablation(doc)
        ).run(scale, SweepEngine(cache=ResultStore(tmp_path / "cache")))
        assert json.dumps(served, sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )
        runner.close()
