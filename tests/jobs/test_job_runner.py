"""JobRunner lifecycle: idempotent ids, cancel, failure capture, results."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError, UnknownJobError, ValidationError
from repro.experiments.config import get_scale
from repro.jobs import JobRequest, JobRunner, JobState, derive_job_id

MINI_SPEC = {
    "sweep": {
        "name": "jobs-mini",
        "tasksets_per_point": 2,
        "utilization": {"start": 0.5, "stop": 1.0, "step": 0.5},
    },
    "grid": {
        "cores": [2],
        "heuristic": ["best-fit", "worst-fit"],
        "ordering": ["rm"],
        "admission": ["rta"],
    },
}


def mini_request(**overrides) -> JobRequest:
    merged = {"spec": MINI_SPEC, "scale": "smoke", **overrides}
    return JobRequest.from_dict(merged)


class TestJobRequest:
    def test_bare_grid_document_is_a_spec_submission(self):
        request = JobRequest.from_dict(MINI_SPEC)
        assert request.spec == MINI_SPEC
        assert request.experiment is None

    def test_envelope_with_overrides(self):
        request = JobRequest.from_dict(
            {
                "spec": MINI_SPEC,
                "scale": "smoke",
                "seed": 9,
                "allocator": ["hydra"],
                "workload": ["uunifast"],
            }
        )
        assert request.seed == 9
        assert request.allocators == ("hydra",)
        assert request.workloads == ("uunifast",)

    def test_experiment_by_name(self):
        request = JobRequest.from_dict(
            {"experiment": "table1", "scale": "smoke"}
        )
        experiment, scale = request.build()
        assert experiment.name == "table1"
        assert scale.name == "smoke"

    def test_needs_exactly_one_of_spec_and_experiment(self):
        with pytest.raises(ValidationError):
            JobRequest.from_dict({"scale": "smoke"})
        with pytest.raises(ValidationError):
            JobRequest.from_dict(
                {"experiment": "table1", "spec": MINI_SPEC}
            )

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown job request key"):
            JobRequest.from_dict(
                {"experiment": "table1", "scael": "smoke"}
            )

    def test_rejects_bad_types(self):
        with pytest.raises(ValidationError, match="seed"):
            JobRequest.from_dict({"experiment": "table1", "seed": "7"})
        with pytest.raises(ValidationError, match="seed"):
            JobRequest.from_dict({"experiment": "table1", "seed": True})
        with pytest.raises(ValidationError, match="seed"):
            JobRequest.from_dict(
                {"experiment": "fig2", "scale": "smoke", "seed": -5}
            )
        with pytest.raises(ValidationError, match="scale"):
            JobRequest.from_dict({"experiment": "table1", "scale": 3})
        with pytest.raises(ValidationError, match="allocator"):
            JobRequest.from_dict({"spec": MINI_SPEC, "allocator": []})
        with pytest.raises(ValidationError, match="JSON object"):
            JobRequest.from_dict([MINI_SPEC])

    def test_overrides_only_apply_to_spec_submissions(self):
        with pytest.raises(ValidationError, match="overrides"):
            JobRequest(experiment="table1", allocators=("hydra",))

    def test_unknown_scale_is_a_typed_error_at_build(self):
        with pytest.raises(ValidationError, match="unknown scale"):
            mini_request(scale="galactic").build()


class TestJobIds:
    def test_same_request_same_id(self):
        a = mini_request().build()
        b = mini_request().build()
        assert derive_job_id(*a) == derive_job_id(*b)

    @pytest.mark.parametrize(
        "body",
        [
            {"spec": MINI_SPEC},
            # These run no sweeps: the seed reaches their id only
            # through the scale, never through the spec hash.
            {"experiment": "ablation-search"},
            {"experiment": "ablation-extension"},
        ],
        ids=["spec", "ablation-search", "ablation-extension"],
    )
    def test_seed_and_scale_change_the_id(self, body):
        def job_id(**overrides) -> str:
            request = JobRequest.from_dict(
                {"scale": "smoke", **body, **overrides}
            )
            return derive_job_id(*request.build())

        base = job_id()
        assert job_id(seed=1) != base
        assert job_id(scale="default") != base

    def test_worker_count_never_changes_the_id(self):
        experiment, scale = mini_request().build()
        # The id is a pure function of experiment + scale; JobRunner
        # worker settings are not an input at all.
        assert derive_job_id(experiment, scale) == derive_job_id(
            experiment, scale
        )


class TestSubmitLifecycle:
    def test_submit_runs_to_done_with_progress(self, tmp_path):
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            job = runner.submit(mini_request())
            assert job.wait(timeout=120)
            assert job.state == JobState.DONE
            assert job.error is None
            assert job.total_points > 0
            assert job.computed_points == job.total_points
            assert job.cached_points == 0
            assert job.finished >= job.started >= job.created

    def test_duplicate_submit_returns_same_job(self, tmp_path):
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            first = runner.submit(mini_request())
            second = runner.submit(mini_request())
            assert second is first
            assert first.wait(timeout=120)
            # Still idempotent after completion.
            assert runner.submit(mini_request()) is first

    def test_warm_cache_completes_without_recomputation(self, tmp_path):
        cache = tmp_path / "cache"
        with JobRunner(cache_dir=cache) as runner:
            job = runner.submit(mini_request())
            assert job.wait(timeout=120)
            job_id = job.id

        with JobRunner(cache_dir=cache) as fresh:
            rerun = fresh.submit(mini_request())
            assert rerun.id == job_id
            assert rerun.wait(timeout=120)
            assert rerun.state == JobState.DONE
            assert rerun.computed_points == 0
            assert rerun.cached_points == rerun.total_points

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        runner = JobRunner(cache_dir=tmp_path / "cache")
        job = runner.submit(mini_request())
        # Cancel can race completion on a fast machine; both outcomes
        # are terminal, and a queued hit must carry the cancel error.
        cancelled = runner.cancel(job.id)
        assert cancelled is job
        assert job.wait(timeout=120)
        assert job.state in (JobState.CANCELLED, JobState.DONE)
        if job.state == JobState.CANCELLED:
            assert job.error["type"] == "SweepCancelled"
        runner.close()

    def test_cancel_mid_run_stops_between_batches(self, tmp_path):
        runner = JobRunner(cache_dir=tmp_path / "cache")

        def cancel_after_first_point(job) -> None:
            if job.computed_points >= 1:
                runner.cancel(job.id)

        runner.on_progress = cancel_after_first_point
        job = runner.submit(mini_request())
        assert job.wait(timeout=120)
        assert job.state == JobState.CANCELLED
        assert job.error["type"] == "SweepCancelled"
        assert 1 <= job.computed_points < job.total_points
        runner.close()

        # Resubmission under the same id resumes from the cache.
        with JobRunner(cache_dir=tmp_path / "cache") as fresh:
            resumed = fresh.submit(mini_request())
            assert resumed.id == job.id
            assert resumed.wait(timeout=120)
            assert resumed.state == JobState.DONE
            assert resumed.cached_points >= job.computed_points

    def test_run_experiment_rides_a_background_duplicate(self, tmp_path):
        # Regression: waiting on a queued/running duplicate must not
        # hold the runner lock — the drain worker needs it to start
        # the queued job, so an in-lock wait deadlocked forever.
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            submitted = runner.submit(mini_request())
            experiment, scale = mini_request().build()
            job = runner.run_experiment(experiment, scale)
            assert job.id == submitted.id
            assert job.state == JobState.DONE

    def test_execute_never_resurrects_a_cancelled_job(self, tmp_path):
        # Regression: a cancel landing between the drain worker's
        # queue pop and its state check used to be lost — the job ran
        # anyway and flipped back to running.  The queued → running
        # claim is atomic now, so execution is simply refused.
        from repro.jobs.runner import Job

        runner = JobRunner(cache_dir=tmp_path / "cache")
        experiment, scale = mini_request().build()
        job = Job(derive_job_id(experiment, scale), experiment, scale)
        runner._jobs[job.id] = job
        runner.cancel(job.id)
        assert job.state == JobState.CANCELLED
        assert runner._execute(job) is False
        assert job.state == JobState.CANCELLED
        assert job.error["type"] == "SweepCancelled"
        runner.close()

    def test_cancelled_job_reports_cancelled_even_on_warm_cache(
        self, tmp_path
    ):
        # A warm cache could serve every point without computing, but
        # a cancelled job must still honour the cancel — not complete
        # done with a cancellation error attached.
        cache = tmp_path / "cache"
        with JobRunner(cache_dir=cache) as warmup:
            assert warmup.run(mini_request()).state == JobState.DONE

        from repro.jobs.runner import Job

        runner = JobRunner(cache_dir=cache)
        experiment, scale = mini_request().build()
        job = Job(derive_job_id(experiment, scale), experiment, scale)
        job._cancel.set()  # cancel requested before execution begins
        runner._jobs[job.id] = job
        runner._execute(job)
        assert job.state == JobState.CANCELLED
        assert job.error["type"] == "SweepCancelled"
        runner.close()

    def test_failure_is_captured_as_typed_error(self, tmp_path):
        experiment, scale = mini_request().build()

        def boom(raw):
            raise RuntimeError("aggregate blew   up")

        experiment.aggregate = boom
        runner = JobRunner(cache_dir=tmp_path / "cache")
        job_id = derive_job_id(experiment, scale)
        with pytest.raises(RuntimeError):
            runner.run_experiment(experiment, scale)
        job = runner.get(job_id)
        assert job.state == JobState.FAILED
        assert job.error == {
            "type": "RuntimeError",
            "message": "aggregate blew up",  # whitespace collapsed
        }
        runner.close()

    def test_resubmit_after_failure_requeues_fresh(self, tmp_path):
        experiment, scale = mini_request().build()
        original_aggregate = experiment.aggregate
        experiment.aggregate = lambda raw: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        runner = JobRunner(cache_dir=tmp_path / "cache")
        with pytest.raises(RuntimeError):
            runner.run_experiment(experiment, scale)
        failed = runner.get(derive_job_id(experiment, scale))
        assert failed.state == JobState.FAILED

        experiment.aggregate = original_aggregate
        retried = runner.run_experiment(experiment, scale)
        assert retried.id == failed.id
        assert retried is not failed
        assert retried.state == JobState.DONE
        runner.close()

    def test_unknown_job_is_a_typed_error(self, tmp_path):
        runner = JobRunner()
        with pytest.raises(UnknownJobError, match="unknown job"):
            runner.get("deadbeef")
        with pytest.raises(UnknownJobError):
            runner.cancel("deadbeef")
        with pytest.raises(UnknownJobError):
            runner.result("deadbeef")
        runner.close()

    def test_jobs_listing_preserves_submission_order(self, tmp_path):
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            first = runner.submit(mini_request())
            second = runner.submit(mini_request(seed=3))
            assert [j.id for j in runner.jobs()] == [first.id, second.id]


class TestResults:
    def test_result_requires_done(self, tmp_path):
        runner = JobRunner(cache_dir=tmp_path / "cache")
        experiment, scale = mini_request().build()
        experiment.aggregate = lambda raw: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError):
            runner.run_experiment(experiment, scale)
        with pytest.raises(ConfigError, match="not done"):
            runner.result(derive_job_id(experiment, scale))
        runner.close()

    def test_result_matches_direct_run(self, tmp_path):
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            request = mini_request()
            job = runner.run(request)
            assert job.state == JobState.DONE
            served = runner.result(job.id)

        experiment, scale = mini_request().build()
        direct = experiment.run(scale)
        assert served.to_json() == direct.to_json()

    @pytest.mark.parametrize("store", [False, True], ids=["no-store", "store"])
    def test_result_is_the_jobs_own_result(self, tmp_path, store):
        cache = tmp_path / "cache" if store else None
        with JobRunner(cache_dir=cache) as runner:
            job = runner.run(mini_request())
            assert runner.result(job.id) is job.result

    def test_result_fetch_reads_no_store_file(self, tmp_path, monkeypatch):
        from repro.experiments.store import _Segment

        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            job = runner.run(mini_request())

            def no_reads(segment):
                raise AssertionError(f"fetch read {segment.index_path}")

            monkeypatch.setattr(_Segment, "_load_index", no_reads)
            served = runner.result(job.id)

        experiment, scale = mini_request().build()
        assert served.to_json() == experiment.run(scale).to_json()

    def test_inline_experiment_is_not_recomputed_on_fetch(
        self, tmp_path, monkeypatch
    ):
        # ablation-search runs no sweeps: its aggregate is the whole
        # computation, so a fetch that aggregated again would redo it.
        request = JobRequest.from_dict(
            {"experiment": "ablation-search", "scale": "smoke"}
        )
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            job = runner.run(request)
            assert job.state == JobState.DONE
            calls: list[object] = []
            aggregate = job._experiment.aggregate

            def counted(raw):
                calls.append(raw)
                return aggregate(raw)

            monkeypatch.setattr(job._experiment, "aggregate", counted)
            served = runner.result(job.id)
        assert calls == []
        assert served is job.result

    def test_result_fetch_performs_zero_writes(self, tmp_path):
        cache = tmp_path / "cache"
        with JobRunner(cache_dir=cache) as runner:
            job = runner.run(mini_request())

            def tree_state():
                state = []
                for dirpath, _dirs, files in os.walk(cache):
                    for name in files:
                        path = os.path.join(dirpath, name)
                        info = os.stat(path)
                        state.append(
                            (path, info.st_size, info.st_mtime_ns)
                        )
                return sorted(state)

            before = tree_state()
            served = runner.result(job.id)
            assert tree_state() == before
        assert served.experiment == "sweep:jobs-mini"

    def test_status_document_shape(self, tmp_path):
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            job = runner.run(mini_request())
            doc = job.to_dict()
        assert doc["id"] == job.id
        assert doc["state"] == "done"
        assert doc["experiment"] == "sweep:jobs-mini"
        assert doc["scale"] == "smoke"
        assert doc["error"] is None
        progress = doc["progress"]
        assert progress["total_points"] == (
            progress["computed_points"] + progress["cached_points"]
        )


class TestRunnerLifetime:
    def test_close_is_idempotent_and_runner_restartable(self, tmp_path):
        runner = JobRunner(cache_dir=tmp_path / "cache")
        job = runner.submit(mini_request())
        assert job.wait(timeout=120)
        runner.close()
        runner.close()
        # A closed runner accepts new submissions (thread restarts).
        rerun = runner.submit(mini_request(seed=11))
        assert rerun.wait(timeout=120)
        assert rerun.state == JobState.DONE
        runner.close()

    def test_scale_names_resolve_like_the_cli(self):
        request = JobRequest.from_dict({"experiment": "table1"})
        _, scale = request.build()
        assert scale.name == get_scale(None).name
