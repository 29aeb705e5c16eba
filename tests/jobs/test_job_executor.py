"""Executor selection through JobRequest/JobRunner, and typed failures."""

from __future__ import annotations

import pytest

from repro.errors import ExecutorError, ValidationError
from repro.executors import Executor, UnknownExecutorError
from repro.jobs import JobRequest, JobRunner, JobState, derive_job_id

MINI_SPEC = {
    "sweep": {
        "name": "jobs-exec-mini",
        "tasksets_per_point": 2,
        "utilization": {"start": 0.5, "stop": 1.0, "step": 0.5},
    },
    "grid": {
        "cores": [2],
        "heuristic": ["best-fit"],
        "ordering": ["rm"],
        "admission": ["rta"],
    },
}


def mini_request(**overrides) -> JobRequest:
    merged = {"spec": MINI_SPEC, "scale": "smoke", **overrides}
    return JobRequest.from_dict(merged)


class _Explosive(Executor):
    """An executor whose workers 'keep dying': raises a typed error."""

    name = "explosive"

    def run_points(self, spec, indices):
        raise ExecutorError("injected worker meltdown")


class TestJobRequestExecutor:
    def test_executor_key_round_trips(self):
        request = mini_request(executor="serial")
        assert request.executor == "serial"

    def test_executor_key_is_optional_and_omitted_when_unset(self):
        request = mini_request()
        assert request.executor is None

    def test_executor_must_be_a_string(self):
        with pytest.raises(ValidationError, match="executor"):
            JobRequest.from_dict(
                {"spec": MINI_SPEC, "scale": "smoke", "executor": 3}
            )

    def test_unknown_executor_is_a_typed_error_at_build(self):
        with pytest.raises(UnknownExecutorError, match="warp-drive"):
            mini_request(executor="warp-drive").build()

    def test_executor_never_changes_the_job_id(self):
        plain = derive_job_id(*mini_request().build())
        named = derive_job_id(*mini_request(executor="serial").build())
        assert named == plain  # an execution knob, like worker counts


class TestRunnerExecutor:
    def test_job_runs_under_a_named_backend(self, tmp_path):
        with JobRunner(
            cache_dir=tmp_path / "cache", executor="serial"
        ) as runner:
            job = runner.submit(mini_request())
            assert job.wait(timeout=120)
            assert job.state == JobState.DONE
            assert job.computed_points == job.total_points

    def test_job_request_backend_beats_the_runner_default(self, tmp_path):
        with JobRunner(cache_dir=tmp_path / "cache") as runner:
            job = runner.submit(mini_request(executor="serial"))
            assert job.wait(timeout=120)
            assert job.state == JobState.DONE

    def test_subprocess_backend_end_to_end(self, tmp_path):
        with JobRunner(
            cache_dir=tmp_path / "cache",
            workers=2,
            executor="subprocess-workers",
        ) as runner:
            job = runner.submit(mini_request())
            assert job.wait(timeout=120)
            assert job.state == JobState.DONE
            assert job.computed_points == job.total_points

        # Byte-identity: a serial rerun of the same request is served
        # entirely from the store the subprocess backend populated.
        with JobRunner(cache_dir=tmp_path / "cache") as serial_runner:
            rerun = serial_runner.submit(mini_request())
            assert rerun.wait(timeout=120)
            assert rerun.state == JobState.DONE
            assert rerun.computed_points == 0
            assert rerun.cached_points == rerun.total_points

    def test_executor_failure_is_captured_as_typed_error(self, tmp_path):
        runner = JobRunner(
            cache_dir=tmp_path / "cache", executor=_Explosive()
        )
        experiment, scale = mini_request().build()
        with pytest.raises(ExecutorError):
            runner.run_experiment(experiment, scale)
        job = runner.get(derive_job_id(experiment, scale))
        assert job.state == JobState.FAILED
        assert job.error == {
            "type": "ExecutorError",
            "message": "injected worker meltdown",
        }
        runner.close()

    def test_unknown_backend_fails_the_job_not_the_runner(self, tmp_path):
        # CLI/serve validate upfront; a hand-built runner resolves at
        # execution time and must capture the typed failure.
        runner = JobRunner(
            cache_dir=tmp_path / "cache", executor="warp-drive"
        )
        job = runner.submit(mini_request())
        assert job.wait(timeout=120)
        assert job.state == JobState.FAILED
        assert job.error["type"] == "UnknownExecutorError"
        assert "warp-drive" in job.error["message"]

        # The runner itself survives and can run the next job plainly.
        runner.executor = None
        retry = runner.submit(mini_request())
        assert retry.wait(timeout=120)
        assert retry.state == JobState.DONE
        runner.close()

    def test_close_shuts_name_resolved_backends(self, tmp_path):
        runner = JobRunner(
            cache_dir=tmp_path / "cache",
            workers=1,
            executor="subprocess-workers",
        )
        job = runner.submit(mini_request())
        assert job.wait(timeout=120)
        assert job.state == JobState.DONE
        backend = runner._executors["subprocess-workers"]
        assert backend._workers
        runner.close()
        assert not backend._workers
