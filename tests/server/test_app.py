"""HTTP-less smoke tests of the sweep service's routing layer.

Everything runs against the in-process :class:`JobServiceApp` —
``(method, path, body) → (status, payload)`` — with no sockets, which
is the whole point of splitting the app from the HTTP shell.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.api import ExperimentResult
from repro.jobs import Job, JobRequest, JobRunner
from repro.server import JobServiceApp

MINI_SPEC = {
    "sweep": {
        "name": "server-mini",
        "tasksets_per_point": 2,
        "utilization": {"start": 0.5, "stop": 0.5, "step": 0.5},
    },
    "grid": {
        "cores": [2],
        "heuristic": ["best-fit"],
        "ordering": ["rm"],
        "admission": ["rta"],
    },
}


@pytest.fixture
def service(tmp_path):
    runner = JobRunner(cache_dir=tmp_path / "cache")
    yield JobServiceApp(runner)
    runner.close()


def submit_and_wait(app: JobServiceApp, body: dict) -> dict:
    status, payload = app.handle("POST", "/jobs", body)
    assert status in (200, 202)
    assert app.runner.get(payload["id"]).wait(timeout=120)
    status, payload = app.handle("GET", f"/jobs/{payload['id']}")
    assert status == 200
    return payload


class TestRouting:
    def test_healthz(self, service):
        assert service.handle("GET", "/healthz") == (200, {"status": "ok"})

    def test_healthz_rejects_other_methods(self, service):
        status, payload = service.handle("POST", "/healthz")
        assert status == 405
        assert payload["error"]["type"] == "MethodNotAllowed"

    def test_unknown_route_is_404(self, service):
        status, payload = service.handle("GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_trailing_slash_is_tolerated(self, service):
        assert service.handle("GET", "/healthz/")[0] == 200

    def test_unknown_job_is_404(self, service):
        for method, path in (
            ("GET", "/jobs/deadbeef"),
            ("DELETE", "/jobs/deadbeef"),
            ("GET", "/jobs/deadbeef/result"),
        ):
            status, payload = service.handle(method, path)
            assert status == 404, (method, path)
            assert payload["error"]["type"] == "UnknownJobError"
            assert "deadbeef" in payload["error"]["message"]


class TestSubmission:
    def test_submit_poll_result(self, service):
        doc = submit_and_wait(
            service, {"spec": MINI_SPEC, "scale": "smoke"}
        )
        assert doc["state"] == "done"
        assert doc["progress"]["total_points"] >= 1

        status, result = service.handle(
            "GET", f"/jobs/{doc['id']}/result"
        )
        assert status == 200
        # The payload is the full typed ExperimentResult document.
        restored = ExperimentResult.from_dict(result)
        assert restored.experiment == "sweep:server-mini"

    def test_duplicate_submit_same_id_and_warm_done(self, service):
        body = {"spec": MINI_SPEC, "scale": "smoke"}
        first = submit_and_wait(service, body)
        status, second = service.handle("POST", "/jobs", body)
        assert status == 200  # already terminal — not merely accepted
        assert second["id"] == first["id"]
        assert second["state"] == "done"

    def test_duplicate_submit_serves_the_cold_bytes_without_store_reads(
        self, service, monkeypatch
    ):
        from repro.experiments.store import _Shard

        body = {"spec": MINI_SPEC, "scale": "smoke"}
        first = submit_and_wait(service, body)
        status, cold = service.handle("GET", f"/jobs/{first['id']}/result")
        assert status == 200

        loads: list[object] = []
        monkeypatch.setattr(
            _Shard, "_load_index", lambda shard: loads.append(shard)
        )
        status, again = service.handle("POST", "/jobs", body)
        assert (status, again["id"], again["state"]) == (
            200, first["id"], "done",
        )
        status, replay = service.handle("GET", f"/jobs/{first['id']}/result")
        assert status == 200
        assert json.dumps(replay, sort_keys=True) == json.dumps(
            cold, sort_keys=True
        )
        assert loads == []

    def test_submit_without_body_is_400(self, service):
        status, payload = service.handle("POST", "/jobs")
        assert status == 400
        assert payload["error"]["type"] == "ValidationError"

    def test_submit_with_bad_spec_is_400(self, service):
        status, payload = service.handle(
            "POST", "/jobs", {"experiment": "fig9", "scale": "smoke"}
        )
        assert status == 400
        assert "fig9" in payload["error"]["message"]

    def test_submit_with_unknown_key_is_400(self, service):
        status, payload = service.handle(
            "POST", "/jobs", {"experiment": "table1", "scael": "smoke"}
        )
        assert status == 400
        assert "scael" in payload["error"]["message"]

    def test_submit_with_horizon_past_2_pow_24_is_400(self, service):
        sweep = {
            **MINI_SPEC["sweep"],
            "kind": "detection-latency",
            "sim_duration": 3e7,
        }
        status, payload = service.handle(
            "POST", "/jobs",
            {"spec": {**MINI_SPEC, "sweep": sweep}, "scale": "smoke"},
        )
        assert status == 400
        assert "2**24" in payload["error"]["message"]

    def test_jobs_listing(self, service):
        first = submit_and_wait(
            service, {"spec": MINI_SPEC, "scale": "smoke"}
        )
        status, payload = service.handle("GET", "/jobs")
        assert status == 200
        assert [j["id"] for j in payload["jobs"]] == [first["id"]]

    def test_jobs_collection_rejects_delete(self, service):
        assert service.handle("DELETE", "/jobs")[0] == 405


def park_queued_job(service) -> Job:
    """A job frozen in ``queued`` (never handed to the worker thread),
    for pinning the not-done paths deterministically."""
    request = JobRequest.from_dict({"spec": MINI_SPEC, "scale": "smoke"})
    experiment, scale = request.build()
    job = Job("f" * 64, experiment, scale, request)
    service.runner._jobs[job.id] = job
    return job


class TestResultAndCancel:
    def test_result_before_done_is_409(self, service):
        job = park_queued_job(service)
        status, payload = service.handle(
            "GET", f"/jobs/{job.id}/result"
        )
        assert status == 409
        assert payload["error"]["type"] == "JobNotDone"
        assert "queued" in payload["error"]["message"]

    def test_delete_cancels_queued_job(self, service):
        job = park_queued_job(service)
        status, payload = service.handle("DELETE", f"/jobs/{job.id}")
        assert status == 200
        assert payload["state"] == "cancelled"
        assert payload["error"]["type"] == "SweepCancelled"

    def test_delete_terminal_job_is_a_no_op(self, service):
        done = submit_and_wait(
            service, {"spec": MINI_SPEC, "scale": "smoke"}
        )
        status, payload = service.handle("DELETE", f"/jobs/{done['id']}")
        assert status == 200
        assert payload["state"] == "done"


class TestFetchedDocumentsAreIndependent:
    """A fetched document is the caller's: changing it, at the top
    level or nested, never changes what the next fetch serves."""

    def test_result_fetch(self, service):
        done = submit_and_wait(
            service, {"spec": MINI_SPEC, "scale": "smoke"}
        )
        path = f"/jobs/{done['id']}/result"
        status, body = service.handle("GET", path)
        assert status == 200
        served = json.dumps(body, sort_keys=True)
        job = service.runner.get(done["id"])

        body["experiment"] = "tampered"
        body["rows"].clear()
        body["data"]["name"] = "tampered"
        body["data"]["panels"][0]["cores"] = -1
        body["data"]["panels"][0]["comparison"].clear()

        status, again = service.handle("GET", path)
        assert status == 200
        assert json.dumps(again, sort_keys=True) == served
        # Still the job's own result, only never handed out by reference.
        assert service.runner.result(done["id"]) is job.result

    def test_status_fetch(self, service):
        job = park_queued_job(service)
        status, body = service.handle("DELETE", f"/jobs/{job.id}")
        assert status == 200
        served = json.dumps(body, sort_keys=True)

        body["state"] = "done"
        body["progress"]["total_points"] = -1
        body["error"]["type"] = "tampered"

        for method in ("GET", "DELETE"):
            status, again = service.handle(method, f"/jobs/{job.id}")
            assert status == 200
            assert json.dumps(again, sort_keys=True) == served
        status, listing = service.handle("GET", "/jobs")
        listing["jobs"][0]["error"]["message"] = "tampered"
        status, again = service.handle("GET", f"/jobs/{job.id}")
        assert json.dumps(again, sort_keys=True) == served
