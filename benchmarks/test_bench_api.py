"""Benchmarks for the unified experiment API layer.

The protocol adds indirection (registry lookup, spec hashing, result
encoding) on top of the raw sweeps; these benches pin that overhead so
a regression in the API layer — as opposed to the numeric kernels —
shows up on its own line.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentResult, get_experiment
from repro.experiments.config import SCALES
from repro.experiments.store import ResultStore
from repro.jobs import JobRequest, JobRunner

SMOKE = SCALES["smoke"]

#: Entries already in the store when the benchmarked job runs: a
#: result fetch must cost the same however many there are.
_STORE_ENTRIES = 1000

_MINI_SPEC = {
    "sweep": {
        "name": "bench-fetch",
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


@pytest.fixture(scope="module")
def table1_result():
    return get_experiment("table1").run(SMOKE)


def test_bench_registry_lookup(benchmark):
    benchmark(get_experiment, "fig2")


def test_bench_spec_hash(benchmark):
    experiment = get_experiment("fig2")
    benchmark(experiment.spec_hash, SMOKE)


def test_bench_table1_through_protocol(benchmark):
    experiment = get_experiment("table1")
    result = benchmark(experiment.run, SMOKE)
    assert len(result.rows) == 6


def test_bench_result_json_round_trip(benchmark, table1_result):
    def round_trip():
        return ExperimentResult.from_json(table1_result.to_json())

    assert benchmark(round_trip) == table1_result


@pytest.fixture(scope="module")
def crowded_job(tmp_path_factory):
    """A done job in a store that already held ``_STORE_ENTRIES``
    entries of the job's own kind."""
    cache = tmp_path_factory.mktemp("bench_fetch_store")
    ResultStore(cache).put_many(
        "scenario",
        [({"filler": i}, {"value": i}) for i in range(_STORE_ENTRIES)],
    )
    request = JobRequest.from_dict({"spec": _MINI_SPEC, "scale": "smoke"})
    with JobRunner(cache_dir=cache) as runner:
        job = runner.run(request)
        assert ResultStore(cache).stats()["entries"] > _STORE_ENTRIES
        yield runner, job, request


def test_bench_result_fetch_from_crowded_store(benchmark, crowded_job):
    """Unpinned tripwire: ``GET /jobs/{id}/result`` from a store of
    over a thousand entries."""
    runner, job, request = crowded_job
    served = benchmark(runner.result, job.id)
    assert served.to_json() == job.result.to_json()
    experiment, scale = request.build()
    assert served.to_json() == experiment.run(scale).to_json()
