"""Golden-regression tests: fixed-seed curves pinned as checked-in JSON.

Each fixture stores both human-reviewable aggregates (acceptance
counts, detection times) and a sha256 over the full per-point payloads.
The sweep engine must reproduce them *exactly* — in serial mode, in
parallel mode, and through a cache round-trip.  If one of these tests
fails after an intended behaviour change, regenerate with::

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated fixtures with the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.executors import PoolExecutor
from repro.experiments.golden import golden_fixtures, golden_summary
from repro.experiments.parallel import SweepEngine
from repro.experiments.store import ResultStore, cache_key

GOLDEN_DIR = Path(__file__).parent / "golden"

_NAMES = sorted(golden_fixtures())


def _fixture(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"'PYTHONPATH=src python tools/regen_golden.py'"
    )
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", _NAMES)
def test_serial_engine_reproduces_fixture(name):
    assert golden_summary(name, SweepEngine(workers=1)) == _fixture(name)


@pytest.mark.parametrize("name", _NAMES)
def test_parallel_engine_reproduces_fixture(name):
    assert golden_summary(name, SweepEngine(workers=4)) == _fixture(name)


def test_cached_rerun_reproduces_fixture(tmp_path):
    name = "fig2_mini"
    cache = ResultStore(tmp_path)
    cold = golden_summary(name, SweepEngine(cache=cache))
    assert cold == _fixture(name)

    computed: list[int] = []
    warm_engine = SweepEngine(
        cache=ResultStore(tmp_path), on_point_computed=computed.append
    )
    assert golden_summary(name, warm_engine) == _fixture(name)
    assert computed == []  # second run came entirely from the cache


def test_shared_persistent_pool_reproduces_fixture():
    """One pool executor across several fixtures: reuse (a single
    spawn) must not disturb a single byte."""
    with PoolExecutor(2) as executor:
        engine = SweepEngine(executor=executor)
        for name in _NAMES:
            assert golden_summary(name, engine) == _fixture(name)
        # fig2/fig3 minis are multi-point, so the pool really was used —
        # and exactly one spawn served every fixture.
        assert executor.spawn_count == 1


def test_subprocess_executor_reproduces_fixture():
    """The fault-tolerant subprocess backend is payload-identical to
    the serial reference on a pinned fixture (multi-point, so the
    NDJSON workers really carry the batch)."""
    from repro.executors import SubprocessExecutor

    name = "fig2_mini"
    with SubprocessExecutor(workers=2) as executor:
        engine = SweepEngine(executor=executor)
        assert golden_summary(name, engine) == _fixture(name)


def test_v1_leftovers_never_reach_a_fixture(tmp_path):
    """A root still holding files of the retired JSON-per-point layout
    — every payload poisoned here — serves none of them: each point is
    recomputed and the fixture reproduces byte for byte."""
    name = "fig2_mini"
    spec = golden_fixtures()[name].build_spec()
    for index in range(len(spec.points)):
        key = spec.key_payload(index)
        path = tmp_path / spec.kind / f"{cache_key(key)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"key": key, "payload": {"poisoned": index}})
        )

    computed: list[int] = []
    engine = SweepEngine(
        cache=ResultStore(tmp_path), on_point_computed=computed.append
    )
    assert golden_summary(name, engine) == _fixture(name)
    assert sorted(computed) == list(range(len(spec.points)))


def test_fixture_files_match_registry():
    """Every registry-declared fixture is pinned on disk, and nothing
    stale lingers after an experiment stops declaring one."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(_NAMES)


def test_fig3_and_table1_fixture_sanity():
    fig3 = _fixture("fig3_mini")
    assert fig3["kind"] == "fig3-gap"
    assert len(fig3["points"]) == 3
    for point in fig3["points"]:
        assert all(0.0 <= g <= 100.0 for g in point["gaps"])
        assert point["hydra_failures"] <= len(point["gaps"])

    table1 = _fixture("table1_mini")
    assert table1["kind"] == "table1"
    rows = table1["points"]
    assert len(rows) == 6
    for row in rows:
        assert row["period_des"] <= row["hydra_period"] <= row["period_max"]


def test_fixture_sanity():
    """The pinned curve itself shows the paper's qualitative shape."""
    fig2 = _fixture("fig2_mini")
    points = fig2["points"]
    assert [p["tasksets"] for p in points] == [50, 50, 50]
    # Low utilisation: everything accepted; high: HYDRA strictly ahead.
    assert points[0]["accepted_hydra"] == points[0]["accepted_single"] == 50
    assert points[-1]["accepted_hydra"] >= points[-1]["accepted_single"]

    fig1 = _fixture("fig1_mini")
    assert fig1["kind"] == "detection-latency"
    (point,) = fig1["points"]
    assert len(point["cells"]) == 2  # HYDRA and SingleCore
    for cell in point["cells"].values():
        assert cell["allocated"] == cell["total"] == 1
        attacks = cell["detected"] + cell["censored"] + cell["undetectable"]
        assert attacks == 20
