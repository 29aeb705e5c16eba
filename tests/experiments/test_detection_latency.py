"""The detection-latency experiment family.

Parsing/validation of ``kind = "detection-latency"`` scenarios, the
experiment-factory dispatch, engine determinism (serial ≡ parallel ≡
cached), result round-tripping with no bare ``inf`` in rendered
output, and censoring on Fig. 1's grid and the §V-extensions ablation
(undetected attacks near the horizon are *censored*, not evidence of
undetectability, and never reach the output as ``inf``).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ValidationError
from repro.experiments import ExperimentResult
from repro.experiments.config import SCALES
from repro.experiments.detection import (
    DetectionLatencyExperiment,
    DetectionScenarioExperiment,
    monitoring_view,
)
from repro.experiments.parallel import SweepEngine
from repro.experiments.registry import get_experiment
from repro.experiments.scenario import (
    ScenarioExperiment,
    build_scenario_experiment,
    combo_label,
    parse_scenario,
)
from repro.experiments.store import ResultStore

SMOKE = SCALES["smoke"]


def _detection_document() -> dict:
    return {
        "sweep": {
            "name": "det-mini",
            "kind": "detection-latency",
            "tasksets_per_point": 2,
            "sim_trials": 4,
            "sim_duration": 3000.0,
            "utilization": {"start": 0.4, "stop": 0.6, "step": 0.2},
        },
        "grid": {
            "cores": [2],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
            "allocator": ["hydra", "adaptive[exact-rta]"],
            "policy": ["release-after", "start-after"],
        },
    }


class TestParsing:
    def test_happy_path(self):
        config = parse_scenario(_detection_document())
        assert config.kind == "detection-latency"
        assert config.policy_axis
        assert config.policies == ("release-after", "start-after")
        assert config.sim_trials == 4
        assert config.sim_duration == 3000.0
        # allocators × policies expand the combo grid
        assert len(config.combos) == 2 * 2
        assert config.combos[0]["policy"] == "release-after"

    def test_policy_axis_requires_detection_kind(self):
        document = _detection_document()
        del document["sweep"]["kind"]
        del document["sweep"]["sim_trials"]
        del document["sweep"]["sim_duration"]
        with pytest.raises(ValidationError, match="policy axis requires"):
            parse_scenario(document)

    def test_sim_knobs_require_detection_kind(self):
        document = _detection_document()
        document["sweep"]["kind"] = "acceptance"
        del document["grid"]["policy"]
        with pytest.raises(ValidationError, match="sim_trials"):
            parse_scenario(document)

    def test_unknown_kind_rejected(self):
        document = _detection_document()
        document["sweep"]["kind"] = "detection"
        with pytest.raises(ValidationError, match="kind must be one of"):
            parse_scenario(document)

    def test_unknown_policy_rejected(self):
        document = _detection_document()
        document["grid"]["policy"] = ["release-after", "after-lunch"]
        with pytest.raises(ValidationError, match="policy"):
            parse_scenario(document)

    def test_combo_label_policy_suffix(self):
        assert combo_label(
            "best-fit", "utilization", "rta",
            allocator="hydra", policy="start-after",
        ) == "hydra|best-fit/utilization/rta@start-after"
        # no axis → no suffix: pre-existing cache labels stay valid
        assert combo_label("best-fit", "rm", "rta") == "best-fit/rm/rta"


class TestFactory:
    def test_dispatch_by_kind(self):
        detection = build_scenario_experiment(
            parse_scenario(_detection_document())
        )
        assert isinstance(detection, DetectionScenarioExperiment)
        acceptance_doc = {
            "sweep": {"name": "acc"},
            "grid": {
                "cores": [2], "heuristic": ["best-fit"],
                "ordering": ["rm"], "admission": ["rta"],
            },
        }
        acceptance = build_scenario_experiment(
            parse_scenario(acceptance_doc)
        )
        assert isinstance(acceptance, ScenarioExperiment)
        assert not isinstance(acceptance, DetectionScenarioExperiment)

    def test_scenario_experiment_refuses_detection_config(self):
        config = parse_scenario(_detection_document())
        with pytest.raises(ValidationError,
                           match="build_scenario_experiment"):
            ScenarioExperiment(config)

    def test_registered_experiment_defaults(self):
        experiment = DetectionLatencyExperiment()
        assert experiment.name == "detection-latency"
        (spec,) = experiment.sweeps(
            SMOKE.with_overrides(core_counts=(2,))
        )
        assert spec.kind == "detection-latency"
        assert spec.params["cores"] == 2
        # empty cores axis inherits the scale preset
        assert experiment.config.cores == ()


class TestDeterminism:
    def test_serial_parallel_cached_byte_identical(self, tmp_path):
        experiment = build_scenario_experiment(
            parse_scenario(_detection_document())
        )
        (spec,) = experiment.sweeps(SMOKE)

        serial = SweepEngine(workers=1).run(spec)
        parallel = SweepEngine(workers=4).run(spec)
        assert (
            json.dumps(serial.payloads, sort_keys=True)
            == json.dumps(parallel.payloads, sort_keys=True)
        )

        cache = ResultStore(tmp_path)
        cold = SweepEngine(cache=cache).run(spec)
        assert cold.payloads == serial.payloads
        computed: list[int] = []
        warm = SweepEngine(
            cache=ResultStore(tmp_path), on_point_computed=computed.append
        ).run(spec)
        assert warm.payloads == serial.payloads
        assert computed == []  # warm run came entirely from the cache

    def test_payloads_are_json_finite(self):
        """No bare inf/nan anywhere in the sweep payloads: undetected
        attacks travel as explicit censored/undetectable counts."""
        experiment = build_scenario_experiment(
            parse_scenario(_detection_document())
        )
        (spec,) = experiment.sweeps(SMOKE)
        result = SweepEngine().run(spec)
        text = json.dumps(result.payloads, allow_nan=False)
        assert "Infinity" not in text

    @pytest.mark.parametrize("family", ["paper-synthetic", "uav-case-study"])
    def test_appending_a_family_keeps_earlier_families_bytes(self, family):
        """Each family draws its task sets, and each task set its
        attack instants, before the next family draws anything, so
        appending a family to the axis must not perturb the earlier
        family's cells (the acceptance runner's property)."""
        from repro.experiments.parallel import execute_point

        def run(workloads):
            document = _detection_document()
            document["grid"]["workload"] = list(workloads)
            experiment = build_scenario_experiment(parse_scenario(document))
            (spec,) = experiment.sweeps(SMOKE)
            return execute_point(spec, 0)

        alone = run([family])
        extended = run([family, "uunifast"])
        earlier = {
            label: cell
            for label, cell in extended["cells"].items()
            if label.startswith(f"{family}::")
        }
        assert len(earlier) == len(alone["cells"]) == 4
        assert any(cell["times"] for cell in earlier.values())
        assert earlier == alone["cells"]


class TestSharedSimulations:
    """Allocators that return the same allocation build the same
    simulated tasks, which a point simulates once per task set.  At 4
    cores ``hydra`` and ``adaptive[exact-rta]`` agree on every task set
    of this grid."""

    #: sha256 of the grid's payloads (``json.dumps(..., sort_keys=True)``)
    #: from the runner that simulated every allocator separately.
    PAYLOAD_SHA256 = (
        "47f7f7f2870225e1dfabd180adc2d0070f498c51d175222145825dfd6abb7886"
    )

    @staticmethod
    def _spec(allocators):
        document = _detection_document()
        document["grid"]["cores"] = [4]
        document["grid"]["allocator"] = list(allocators)
        experiment = build_scenario_experiment(parse_scenario(document))
        (spec,) = experiment.sweeps(SMOKE)
        return spec

    def test_one_simulation_per_task_set(self, monkeypatch):
        import hashlib

        import repro.sim.runner as runner

        schedules: list[tuple] = []
        simulate = runner.simulate_allocation

        def counting(system, allocation, *args, **kwargs):
            schedules.append(tuple(runner.build_sim_tasks(system, allocation)))
            return simulate(system, allocation, *args, **kwargs)

        monkeypatch.setattr(runner, "simulate_allocation", counting)
        spec = self._spec(["hydra", "adaptive[exact-rta]"])
        payloads = SweepEngine().run(spec).payloads
        tasksets = 2 * 2  # tasksets_per_point × utilisation points
        assert len(schedules) == len(set(schedules)) == tasksets
        assert all(
            cell["allocated"] == cell["total"] == 2
            for payload in payloads
            for cell in payload["cells"].values()
        )
        text = json.dumps(payloads, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            self.PAYLOAD_SHA256
        )

    def test_cells_equal_each_allocator_run_alone(self):
        """Oracle: a grid of one allocator simulates its own schedules
        and draws the same task sets and attacks."""
        shared = SweepEngine().run(
            self._spec(["hydra", "adaptive[exact-rta]"])
        ).payloads
        for allocator in ("hydra", "adaptive[exact-rta]"):
            alone = SweepEngine().run(self._spec([allocator])).payloads
            for together, single in zip(shared, alone):
                assert {
                    label: cell
                    for label, cell in together["cells"].items()
                    if label.startswith(f"{allocator}|")
                } == single["cells"]


class TestResult:
    @pytest.fixture(scope="class")
    def run_result(self):
        experiment = build_scenario_experiment(
            parse_scenario(_detection_document())
        )
        return experiment, experiment.run(SMOKE)

    def test_round_trip(self, run_result):
        experiment, result = run_result
        loaded = ExperimentResult.from_json(result.to_json())
        assert loaded == result
        domain = experiment.decode_data(loaded.data)
        assert domain.name == "det-mini"
        (panel,) = domain.panels
        labels = {cell.scheme for cell in panel.cells}
        assert labels == {
            combo_label(**combo) for combo in experiment.config.combos
        }
        sim_trials = experiment.config.sim_trials
        for cell in panel.cells:
            # every allocated task set is attacked sim_trials times, and
            # each attack is detected, censored or undetectable
            assert cell.attacks == sim_trials * cell.allocated
            assert all(math.isfinite(t) for t in cell.times)

    def test_render_has_no_bare_inf(self, run_result):
        experiment, result = run_result
        text = experiment.render(result)
        assert "inf" not in text
        assert "censored" in text
        assert "@release-after" in text and "@start-after" in text

    def test_table_rows_use_none_not_inf(self, run_result):
        experiment, result = run_result
        rows = experiment.table_rows(experiment.decode_data(result.data))
        for row in rows:
            for value in row:
                if isinstance(value, float):
                    assert math.isfinite(value)


class TestMonitoringView:
    def test_unlabelled_tasks_monitor_themselves(self):
        from repro.model.task import SecurityTask, TaskSet

        tasks = TaskSet(
            [
                SecurityTask(name="tagged", wcet=1.0, period_des=50.0,
                             period_max=500.0, surface="filesystem"),
                SecurityTask(name="plain", wcet=1.0, period_des=60.0,
                             period_max=600.0),
            ]
        )
        view = monitoring_view(tasks)
        surfaces = {t.name: t.surface for t in view}
        assert surfaces == {"tagged": "filesystem", "plain": "plain"}


def _strict_json(text: str):
    """Parse ``text``, rejecting the non-standard ``Infinity``/``NaN``."""

    def reject(constant: str):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestCensoring:
    """An attack the horizon cuts off is *censored*, not counted as
    undetectable, and no output carries it as ``inf``."""

    def test_fig1_accounts_for_every_attack(self):
        domain = get_experiment("fig1").run_domain(SMOKE)
        (panel,) = domain.panels
        for cell in panel.cells:
            assert cell.allocated == cell.total == 1
            assert cell.attacks == SMOKE.sim_trials * cell.allocated
            # Every Table I surface is monitored: nothing undetectable.
            assert cell.undetectable == 0

    def test_fig1_json_is_strict_at_a_short_horizon(self):
        """At 2 s most attacks are censored; the result still parses
        as standard JSON (no bare ``Infinity``)."""
        fig1 = get_experiment("fig1")
        result = fig1.run(SMOKE.with_overrides(sim_duration=2000.0))
        data = _strict_json(result.to_json())["data"]
        (panel,) = data["panels"]
        assert sum(cell["censored"] for cell in panel["cells"]) > 0
        assert "inf" not in result.to_csv()

    def test_fig1_renders_n_a_when_nothing_is_detected(self):
        fig1 = get_experiment("fig1")
        result = fig1.run(SMOKE.with_overrides(sim_duration=50.0))
        text = fig1.render(result)
        assert "n/a" in text
        assert "inf" not in text
        assert f"{SMOKE.sim_trials} censored by horizon" in text

    def test_extension_ablation_has_no_inf_at_a_short_horizon(self):
        ablation = get_experiment("ablation-extension")
        result = ablation.run(SMOKE.with_overrides(sim_duration=500.0))
        data = _strict_json(result.to_json())["data"]
        assert any(cell["mean_detection"] is None for cell in data["cells"])
        text = ablation.render(result)
        assert "inf" not in text
        assert "n/a" in text

    def test_horizon_cutoff_is_censored_not_undetectable(self):
        """An attack on a monitored surface just before the horizon has
        no fresh completion left — it must land in the censored count."""
        from repro.sim.detection import (
            build_surface_map,
            detection_times,
            undetected_breakdown,
        )
        from repro.sim.attacks import Attack
        from repro.sim.engine import SimResult
        from repro.sim.events import JobRecord
        from repro.model.task import SecurityTask, TaskSet

        tasks = TaskSet([
            SecurityTask(name="mon", wcet=1.0, period_des=50.0,
                         period_max=500.0, surface="bus"),
        ])
        jobs = [
            JobRecord(task="mon", release=0.0, deadline=50.0,
                      start=0.0, completion=1.0, core=0),
        ]
        result = SimResult(duration=100.0, jobs=jobs, misses=[],
                           busy_time={})
        attacks = [
            Attack(time=99.0, surface="bus"),    # censored by horizon
            Attack(time=10.0, surface="ghost"),  # no monitor at all
        ]
        times = detection_times(result, attacks, tasks)
        surface_map = build_surface_map(tasks)
        assert undetected_breakdown(times, attacks, surface_map) == (1, 1)
