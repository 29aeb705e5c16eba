"""Tests for TOML-defined scenario sweeps: parsing/validation, the
experiment itself, and engine determinism (serial ≡ parallel ≡ cached)."""

from __future__ import annotations

import json
import math
import tomllib
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.experiments.config import SCALES
from repro.experiments.parallel import SweepEngine
from repro.experiments.scenario import (
    ScenarioExperiment,
    combo_label,
    load_scenario,
    parse_scenario,
)
from repro.experiments.store import ResultStore

SMOKE = SCALES["smoke"]

GOOD_TOML = """
[sweep]
name = "mini"
tasksets_per_point = 3

[grid]
cores = [2, 4]
heuristic = ["best-fit", "worst-fit"]
ordering = ["rm", "utilization"]
admission = ["rta"]
"""


def _good_document() -> dict:
    return {
        "sweep": {"name": "mini", "tasksets_per_point": 3},
        "grid": {
            "cores": [2, 4],
            "heuristic": ["best-fit", "worst-fit"],
            "ordering": ["rm", "utilization"],
            "admission": ["rta"],
        },
    }


class TestParsing:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(GOOD_TOML)
        config = load_scenario(path)
        assert config.name == "mini"
        assert config.cores == (2, 4)
        assert config.tasksets_per_point == 3
        assert len(config.combos) == 4  # 2 heuristics × 2 orderings × 1 test
        assert config.combos[0] == {
            "heuristic": "best-fit", "ordering": "rm", "admission": "rta",
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_scenario(tmp_path / "absent.toml")

    def test_invalid_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[grid\ncores = [2]")
        with pytest.raises(ValidationError, match="not valid TOML"):
            load_scenario(path)

    def test_missing_grid(self):
        with pytest.raises(ValidationError, match=r"\[grid\]"):
            parse_scenario({"sweep": {"name": "x"}})

    def test_unknown_heuristic_named_in_error(self):
        document = _good_document()
        document["grid"]["heuristic"] = ["best-fit", "magic-fit"]
        with pytest.raises(ValidationError, match="magic-fit"):
            parse_scenario(document)

    def test_unknown_ordering_rejected(self):
        document = _good_document()
        document["grid"]["ordering"] = ["alphabetical"]
        with pytest.raises(ValidationError, match="alphabetical"):
            parse_scenario(document)

    def test_unknown_admission_rejected(self):
        document = _good_document()
        document["grid"]["admission"] = ["vibes"]
        with pytest.raises(ValidationError, match="vibes"):
            parse_scenario(document)

    def test_empty_axis_rejected(self):
        document = _good_document()
        document["grid"]["heuristic"] = []
        with pytest.raises(ValidationError, match="non-empty"):
            parse_scenario(document)

    @pytest.mark.parametrize(
        ("section", "key", "value", "message"),
        [
            ("grid", "cores", [0, 2], "cores"),
            # TOML/JSON ``true`` is an int to Python: never a count.
            ("grid", "cores", [True], "cores"),
            ("sweep", "seed", True, "seed"),
            # numpy's SeedSequence takes no negative entropy.
            ("sweep", "seed", -7, "seed"),
            ("sweep", "tasksets_per_point", True, "tasksets_per_point"),
            ("utilization", "start", True, "utilization start"),
            ("utilization", "stop", True, "utilization stop"),
            ("detection", "sim_trials", True, "sim_trials"),
            ("detection", "sim_duration", True, "sim_duration"),
            # TOML reads ``1e400`` as inf; neither it nor an int too big
            # for a float is a horizon.
            ("detection", "sim_duration", math.inf, "sim_duration"),
            ("detection", "sim_duration", 10**400, "sim_duration"),
            # Past 2**24 the simulator's clock stops advancing.
            ("detection", "sim_duration", 2**24 + 1, r"2\*\*24"),
        ],
        ids=[
            "zero-cores", "bool-cores", "bool-seed", "negative-seed",
            "bool-tasksets",
            "bool-start", "bool-stop", "bool-sim-trials",
            "bool-sim-duration", "inf-sim-duration", "huge-sim-duration",
            "sim-duration-past-2-pow-24",
        ],
    )
    def test_bad_cores_rejected(self, section, key, value, message):
        document = _good_document()
        if section == "utilization":
            document["sweep"]["utilization"] = {key: value}
        elif section == "detection":
            document["sweep"]["kind"] = "detection-latency"
            document["sweep"][key] = value
        else:
            document[section][key] = value
        with pytest.raises(ValidationError, match=message):
            parse_scenario(document)

    def test_sim_duration_of_2_pow_24_accepted(self):
        document = _good_document()
        document["sweep"]["kind"] = "detection-latency"
        document["sweep"]["sim_duration"] = 2**24
        assert parse_scenario(document).sim_duration == 2**24

    def test_unknown_sweep_key_rejected(self):
        document = _good_document()
        document["sweep"]["taskset_per_point"] = 3  # typo
        with pytest.raises(ValidationError, match="taskset_per_point"):
            parse_scenario(document)

    def test_unknown_grid_key_rejected(self):
        document = _good_document()
        document["grid"]["heuristics"] = ["best-fit"]  # typo
        with pytest.raises(ValidationError, match="heuristics"):
            parse_scenario(document)

    def test_utilization_bounds_checked(self):
        document = _good_document()
        document["sweep"]["utilization"] = {"start": 0.5, "stop": 1.5}
        with pytest.raises(ValidationError, match="stop"):
            parse_scenario(document)

    def test_duplicate_axis_values_rejected(self):
        document = _good_document()
        document["grid"]["heuristic"] = ["best-fit", "best-fit"]
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scenario(document)

    def test_inverted_utilization_range_rejected_at_parse(self):
        document = _good_document()
        document["sweep"]["utilization"] = {"start": 0.9, "stop": 0.3}
        with pytest.raises(ValidationError, match="must not exceed stop"):
            parse_scenario(document)

    def test_partial_override_inverting_scale_range_fails_cleanly(self):
        # start=0.9 alone passes parse (no stop to compare against) but
        # inverts against smoke's stop=0.75; sweeps() must reject it
        # with a message naming the effective range, not a raw
        # traceback from utilization_sweep.
        document = _good_document()
        document["sweep"]["utilization"] = {"start": 0.9}
        experiment = ScenarioExperiment(parse_scenario(document))
        with pytest.raises(ValidationError, match="effective utilization"):
            experiment.sweeps(SMOKE)


def _mini_experiment() -> ScenarioExperiment:
    document = _good_document()
    document["grid"]["cores"] = [2]
    document["sweep"]["utilization"] = {
        "start": 0.25, "stop": 0.75, "step": 0.25,
    }
    return ScenarioExperiment(parse_scenario(document))


class TestScenarioExperiment:
    def test_sweep_specs_one_per_core_count(self):
        config = parse_scenario(_good_document())
        experiment = ScenarioExperiment(config)
        specs = experiment.sweeps(SMOKE)
        assert [s.params["cores"] for s in specs] == [2, 4]
        assert all(s.kind == "scenario" for s in specs)
        # distinct seeds per panel keep streams independent
        assert len({s.seed for s in specs}) == 2

    def test_run_produces_all_grid_cells(self):
        experiment = _mini_experiment()
        domain = experiment.run_domain(SMOKE)
        (panel,) = domain.panels
        labels = {c.scheme for c in panel.comparison.cells}
        assert labels == {
            combo_label(h, o, "rta")
            for h in ("best-fit", "worst-fit")
            for o in ("rm", "utilization")
        }
        for cell in panel.comparison.cells:
            assert 0.0 <= cell.acceptance <= 1.0
            assert 0.0 <= cell.mean_tightness <= 1.0

    def test_result_round_trips_and_renders(self):
        from repro.experiments import ExperimentResult

        experiment = _mini_experiment()
        result = experiment.run(SMOKE)
        loaded = ExperimentResult.from_json(result.to_json())
        assert loaded == result
        text = experiment.render(loaded)
        assert "bf-vs-wf" not in text  # this mini config is named 'mini'
        assert "mini" in text
        assert "best-fit/rm/rta" in text

    def test_serial_parallel_cached_byte_identical(self, tmp_path):
        experiment = _mini_experiment()
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

    def test_shared_task_sets_make_rta_dominate_utilization_test(self):
        # On identical task sets, an exact-RTA admission can only accept
        # *more* than the (sufficient-only) utilisation-bound test.
        document = _good_document()
        document["grid"] = {
            "cores": [2],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta", "utilization"],
        }
        document["sweep"]["utilization"] = {
            "start": 0.5, "stop": 0.9, "step": 0.2,
        }
        document["sweep"]["tasksets_per_point"] = 6
        experiment = ScenarioExperiment(parse_scenario(document))
        domain = experiment.run_domain(SMOKE)
        (panel,) = domain.panels
        rta = panel.comparison.series("best-fit/utilization/rta")
        util = panel.comparison.series("best-fit/utilization/utilization")
        for rta_cell, util_cell in zip(rta, util):
            assert rta_cell.acceptance >= util_cell.acceptance


class TestAllocatorAxis:
    def test_parse_accepts_allocator_axis(self):
        document = _good_document()
        document["grid"]["allocator"] = ["hydra", "binpack-best-fit"]
        config = parse_scenario(document)
        assert config.allocator_axis
        assert config.allocators == ("hydra", "binpack-best-fit")
        assert config.combos[0] == {
            "allocator": "hydra", "heuristic": "best-fit",
            "ordering": "rm", "admission": "rta",
        }
        assert len(config.combos) == 2 * 4  # allocators × (h × o × a)

    def test_absent_axis_keeps_legacy_combos_and_labels(self):
        config = parse_scenario(_good_document())
        assert not config.allocator_axis
        assert config.allocators == ("hydra",)
        # byte-identity anchor: no 'allocator' key leaks into the sweep
        # params, so pre-existing cache entries stay valid
        assert all("allocator" not in combo for combo in config.combos)
        assert combo_label(**config.combos[0]) == "best-fit/rm/rta"

    def test_unknown_allocator_named_with_known_list(self):
        document = _good_document()
        document["grid"]["allocator"] = ["hydra", "quantum-fit"]
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario(document)
        message = str(excinfo.value)
        assert "quantum-fit" in message and "hydra" in message

    def test_with_allocators_override(self):
        config = parse_scenario(_good_document())
        overridden = config.with_allocators(["binpack-worst-fit"])
        assert overridden.allocator_axis
        assert overridden.combos[0]["allocator"] == "binpack-worst-fit"
        from repro.allocators import UnknownAllocatorError

        with pytest.raises(UnknownAllocatorError, match="known allocators"):
            config.with_allocators(["nope"])

    def test_run_sweeps_strategies_on_shared_task_sets(self):
        document = _good_document()
        document["grid"] = {
            "cores": [2],
            "allocator": ["hydra", "first-feasible", "binpack-first-fit"],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
        }
        document["sweep"]["utilization"] = {
            "start": 0.5, "stop": 0.75, "step": 0.25,
        }
        document["sweep"]["tasksets_per_point"] = 4
        experiment = ScenarioExperiment(parse_scenario(document))
        domain = experiment.run_domain(SMOKE)
        (panel,) = domain.panels
        labels = {c.scheme for c in panel.comparison.cells}
        assert labels == {
            "hydra|best-fit/utilization/rta",
            "first-feasible|best-fit/utilization/rta",
            "binpack-first-fit|best-fit/utilization/rta",
        }
        # HYDRA maximises tightness per task; greedy first-feasible can
        # never beat it on the identical task sets.
        hydra = panel.comparison.series("hydra|best-fit/utilization/rta")
        first = panel.comparison.series(
            "first-feasible|best-fit/utilization/rta"
        )
        for h_cell, f_cell in zip(hydra, first):
            if h_cell.acceptance == f_cell.acceptance == 1.0:
                assert h_cell.mean_tightness >= f_cell.mean_tightness - 1e-9

    def test_singlecore_axis_builds_dedicated_core_system(self):
        document = _good_document()
        document["grid"] = {
            "cores": [2],
            "allocator": ["singlecore"],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
        }
        document["sweep"]["utilization"] = {
            "start": 0.25, "stop": 0.5, "step": 0.25,
        }
        document["sweep"]["tasksets_per_point"] = 3
        experiment = ScenarioExperiment(parse_scenario(document))
        domain = experiment.run_domain(SMOKE)
        (panel,) = domain.panels
        cells = panel.comparison.series(
            "singlecore|best-fit/utilization/rta"
        )
        assert cells  # ran end to end without AllocationError
        assert any(c.acceptance > 0.0 for c in cells)

    def test_singlecore_rejected_on_single_core_panels(self):
        document = _good_document()
        document["grid"]["cores"] = [1, 2]
        document["grid"]["allocator"] = ["singlecore"]
        with pytest.raises(ValidationError, match="at least 2 cores"):
            parse_scenario(document)
        # the --allocator override path hits the same validation
        document = _good_document()
        document["grid"]["cores"] = [1]
        config = parse_scenario(document)
        with pytest.raises(ValidationError, match="at least 2 cores"):
            config.with_allocators(["singlecore"])

    def test_with_allocators_rejects_duplicates(self):
        config = parse_scenario(_good_document())
        with pytest.raises(ValidationError, match="more than once"):
            config.with_allocators(["hydra", "hydra"])

    @staticmethod
    def _partition_core_counts(monkeypatch, heuristic):
        """The core count of every partition one allocator-axis run
        makes with ``heuristic`` (3 task sets × 2 utilisation points)."""
        import repro.core.singlecore as singlecore
        import repro.experiments.runner as runner
        import repro.partition.heuristics as heuristics

        cores_per_call: list[int] = []
        partition = heuristics.try_partition_tasks

        def counting(tasks, platform, *args, **kwargs):
            cores_per_call.append(platform.num_cores)
            return partition(tasks, platform, *args, **kwargs)

        monkeypatch.setattr(runner, "try_partition_tasks", counting)
        monkeypatch.setattr(singlecore, "try_partition_tasks", counting)
        document = _good_document()
        document["grid"] = {
            "cores": [2],
            "allocator": ["hydra", "binpack-best-fit", "singlecore"],
            "heuristic": [heuristic],
            "ordering": ["utilization"],
            "admission": ["rta"],
        }
        document["sweep"]["utilization"] = {
            "start": 0.25, "stop": 0.5, "step": 0.25,
        }
        experiment = ScenarioExperiment(parse_scenario(document))
        experiment.run_domain(SMOKE)
        return sorted(cores_per_call)

    def test_each_system_shape_partitions_once_per_task_set(
        self, monkeypatch
    ):
        """Combos differing only in the allocator share one system:
        ``hydra`` and ``binpack-best-fit`` one all-cores partition.
        Under best-fit ``singlecore`` reads its shape off that
        partition, so no M−1-core pack runs at all."""
        tasksets = 3 * 2
        assert self._partition_core_counts(monkeypatch, "best-fit") == (
            [2] * tasksets
        )

    def test_worst_fit_singlecore_packs_its_own_shape(self, monkeypatch):
        """Worst-fit opens empty cores first, so ``singlecore`` packs
        M−1 cores once per task set next to the all-cores partition."""
        tasksets = 3 * 2
        assert self._partition_core_counts(monkeypatch, "worst-fit") == (
            [1] * tasksets + [2] * tasksets
        )

    def test_singlecore_cells_equal_a_direct_pack(self):
        """Oracle for the shape ``singlecore`` reads off the all-cores
        partition: under every heuristic, its cells equal the cells of
        a system packed by :func:`build_singlecore_system` itself."""
        from repro.allocators import get_allocator
        from repro.core.singlecore import build_singlecore_system
        from repro.experiments.parallel import execute_point
        from repro.experiments.scenario import point_workloads
        from repro.model.platform import Platform
        from repro.partition.heuristics import HEURISTICS

        document = _good_document()
        document["sweep"]["tasksets_per_point"] = 4
        document["sweep"]["utilization"] = {
            "start": 0.3, "stop": 0.9, "step": 0.3,
        }
        document["grid"] = {
            "cores": [2, 3],
            "allocator": ["hydra", "singlecore"],
            "heuristic": list(HEURISTICS),
            "ordering": ["utilization", "rm"],
            "admission": ["rta", "liu-layland"],
        }
        experiment = ScenarioExperiment(parse_scenario(document))
        allocator = get_allocator("singlecore")
        verdicts: dict[str, set[bool]] = {h: set() for h in HEURISTICS}
        for spec in experiment.sweeps(SMOKE):
            platform = Platform(int(spec.params["cores"]))
            combos = [
                c for c in spec.params["combos"]
                if c["allocator"] == "singlecore"
            ]
            for index, point in enumerate(spec.points):
                expected: dict[str, list] = {
                    combo_label(**c): [] for c in combos
                }
                for _, workload in point_workloads(
                    platform, combos,
                    int(spec.params["tasksets_per_point"]),
                    float(point["utilization"]), spec.rng_for(index),
                ):
                    for combo in combos:
                        system = build_singlecore_system(
                            platform,
                            workload.rt_tasks,
                            workload.security_tasks,
                            heuristic=combo["heuristic"],
                            admission=combo["admission"],
                            ordering=combo["ordering"],
                        )
                        verdicts[combo["heuristic"]].add(system is None)
                        allocation = (
                            None if system is None
                            else allocator.allocate(system)
                        )
                        expected[combo_label(**combo)].append(
                            allocation.mean_tightness()
                            if allocation is not None
                            and allocation.schedulable else None
                        )
                cells = execute_point(spec, index)["cells"]
                assert {label: cells[label] for label in expected} == (
                    expected
                )
        # every heuristic both packs and fails to pack some task set
        assert all(v == {True, False} for v in verdicts.values())


#: The ``sweep --config`` twins of the registered comparison ablations
#: (the README shows the first one).
GRID_TWINS = {
    "ablation-solver": """
[sweep]
name = "ablation-solver"

[grid]
cores = [2]
allocator = ["hydra", "hydra[exact-rta]", "hydra+lp"]
heuristic = ["best-fit"]
ordering = ["utilization"]
admission = ["rta"]
""",
    "ablation-core-choice": """
[sweep]
name = "ablation-core-choice"

[grid]
cores = [4]
allocator = ["hydra", "first-feasible", "slackiest-core"]
heuristic = ["best-fit"]
ordering = ["utilization"]
admission = ["rta"]
""",
    "ablation-partitioning": """
[sweep]
name = "ablation-partitioning"

[grid]
cores = [4]
heuristic = ["best-fit", "worst-fit", "first-fit"]
ordering = ["utilization"]
admission = ["rta"]
""",
}

#: Fig. 2's twin at ``--scale default``; its ``cores`` axis is the
#: scale's core counts (``[2]`` at smoke).
FIG2_TWIN = """
[sweep]
name = "fig2"

[grid]
cores = [2, 4, 8]
allocator = ["hydra", "singlecore"]
heuristic = ["best-fit"]
ordering = ["utilization"]
admission = ["rta"]
"""

#: Fig. 1's twin at ``--scale default``; its ``cores`` axis is the
#: scale's core counts of at least 2 (``[2]`` at smoke).
FIG1_TWIN = """
[sweep]
name = "fig1"
kind = "detection-latency"
tasksets_per_point = 1
utilization = { start = 0.5, stop = 0.5, step = 0.1 }

[grid]
cores = [2, 4, 8]
workload = ["uav-case-study"]
allocator = ["hydra", "singlecore"]
heuristic = ["best-fit"]
ordering = ["utilization"]
admission = ["rta"]
"""


def _fig1_twin(scale):
    from repro.experiments.detection import DetectionScenarioExperiment

    document = tomllib.loads(FIG1_TWIN)
    document["grid"]["cores"] = [c for c in scale.core_counts if c >= 2]
    return DetectionScenarioExperiment(parse_scenario(document))


class TestRegisteredGrids:
    @pytest.mark.parametrize("scale", ["smoke", "default"])
    @pytest.mark.parametrize("name", sorted(GRID_TWINS))
    def test_registered_grid_runs_its_toml_twin_sweeps(self, name, scale):
        """Same sweeps — hence the same per-point cache entries — under
        the registered name and ``sweep --config``."""
        from repro.experiments.registry import get_experiment

        twin = ScenarioExperiment(
            parse_scenario(tomllib.loads(GRID_TWINS[name]))
        )
        registered = get_experiment(name)
        assert registered.config.combos == twin.config.combos
        assert registered.sweeps(SCALES[scale]) == twin.sweeps(
            SCALES[scale]
        )

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_fig2_runs_its_toml_twin_sweeps(self, scale):
        from repro.experiments.registry import get_experiment

        document = tomllib.loads(FIG2_TWIN)
        document["grid"]["cores"] = list(SCALES[scale].core_counts)
        twin = ScenarioExperiment(parse_scenario(document))
        assert get_experiment("fig2").sweeps(SCALES[scale]) == twin.sweeps(
            SCALES[scale]
        )

    def test_quality_runs_the_fig2_twins_8_core_panel(self):
        from repro.experiments.registry import get_experiment

        twin = ScenarioExperiment(parse_scenario(tomllib.loads(FIG2_TWIN)))
        default = SCALES["default"]
        assert get_experiment("quality").sweeps(default) == [
            spec for spec in twin.sweeps(default)
            if spec.params["cores"] == 8
        ]

    def test_readme_shows_the_solver_twin(self):
        readme = Path(__file__).parents[2] / "README.md"
        assert GRID_TWINS["ablation-solver"].strip() in readme.read_text()

    def test_readme_shows_the_fig2_twin(self):
        readme = Path(__file__).parents[2] / "README.md"
        assert FIG2_TWIN.strip() in readme.read_text()

    @pytest.mark.parametrize("scale", ["smoke", "default"])
    def test_fig1_runs_its_toml_twin_sweeps(self, scale):
        from repro.experiments.registry import get_experiment

        twin = _fig1_twin(SCALES[scale])
        assert get_experiment("fig1").sweeps(SCALES[scale]) == twin.sweeps(
            SCALES[scale]
        )

    def test_fig1_data_is_its_twins_data(self):
        from repro.experiments.registry import get_experiment

        fig1 = get_experiment("fig1").run(SMOKE)
        assert fig1.data == _fig1_twin(SMOKE).run(SMOKE).data

    def test_fig1_then_its_twin_on_one_store_computes_nothing(self, tmp_path):
        from repro.experiments.registry import get_experiment

        get_experiment("fig1").run(
            SMOKE, SweepEngine(cache=ResultStore(tmp_path))
        )
        computed: list[int] = []
        engine = SweepEngine(
            cache=ResultStore(tmp_path), on_point_computed=computed.append
        )
        twin = _fig1_twin(SMOKE).run(SMOKE, engine)
        assert computed == []
        assert twin.data == get_experiment("fig1").run(SMOKE).data

    def test_readme_shows_the_fig1_twin(self):
        readme = Path(__file__).parents[2] / "README.md"
        assert FIG1_TWIN.strip() in readme.read_text()


class TestWorkloadAxis:
    def test_parse_accepts_workload_axis(self):
        document = _good_document()
        document["grid"]["workload"] = ["paper-synthetic", "uunifast"]
        config = parse_scenario(document)
        assert config.workload_axis
        assert config.workloads == ("paper-synthetic", "uunifast")
        assert config.combos[0] == {
            "workload": "paper-synthetic", "heuristic": "best-fit",
            "ordering": "rm", "admission": "rta",
        }
        assert len(config.combos) == 2 * 4  # workloads × (h × o × a)

    def test_workload_composes_with_allocator_axis(self):
        document = _good_document()
        document["grid"]["workload"] = ["uunifast"]
        document["grid"]["allocator"] = ["hydra", "first-feasible"]
        config = parse_scenario(document)
        assert config.combos[0] == {
            "workload": "uunifast", "allocator": "hydra",
            "heuristic": "best-fit", "ordering": "rm", "admission": "rta",
        }
        assert combo_label(**config.combos[0]) == (
            "uunifast::hydra|best-fit/rm/rta"
        )

    def test_absent_axis_keeps_pr4_combos_labels_and_cache_keys(self):
        """Byte-identity anchor: without a ``workload`` axis the sweep
        spec — params, combos, key payloads — must match the PR 4
        shape exactly, so pre-existing cache entries stay valid."""
        config = parse_scenario(_good_document())
        assert not config.workload_axis
        assert config.workloads == ("paper-synthetic",)
        assert all("workload" not in combo for combo in config.combos)
        assert combo_label(**config.combos[0]) == "best-fit/rm/rta"

        experiment = ScenarioExperiment(config)
        spec = experiment.sweeps(SMOKE)[0]
        # exactly the PR 4 params surface: nothing workload-flavoured
        assert set(spec.params) == {"cores", "tasksets_per_point", "combos"}
        # and the cache key payload of point 0, pinned field by field
        from repro.experiments.store import CACHE_FORMAT

        assert spec.key_payload(0) == {
            "format": CACHE_FORMAT,
            "kind": "scenario",
            "seed": SMOKE.seed + 2,
            "index": 0,
            "point": dict(spec.points[0]),
            "params": {
                "cores": 2,
                "tasksets_per_point": 3,
                "combos": [
                    {"heuristic": h, "ordering": o, "admission": "rta"}
                    for h in ("best-fit", "worst-fit")
                    for o in ("rm", "utilization")
                ],
            },
        }

    def test_absent_axis_payloads_match_pre_registry_bytes(self):
        """The registry indirection (paper-synthetic) must not change a
        byte of an axis-less scenario sweep's payloads, and the tallies
        :func:`cell_tallies` derives from them must equal the running
        tallies the runner used to store, bit for bit."""
        from repro.experiments.parallel import execute_point
        from repro.experiments.scenario import (
            CellTally,
            cell_tallies,
            run_scenario_point,
        )
        from repro.taskgen.synthetic import generate_workload

        # the mini sweep accepts everything at tightness 1; a loaded
        # twin adds rejections and stretched periods to the tallies.
        loaded = _good_document()
        loaded["grid"]["cores"] = [2]
        loaded["grid"]["admission"] = ["rta", "liu-layland"]
        loaded["sweep"]["utilization"] = {
            "start": 0.45, "stop": 0.95, "step": 0.25,
        }
        specs = [
            *_mini_experiment().sweeps(SMOKE),
            *ScenarioExperiment(parse_scenario(loaded)).sweeps(SMOKE),
        ]

        # re-run the PR 4 logic inline: direct generate_workload calls
        def legacy_point(point, params, rng):
            from repro.allocators import get_allocator
            from repro.model.platform import Platform
            from repro.model.system import SystemModel
            from repro.partition.heuristics import try_partition_tasks

            platform = Platform(int(params["cores"]))
            combos = [dict(c) for c in params["combos"]]
            hydra = get_allocator("hydra")
            cells = {combo_label(**c): [] for c in combos}
            tallies = {
                combo_label(**c): {
                    "accepted": 0, "total": 0, "tightness_sum": 0.0,
                }
                for c in combos
            }
            for _ in range(int(params["tasksets_per_point"])):
                workload = generate_workload(
                    platform, float(point["utilization"]), rng
                )
                for combo in combos:
                    cell = cells[combo_label(**combo)]
                    tally = tallies[combo_label(**combo)]
                    tally["total"] += 1
                    partition = try_partition_tasks(
                        workload.rt_tasks,
                        platform,
                        heuristic=combo["heuristic"],
                        admission=combo["admission"],
                        ordering=combo["ordering"],
                    )
                    if partition is None:
                        cell.append(None)
                        continue
                    system = SystemModel(
                        platform=platform,
                        rt_partition=partition,
                        security_tasks=workload.security_tasks,
                    )
                    allocation = hydra.allocate(system)
                    if allocation.schedulable:
                        cell.append(allocation.mean_tightness())
                        tally["accepted"] += 1
                        tally["tightness_sum"] += (
                            allocation.mean_tightness()
                        )
                    else:
                        cell.append(None)
            return {"cells": cells}, tallies

        assert run_scenario_point is not legacy_point
        mixed = 0
        for spec in specs:
            for index, point in enumerate(spec.points):
                payload = execute_point(spec, index)
                expected, tallies = legacy_point(
                    dict(point), dict(spec.params), spec.rng_for(index)
                )
                assert json.dumps(payload, sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                )
                # round-trip through JSON as a cached payload would
                cached = json.loads(json.dumps(payload))
                for label, tally in tallies.items():
                    assert cell_tallies(cached, label) == (
                        CellTally(**tally),
                    )
                    mixed += 0 < tally["accepted"] < tally["total"]
        assert mixed  # some cell both accepts and rejects

    def test_unknown_workload_named_with_known_list(self):
        document = _good_document()
        document["grid"]["workload"] = ["paper-synthetic", "quantum-foam"]
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario(document)
        message = str(excinfo.value)
        assert "quantum-foam" in message and "paper-synthetic" in message

    def test_duplicate_workload_values_rejected(self):
        document = _good_document()
        document["grid"]["workload"] = ["uunifast", "uunifast"]
        with pytest.raises(ValidationError, match="duplicate"):
            parse_scenario(document)

    def test_with_workloads_override(self):
        config = parse_scenario(_good_document())
        overridden = config.with_workloads(["heavy-security"])
        assert overridden.workload_axis
        assert overridden.combos[0]["workload"] == "heavy-security"
        from repro.workloads import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError, match="known workloads"):
            config.with_workloads(["nope"])

    def test_with_workloads_rejects_duplicates(self):
        config = parse_scenario(_good_document())
        with pytest.raises(ValidationError, match="more than once"):
            config.with_workloads(["uunifast", "uunifast"])

    def test_run_sweeps_families_on_their_own_task_sets(self):
        document = _good_document()
        document["grid"] = {
            "cores": [2],
            "workload": ["paper-synthetic", "heavy-security"],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
        }
        document["sweep"]["utilization"] = {
            "start": 0.5, "stop": 0.75, "step": 0.25,
        }
        document["sweep"]["tasksets_per_point"] = 4
        experiment = ScenarioExperiment(parse_scenario(document))
        domain = experiment.run_domain(SMOKE)
        (panel,) = domain.panels
        labels = {c.scheme for c in panel.comparison.cells}
        assert labels == {
            "paper-synthetic::best-fit/utilization/rta",
            "heavy-security::best-fit/utilization/rta",
        }
        for cell in panel.comparison.cells:
            assert cell.total if hasattr(cell, "total") else True
            assert 0.0 <= cell.acceptance <= 1.0

    def test_case_study_workload_axis_runs(self):
        document = _good_document()
        document["grid"] = {
            "cores": [2],
            "workload": ["uav-case-study"],
            "heuristic": ["best-fit"],
            "ordering": ["utilization"],
            "admission": ["rta"],
        }
        document["sweep"]["utilization"] = {
            "start": 0.5, "stop": 0.5, "step": 0.25,
        }
        document["sweep"]["tasksets_per_point"] = 2
        experiment = ScenarioExperiment(parse_scenario(document))
        domain = experiment.run_domain(SMOKE)
        (panel,) = domain.panels
        cells = panel.comparison.series(
            "uav-case-study::best-fit/utilization/rta"
        )
        # the fixed UAV + Table I system is schedulable on 2 cores
        assert all(c.acceptance == 1.0 for c in cells)

    def test_appending_a_family_keeps_earlier_families_bytes(self):
        """Families generate their point batches sequentially in grid
        order, so appending a family to the axis must not perturb the
        earlier families' cells (mirrors append-a-point semantics)."""
        from repro.experiments.parallel import execute_point

        def run(workloads):
            document = _good_document()
            document["grid"] = {
                "cores": [2],
                "workload": list(workloads),
                "heuristic": ["best-fit"],
                "ordering": ["utilization"],
                "admission": ["rta"],
            }
            document["sweep"]["utilization"] = {
                "start": 0.5, "stop": 0.75, "step": 0.25,
            }
            document["sweep"]["tasksets_per_point"] = 4
            experiment = ScenarioExperiment(parse_scenario(document))
            (spec,) = experiment.sweeps(SMOKE)
            return execute_point(spec, 0)

        alone = run(["uunifast"])
        extended = run(["uunifast", "heavy-security"])
        label = "uunifast::best-fit/utilization/rta"
        assert extended["cells"][label] == alone["cells"][label]

    def test_one_family_axis_draws_the_axis_less_task_sets(self):
        """Naming a one-family axis changes the labels, not the task
        sets: once the ``paper-synthetic::`` prefix is stripped, every
        per-task-set cell equals the axis-less grid's."""
        from repro.experiments.parallel import execute_point

        def run(workload_axis):
            grid = {
                "cores": [2, 4],
                "allocator": ["hydra", "singlecore"],
                "heuristic": ["best-fit"],
                "ordering": ["utilization"],
                "admission": ["rta"],
                **workload_axis,
            }
            document = {
                "sweep": {
                    "name": "one-family",
                    "tasksets_per_point": 20,
                    "utilization": {
                        "start": 0.55, "stop": 0.95, "step": 0.2,
                    },
                },
                "grid": grid,
            }
            experiment = ScenarioExperiment(parse_scenario(document))
            return [
                execute_point(spec, index)
                for spec in experiment.sweeps(SMOKE)
                for index in range(len(spec.points))
            ]

        plain = run({})
        named = run({"workload": ["paper-synthetic"]})
        prefix = "paper-synthetic::"
        assert all(
            label.startswith(prefix)
            for payload in named
            for label in payload["cells"]
        )
        stripped = [
            {
                "cells": {
                    label.removeprefix(prefix): cell
                    for label, cell in payload["cells"].items()
                }
            }
            for payload in named
        ]
        # 2 core counts × 3 points × 2 allocators, with rejections
        assert sum(len(p["cells"]) for p in plain) == 12
        assert any(
            None in cell for p in plain for cell in p["cells"].values()
        )
        assert stripped == plain

    def test_render_names_the_workload_axis(self):
        document = _good_document()
        document["grid"]["cores"] = [2]
        document["grid"]["workload"] = ["uunifast"]
        document["sweep"]["utilization"] = {
            "start": 0.5, "stop": 0.5, "step": 0.25,
        }
        experiment = ScenarioExperiment(parse_scenario(document))
        result = experiment.run(SMOKE)
        text = experiment.render(result)
        assert "workload::heuristic/ordering/admission" in text
        assert "uunifast::best-fit/rm/rta" in text
