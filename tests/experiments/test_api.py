"""Unit tests for the unified experiment API: protocol, registry,
structured results, and their serialisation round trips."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro.errors import ValidationError
from repro.experiments import (
    ExperimentResult,
    Fig2Experiment,
    SweepEngine,
    Table1Experiment,
    experiment_names,
    get_experiment,
    iter_experiments,
)
from repro.experiments.api import RESULT_FORMAT, Experiment, RawRun
from repro.experiments.config import SCALES
from repro.experiments.registry import (
    UnknownExperimentError,
    register_experiment,
    unregister_experiment,
)

SMOKE = SCALES["smoke"]

PAPER_SET = ("table1", "fig1", "fig2", "fig3", "quality")
ABLATION_SET = (
    "ablation-solver", "ablation-core-choice", "ablation-search",
    "ablation-extension", "ablation-partitioning",
)


class TestRegistry:
    def test_all_builtin_experiments_registered(self):
        names = experiment_names()
        for name in PAPER_SET + ABLATION_SET:
            assert name in names

    def test_report_order_paper_first(self):
        names = experiment_names()
        assert names[:5] == list(PAPER_SET)
        assert names[5:10] == list(ABLATION_SET)

    def test_get_experiment_returns_fresh_instances(self):
        a = get_experiment("fig2")
        b = get_experiment("fig2")
        assert a is not b
        assert isinstance(a, Fig2Experiment)

    def test_unknown_experiment_error_mentions_list(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            get_experiment("fig9")
        message = str(excinfo.value)
        assert "fig9" in message
        assert "repro-hydra list" in message
        assert "fig2" in message  # the known names are enumerated

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register_experiment("fig2")(Fig2Experiment)

    def test_plugin_registration_and_removal(self):
        @register_experiment("test-plugin")
        class PluginExperiment(Table1Experiment):
            name = "test-plugin"
            title = "a plugin"

        try:
            assert "test-plugin" in experiment_names()
            assert isinstance(get_experiment("test-plugin"), PluginExperiment)
        finally:
            unregister_experiment("test-plugin")
        assert "test-plugin" not in experiment_names()

    def test_specs_are_well_formed(self):
        for experiment in iter_experiments():
            spec = experiment.spec()
            assert spec.name
            assert spec.title
            assert spec.version >= 1


class TestProtocol:
    def test_spec_hash_stable_and_scale_sensitive(self):
        experiment = Fig2Experiment()
        assert experiment.spec_hash(SMOKE) == experiment.spec_hash(SMOKE)
        assert experiment.spec_hash(SMOKE) != experiment.spec_hash(
            SCALES["default"]
        )
        assert experiment.spec_hash(SMOKE) != Table1Experiment().spec_hash(
            SMOKE
        )

    def test_shim_equals_protocol_run(self):
        via_protocol = Fig2Experiment().run_domain(SMOKE)
        via_registry = get_experiment("fig2").run_domain(SMOKE)
        assert via_protocol == via_registry

    def test_render_rejects_foreign_result(self):
        result = Table1Experiment().run(SMOKE)
        with pytest.raises(ValidationError):
            Fig2Experiment().render(result)


class TestExperimentResult:
    @pytest.fixture(scope="class")
    def result(self):
        return Table1Experiment().run(SMOKE)

    def test_metadata(self, result):
        assert result.experiment == "table1"
        assert result.scale == "smoke"
        assert result.format == RESULT_FORMAT
        assert len(result.spec_hash) == 64

    def test_json_round_trip(self, result):
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_to_dict_is_an_independent_copy_of_the_json_document(self):
        result = Table1Experiment().run(SMOKE)
        document = result.to_dict()
        assert json.dumps(document, indent=2, sort_keys=True) == (
            result.to_json()
        )
        before = result.to_json()
        for value in document["data"].values():
            if isinstance(value, list):
                value.clear()
            elif isinstance(value, dict):
                value["tampered"] = True
        document["data"]["tampered"] = True
        assert result.to_json() == before
        assert result.to_dict() == json.loads(before)

    def test_round_tripped_result_renders_identically(self, result):
        experiment = Table1Experiment()
        loaded = ExperimentResult.from_json(result.to_json())
        assert experiment.render(loaded) == experiment.render(result)

    def test_csv_matches_columns_and_rows(self, result):
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == ",".join(result.columns)
        assert len(lines) == 1 + len(result.rows)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValidationError):
            ExperimentResult.from_json("not json at all")
        with pytest.raises(ValidationError):
            ExperimentResult.from_json("[1, 2, 3]")

    def test_from_json_rejects_wrong_format_version(self, result):
        doc = result.to_dict()
        doc["format"] = RESULT_FORMAT + 1
        import json

        with pytest.raises(ValidationError):
            ExperimentResult.from_json(json.dumps(doc))

    def test_table1_result_renders_with_its_own_core_count(self):
        # A 4-core result loaded from JSON must say "4 cores" even when
        # rendered through a default-constructed (2-core) experiment.
        result = Table1Experiment(cores=4).run(SMOKE)
        loaded = ExperimentResult.from_json(result.to_json())
        assert "4 cores" in get_experiment("table1").render(loaded)

    @pytest.mark.parametrize("name", experiment_names())
    def test_every_paper_experiment_round_trips(self, name):
        # Every registered experiment, not only the paper's, at smoke
        # scale, shrunk: each one runs twice.
        scale = SMOKE.with_overrides(
            tasksets_per_point=2, fig3_tasksets_per_point=1, sim_trials=4
        )
        experiment = get_experiment(name)
        result = experiment.run(scale)
        loaded = ExperimentResult.from_json(result.to_json())
        assert loaded == result
        assert experiment.render(loaded) == experiment.render(result)
        data = json.loads(result.to_json())["data"]
        assert experiment.decode_data(data) == experiment.run_domain(scale)


class TestEmptySweepExperiments:
    def test_search_ablation_runs_without_sweeps(self):
        experiment = get_experiment("ablation-search")
        assert experiment.sweeps(SMOKE) == []
        result = experiment.run(SMOKE)
        assert result.rows  # one summary row
        assert "branch-and-bound" in experiment.render(result)


class TestRawRun:
    def test_payloads_flatten_in_order(self):
        experiment = Fig2Experiment()
        engine = SweepEngine()
        sweeps = tuple(engine.run(s) for s in experiment.sweeps(SMOKE))
        raw = RawRun(sweeps=sweeps, scale=SMOKE)
        assert raw.payloads == [
            p for s in sweeps for p in s.payloads
        ]


def test_experiment_is_abstract():
    with pytest.raises(TypeError):
        Experiment()  # the protocol's hooks are abstract
    assert Experiment.__abstractmethods__ == {
        "sweeps", "aggregate_domain", "render_domain",
    }


# -- the default result codec ---------------------------------------------
#
# Module level: the codec resolves annotations in their module.


@dataclass(frozen=True)
class _Inner:
    label: str
    weight: float | None


@dataclass(frozen=True)
class _EveryField:
    flag: bool
    count: int
    pair: tuple[str, float]
    values: tuple[float, ...]
    inners: tuple[_Inner, ...]
    inner: _Inner | None


@dataclass(frozen=True)
class _DictDomain:
    counts: dict[str, int]


@dataclass(frozen=True)
class _ListDomain:
    values: list[float]


@dataclass(frozen=True)
class _UnionDomain:
    value: int | str | None


class _Plugin(Experiment):
    """An unregistered inline experiment (no sweeps)."""

    name = "codec-plugin"

    def sweeps(self, scale):
        return []

    def render_domain(self, domain):
        return repr(domain)


class _EveryFieldPlugin(_Plugin):
    def aggregate_domain(self, raw: RawRun) -> _EveryField:
        return _EveryField(
            flag=True,
            count=3,
            pair=("delta", -0.25),
            values=(1.0, 2.5),
            inners=(_Inner("a", None), _Inner("b", 0.5)),
            inner=None,
        )


class _DictPlugin(_Plugin):
    def aggregate_domain(self, raw: RawRun) -> _DictDomain:
        return _DictDomain({"a": 1})


class _ListPlugin(_Plugin):
    def aggregate_domain(self, raw: RawRun) -> _ListDomain:
        return _ListDomain([1.0])


class _UnionPlugin(_Plugin):
    def aggregate_domain(self, raw: RawRun) -> _UnionDomain:
        return _UnionDomain(None)


class _UnannotatedPlugin(_Plugin):
    def aggregate_domain(self, raw):
        return _ListDomain([1.0])


class _OwnCodecPlugin(_Plugin):
    """A domain the default codec cannot read, with its own hooks."""

    def aggregate_domain(self, raw):
        return {"counts": {"a": 1}}

    def encode_data(self, domain):
        return {"pairs": sorted(domain["counts"].items())}

    def decode_data(self, data):
        return {"counts": dict(data["pairs"])}


class TestDefaultCodec:
    def test_every_supported_field_type_round_trips(self):
        experiment = _EveryFieldPlugin()
        result = experiment.run(SMOKE)
        assert result.data == {
            "flag": True,
            "count": 3,
            "pair": ["delta", -0.25],
            "values": [1.0, 2.5],
            "inners": [
                {"label": "a", "weight": None},
                {"label": "b", "weight": 0.5},
            ],
            "inner": None,
        }
        data = json.loads(result.to_json())["data"]
        assert experiment.decode_data(data) == experiment.run_domain(SMOKE)

    @pytest.mark.parametrize(
        "plugin",
        [_DictPlugin, _ListPlugin, _UnionPlugin, _UnannotatedPlugin],
    )
    def test_an_unreadable_domain_is_a_typed_error(self, plugin):
        with pytest.raises(ValidationError, match="'codec-plugin'"):
            plugin().run(SMOKE)
        with pytest.raises(ValidationError, match="'codec-plugin'"):
            plugin().decode_data({"values": [1.0]})

    def test_overriding_the_hooks_keeps_working(self):
        experiment = _OwnCodecPlugin()
        loaded = ExperimentResult.from_json(experiment.run(SMOKE).to_json())
        assert loaded.data == {"pairs": [["a", 1]]}
        assert experiment.render(loaded) == "{'counts': {'a': 1}}"
