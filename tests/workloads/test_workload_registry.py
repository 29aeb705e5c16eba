"""Tests for the first-class workload API: registry resolution, typed
unknown-name errors, the run_workload entry points, and byte-identity
of the registered paper recipe with direct generate_workload calls."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.model.platform import Platform
from repro.taskgen.synthetic import generate_workload
from repro.model.task import total_utilization
from repro.workloads import (
    UnknownWorkloadError,
    WorkloadGenerator,
    get_workload,
    get_workload_info,
    iter_workload_info,
    register_workload,
    run_workload,
    unregister_workload,
    workload_names,
)
from repro.workloads.builtin import (
    CaseStudyWorkload,
    SyntheticRecipeWorkload,
    heavy_security_workload,
)
from workload_sample import workload_to_dict


def _achieved(workload) -> float:
    """Total utilisation, security tasks at their desired rate."""
    return total_utilization((*workload.rt_tasks, *workload.security_tasks))


def _canonical(workload) -> str:
    return json.dumps(workload_to_dict(workload), sort_keys=True)


class TestRegistry:
    def test_every_spec_resolves_to_its_own_name(self):
        names = workload_names()
        assert "paper-synthetic" in names
        for spec in names:
            assert get_workload(spec).name == spec

    def test_expected_builtins_present(self):
        names = set(workload_names())
        # the paper's recipe …
        assert "paper-synthetic" in names
        # … the UUniFast splitter pair …
        assert {"uunifast", "uunifast-discard"} <= names
        # … the period regimes and the heavy-security profile …
        assert {
            "uniform-periods", "harmonic-periods", "heavy-security",
        } <= names
        # … and the fixed case studies.
        assert {"uav-case-study", "table1-suite"} <= names

    def test_unknown_spec_is_typed_and_lists_known_names(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            get_workload("fractal")
        message = str(excinfo.value)
        assert "fractal" in message
        assert "paper-synthetic" in message and "uunifast" in message
        # part of the library hierarchy *and* a ValueError for generic
        # input-validation handlers
        assert isinstance(excinfo.value, ConfigError)
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ValueError)

    def test_info_metadata(self):
        info = get_workload_info("paper-synthetic")
        assert info.name == "paper-synthetic"
        assert info.title
        assert "paper" in info.tags
        data = info.to_dict()
        assert data["name"] == "paper-synthetic"
        assert isinstance(data["tags"], list)

    def test_iteration_order_is_registration_order(self):
        names = [i.name for i in iter_workload_info()]
        assert names == workload_names()
        assert names[0] == "paper-synthetic"

    def test_register_unregister_round_trip(self):
        @register_workload("test-fixed", title="a test family")
        class FixedWorkload(WorkloadGenerator):
            name = "test-fixed"

            def generate(self, platform, total_utilization, rng=None):
                return run_workload(
                    "uav-case-study", platform, total_utilization
                )

        try:
            assert "test-fixed" in workload_names()
            assert isinstance(get_workload("test-fixed"), FixedWorkload)
            with pytest.raises(ConfigError, match="already registered"):
                register_workload("test-fixed")(FixedWorkload)
            register_workload("test-fixed", replace=True, title="v2")(
                FixedWorkload
            )
            assert get_workload_info("test-fixed").title == "v2"
        finally:
            unregister_workload("test-fixed")
        assert "test-fixed" not in workload_names()

    def test_nameless_factory_rejected(self):
        with pytest.raises(ConfigError, match="registry name"):
            register_workload()(lambda: None)

    def test_builtin_name_collision_detected_on_fresh_registry(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_workload("paper-synthetic")(lambda: None)
        assert get_workload("paper-synthetic").name == "paper-synthetic"


class TestPaperSyntheticByteIdentity:
    """The tentpole guarantee: the registered recipe IS the recipe."""

    @pytest.mark.parametrize("seed", [0, 7, 2018])
    @pytest.mark.parametrize("target", [0.3, 1.3])
    def test_registry_matches_direct_calls(self, seed, target):
        via_registry = run_workload(
            "paper-synthetic", 2, target, np.random.default_rng(seed)
        )
        direct = generate_workload(2, target, np.random.default_rng(seed))
        assert _canonical(via_registry) == _canonical(direct)

    def test_batch_entry_point_is_deterministic(self):
        """A grid point's batch entry point, ``point_workloads``, draws
        the direct per-instance loop's task sets, with or without a
        ``workload`` key, once for any number of combos."""
        from repro.experiments.scenario import point_workloads

        def batch(combos):
            pairs = point_workloads(
                Platform(2), combos, 3, 1.0, np.random.default_rng(42)
            )
            return [(family, _canonical(w)) for family, w in pairs]

        rng = np.random.default_rng(42)
        direct = [
            ("paper-synthetic", _canonical(generate_workload(2, 1.0, rng)))
            for _ in range(3)
        ]
        assert batch([{}]) == batch([{}]) == direct
        assert batch([{"workload": "paper-synthetic"}]) == direct
        two_combos = [{"allocator": "hydra"}, {"allocator": "singlecore"}]
        assert batch(two_combos) == direct


class TestBuiltinFamilies:
    def test_recipe_generator_carries_its_config(self):
        generator = get_workload("heavy-security")
        assert isinstance(generator, SyntheticRecipeWorkload)
        assert generator.config.security_utilization_fraction == 0.6
        assert generator.config.security_tasks_per_core == (4, 10)

    def test_heavy_security_knobs(self):
        generator = heavy_security_workload(
            security_utilization_fraction=0.9,
            security_tasks_per_core=(1, 2),
            name="my-heavy",
        )
        assert generator.name == "my-heavy"
        workload = generator.generate(2, 1.0, 3)
        assert 2 <= len(workload.security_tasks) <= 4

    def test_unknown_split_rejected(self):
        from repro.errors import ValidationError

        generator = SyntheticRecipeWorkload("bad", split="dirichlet")
        with pytest.raises(ValidationError, match="dirichlet"):
            generator.generate(2, 1.0, 1)

    def test_case_studies_are_fixed_points(self):
        for spec in ("uav-case-study", "table1-suite"):
            generator = get_workload(spec)
            assert isinstance(generator, CaseStudyWorkload)
            assert generator.config is None
            # same bytes whatever the target or stream
            a = generator.generate(2, 0.2, 1)
            b = generator.generate(2, 1.9, 99)
            assert _canonical(a) == _canonical(b)
            # the target records the achieved utilisation
            assert a.target_utilization == pytest.approx(
                _achieved(a)
            )

    def test_uav_case_study_contents(self):
        workload = run_workload("uav-case-study", 2, 1.0)
        assert {t.name for t in workload.rt_tasks} == {
            "fast_navigation", "controller", "slow_navigation",
            "guidance", "missile_control", "reconnaissance",
        }
        assert len(workload.security_tasks) == 6

    def test_table1_suite_has_no_rt_load(self):
        workload = run_workload("table1-suite", 2, 1.0)
        assert len(workload.rt_tasks) == 0
        assert {t.name for t in workload.security_tasks} >= {
            "tw_own_binary", "bro_network",
        }
