"""Run-set generation: determinism, stable ids, recorded skips."""

from __future__ import annotations

from repro.ablate import axis_components, parse_ablation, run_id, run_set
from repro.experiments.config import get_scale


def _config(**ablation_keys):
    return parse_ablation(
        {
            "ablation": {"name": "study", **ablation_keys},
            "baseline": {"cores": [2]},
        }
    )


class TestRunSet:
    def test_baseline_first_then_swap_one_per_component(self):
        config = _config(axes=["heuristic", "ordering"])
        runs, skipped = run_set(config)
        assert runs[0].axis is None
        assert runs[0].axis is None
        expected = [
            ("heuristic", c)
            for c in axis_components("heuristic") if c != "best-fit"
        ] + [
            ("ordering", c)
            for c in axis_components("ordering") if c != "utilization"
        ]
        assert [(r.axis, r.component) for r in runs[1:]] == expected
        assert skipped == ()

    def test_incumbent_is_never_a_variant(self):
        runs, _ = run_set(_config())
        assert all(
            not (r.axis == "heuristic" and r.component == "best-fit")
            for r in runs[1:]
        )

    def test_variant_swaps_exactly_one_axis(self):
        config = _config(axes=["admission"])
        runs, _ = run_set(config)
        for run in runs[1:]:
            combo = run.config.combos[0]
            assert combo["admission"] == run.component
            assert combo["heuristic"] == "best-fit"
            assert combo["ordering"] == "utilization"
            assert combo["allocator"] == "hydra"
            assert combo["workload"] == "paper-synthetic"
            assert run.label == (
                f"paper-synthetic::hydra|best-fit/utilization/"
                f"{run.component}"
            )

    def test_generation_is_deterministic(self):
        first, first_skipped = run_set(_config())
        second, second_skipped = run_set(_config())
        assert first == second
        assert first_skipped == second_skipped

    def test_singlecore_skip_is_recorded_not_silent(self):
        config = _config(axes=["allocator"])
        runs, skipped = run_set(config)
        # cores=[2] → singlecore runs fine, nothing skipped
        assert any(r.component == "singlecore" for r in runs)
        assert skipped == ()

        single = parse_ablation(
            {
                "ablation": {"name": "study", "axes": ["allocator"]},
                "baseline": {"cores": [1]},
            }
        )
        runs, skipped = run_set(single)
        assert all(r.component != "singlecore" for r in runs)
        assert [(s.axis, s.component) for s in skipped] == [
            ("allocator", "singlecore")
        ]
        assert "2" in skipped[0].reason

    def test_registry_growth_widens_the_set(self):
        # One variant per registered non-incumbent component per axis.
        config = _config()
        runs, skipped = run_set(config)
        expected = sum(
            len(axis_components(axis)) - 1 for axis in config.axes
        )
        assert len(runs) - 1 + len(skipped) == expected


class TestRunIds:
    def test_ids_are_stable_and_distinct(self):
        scale = get_scale("smoke")
        runs, _ = run_set(_config(axes=["ordering"]))
        ids = [run_id(r, scale) for r in runs]
        assert ids == [run_id(r, scale) for r in runs]  # deterministic
        assert len(set(ids)) == len(ids)  # content-addressed, distinct

    def test_id_ignores_unrelated_variants(self):
        # A run's id depends only on its own config — ablating more
        # axes later never changes existing ids (warm-cache stability).
        scale = get_scale("smoke")
        narrow, _ = run_set(_config(axes=["ordering"]))
        wide, _ = run_set(_config())
        wide_by_key = {(r.axis, r.component): r for r in wide}
        for run in narrow:
            twin = wide_by_key[(run.axis, run.component)]
            assert run_id(run, scale) == run_id(twin, scale)

    def test_id_depends_on_scale_and_study_inputs(self):
        runs, _ = run_set(_config(axes=["ordering"]))
        assert run_id(runs[0], get_scale("smoke")) != run_id(
            runs[0], get_scale("default")
        )
