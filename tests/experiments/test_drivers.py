"""Integration tests for the per-figure experiment drivers (smoke scale)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import ValidationError
from repro.experiments.ablations import (
    extension_ablation,
    format_extension_ablation,
    format_search_ablation,
    search_ablation,
)
from repro.experiments.api import ExperimentResult
from repro.experiments.config import SCALES
from repro.experiments.detection import DetectionScenarioExperiment
from repro.experiments.fig1 import FIG1_CONFIG, build_uav_systems
from repro.experiments.fig3 import Fig3Experiment
from repro.experiments.registry import get_experiment
from repro.metrics.improvement import detection_speedup


@pytest.fixture(scope="module")
def smoke():
    return SCALES["smoke"]


class TestTable1:
    def test_rows_cover_table1(self):
        rows = get_experiment("table1").run_domain()
        assert len(rows) == 6
        apps = [r.application for r in rows]
        assert apps.count("tripwire") == 5
        assert apps.count("bro") == 1

    def test_periods_within_bounds(self):
        for row in get_experiment("table1").run_domain():
            assert row.period_des <= row.hydra_period <= row.period_max
            assert row.period_des <= row.single_period <= row.period_max

    def test_formatting(self):
        table1 = get_experiment("table1")
        text = table1.render_domain(table1.run_domain())
        assert "Table I" in text
        assert "tw_own_binary" in text
        assert "bro_network" in text


class TestUavSystems:
    @pytest.mark.parametrize("cores", [2, 4, 8])
    def test_build_for_all_paper_core_counts(self, cores):
        hydra_system, hydra_alloc, single_system, single_alloc = (
            build_uav_systems(cores)
        )
        assert hydra_alloc.schedulable
        assert single_alloc.schedulable
        # SingleCore: every security task on the last core.
        assert {a.core for a in single_alloc.assignments} == {cores - 1}

    def test_hydra_spreads_security(self):
        _, hydra_alloc, _, _ = build_uav_systems(4)
        assert len({a.core for a in hydra_alloc.assignments}) >= 2


class TestFig1:
    def test_smoke_run(self, smoke):
        result = get_experiment("fig1").run_domain(smoke)
        assert [panel.cores for panel in result.panels] == [2]
        (panel,) = result.panels
        hydra, single = panel.cells
        assert hydra.scheme == "uav-case-study::hydra|best-fit/utilization/rta"
        assert single.scheme == (
            "uav-case-study::singlecore|best-fit/utilization/rta"
        )
        assert hydra.attacks == smoke.sim_trials
        assert single.attacks == smoke.sim_trials

    def test_hydra_detects_faster_at_default_seedset(self, smoke):
        # Use a slightly larger observation count for a stable sign.
        scale = smoke.with_overrides(sim_trials=40, sim_duration=60_000.0)
        result = get_experiment("fig1").run_domain(scale)
        for panel in result.panels:
            hydra, single = panel.cells
            assert detection_speedup(hydra.times, single.times) > 0.0

    def test_all_attacks_detected(self, smoke):
        result = get_experiment("fig1").run_domain(smoke)
        for panel in result.panels:
            for cell in panel.cells:
                assert cell.detected == cell.attacks == smoke.sim_trials

    def test_formatting(self, smoke):
        fig1 = get_experiment("fig1")
        text = fig1.render_domain(fig1.run_domain(smoke))
        assert "Fig. 1" in text
        assert "mean detection" in text
        assert "21.39% faster (paper: 19.81% for 2 cores)" in text

    def test_csv_rows_are_detected_attacks(self, smoke):
        fig1 = get_experiment("fig1")
        result = fig1.run(smoke)
        assert result.columns == ("cores", "scheme", "detection_time_ms")
        assert [row[:2] for row in result.rows] == (
            [(2, "hydra")] * smoke.sim_trials
            + [(2, "singlecore")] * smoke.sim_trials
        )

    def test_start_after_policy_no_slower(self, smoke):
        # A check that started after the attack detects no later than
        # one that additionally had to be *released* after it; both
        # policies score the same attacks on one simulated schedule.
        config = dataclasses.replace(
            FIG1_CONFIG,
            policies=("release-after", "start-after"),
            policy_axis=True,
        )
        domain = DetectionScenarioExperiment(config).run_domain(smoke)
        for panel in domain.panels:
            cells = iter(panel.cells)
            for release_after, start_after in zip(cells, cells):
                assert release_after.scheme.endswith("@release-after")
                assert start_after.scheme.endswith("@start-after")
                assert start_after.detected >= release_after.detected
                if start_after.detected == release_after.detected == (
                    release_after.attacks
                ):
                    for sa, ra in zip(start_after.times, release_after.times):
                        assert sa <= ra + 1e-9


class TestFig2:
    def test_smoke_run_structure(self, smoke):
        result = get_experiment("fig2").run_domain(smoke)
        assert result.core_counts == [2]
        panel = result.panel(2)
        assert len(panel) == 3  # smoke grid: 0.25, 0.5, 0.75 of M
        for point in panel:
            assert 0.0 <= point.ratio_hydra <= 1.0
            assert 0.0 <= point.ratio_single <= 1.0

    def test_low_utilization_parity(self, smoke):
        result = get_experiment("fig2").run_domain(smoke)
        first = result.panel(2)[0]
        assert first.ratio_hydra == 1.0
        assert first.ratio_single == 1.0
        assert first.improvement == 0.0

    def test_hydra_never_below_singlecore(self, smoke):
        for point in get_experiment("fig2").run_domain(smoke).points:
            assert point.ratio_hydra >= point.ratio_single - 1e-9

    def test_formatting(self, smoke):
        fig2 = get_experiment("fig2")
        text = fig2.render_domain(fig2.run_domain(smoke))
        assert "Fig. 2" in text
        assert "improvement" in text


class TestFig3:
    def test_smoke_run(self, smoke):
        result = get_experiment("fig3").run_domain(smoke)
        assert len(result.points) == 3
        for point in result.points:
            assert point.mean_gap >= 0.0
            assert point.max_gap >= point.mean_gap - 1e-9

    def test_gap_zero_at_low_utilization(self, smoke):
        result = get_experiment("fig3").run_domain(smoke)
        assert result.points[0].mean_gap == pytest.approx(0.0, abs=1e-6)

    def test_exhaustive_and_bnb_agree(self, smoke):
        bnb = Fig3Experiment(search="branch-bound").run_domain(smoke)
        exhaustive = Fig3Experiment(search="exhaustive").run_domain(smoke)
        for a, b in zip(bnb.points, exhaustive.points):
            assert a.mean_gap == pytest.approx(b.mean_gap, abs=1e-6)

    def test_formatting(self, smoke):
        fig3 = get_experiment("fig3")
        text = fig3.render_domain(fig3.run_domain(smoke))
        assert "Fig. 3" in text
        assert "worst observed" in text


def _comparison(name, scale):
    """The one panel of a registered comparison-ablation grid."""
    (panel,) = get_experiment(name).run_domain(scale).panels
    return panel.comparison


class TestAblations:
    def test_solver_ablation(self, smoke):
        solver = get_experiment("ablation-solver")
        result = solver.run_domain(smoke)
        (panel,) = result.panels
        comparison = panel.comparison
        schemes = comparison.schemes()
        assert "hydra|best-fit/utilization/rta" in schemes
        assert "hydra[exact-rta]|best-fit/utilization/rta" in schemes
        # Exact RTA accepts at least as much at every point.
        for cell_closed, cell_exact in zip(
            comparison.series("hydra|best-fit/utilization/rta"),
            comparison.series("hydra[exact-rta]|best-fit/utilization/rta"),
        ):
            assert cell_exact.acceptance >= cell_closed.acceptance - 1e-9
        text = solver.render_domain(result)
        assert "acceptance" in text

    def test_core_choice_ablation(self, smoke):
        comparison = _comparison("ablation-core-choice", smoke)
        assert "first-feasible|best-fit/utilization/rta" in (
            comparison.schemes()
        )
        for cell_hydra, cell_first in zip(
            comparison.series("hydra|best-fit/utilization/rta"),
            comparison.series("first-feasible|best-fit/utilization/rta"),
        ):
            if cell_hydra.acceptance == cell_first.acceptance == 1.0:
                assert cell_hydra.mean_tightness >= (
                    cell_first.mean_tightness - 1e-9
                )

    def test_partitioning_ablation(self, smoke):
        comparison = _comparison("ablation-partitioning", smoke)
        assert set(comparison.schemes()) == {
            "best-fit/utilization/rta",
            "worst-fit/utilization/rta",
            "first-fit/utilization/rta",
        }
        # Same utilisation grid for every heuristic.
        per_scheme = {
            s: [c.utilization for c in comparison.series(s)]
            for s in comparison.schemes()
        }
        grids = list(per_scheme.values())
        assert all(g == grids[0] for g in grids)

    def test_four_core_grids_share_their_common_cell(self, smoke):
        """Core-choice's HYDRA cell and partitioning's best-fit cell are
        one grid cell — same seed, same task sets — so they agree."""

        def cell_values(comparison, scheme):
            return [
                (c.utilization, c.acceptance, c.mean_tightness)
                for c in comparison.series(scheme)
            ]

        core_choice = _comparison("ablation-core-choice", smoke)
        partitioning = _comparison("ablation-partitioning", smoke)
        shared = cell_values(core_choice, "hydra|best-fit/utilization/rta")
        assert shared
        assert shared == cell_values(
            partitioning, "best-fit/utilization/rta"
        )

    def test_render_rejects_a_v1_grid_ablation_result(self):
        """Version 1 stored an allocator comparison keyed by bare
        allocator names; the grid result is a scenario panel list."""
        stale = ExperimentResult(
            experiment="ablation-solver",
            scale="smoke",
            spec_hash="0" * 64,
            columns=("utilization", "scheme", "acceptance", "mean_tightness"),
            rows=((0.5, "hydra", 1.0, 1.0),),
            data={
                "cores": 2,
                "tasksets_per_point": 6,
                "cells": [
                    {
                        "scheme": "hydra",
                        "utilization": 0.5,
                        "acceptance": 1.0,
                        "mean_tightness": 1.0,
                    }
                ],
            },
            version=1,
        )
        with pytest.raises(ValidationError, match="schema v1"):
            get_experiment("ablation-solver").render(stale)

    def test_search_ablation_full_agreement(self, smoke):
        result = search_ablation(smoke)
        assert result.systems > 0
        assert result.agreements == result.systems
        assert result.bnb_lp_solves <= result.exhaustive_lp_solves
        assert "solve reduction" in format_search_ablation(result)

    def test_extension_ablation(self, smoke):
        cells = extension_ablation(smoke)
        modes = [c.mode for c in cells]
        assert modes == [
            "partitioned", "global", "non-preemptive", "precedence",
            "non-preemptive+aware",
        ]
        for cell in cells:
            assert not math.isinf(cell.mean_detection)
        by_mode = {c.mode: c for c in cells}
        # Partitioned preemptive security never misses RT deadlines.
        assert by_mode["partitioned"].missed_deadlines == 0
        # Naive non-preemptive execution blocks RT tasks...
        assert by_mode["non-preemptive"].missed_deadlines > 0
        # ...and the blocking-aware allocator repairs exactly that.
        assert by_mode["non-preemptive+aware"].missed_deadlines == 0
        assert "extensions" in format_extension_ablation(cells)
