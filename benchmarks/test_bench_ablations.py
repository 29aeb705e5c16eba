"""Bench: the DESIGN §7 ablations (beyond the paper's figures).

* period-solver ablation — how much acceptance the GP-compatible
  linearisation gives up vs exact RTA, and what joint-LP refinement
  recovers;
* core-choice ablation — HYDRA's argmax-tightness rule vs cheaper rules;
* search ablation — branch-and-bound vs exhaustive enumeration;
* partitioning ablation — best/worst/first-fit real-time placement;
* extension ablation — §V variants in the simulator.

The solver, core-choice and partitioning ablations are registered
scenario grids: each result holds one panel whose cells carry full
combo labels (``allocator|heuristic/ordering/admission``).
"""

from __future__ import annotations

from repro.experiments.ablations import (
    extension_ablation,
    format_extension_ablation,
    format_search_ablation,
    search_ablation,
)
from repro.experiments.registry import get_experiment


#: The paper's real-time design point, as a combo-label suffix.
_PAPER_POINT = "best-fit/utilization/rta"


def _run_grid(benchmark, name, scale):
    """Run one registered grid ablation once; print it; return its one
    panel's comparison."""
    experiment = get_experiment(name)
    result = benchmark.pedantic(
        experiment.run_domain, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(experiment.render_domain(result))
    (panel,) = result.panels
    return panel.comparison


def test_solver_ablation(benchmark, scale):
    comparison = _run_grid(benchmark, "ablation-solver", scale)

    closed = comparison.series(f"hydra|{_PAPER_POINT}")
    exact = comparison.series(f"hydra[exact-rta]|{_PAPER_POINT}")
    refined = comparison.series(f"hydra+lp|{_PAPER_POINT}")
    for c, e, r in zip(closed, exact, refined):
        # Exact RTA is strictly more permissive than the linear bound.
        assert e.acceptance >= c.acceptance - 1e-9
        # LP refinement keeps the assignment, so acceptance matches.
        assert r.acceptance == c.acceptance
        # Refinement can only improve mean tightness.
        if c.acceptance > 0:
            assert r.mean_tightness >= c.mean_tightness - 1e-9


def test_core_choice_ablation(benchmark, scale):
    comparison = _run_grid(benchmark, "ablation-core-choice", scale)

    hydra = comparison.series(f"hydra|{_PAPER_POINT}")
    first = comparison.series(f"first-feasible|{_PAPER_POINT}")
    assert hydra and first
    # Where both schedule everything, HYDRA's rule yields tighter
    # monitoring than blindly taking the first feasible core.
    saturated = [
        (h, f)
        for h, f in zip(hydra, first)
        if h.acceptance == 1.0 and f.acceptance == 1.0
    ]
    assert saturated
    assert all(
        h.mean_tightness >= f.mean_tightness - 1e-9 for h, f in saturated
    )


def test_search_ablation(benchmark, scale):
    result = benchmark.pedantic(
        search_ablation, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(format_search_ablation(result))

    assert result.systems > 0
    # Branch and bound returns identical optima with fewer LP solves.
    assert result.agreements == result.systems
    assert result.bnb_lp_solves <= result.exhaustive_lp_solves


def test_partitioning_ablation(benchmark, scale):
    comparison = _run_grid(benchmark, "ablation-partitioning", scale)

    schemes = comparison.schemes()
    assert set(schemes) == {
        "best-fit/utilization/rta",
        "worst-fit/utilization/rta",
        "first-fit/utilization/rta",
    }
    # At low utilisation the heuristic is irrelevant: everything fits
    # at the desired periods regardless of packing.
    first_util = comparison.cells[0].utilization
    low_cells = [
        c for c in comparison.cells if c.utilization == first_util
    ]
    assert all(c.acceptance == 1.0 for c in low_cells)
    assert all(c.mean_tightness >= 0.99 for c in low_cells)


def test_extension_ablation(benchmark, scale):
    cells = benchmark.pedantic(
        extension_ablation, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(format_extension_ablation(cells))

    by_mode = {c.mode: c for c in cells}
    # The paper's partitioned preemptive design never harms RT tasks.
    assert by_mode["partitioned"].missed_deadlines == 0
    assert by_mode["global"].missed_deadlines == 0
    # Global migration (paper §V) detects no slower on average.
    assert by_mode["global"].mean_detection <= (
        by_mode["partitioned"].mean_detection * 1.05
    )
