"""Bench: the ablation harness's two hot paths.

* **run-set generation** — expanding an ablation config into the
  baseline plus every swap-one variant and deriving each run's
  content-addressed id (spec-hash over canonical JSON).  This is pure
  config arithmetic + hashing and runs on every ``repro ablate``
  invocation and every ``aggregate_domain`` call, so it must stay
  cheap;
* **cached re-scoring** — a warm rerun of a whole study: every sweep
  point served from the sharded store, then importance scoring and
  ranking on top.  This is the interactive loop ("tweak the axes,
  re-rank") and must stay store-read-dominated.
"""

from __future__ import annotations

from repro.ablate import AblationExperiment, parse_ablation, run_id, run_set
from repro.experiments.parallel import SweepEngine
from repro.experiments.store import ResultStore

#: The full five-axis study over the paper's design point.
_FULL_DOC = {
    "ablation": {"name": "bench"},
    "baseline": {"cores": [2, 4]},
}

#: A two-axis study sized for a repeatable warm-cache rerun.
_RESCORE_DOC = {
    "ablation": {"name": "bench-rescore", "axes": ["ordering", "admission"]},
    "baseline": {"cores": [2]},
}


def test_ablate_runset(benchmark, scale):
    """Pinned: config → run set → content-addressed run ids."""

    def expand():
        config = parse_ablation(_FULL_DOC)
        runs, skipped = run_set(config)
        return runs, skipped, [run_id(r, scale) for r in runs]

    runs, skipped, ids = benchmark(expand)
    assert runs[0].axis is None
    # one variant per non-incumbent component per axis, skips recorded
    # (allocator axis: 16 registered strategies, 1 incumbent)
    assert len(runs) + len(skipped) == 1 + (3 + 2 + 4 + 16 + 7)
    assert len(set(ids)) == len(ids)


def test_ablate_cached_rescore(benchmark, scale, tmp_path):
    """Pinned: warm-cache rerun of a study (store reads + scoring)."""
    experiment = AblationExperiment(parse_ablation(_RESCORE_DOC))
    store = ResultStore(tmp_path / "cache")
    cold = experiment.run(scale, SweepEngine(cache=store))

    def rescore():
        return experiment.run(
            scale, SweepEngine(cache=ResultStore(tmp_path / "cache"))
        )

    warm = benchmark(rescore)
    assert warm == cold  # byte-identical to the cold run
    domain = experiment.decode_data(warm.data)
    assert len(domain.components) == 2 + 4  # orderings + admissions swaps
