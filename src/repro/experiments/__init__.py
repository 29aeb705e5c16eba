"""Experiment drivers regenerating every table and figure of the paper
(plus the DESIGN §7 ablations), unified behind one declarative API.

* :mod:`repro.experiments.api` — the :class:`Experiment` protocol,
  :class:`ExperimentSpec`, and the typed, versioned
  :class:`ExperimentResult` (``to_json``/``from_json``/``to_csv``).
* :mod:`repro.experiments.registry` — the decorator-based experiment
  registry the CLI, golden machinery, and ``repro-hydra list`` consume.
* :mod:`repro.experiments.table1` — the security-task catalogue.
* :mod:`repro.experiments.fig1` — UAV case study detection-time CDFs
  (a fixed detection-latency grid: HYDRA vs SingleCore).
* :mod:`repro.experiments.fig2` — acceptance-ratio improvement sweep
  (a fixed scenario grid: HYDRA vs SingleCore).
* :mod:`repro.experiments.fig3` — HYDRA vs optimal tightness gap.
* :mod:`repro.experiments.quality` — tightness on commonly-accepted sets
  (a view of Fig. 2's 8-core panel).
* :mod:`repro.experiments.ablations` — the solver / core-choice /
  partitioning ablations (registered scenario grids) and the search /
  extension ablations (computed inline).
* :mod:`repro.experiments.scenario` — TOML scenario sweeps (``repro-hydra
  sweep --config``) and the one acceptance-comparison point runner
  behind them, Fig. 2, the quality study and the grid ablations.
* :mod:`repro.experiments.detection` — ``kind = "detection-latency"``
  sweeps and the one detection point runner behind them, Fig. 1 and
  the registered ``detection-latency`` grid.
* :mod:`repro.experiments.config` — ``smoke`` / ``default`` / ``paper``
  scaling presets (env var ``REPRO_SCALE``).
* :mod:`repro.experiments.parallel` — the parallel/cached/resumable
  :class:`SweepEngine` every experiment runs through.
* :mod:`repro.experiments.pool` — the persistent :class:`WorkerPool`
  shared across sweeps (one fork per CLI invocation/pytest session).
* :mod:`repro.experiments.store` — the sharded, append-only
  :class:`ResultStore` (store layout v2, cache key format 3).

Run an experiment with ``get_experiment(name).run(scale, engine)``
(the typed :class:`ExperimentResult`) or ``.run_domain(scale, engine)``
(the driver's domain object, e.g. ``Fig2Result``); ``render_domain``
formats the latter as the report text the CLI prints.
"""

from repro.experiments.ablations import (
    CoreChoiceAblationExperiment,
    ExtensionAblationExperiment,
    PartitioningAblationExperiment,
    SearchAblationExperiment,
    SolverAblationExperiment,
)
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    GoldenFixture,
    RawRun,
)
from repro.experiments.config import SCALES, ExperimentScale, get_scale
from repro.experiments.store import ResultStore
from repro.experiments.fig1 import Fig1Experiment
from repro.experiments.fig2 import Fig2Experiment
from repro.experiments.fig3 import Fig3Experiment
from repro.experiments.parallel import (
    SweepEngine,
    SweepResult,
    SweepSpec,
    SweepStats,
)
from repro.experiments.pool import (
    WorkerPool,
    get_shared_pool,
    shutdown_shared_pool,
)
from repro.experiments.quality import QualityExperiment
from repro.experiments.registry import (
    UnknownExperimentError,
    experiment_names,
    get_experiment,
    iter_experiments,
    register_experiment,
)
from repro.experiments.scenario import (
    ScenarioConfig,
    ScenarioExperiment,
    ScenarioResult,
    load_scenario,
    parse_scenario,
)
from repro.experiments.table1 import Table1Experiment

__all__ = [
    # unified API + registry
    "Experiment",
    "ExperimentSpec",
    "ExperimentResult",
    "RawRun",
    "GoldenFixture",
    "register_experiment",
    "get_experiment",
    "experiment_names",
    "iter_experiments",
    "UnknownExperimentError",
    # scales + engine + pool + store
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "ResultStore",
    "SweepEngine",
    "SweepResult",
    "SweepSpec",
    "SweepStats",
    "WorkerPool",
    "get_shared_pool",
    "shutdown_shared_pool",
    # experiment classes
    "Table1Experiment",
    "Fig1Experiment",
    "Fig2Experiment",
    "Fig3Experiment",
    "QualityExperiment",
    "SolverAblationExperiment",
    "CoreChoiceAblationExperiment",
    "SearchAblationExperiment",
    "ExtensionAblationExperiment",
    "PartitioningAblationExperiment",
    "ScenarioExperiment",
    "ScenarioConfig",
    "ScenarioResult",
    "load_scenario",
    "parse_scenario",
]
