"""Command-line entry point: ``repro-hydra`` / ``python -m repro``.

Subcommands are *generated from the experiment registry* — every
registered :class:`~repro.experiments.api.Experiment` (built-in or
plugin) gets its own subcommand, plus three meta commands::

    repro-hydra list                         # what can I run?
    repro-hydra allocators                   # which strategies exist?
    repro-hydra allocators optimal           # describe one strategy
    repro-hydra workloads                    # which workload families?
    repro-hydra workloads uunifast           # describe one family
    repro-hydra executors                    # which execution backends?
    repro-hydra executors subprocess-workers # describe one backend
    repro-hydra table1
    repro-hydra fig2 --scale default --workers 4
    repro-hydra fig3 --scale paper --workers 8 --cache-dir results/cache
    repro-hydra quality --output q.json --format json
    repro-hydra ablations
    repro-hydra all --scale smoke --resume
    repro-hydra sweep --config examples/custom_sweep.toml
    repro-hydra ablate --config examples/ablate.toml

Sweeps run through the :class:`repro.experiments.parallel.SweepEngine`:
``--workers N`` fans utilisation points over N processes (results are
identical to a serial run — every point has its own SeedSequence
stream), ``--executor NAME`` picks the execution backend
(:mod:`repro.executors`; ``subprocess-workers`` runs fault-tolerant
long-lived worker subprocesses, and every backend is byte-identical
to serial), ``--cache-dir DIR`` caches per-point results on disk so
re-runs and extended sweeps only compute missing points, and
``--resume`` is shorthand for caching in ``.repro-cache``.  One
invocation forks at most one worker pool: every selected experiment
runs through one :class:`repro.jobs.JobRunner`, whose ``pool``
executor serves all their sweeps and is closed when the run finishes
(set ``REPRO_LOG=info`` to watch the spawn happen exactly once).
Caches are sharded v2 stores (:mod:`repro.experiments.store`), and::

    repro-hydra cache stats [--cache-dir DIR]
    repro-hydra cache gc    [--cache-dir DIR]

inspects or compacts a store without running anything, and::

    repro-hydra serve [--host H] [--port P] [--cache-dir DIR]

runs the sweep service (:mod:`repro.server`): an HTTP endpoint that
accepts sweep-spec submissions (``POST /jobs``), tracks job lifecycle
and progress, and serves typed results — all through the same
:class:`repro.jobs.JobRunner` the CLI subcommands use, so a sweep
submitted over HTTP and one run with ``repro-hydra sweep`` share the
cache, the execution path, and byte-identical results.

Runtime failures exit with code 1 and a one-line typed message
(``repro-hydra: UnknownAllocatorError: …``) — never a traceback;
usage mistakes keep argparse's exit code 2.

Results are structured: ``--format json`` emits the versioned
:class:`~repro.experiments.api.ExperimentResult` document (readable
back with ``ExperimentResult.from_json``), ``--format csv`` the flat
tabular view, and ``--output FILE`` writes either to a file instead of
stdout.  ``repro-hydra sweep --config spec.toml`` runs a user-defined
scenario grid (allocator × heuristic × ordering × admission × core
count) with no driver code at all — see
:mod:`repro.experiments.scenario`; ``repro-hydra ablate --config
doc.toml`` runs an automated swap-one ablation study over the same
machinery and reports ranked per-component importance scores — see
:mod:`repro.ablate`; ``--allocator NAME`` and
``--workload NAME`` (both repeatable) override the grid's allocator
and workload axes from the command line, and ``repro-hydra
allocators`` / ``repro-hydra workloads`` list/describe every strategy
registered with :mod:`repro.allocators` and every workload family
registered with :mod:`repro.workloads`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro.errors import CacheError, ConfigError, ValidationError
from repro.experiments.config import get_scale
from repro.experiments.registry import (
    experiment_names,
    get_experiment,
    iter_experiments,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.api import Experiment

__all__ = ["main", "build_parser"]

#: Cache directory used by ``--resume`` when ``--cache-dir`` is absent.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Meta commands that are not registry experiments.
_META_COMMANDS = (
    "list", "allocators", "workloads", "executors", "all", "ablations",
    "sweep", "ablate", "cache", "serve",
)

_FORMATS = ("text", "json", "csv")


class _Listing(NamedTuple):
    """One registry listing command: where its table lives, its words."""

    registry: str  # module binding the command's Registry as REGISTRY
    flag: str  # the run flag that takes one of its names
    title: str  # heading of the listing table
    help: str  # argparse help and description of the subcommand
    description: str
    name_help: str  # help of its optional NAME argument


#: Listing command → its registry; one list/describe body
#: (:func:`_run_listing`) serves them all.
_LISTINGS = {
    "allocators": _Listing(
        registry="repro.allocators.registry",
        flag="--allocator",
        title=(
            "Registered allocators (sweep with a TOML 'allocator' "
            "axis or --allocator NAME)"
        ),
        help="list or describe the registered allocation strategies",
        description=(
            "Without NAME: one line per registered allocator (what a "
            "TOML grid's 'allocator' axis and --allocator accept). "
            "With NAME: the full description of one strategy."
        ),
        name_help="describe this allocator instead of listing all of them",
    ),
    "workloads": _Listing(
        registry="repro.workloads.registry",
        flag="--workload",
        title=(
            "Registered workload families (sweep with a TOML "
            "'workload' axis or --workload NAME)"
        ),
        help="list or describe the registered workload families",
        description=(
            "Without NAME: one line per registered workload generator "
            "(what a TOML grid's 'workload' axis and --workload "
            "accept). With NAME: the full description of one family."
        ),
        name_help="describe this workload family instead of listing all",
    ),
    "executors": _Listing(
        registry="repro.executors.registry",
        flag="--executor",
        title=(
            "Registered execution backends (run sweeps with "
            "--executor NAME; results are identical for every backend)"
        ),
        help="list or describe the registered execution backends",
        description=(
            "Without NAME: one line per registered execution backend "
            "(what --executor and job submissions accept). With NAME: "
            "the full description of one backend.  Backends are "
            "payload-identical by contract: picking one never changes "
            "a result byte."
        ),
        name_help="describe this execution backend instead of listing all",
    ),
}


def _int_in(
    minimum: int, what: str, maximum: int | None = None
) -> Callable[[str], int]:
    """Argparse type for an integer in ``[minimum, maximum]``: anything
    else is a usage error at parse time, before anything runs."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {value!r}"
            ) from None
        if number < minimum or (maximum is not None and number > maximum):
            raise argparse.ArgumentTypeError(
                f"must be a {what}, got {number}"
            )
        return number

    return parse


#: ``--workers``: a worker *count* must be at least 1.
_positive_int = _int_in(1, "positive worker count")
#: ``--seed``: numpy's SeedSequence takes no negative entropy.
_seed = _int_in(0, "non-negative seed")
#: ``--port``: what a socket can bind (0 asks the OS for a free port).
_port = _int_in(0, "port in 0-65535", maximum=65535)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by every experiment-running subcommand."""
    parser.add_argument(
        "--scale",
        default=None,
        choices=("smoke", "default", "paper"),
        help="experiment scale (default: $REPRO_SCALE or 'default')",
    )
    parser.add_argument(
        "--seed",
        type=_seed,
        default=None,
        help="override the base RNG seed",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "fan sweep points out over N worker processes, N >= 1 "
            "(default: serial; results are identical for any worker "
            "count)"
        ),
    )
    parser.add_argument(
        "--executor",
        metavar="NAME",
        default=None,
        help=(
            "execution backend for sweep points — 'serial', 'pool', "
            "'subprocess-workers', or any plugin (see 'repro-hydra "
            "executors'); results are byte-identical for every backend "
            "(default: serial, or 'pool' with --workers)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "cache per-point sweep results in DIR; re-runs and extended "
            "sweeps only compute points missing from the cache"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from (and keep feeding) the default cache directory "
            f"'{DEFAULT_CACHE_DIR}' when --cache-dir is not given"
        ),
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=_FORMATS,
        help=(
            "output format: 'text' renders the report tables, 'json' the "
            "versioned ExperimentResult document, 'csv' the flat tabular "
            "view (default: text)"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the output to FILE instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-hydra`` parser; one subcommand per registered
    experiment, generated from the registry."""
    parser = argparse.ArgumentParser(
        prog="repro-hydra",
        description=(
            "Regenerate the tables and figures of 'A Design-Space "
            "Exploration for Allocating Security Tasks in Multicore "
            "Real-Time Systems' (DATE 2018) — plus ablations and "
            "user-defined scenario sweeps."
        ),
        epilog="run 'repro-hydra list' to see every experiment",
    )
    subparsers = parser.add_subparsers(
        dest="experiment",
        metavar="experiment",
        required=True,
        help="experiment (from the registry) or meta command",
    )

    list_parser = subparsers.add_parser(
        "list",
        help="list every registered experiment",
        description="List every registered experiment, in report order.",
    )
    list_parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=("text", "json"),
        help="'text' for a table, 'json' for machine-readable specs",
    )
    list_parser.add_argument(
        "--tag",
        default=None,
        metavar="TAG",
        help=(
            "only list experiments carrying this spec tag (e.g. "
            "'paper', 'ablation')"
        ),
    )

    for command, listing in _LISTINGS.items():
        sub = subparsers.add_parser(
            command, help=listing.help, description=listing.description
        )
        sub.add_argument(
            "name",
            nargs="?",
            default=None,
            metavar="NAME",
            help=listing.name_help,
        )
        sub.add_argument(
            "--format",
            dest="output_format",
            default="text",
            choices=("text", "json"),
            help="'text' for a table, 'json' for machine-readable specs",
        )

    for experiment in iter_experiments():
        spec = experiment.spec()
        sub = subparsers.add_parser(
            spec.name,
            help=spec.title,
            description=spec.description or spec.title,
        )
        _add_run_options(sub)

    for name, help_text in (
        ("ablations", "run every ablation experiment"),
        ("all", "run every registered experiment"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_run_options(sub)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a user-defined scenario sweep from a TOML config",
        description=(
            "Run a TOML-defined design-space sweep (placement heuristic "
            "× task ordering × admission test × core count) through the "
            "parallel/cached engine — no driver code needed."
        ),
    )
    sweep.add_argument(
        "--config",
        metavar="FILE",
        required=True,
        help="scenario TOML file (see examples/custom_sweep.toml)",
    )
    sweep.add_argument(
        "--allocator",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "sweep this allocation strategy (repeatable); overrides the "
            "config's 'allocator' axis — see 'repro-hydra allocators' "
            "for what is registered"
        ),
    )
    sweep.add_argument(
        "--workload",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "generate task sets with this workload family (repeatable); "
            "overrides the config's 'workload' axis — see 'repro-hydra "
            "workloads' for what is registered"
        ),
    )
    _add_run_options(sweep)

    ablate = subparsers.add_parser(
        "ablate",
        help="run an automated ablation / component-importance study",
        description=(
            "Run a swap-one ablation study from a TOML config: the "
            "baseline design point plus one variant per registered "
            "component on every ablated axis, executed through the "
            "parallel/cached engine, scored and ranked by component "
            "importance (harmful components flagged explicitly)."
        ),
    )
    ablate.add_argument(
        "--config",
        metavar="FILE",
        required=True,
        help="ablation TOML file (see examples/ablate.toml)",
    )
    ablate.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="AXIS",
        choices=("heuristic", "ordering", "admission", "allocator",
                 "workload"),
        help=(
            "ablate only this axis (repeatable); overrides the "
            "config's 'axes' list"
        ),
    )
    _add_run_options(ablate)

    cache = subparsers.add_parser(
        "cache",
        help="inspect or compact an on-disk result store",
        description=(
            "Maintain a sweep result store: 'stats' reports shards, "
            "entry counts and bytes (without mutating anything), "
            "'gc' compacts shards by dropping superseded and torn "
            "records and merges per-writer segments."
        ),
    )
    cache.add_argument(
        "action",
        choices=("stats", "gc"),
        help="what to do with the store",
    )
    cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"store root (default: '{DEFAULT_CACHE_DIR}')",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve sweep jobs over HTTP (stdlib asyncio, no deps)",
        description=(
            "Run the sweep service: POST /jobs submits a sweep spec "
            "(the TOML-grid schema as JSON, or an experiment name), "
            "GET /jobs/{id} polls lifecycle and progress, GET "
            "/jobs/{id}/result fetches the typed ExperimentResult, "
            "DELETE /jobs/{id} cancels cooperatively.  Duplicate "
            "submissions map to the same job id, and a warm cache "
            "completes them without recomputation."
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=_port,
        default=8177,
        help="bind port, 0-65535 (default: 8177)",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=(
            f"content-addressed store for job results (default: "
            f"'{DEFAULT_CACHE_DIR}'); shared with the sweep/experiment "
            f"subcommands, so served jobs and CLI runs reuse each "
            f"other's points"
        ),
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes per job, N >= 1 (default: serial)",
    )
    serve.add_argument(
        "--executor",
        metavar="NAME",
        default=None,
        help=(
            "default execution backend for served jobs (see "
            "'repro-hydra executors'); submissions may still name "
            "their own via an 'executor' key"
        ),
    )

    return parser


def _typed_error(exc: BaseException) -> None:
    """Report a runtime failure as one typed line on stderr and exit 1.

    ``repro-hydra: UnknownAllocatorError: unknown allocator …`` — the
    class name is the machine-greppable category, the message stays
    the library's own wording, and there is never a traceback.  Usage
    mistakes (bad flags) stay with argparse's ``parser.error`` and
    exit code 2; this path is for errors that only surface once the
    arguments were well-formed.
    """
    message = " ".join(str(exc).split())
    print(
        f"repro-hydra: {type(exc).__name__}: {message}", file=sys.stderr
    )
    raise SystemExit(1)


def _build_runner(args):
    from repro.jobs import JobRunner

    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    executor = getattr(args, "executor", None)
    if executor is not None:
        from repro.executors import get_executor_info

        get_executor_info(executor)  # typed error before anything runs
    return JobRunner(
        cache_dir=cache_dir, workers=args.workers, executor=executor
    )


def _selected_experiments(args) -> list["Experiment"]:
    if args.experiment == "all":
        return list(iter_experiments())
    if args.experiment == "ablations":
        # The registry-level tag filter (same path as `list --tag`).
        return list(iter_experiments(tag="ablation"))
    if args.experiment == "ablate":
        from repro.ablate import AblationExperiment, load_ablation

        config = load_ablation(args.config)
        if args.axis:
            config = config.with_axes(args.axis)
        return [AblationExperiment(config)]
    if args.experiment == "sweep":
        from repro.experiments.scenario import (
            build_scenario_experiment,
            load_scenario,
        )

        config = load_scenario(args.config)
        if args.allocator:
            config = config.with_allocators(args.allocator)
        if args.workload:
            config = config.with_workloads(args.workload)
        return [build_scenario_experiment(config)]
    return [get_experiment(args.experiment)]


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
        return
    target = Path(output)
    try:
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:  # a directory, an uncreatable parent, …
        _typed_error(exc)


def _one_line(text: str, limit: int = 72) -> str:
    """First line of ``text``, ellipsised to ``limit`` characters."""
    line = text.strip().splitlines()[0] if text.strip() else ""
    if len(line) > limit:
        return line[: limit - 1].rstrip() + "…"
    return line


def _run_list(args) -> int:
    from repro.experiments.reporting import format_table

    specs = [e.spec() for e in iter_experiments(tag=args.tag)]
    if args.output_format == "json":
        print(json.dumps([s.to_dict() for s in specs], indent=2))
        return 0
    title = "Registered experiments (run with 'repro-hydra <name>')"
    if args.tag is not None:
        title = (
            f"Registered experiments tagged {args.tag!r} "
            f"(run with 'repro-hydra <name>')"
        )
    print(
        format_table(
            ["name", "description", "tags"],
            [
                (s.name, _one_line(s.description or s.title), ",".join(s.tags))
                for s in specs
            ],
            title=title,
        )
    )
    print(
        "\nmeta commands: allocators, workloads, executors, "
        "ablations, all, "
        "sweep --config FILE (TOML scenario grid), "
        "ablate --config FILE (ablation study)"
    )
    return 0


def _run_listing(args) -> int:
    """The list/describe body of every registry listing command (same
    UX, different registry — see :data:`_LISTINGS`)."""
    from importlib import import_module

    from repro.experiments.reporting import format_table

    listing = _LISTINGS[args.experiment]
    registry = import_module(listing.registry).REGISTRY
    if args.name is not None:
        info = registry.info(args.name)  # typed error when unknown
        if args.output_format == "json":
            print(json.dumps(info.to_dict(), indent=2))
            return 0
        print(f"{info.name} — {info.title}")
        if info.tags:
            print(f"tags: {', '.join(info.tags)}")
        if info.description:
            print(f"\n{info.description}")
        print(
            f"\nsweep it: repro-hydra sweep --config FILE "
            f"{listing.flag} {info.name}"
        )
        return 0

    infos = list(registry.entries())
    if args.output_format == "json":
        print(json.dumps([i.to_dict() for i in infos], indent=2))
        return 0
    print(
        format_table(
            ["name", "title", "tags"],
            [(i.name, _one_line(i.title), ",".join(i.tags)) for i in infos],
            title=listing.title,
        )
    )
    print(f"\ndescribe one: repro-hydra {args.experiment} NAME")
    return 0


def _run_cache(args) -> int:
    from repro.experiments.store import ResultStore

    directory = args.cache_dir
    if args.action == "stats":
        # Genuinely read-only: no root creation, no marker, no
        # index-rebuild persisting — a typoed directory reads as empty
        # instead of being silently created.
        stats = ResultStore(directory, readonly=True).stats()
        print(
            f"store {stats['directory']} (v{stats['format']}): "
            f"{stats['entries']} entries, {stats['data_bytes']} data bytes, "
            f"{len(stats['shards'])} shard(s)"
        )
        for kind, shard in sorted(stats["shards"].items()):
            print(
                f"  {kind:<24} {shard['entries']:>8} entries "
                f"{shard['data_bytes']:>12} bytes"
            )
            for writer, seg in sorted(shard.get("segments", {}).items()):
                print(
                    f"    writer {writer:<17} {seg['entries']:>8} entries "
                    f"{seg['data_bytes']:>12} bytes"
                )
        if stats["segment_files"]:
            print(
                f"  {stats['segment_files']} writer segment file(s), "
                f"{stats['segment_bytes']} bytes — run 'repro-hydra "
                f"cache gc' to merge them into the primary log"
            )
        return 0
    # gc refuses to conjure a store out of thin air — a typoed
    # --cache-dir must error, not report success on a fresh empty
    # directory (stats above is read-only and needs no guard).
    if not Path(directory).is_dir():
        raise ValidationError(
            f"no cache directory at {directory!r}; nothing to "
            f"{args.action}"
        )
    summary = ResultStore(directory).gc()
    if summary["merged_segments"]:
        print(
            f"gc {directory}: merged {summary['merged_segments']} "
            f"writer segment(s) ({summary['merged_entries']} "
            f"entr{'y' if summary['merged_entries'] == 1 else 'ies'}) "
            f"into the primary log"
        )
    print(
        f"gc {directory}: {summary['entries']} live entries across "
        f"{len(summary['shards'])} shard(s), "
        f"{summary['reclaimed_bytes']} bytes reclaimed"
    )
    return 0


def _run_serve(args) -> int:
    import os

    from repro.jobs import JobRunner
    from repro.server import JobServiceApp, run_server

    if args.executor is not None:
        from repro.executors import get_executor_info

        get_executor_info(args.executor)  # typed error before binding
    # The service routinely shares its cache with CLI runs, so it
    # appends to a pid-suffixed writer segment instead of the primary
    # log — two live writers can never interleave ('cache gc' merges).
    runner = JobRunner(
        cache_dir=args.cache_dir,
        workers=args.workers,
        executor=args.executor,
        store_writer=f"serve{os.getpid()}",
    )
    app = JobServiceApp(runner)
    print(
        f"repro-hydra serve: listening on {args.host}:{args.port} "
        f"(cache: {args.cache_dir}; ^C stops)",
        file=sys.stderr,
    )
    try:
        run_server(app, host=args.host, port=args.port)
    except KeyboardInterrupt:
        pass
    finally:
        runner.close()
    return 0


def _configure_logging() -> None:
    """Honour ``REPRO_LOG`` (e.g. ``info``, ``debug``): the pool
    executor logs its spawns at INFO, so ``REPRO_LOG=info`` makes
    reuse observable on stderr without touching normal output."""
    import os

    level_name = os.environ.get("REPRO_LOG")
    if not level_name:
        return
    # Only now: a serial run imports nothing else that logs, so
    # without REPRO_LOG it need not load the logging package at all.
    import logging

    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        return
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(name)s: %(message)s",
    )


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _configure_logging()

    # Registry lookup with a helpful error: an unknown command token —
    # e.g. a plugin experiment that was never imported, or a typo —
    # should point at 'repro-hydra list' instead of dumping usage.
    # Only the leading token counts as the command; anything after a
    # flag is that flag's value and argparse handles it.
    known = set(experiment_names()) | set(_META_COMMANDS)
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command is not None and command not in known:
        print(
            f"repro-hydra: unknown experiment {command!r}; run "
            f"'repro-hydra list' to see what is registered",
            file=sys.stderr,
        )
        return 2

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        return _run_list(args)
    if args.experiment in _LISTINGS:
        try:
            return _run_listing(args)
        except ConfigError as exc:
            _typed_error(exc)
    if args.experiment == "cache":
        try:
            return _run_cache(args)
        except (ValidationError, CacheError) as exc:
            _typed_error(exc)
    if args.experiment == "serve":
        try:
            return _run_serve(args)
        except (CacheError, ConfigError, OSError) as exc:
            # OSError covers bind failures (port already in use,
            # privileged port), ConfigError an unknown --executor:
            # one typed line, never a traceback.
            _typed_error(exc)

    scale = get_scale(args.scale)
    if args.seed is not None:
        scale = scale.with_overrides(seed=args.seed)
    try:
        runner = _build_runner(args)
    except (CacheError, ConfigError) as exc:
        # An unusable --cache-dir or unknown --executor fails fast,
        # before any point computes.
        _typed_error(exc)

    try:
        experiments = _selected_experiments(args)
    except (ValidationError, ConfigError) as exc:
        _typed_error(exc)

    fmt = args.output_format
    if fmt == "csv" and len(experiments) != 1:
        parser.error(
            f"--format csv needs a single experiment (got "
            f"{len(experiments)})"
        )

    results = []
    try:
        # Every experiment runs as a job through one JobRunner — the
        # exact path the sweep service serves — so each gets an
        # idempotent job id, shares the content-addressed store, and
        # shares the runner's worker pool, spawned at the first
        # parallel batch (one fork for the whole invocation, ended by
        # runner.close()).
        for experiment in experiments:
            job = runner.run_experiment(experiment, scale)
            results.append((experiment, job.result))
    except (ValidationError, ConfigError, CacheError) as exc:
        # Config-level mistakes (e.g. a scenario utilisation range that
        # only becomes resolvable against the scale) surface as clean
        # typed one-liners, not tracebacks.
        _typed_error(exc)
    finally:
        runner.close()

    if fmt == "json":
        if len(results) == 1:
            text = results[0][1].to_json()
        else:
            text = json.dumps(
                [result.to_dict() for _, result in results],
                indent=2,
                sort_keys=True,
            )
        _emit(text, args.output)
    elif fmt == "csv":
        _emit(results[0][1].to_csv(), args.output)
    else:
        sections = [
            experiment.render(result) for experiment, result in results
        ]
        _emit(("\n\n" + "=" * 78 + "\n\n").join(sections), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
