#!/usr/bin/env python
"""Reach audit: which functions in ``src/repro`` does no production path call?

Runs every production entry point at smoke scale inside this
interpreter under a :func:`sys.setprofile` hook (stdlib only), then
prints each function defined under ``src/repro`` whose code never ran::

    PYTHONPATH=src python tools/reach_audit.py [--check]

The entry points are:

* every registered experiment in ``json``, ``csv`` and ``text``, each
  on a cold and then a warm store;
* ``ablations``; ``fig2 --workers 2 --seed``; a sweep with
  ``--executor serial`` and one with ``--executor subprocess-workers``;
  two commands that fail with a typed error;
* ``sweep`` on every ``examples/*.toml`` scenario, plus a one-point
  sweep with ``--allocator 'hydra[gp]'``, the same with
  ``--allocator binpack-worst-fit --allocator binpack-next-fit``, and
  one ``--workload`` override;
* ``ablate`` on every ``examples/*.toml`` ablation document, also
  with ``--axis``;
* ``cache stats`` and ``cache gc`` on the populated store, and ``cache
  gc`` again once its index files are lost and one shard holds only a
  torn record, as after crashes;
* ``list`` and the three listing commands (``allocators``,
  ``workloads``, ``executors``), listing and describing every
  registered name, in text and json;
* one job through an in-process :class:`repro.server.JobServiceApp`
  (every route, a 404 and a 400 included) and one through
  :meth:`repro.jobs.JobRunner.run`;
* every ``examples/*.py``.

Forked pool workers, worker subprocesses and the socket server run
outside the traced interpreter, so what runs only there shows up as
unreached.  Such a function, and every other one that stays unreached
on purpose, is listed in ``tools/reach_allowlist.toml`` with its
reason; ``--check`` exits 1 unless every unreached function is listed
there and every entry names an existing function and gives a valid
reason (:data:`REASONS`).  A function that is neither reached nor
allowed is either deleted or, if tests alone need it, moved under
``tests/``.

About 15–30 s on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import tomllib
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
EXAMPLES = REPO_ROOT / "examples"
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.toml"

#: Allowlist reason categories.  A reason reads ``"<category>: <why>"``.
REASONS = {
    "subprocess": "runs only in a worker process or behind the socket",
    "failure-path": "an executor failure path",
    "golden": "golden-fixture tooling",
    "oracle": "an independent oracle; the reason names the path it pins",
    "public-api": "exported by the repro package or a registry module, "
    "or called by CI or the README",
    "abstract": "an abstract or protocol method",
    "calibration": "the calibration runner, run out of process",
}


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    key: str  # "repro.module:Qual.name", "#2" appended to a redefinition
    path: Path
    first: int  # first line, decorators included (``co_firstlineno``)
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def source_functions() -> dict[str, Function]:
    """Every function and method defined under ``src/repro``, by key."""
    functions: dict[str, Function] = {}

    def visit(node: ast.AST, prefix: str, module: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", module, path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                key = f"{module}:{qualname}"
                suffix = 2
                while key in functions:  # e.g. a property's setter
                    key = f"{module}:{qualname}#{suffix}"
                    suffix += 1
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                functions[key] = Function(key, path, first, child.end_lineno)
                visit(child, f"{qualname}.<locals>.", module, path)
            else:
                visit(child, prefix, module, path)

    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, "", _module_name(path), path)
    return functions


# -- the trace --------------------------------------------------------------


class _Recorder:
    """Collect the code object of every Python call, on every thread."""

    def __init__(self) -> None:
        self.codes: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.codes.add(frame.f_code)

    def __enter__(self) -> "_Recorder":
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc_info: object) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def reached(self) -> set[tuple[str, int]]:
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in self.codes
        }


def _cli(*argv: str, code: int = 0) -> str:
    """Run one ``repro-hydra`` command in-process; its stdout.  ``code``
    is the exit status it must end with (1: a typed error)."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
    if status != code:
        raise RuntimeError(
            f"repro-hydra {' '.join(argv)} exited {status}, not {code}: "
            f"{err.getvalue()}"
        )
    return out.getvalue()


def _served_job(cache_dir: Path) -> None:
    """One job through the in-process app, and one through
    ``JobRunner.run`` (the path perfbench's ``detection`` workload
    drives)."""
    from repro.jobs import JobRequest, JobRunner
    from repro.server import JobServiceApp

    with JobRunner(cache_dir=str(cache_dir)) as runner:
        app = JobServiceApp(runner)
        expect = [("GET", "/healthz", None, 200)]
        status, job = app.handle(
            "POST", "/jobs", {"experiment": "fig2", "scale": "smoke"}
        )
        if status not in (200, 202):
            raise RuntimeError(f"POST /jobs answered {status}: {job}")
        if not runner.get(job["id"]).wait(timeout=600):
            raise RuntimeError("the served job did not finish")
        expect += [
            ("GET", f"/jobs/{job['id']}", None, 200),
            ("GET", f"/jobs/{job['id']}/result", None, 200),
            ("GET", "/jobs", None, 200),
            ("DELETE", f"/jobs/{job['id']}", None, 200),
            ("GET", "/jobs/no-such-job", None, 404),
            ("POST", "/jobs", {"experiment": "fig9"}, 400),
        ]
        for method, path, body, expected in expect:
            status, answer = app.handle(method, path, body)
            if status != expected:
                raise RuntimeError(f"{method} {path} answered {status}: {answer}")
        runner.run(JobRequest.from_dict(
            {"experiment": "detection-latency", "scale": "smoke"}
        ))


def _run_example(script: Path) -> None:
    argv = sys.argv
    sys.argv = [str(script)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


#: A one-task-set, one-point scenario for the slow ``hydra[gp]`` override.
_ONE_POINT = """\
[sweep]
name = "one-point"
tasksets_per_point = 1
utilization = { start = 0.5, stop = 0.5, step = 0.25 }

[grid]
cores = [2]
heuristic = ["best-fit"]
ordering = ["utilization"]
admission = ["rta"]
"""


def run_entry_points(workdir: Path) -> None:
    """Drive every production entry point once (see the module docstring)."""
    from repro.experiments.registry import experiment_names

    smoke = ("--scale", "smoke")
    store = str(workdir / "store")

    for name in ("allocators", "workloads", "executors"):
        listing = _cli(name, "--format", "json")
        for fmt in ("text", "json"):
            _cli(name, "--format", fmt)
        for entry in json.loads(listing):
            for fmt in ("text", "json"):
                _cli(name, entry["name"], "--format", fmt)
    for fmt in ("text", "json"):
        _cli("list", "--format", fmt)

    for index, name in enumerate(experiment_names()):
        for fmt in ("json", "csv", "text"):
            cache = str(workdir / f"experiment{index}-{fmt}")
            for _ in ("cold", "warm"):
                _cli(name, *smoke, "--format", fmt, "--cache-dir", cache)

    _cli("ablations", *smoke)
    _cli("fig2", *smoke, "--workers", "2", "--seed", "7")
    custom = str(EXAMPLES / "custom_sweep.toml")
    for executor in ("serial", "subprocess-workers"):
        _cli(
            "sweep", "--config", custom, *smoke,
            "--executor", executor, "--workers", "2",
        )
    _cli("fig2", *smoke, "--executor", "warp-drive", code=1)
    _cli("allocators", "quantum", code=1)

    for config in sorted(EXAMPLES.glob("*.toml")):
        with config.open("rb") as handle:
            command = "ablate" if "ablation" in tomllib.load(handle) else "sweep"
        _cli(command, "--config", str(config), *smoke, "--cache-dir", store)
        if command == "ablate":
            _cli(command, "--config", str(config), *smoke, "--axis", "ordering")
    # hydra[gp] solves a geometric program per probe (~1 s per task set
    # at smoke scale): one task set at one point is enough to reach it.
    # The same point reaches the two bin-packing rules that no example
    # allocates with.
    one_point = workdir / "one_point.toml"
    one_point.write_text(_ONE_POINT)
    _cli("sweep", "--config", str(one_point), *smoke, "--allocator", "hydra[gp]")
    _cli(
        "sweep", "--config", str(one_point), *smoke,
        "--allocator", "binpack-worst-fit", "--allocator", "binpack-next-fit",
    )
    _cli("sweep", "--config", custom, *smoke, "--workload", "uunifast")
    _cli("cache", "stats", "--cache-dir", store)
    _cli("cache", "gc", "--cache-dir", store)
    # Crashes: one between data appends and their index lines (the next
    # open rebuilds the index from the data log), and one that tore a
    # shard's only record (gc removes the shard).
    for index in Path(store).glob("*/index.jsonl"):
        index.unlink()
    torn = Path(store) / "torn" / "data.jsonl"
    torn.parent.mkdir()
    torn.write_text('{"key": ')
    _cli("cache", "gc", "--cache-dir", store)
    if torn.parent.exists():
        raise RuntimeError("cache gc left the torn shard in place")

    _served_job(workdir / "served")

    for script in sorted(EXAMPLES.glob("*.py")):
        _run_example(script)


def trace() -> set[tuple[str, int]]:
    """``(file, first line)`` of every function the entry points call."""
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # examples and --resume write relative paths
        try:
            with _Recorder() as recorder:
                run_entry_points(Path(tmp))
        finally:
            os.chdir(cwd)
    return recorder.reached()


def unreached(
    functions: dict[str, Function], reached: set[tuple[str, int]]
) -> list[Function]:
    return [
        fn for fn in functions.values()
        if (os.path.realpath(fn.path), fn.first) not in reached
    ]


def distinct_lines(functions: list[Function]) -> int:
    """Lines the functions span, a nested function counted once."""
    lines = {
        (fn.path, line)
        for fn in functions
        for line in range(fn.first, fn.last + 1)
    }
    return len(lines)


# -- the allowlist ----------------------------------------------------------


def load_allowlist() -> dict[str, str]:
    with ALLOWLIST.open("rb") as handle:
        return dict(tomllib.load(handle).get("allow", {}))


def allowlist_problems(
    allowlist: dict[str, str], functions: dict[str, Function]
) -> list[str]:
    """Entries that name no function or give no valid reason."""
    problems = []
    for key, reason in allowlist.items():
        if key not in functions:
            problems.append(f"{key}: no such function in src/repro")
        category, _, why = str(reason).partition(":")
        if category not in REASONS or not why.strip():
            problems.append(
                f"{key}: reason {reason!r} is not '<category>: <why>' "
                f"with a category in {sorted(REASONS)}"
            )
        elif category == "oracle" and "pins" not in why:
            problems.append(f"{key}: an oracle entry must name the path it pins")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every unreached function is allowlisted "
        "with a valid reason",
    )
    args = parser.parse_args(argv)

    functions = source_functions()
    missed = unreached(functions, trace())
    allowlist = load_allowlist()
    for fn in missed:
        mark = "allowed" if fn.key in allowlist else "UNREACHED"
        where = f"{fn.path.relative_to(REPO_ROOT)}:{fn.first}"
        print(f"{mark:<9} {fn.key}  ({where}, {fn.lines} lines)")
    print(
        f"reach audit: {len(functions) - len(missed)} of {len(functions)} "
        f"functions in src/repro reached; {len(missed)} unreached "
        f"({distinct_lines(missed)} lines), "
        f"{sum(fn.key in allowlist for fn in missed)} of them allowlisted"
    )
    missed_keys = {fn.key for fn in missed}
    for key in allowlist:
        if key in functions and key not in missed_keys:
            print(f"reach audit: {key} is allowlisted but reached")
    if not args.check:
        return 0

    problems = allowlist_problems(allowlist, functions)
    problems += [
        f"{fn.key}: unreached and not in {ALLOWLIST.name}"
        for fn in missed if fn.key not in allowlist
    ]
    for problem in problems:
        print(f"reach audit: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
