"""In-memory span recorder wrapped around the program's public calls.

``launch.py`` installs it inside a program process when the benchmark
runs with ``--trace 1``.  Every wrapped call records one span — layer,
operation, start, end, parent span, thread, and a small note taken from
its result — into a list that is written out once, when the process
ends.  Nothing is written while the program runs.

Wrappers go where the program looks the callables up: a function is
replaced in every ``repro`` module attribute (and module-level registry
dict) that holds it, so ``from X import f`` copies and identity checks
such as ``test is rta_test`` see the same wrapper; a method is replaced
on the base class and on every subclass that overrides it.  Every
``repro`` module is imported first, so no module imported later can hold
an unwrapped copy or define an unwrapped subclass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable

Note = Callable[[Any, tuple, dict], Any]


class Recorder:
    """Spans as ``[id, parent, thread, layer, op, start, end, note]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn: Callable, layer: str, op: str,
             note: Note | None = None) -> Callable:
        spans, ids, local = self.spans, self._ids, self._local
        clock, thread = time.monotonic, threading.get_ident

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread, so their spans take no
            # part in the parent chain: they are roots and have no note.
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span, start = next(ids), clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    spans.append(
                        [span, None, thread(), layer, op, start, clock(), None]
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            span = next(ids)
            local.current = span
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                local.current = parent
                spans.append(
                    [span, parent, thread(), layer, op, start, end, "raised"]
                )
                raise
            end = clock()
            local.current = parent
            spans.append([
                span, parent, thread(), layer, op, start, end,
                note(result, args, kwargs) if note is not None else None,
            ])
            return result

        return traced

    def patch_function(self, module: str, attr: str, layer: str, op: str,
                       note: Note | None = None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(original, layer, op, note)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for item, entry in list(value.items()):
                        if entry is original:
                            value[item] = wrapper

    def patch_method(self, base: type, name: str, layer: str, op: str,
                     note: Note | None = None) -> None:
        for cls in _subclasses(base):
            original = cls.__dict__.get(name)
            if not callable(original) or getattr(
                original, "__isabstractmethod__", False
            ):
                continue
            setattr(cls, name, self.wrap(original, layer, op, note))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _subclasses(base: type) -> list[type]:
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        if cls not in found:
            found.append(cls)
            stack.extend(cls.__subclasses__())
    return found


def _found(result, args, kwargs) -> bool:
    return result is not None


def _schedulable(result, args, kwargs) -> bool:
    return bool(result.schedulable)


def _sim_jobs(result, args, kwargs) -> int:
    return len(result.jobs)


def _hits(result, args, kwargs) -> list[int]:
    hits = sum(1 for entry in result if entry is not None)
    return [hits, len(result) - hits]


def _points(result, args, kwargs) -> int:
    return len(result)


def _job(result, args, kwargs) -> list[Any]:
    started = result.started if result.started is not None else result.created
    return [result.state, started - result.created]


def _request(result, args, kwargs) -> list[Any]:
    method, path = args[1], args[2]
    return [method, path, result[0]]


def install() -> Recorder:
    """Import every program module and wrap every traced call site."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    from repro.core.allocator import Allocator
    from repro.executors.api import Executor
    from repro.experiments.api import Experiment, ExperimentResult
    from repro.experiments.parallel import SweepEngine
    from repro.experiments.store import ResultStore
    from repro.jobs import JobRunner
    from repro.server import JobServiceApp
    from repro.sim.detection import DetectionIndex
    from repro.workloads.api import WorkloadGenerator

    rec = Recorder()
    fn, method = rec.patch_function, rec.patch_method
    fn("repro.cli", "build_parser", "cli", "build_parser")
    fn("repro.taskgen.synthetic", "generate_workload", "taskgen", "generate")
    method(WorkloadGenerator, "generate_batch", "taskgen", "generate")
    fn("repro.partition.heuristics", "try_partition_tasks", "partition",
       "partition", _found)
    fn("repro.core.singlecore", "build_singlecore_system", "partition",
       "partition", _found)
    fn("repro.analysis.schedulability", "rta_test", "analysis", "rta_test")
    fn("repro.analysis.rta", "response_times_batch", "analysis", "rta_batch")
    method(Allocator, "allocate", "allocators", "allocate", _schedulable)
    fn("repro.sim.runner", "simulate_allocation", "sim", "simulate",
       _sim_jobs)
    method(DetectionIndex, "__init__", "sim.detection", "index_build")
    method(DetectionIndex, "detection_time", "sim.detection", "query")
    fn("repro.sim.detection", "undetected_breakdown", "sim.detection",
       "breakdown")
    method(ResultStore, "__init__", "store", "open")
    method(ResultStore, "get_many", "store", "get", _hits)
    method(ResultStore, "put_many", "store", "put")
    method(Executor, "run_points", "executors", "run_points", _points)
    method(SweepEngine, "run", "experiments", "engine")
    method(Experiment, "aggregate", "experiments", "aggregate")
    method(Experiment, "render", "experiments", "encode")
    method(ExperimentResult, "to_dict", "experiments", "encode")
    method(ExperimentResult, "to_json", "experiments", "encode")
    for name in ("submit", "run", "run_experiment"):
        method(JobRunner, name, "jobs", "submit", _job)
    method(JobRunner, "result", "jobs", "result")
    method(JobServiceApp, "handle", "server", "handle", _request)
    fn("repro.server.http", "render_response", "server", "render")
    fn("repro.server.http", "handle_connection", "server.http", "connection")
    return rec
