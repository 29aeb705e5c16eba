"""Per-layer metrics from the spans ``tracer.py`` records.

A span is ``[id, parent, thread, layer, op, start, end, note]``.  A
layer's *self time* is the duration of its spans minus the part their
child spans cover (children always run on the parent's thread).  A call
*count* counts a layer's outermost spans only, so a call that re-enters
its own layer (``build_singlecore_system`` → ``try_partition_tasks``,
``BinPackingAllocator.allocate`` → ``super().allocate``) counts once.

``trace.coverage`` is the share of the time the program had work in
flight that some layer's span covers.  A request process has work in
flight from ready to done, and in its single thread the covered share
equals the sum of self times divided by that wall time.  The job service
has work in flight while a connection is open (layer ``server.http``:
coroutines without parents, whose duration includes the ``server`` work
they wait for) or a job runs; with threads, the covered time is the
measure of the union of the layers' span intervals, which does not count
overlapping time twice, and ``server.http`` spans count only towards the
time in flight.  The rest of the service's window, when nothing was in
flight because the client was waiting to poll or preparing its next
request, is ``client.wait_s``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Iterable, Sequence

Span = Sequence[Any]


def _union(intervals: Iterable[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(
    traces: Iterable[tuple[list[Span], float, float]],
    service: bool = False,
    cold_jobs: int = 0,
) -> dict[str, float]:
    """Per-layer metrics over ``(spans, window_start, window_end)``
    triples, one per traced process; spans outside their window (e.g.
    the job service's warm-up job) are ignored.  ``service`` says the
    processes are the job service, idle between requests; ``cold_jobs``
    is the base of ``server.polls_per_job``."""
    calls: Counter = Counter()   # (layer, op) -> spans
    top: Counter = Counter()     # layer -> outermost spans
    top_ok: Counter = Counter()  # layer -> outermost spans noted truthy
    self_s: defaultdict = defaultdict(float)  # (layer, op) -> seconds
    totals: defaultdict = defaultdict(float)  # named sums of notes
    in_flight = covered = waiting = 0.0
    for spans, lo, hi in traces:
        inside = {s[0]: s for s in spans if s[5] >= lo and s[6] <= hi}
        child_time: defaultdict = defaultdict(float)
        for span in inside.values():
            if span[1] in inside:
                child_time[span[1]] += span[6] - span[5]
        for sid, parent, _thread, layer, op, start, end, note in inside.values():
            duration = end - start
            calls[layer, op] += 1
            self_s[layer, op] += duration - child_time[sid]
            outer = parent not in inside or inside[parent][3] != layer
            if outer:
                top[layer] += 1
                if note is True:
                    top_ok[layer] += 1
            if op == "submit" and outer:
                totals["jobs.submitted"] += 1
                if note == "raised" or note[0] in ("failed", "cancelled"):
                    totals["jobs.failed"] += 1
                else:
                    totals["jobs.queue_wait_s"] += note[1]
            elif op == "handle" and note == "raised":
                totals["server.non_2xx"] += 1
            elif note == "raised":
                continue
            elif op == "simulate":
                totals["sim.jobs"] += note
            elif op == "get":
                totals["store.hits"] += note[0]
                totals["store.misses"] += note[1]
            elif op == "run_points":
                totals["executors.points"] += note
                if outer:
                    totals["executors.busy_s"] += duration
            elif op == "handle":
                method, path, status = note
                totals["server.non_2xx"] += not 200 <= status < 300
                parts = path.strip("/").split("/")
                if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
                    totals["server.polls"] += 1
                    totals["server.polls_self_s"] += duration - child_time[sid]
        covered += _union((s[5], s[6]) for s in inside.values()
                          if s[3] != "server.http")
        busy = (_union((s[5], s[6]) for s in inside.values())
                if service else hi - lo)
        in_flight += busy
        waiting += hi - lo - busy

    def layer_self(layer: str) -> float:
        return sum(v for (name, _), v in self_s.items() if name == layer)

    sim_self = self_s["sim", "simulate"]
    server_self = layer_self("server")
    return {
        "cli.self_s": layer_self("cli"),
        "taskgen.calls": top["taskgen"],
        "taskgen.self_s": layer_self("taskgen"),
        "partition.calls": top["partition"],
        "partition.self_s": layer_self("partition"),
        "partition.accept_ratio": _ratio(top_ok["partition"], top["partition"]),
        "analysis.rta_test.calls": calls["analysis", "rta_test"],
        "analysis.rta_batch.calls": calls["analysis", "rta_batch"],
        "analysis.rta_batch.self_s": self_s["analysis", "rta_batch"],
        "analysis.self_s": layer_self("analysis"),
        "allocators.calls": top["allocators"],
        "allocators.self_s": layer_self("allocators"),
        "allocators.schedulable_ratio": _ratio(
            top_ok["allocators"], top["allocators"]
        ),
        "sim.calls": calls["sim", "simulate"],
        "sim.self_s": sim_self,
        "sim.jobs": int(totals["sim.jobs"]),
        "sim.jobs_per_s": _ratio(totals["sim.jobs"], sim_self),
        "sim.detection.index_builds": calls["sim.detection", "index_build"],
        "sim.detection.queries": calls["sim.detection", "query"],
        "sim.detection.self_s": layer_self("sim.detection"),
        "store.get_calls": calls["store", "get"],
        "store.put_calls": calls["store", "put"],
        "store.hits": int(totals["store.hits"]),
        "store.misses": int(totals["store.misses"]),
        "store.self_s": layer_self("store"),
        "executors.calls": top["executors"],
        "executors.points": int(totals["executors.points"]),
        "executors.busy_s": totals["executors.busy_s"],
        "experiments.engine.self_s": self_s["experiments", "engine"],
        "experiments.aggregate.self_s": self_s["experiments", "aggregate"],
        "experiments.encode.self_s": self_s["experiments", "encode"],
        "jobs.submitted": int(totals["jobs.submitted"]),
        "jobs.failed": int(totals["jobs.failed"]),
        "jobs.queue_wait_s": totals["jobs.queue_wait_s"],
        "jobs.result.self_s": self_s["jobs", "result"],
        "jobs.self_s": layer_self("jobs"),
        "server.requests": calls["server", "handle"],
        "server.non_2xx": int(totals["server.non_2xx"]),
        "server.self_s": server_self,
        "server.polls_per_job": _ratio(totals["server.polls"], cold_jobs),
        "server.poll_share": _ratio(totals["server.polls_self_s"],
                                    server_self),
        "client.wait_s": waiting,
        "trace.coverage": _ratio(covered, in_flight),
    }
