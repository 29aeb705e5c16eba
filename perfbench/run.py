#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the HYDRA reproduction.

Run from anywhere inside a checkout::

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 30 --trace 0

Workloads (``design.json`` records why each exists and which layers
carry its time):

``fig2``
    ``python -m repro fig2 --scale default`` on an empty store, then the
    same command replayed on the warm store: serial, the CLI path.
``detection``
    A ``detection-latency`` grid on the fixed UAV case study (the
    paper's Fig. 1 system on 2 cores: one task set, 1000 attacks, a
    1000 s horizon), submitted as a ``JobRequest`` through
    ``JobRunner.run``, cold then warm.
``served``
    ``python -m repro serve --executor subprocess-workers --workers 2``.
    One closed-loop client submits distinct-seed small scenario grids,
    polls each to ``done`` and fetches its result, and replays each one
    right after it completes.

The program always runs in child processes started through
``launch.py``, each against a fresh store under ``.perfbench/`` in the
checkout.  The benchmark pins itself, and so every process it starts,
to one CPU next to ``probe.py``, and times are scaled to a fixed
reference speed by :meth:`Probe.slowdown`: on a shared host the raw time
of one request drifts by up to ~1.7x with the neighbours' load.  The raw
times print alongside as ``raw_*``.  With ``--trace 0`` the
last stdout line carries every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` it carries every per-layer metric, from a run that
makes the same requests once untraced and once traced
(``trace.overhead`` compares the two).  The
inputs follow from ``--seed`` alone; outputs are checked every run, and
against ``reference.json`` for the default seed 0.  Every run prints an
``environment`` line (commit, source digest, seed, nproc, Python and
numpy versions, scale) and writes it with every sample to
``.perfbench/report-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCHER = BENCH / "launch.py"
PROBE = BENCH / "probe.py"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
from checks import (  # noqa: E402
    Tally,
    check_detection,
    check_fig2,
    check_served,
    load_result,
    match_reference,
    summarize_detection,
    summarize_fig2,
    summarize_served,
)
from layers import summarize  # noqa: E402

#: Benchmark seed 0 maps to the repository's default experiment seed.
SEED_BASE = 2018
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 170.0
#: Status poll interval of the served client.  One poll costs ~0.8 ms of
#: the CPU the server and its workers share (client and server together,
#: measured back to back on an idle server), so polls take ~1.6% of it.
POLL_S = 0.05
#: Worker subprocesses of the served job service.
SERVED_WORKERS = 2
#: Shortest window the probe judges a speed over: 6 of its chunks.  The
#: host's speed phases last 0.5 s or more, and a replay takes 10-40 ms.
MIN_WINDOW_S = 0.3
#: CPU time of one probe chunk at the speed times are scaled to.  It is
#: a unit, a round figure near the chunk's time on a 2-vCPU Xeon host
#: (0.65-1.6 ms seen); only ratios between runs matter.  A fixed unit,
#: not the run's own fastest chunks: a run may see no fast phase at all,
#: and then a floor taken from the run moves with the host (by 9%
#: between runs, as much as the rest of the correction's error).
REFERENCE_CHUNK_S = 0.001

#: Per-size knobs.  ``full`` is what the benchmark measures; ``tiny`` is
#: the self-check size (``selfcheck.py``).  ``round_s`` is the nominal
#: cost of one cold+warm round; a run makes ``seconds // round_s`` of
#: them (at least one), so the work per run is fixed.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "fig2": {"scale": "default", "replays": 2, "round_s": 15.0,
                 "points": 30, "tasksets": 40},
        "detection": {"cores": [2], "tasksets": 1, "sim_trials": 1000,
                      "sim_duration": 1_000_000.0, "replays": 3,
                      "round_s": 6.0},
        "served": {"jobs": 100, "setups": 3},
    },
    "tiny": {
        "fig2": {"scale": "smoke", "replays": 1, "round_s": 1.0,
                 "points": 3, "tasksets": 6},
        "detection": {"cores": [2], "tasksets": 1, "sim_trials": 10,
                      "sim_duration": 30_000.0, "replays": 2,
                      "round_s": 1.0},
        "served": {"jobs": 6, "setups": 1},
    },
}

#: The fixed UAV case study ignores the utilisation target and the seed
#: (which draws only the attacks), so one point and one task set.  On 3
#: or more cores ``adaptive[exact-rta]`` keeps HYDRA's periods, which
#: would simulate the same system twice; 2 cores keep the two apart.
DETECTION_UTILS = {"start": 0.5, "stop": 0.5, "step": 0.1}
DETECTION_GRID = {
    "workload": ["uav-case-study"],
    "allocator": ["hydra", "adaptive[exact-rta]"],
    "heuristic": ["best-fit"],
    "ordering": ["utilization"],
    "admission": ["rta"],
    "policy": ["release-after", "start-after"],
}
SERVED_GRID = {
    "cores": [2, 4],
    "allocator": ["hydra", "singlecore", "binpack-best-fit"],
    "heuristic": ["best-fit"],
    "ordering": ["utilization"],
    "admission": ["rta"],
}
#: Utilisation points per core count of the ``default`` scale grid.
SERVED_UTILS = 10

EVENTS = {
    "executors.spawns": re.compile(r"spawned subprocess worker"),
    "executors.retries": re.compile(r"lost point .* retrying"),
    "executors.respawns": re.compile(r"died .* respawning"),
}
BIND = re.compile(r"serving sweep jobs on \S+:(\d+)")
#: Units of the metrics printed but not in BENCHMARK.json (design.json
#: says why they are not there).
EXTRA_UNITS = {
    "raw_wall_s": "s", "raw_warm_wall_s": "s", "raw_setup_s": "s",
    "job_p50_ms": "ms", "job_p90_ms": "ms",
    "replay_p50_ms": "ms", "replay_p90_ms": "ms",
}


def clock() -> float:
    """System-wide monotonic time, the clock ``launch.py`` stamps with."""
    return time.monotonic()


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    )
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra)
    return env


def dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def count_events(lines: list[str]) -> dict[str, int]:
    return {
        name: sum(1 for line in lines if pattern.search(line))
        for name, pattern in EVENTS.items()
    }


# -- child processes ---------------------------------------------------------


@dataclass
class Launch:
    """One launcher process: exit code, markers and what it printed."""

    code: int
    spawned: float
    ready: float
    done: float
    rss_kb: int
    stderr: str

    @property
    def setup_s(self) -> float:
        return self.ready - self.spawned

    @property
    def wall_s(self) -> float:
        return self.done - self.ready


def _marks(stdout: str) -> dict[str, float]:
    marks = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        if key in ("ready", "done", "rss_kb"):
            marks[key] = float(value)
    return marks


def launch(args: list[str], spans: Path | None = None) -> Launch:
    command = [sys.executable, str(LAUNCHER)]
    if spans is not None:
        command += ["--trace", str(spans)]
    spawned = clock()
    try:
        proc = subprocess.run(
            command + args, capture_output=True, text=True, cwd=ROOT,
            env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return Launch(-9, spawned, spawned, spawned, 0, str(exc))
    marks = _marks(proc.stdout)
    code = proc.returncode if {"ready", "done"} <= set(marks) else -1
    return Launch(
        code, spawned, marks.get("ready", spawned),
        marks.get("done", spawned), int(marks.get("rss_kb", 0)), proc.stderr,
    )


class Probe:
    """``probe.py`` on ``cpu`` while the ``with`` block runs."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            out, _ = self.proc.communicate(timeout=30)  # closes its stdin
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return
        if self.proc.returncode == 0:
            self.samples = [tuple(s) for s in json.loads(out)]

    def slowdown(self, lo: float, hi: float) -> float | None:
        """How much slower than the reference speed the CPU ran from
        ``lo`` to ``hi``: the median chunk then over
        :data:`REFERENCE_CHUNK_S`.  A window shorter than
        :data:`MIN_WINDOW_S` is widened to it, centred, so that it holds
        several chunks of the same speed phase; ``None`` if the probe
        recorded nothing."""
        if not self.samples:
            return None
        pad = max(0.0, (MIN_WINDOW_S - (hi - lo)) / 2)
        picked = [d for t, d in self.samples if lo - pad <= t <= hi + pad]
        picked = picked or [min(
            self.samples, key=lambda s: abs(s[0] - (lo + hi) / 2)
        )[1]]
        return percentile(picked, 0.5) / REFERENCE_CHUNK_S

    def scaled(self, lo: float, hi: float) -> float:
        """The time from ``lo`` to ``hi`` scaled to the reference speed."""
        return (hi - lo) / (self.slowdown(lo, hi) or 1.0)


def pin_to_probe_cpu() -> int:
    """Pin this process, and so every process it starts from now on, to
    the CPU the probe will watch; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def store_stats(store: Path) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), "stats", str(store)],
        capture_output=True, text=True, cwd=ROOT, env=child_env(),
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    return json.loads(line)


# -- serial workloads: fig2 and detection ------------------------------------


@dataclass
class Pass:
    """One cold request plus its warm replays on one fresh store."""

    store: Path
    launches: list[Launch] = field(default_factory=list)
    outputs: list[bytes | None] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)

    @property
    def cold(self) -> Launch:
        return self.launches[0]

    @property
    def warm(self) -> list[Launch]:
        return self.launches[1:]


def serial_pass(name: str, argv_for: Callable[[Path, Path], list[str]],
                replays: int, root: Path, traced: bool,
                tally: Tally) -> Pass:
    root.mkdir(parents=True)
    result = Pass(store=root / "store")
    for k in range(1 + replays):
        out = root / f"result{k}.json"
        spans = root / f"spans{k}.json" if traced else None
        run = launch(argv_for(result.store, out), spans)
        ok = tally.check(
            run.code == 0 and out.exists(),
            f"{name}: request {k} exited {run.code}: {run.stderr[-400:]}",
        )
        result.launches.append(run)
        result.outputs.append(out.read_bytes() if ok else None)
        if spans is not None:
            result.spans.append(spans)
    return result


def check_pass(name: str, run: Pass, check: Callable[[dict], Any],
               tally: Tally) -> dict | None:
    """Invariants on the cold result; every replay must equal its bytes."""
    cold = run.outputs[0]
    doc = load_result(cold, tally, f"{name}: cold result")
    if doc is not None:
        try:
            check(doc)
        except (KeyError, TypeError, ValueError) as exc:
            tally.check(False, f"{name}: malformed result ({exc!r})")
            doc = None
    for k, warm in enumerate(run.outputs[1:], start=1):
        tally.check(
            cold is not None and warm == cold,
            f"{name}: warm replay {k} bytes differ from the cold result",
        )
    return doc


def latency_percentiles(cold: list[float],
                        warm: list[float]) -> dict[str, float]:
    """Cold-request and replay latency percentiles."""
    return {
        "job_p50_ms": 1000 * percentile(cold, 0.5),
        "job_p90_ms": 1000 * percentile(cold, 0.9),
        "replay_p50_ms": 1000 * percentile(warm, 0.5),
        "replay_p90_ms": 1000 * percentile(warm, 0.9),
    }


def serial_layers(plain: Pass, traced: Pass, probe: Probe) -> dict[str, float]:
    def scaled_s(run: Pass) -> float:
        return sum(probe.scaled(r.ready, r.done) for r in run.launches)

    traces = [
        (json.loads(spans.read_text()), run.ready, run.done)
        for run, spans in zip(traced.launches, traced.spans)
        if run.code == 0
    ]
    layer = summarize(traces)
    layer.update(count_events(
        [line for run in traced.launches for line in run.stderr.splitlines()]
    ))
    layer["store.bytes_written"] = dir_bytes(traced.store)
    layer["store.entries"] = store_stats(traced.store)["entries"]
    layer["trace.overhead"] = scaled_s(traced) / scaled_s(plain) - 1.0
    return layer


def run_serial(name: str, cfg: dict, argv_for, check, summary,
               seconds: int, trace: bool, work: Path, tally: Tally):
    rounds = 1 if trace else max(1, int(seconds // cfg["round_s"]))
    passes, docs = [], []
    with Probe(pin_to_probe_cpu()) as probe:
        for index in range(rounds + (1 if trace else 0)):
            traced = trace and index == rounds
            run = serial_pass(name, argv_for, cfg["replays"],
                              work / f"pass{index}", traced, tally)
            docs.append(check_pass(name, run, check, tally))
            passes.append(run)
    tally.check(bool(probe.samples), f"{name}: the speed probe recorded nothing")
    launches = [r for p in passes for r in p.launches]
    warm = [w for p in passes for w in p.warm]
    first = docs[0]
    summary_now = summary(first) if first is not None else None
    tally.check(
        all(d is not None and summary(d) == summary_now for d in docs),
        f"{name}: results differ between passes of one seed",
    )
    samples = {
        "cold_s": [p.cold.wall_s for p in passes],
        "cold_scaled_s": [probe.scaled(p.cold.ready, p.cold.done)
                          for p in passes],
        "warm_s": [w.wall_s for w in warm],
        "warm_scaled_s": [probe.scaled(w.ready, w.done) for w in warm],
        "setup_s": [r.setup_s for r in launches],
        "setup_scaled_s": [probe.scaled(r.spawned, r.ready)
                           for r in launches],
    }
    if trace:
        return serial_layers(passes[0], passes[-1], probe), summary_now, \
            samples
    # The fastest cold request: a slow phase that the probe corrects only
    # in part errs on the slow side, and over 8 detection seeds the
    # minimum spread less than the median (0.080 against 0.117).
    metrics = {
        "wall_s": min(samples["cold_scaled_s"]),
        "raw_wall_s": percentile(samples["cold_s"], 0.5),
        "warm_wall_s": percentile(samples["warm_scaled_s"], 0.5),
        "raw_warm_wall_s": percentile(samples["warm_s"], 0.5),
        "setup_s": percentile(samples["setup_scaled_s"], 0.5),
        "raw_setup_s": percentile(samples["setup_s"], 0.5),
        "peak_rss_mb": percentile([p.cold.rss_kb / 1024 for p in passes], 0.5),
        **latency_percentiles(samples["cold_s"], samples["warm_s"]),
    }
    return metrics, summary_now, samples


def workload_fig2(seed: int, seconds: int, trace: bool, size: str,
                  work: Path, tally: Tally):
    cfg = SIZES[size]["fig2"]

    def argv_for(store: Path, out: Path) -> list[str]:
        return ["cli", "fig2", "--scale", cfg["scale"],
                "--seed", str(SEED_BASE + seed), "--cache-dir", str(store),
                "--format", "json", "--output", str(out)]

    expect = {"scale": cfg["scale"], "points": cfg["points"],
              "tasksets": cfg["tasksets"]}
    return run_serial(
        "fig2", cfg, argv_for, lambda doc: check_fig2(doc, expect, tally),
        summarize_fig2, seconds, trace, work, tally,
    )


def detection_request(seed: int, cfg: dict) -> dict:
    return {
        "spec": {
            "sweep": {
                "name": "perfbench-detection",
                "kind": "detection-latency",
                "seed": SEED_BASE + seed,
                "tasksets_per_point": cfg["tasksets"],
                "sim_trials": cfg["sim_trials"],
                "sim_duration": cfg["sim_duration"],
                "utilization": DETECTION_UTILS,
            },
            "grid": {"cores": cfg["cores"], **DETECTION_GRID},
        },
        "scale": "default",
    }


def workload_detection(seed: int, seconds: int, trace: bool, size: str,
                       work: Path, tally: Tally):
    cfg = SIZES[size]["detection"]
    work.mkdir(parents=True)
    request = work / "request.json"
    request.write_text(json.dumps(detection_request(seed, cfg)))

    def argv_for(store: Path, out: Path) -> list[str]:
        return ["job", str(request), str(store), str(out)]

    utils = 1 + round(
        (DETECTION_UTILS["stop"] - DETECTION_UTILS["start"])
        / DETECTION_UTILS["step"]
    )
    schemes = len(DETECTION_GRID["allocator"]) * len(DETECTION_GRID["policy"])
    expect = {
        "experiment": "sweep:perfbench-detection",
        "cores": cfg["cores"],
        "cells_per_panel": utils * schemes,
        "tasksets": cfg["tasksets"],
        "sim_trials": cfg["sim_trials"],
        "sim_duration": cfg["sim_duration"],
    }
    return run_serial(
        "detection", cfg, argv_for,
        lambda doc: check_detection(doc, expect, tally),
        summarize_detection, seconds, trace, work, tally,
    )


# -- served workload -----------------------------------------------------------


def http_call(port: int, method: str, path: str,
              body: Any = None) -> tuple[int, bytes]:
    """One request on its own connection (the service closes each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, str(exc).encode()
    finally:
        conn.close()


def served_request(job_seed: int) -> dict:
    return {
        "spec": {
            "sweep": {"name": "perfbench-served", "seed": job_seed,
                      "tasksets_per_point": 1},
            "grid": SERVED_GRID,
        },
        "scale": "default",
    }


@dataclass
class Job:
    """What the client saw of one job."""

    request: dict
    start: float = 0.0
    end: float = 0.0
    status: dict = field(default_factory=dict)
    result: bytes | None = None

    @property
    def latency_s(self) -> float:
        return self.end - self.start


class Client:
    """One closed-loop client; every call is tallied."""

    def __init__(self, port: int, tally: Tally) -> None:
        self.port = port
        self.tally = tally

    def call(self, method: str, path: str, body: Any = None,
             expect: tuple[int, ...] = (200,)) -> bytes | None:
        status, data = http_call(self.port, method, path, body)
        if not self.tally.check(
            status in expect,
            f"served: {method} {path} answered {status}: {data[:200]!r}",
        ):
            return None
        return data

    def run_job(self, request: dict, replay: bool = False) -> Job:
        job = Job(request, start=clock())
        data = self.call("POST", "/jobs", request,
                         expect=(200,) if replay else (202, 200))
        doc = json.loads(data) if data is not None else {}
        deadline = job.start + CHILD_TIMEOUT_S
        while doc.get("state") in ("queued", "running") and clock() < deadline:
            time.sleep(POLL_S)
            data = self.call("GET", f"/jobs/{doc['id']}")
            doc = json.loads(data) if data is not None else {}
        if self.tally.check(doc.get("state") == "done",
                            f"served: job ended {doc.get('state')!r}"):
            job.result = self.call("GET", f"/jobs/{doc['id']}/result")
        job.end = clock()
        job.status = doc
        return job


class Server:
    """One ``serve`` process on an empty store, with its workers."""

    def __init__(self, root: Path, traced: bool, warmup: dict) -> None:
        root.mkdir(parents=True)
        self.store = root / "store"
        self.spans = root / "spans.json" if traced else None
        self.warmup = warmup
        self.log: list[str] = []
        self.port: int | None = None
        self.bound = threading.Event()
        self.proc: subprocess.Popen | None = None
        self.reader: threading.Thread | None = None
        self.peak_rss_kb = 0

    def _drain(self) -> None:
        """Keep the server's log: the bind line and executor events."""
        for line in self.proc.stderr:
            self.log.append(line)
            match = BIND.search(line)
            if match:
                self.port = int(match.group(1))
                self.bound.set()
        self.bound.set()  # the process ended

    def start(self, tally: Tally) -> tuple[float, float]:
        """Start, bind and run the warm-up job; returns the set-up
        window, from process start until the warm-up job's result."""
        command = [sys.executable, str(LAUNCHER)]
        if self.spans is not None:
            command += ["--trace", str(self.spans)]
        command += ["serve", "--port", "0", "--cache-dir", str(self.store),
                    "--executor", "subprocess-workers",
                    "--workers", str(SERVED_WORKERS)]
        spawned = clock()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, cwd=ROOT, env=child_env(REPRO_LOG="info"),
        )
        self.reader = threading.Thread(target=self._drain, daemon=True)
        self.reader.start()
        self.bound.wait(CHILD_TIMEOUT_S)
        if not tally.check(self.port is not None,
                           f"served: server did not bind: {self.log[-5:]}"):
            raise RuntimeError("the job service did not start")
        Client(self.port, tally).run_job(self.warmup)
        return spawned, clock()

    def workers(self) -> list[int]:
        pids = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                pids.append(int(entry.name))
        return pids

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        workers = self.workers()
        self.peak_rss_kb = sum(_vm_hwm_kb(pid)
                               for pid in [self.proc.pid, *workers])
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)
        for pid in workers:  # normally reaped by the server already
            _kill_and_wait(pid)


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill_and_wait(pid: int, timeout: float = 10.0) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = clock() + timeout
    while clock() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            return
        if state.split()[0] in ("Z", "X"):
            return
        time.sleep(0.01)


@dataclass
class Session:
    cold: list[Job]
    replays: list[Job]
    start: float
    end: float
    store_bytes_before: int
    store_bytes_after: int


def run_session(server: Server, requests: list[dict],
                tally: Tally) -> Session:
    # Each job is replayed right after it completes, so replays sample
    # the whole session rather than one short stretch at its end.
    client = Client(server.port, tally)
    before = dir_bytes(server.store)
    cold, replays = [], []
    start = clock()
    for request in requests:
        cold.append(client.run_job(request))
        replays.append(client.run_job(request, replay=True))
    end = clock()
    return Session(cold, replays, start, end, before, dir_bytes(server.store))


def check_session(run: Session, seed: int, work: Path, tally: Tally) -> list:
    expect = {
        "experiment": "sweep:perfbench-served",
        "cores": SERVED_GRID["cores"],
        "cells_per_panel": SERVED_UTILS * len(SERVED_GRID["allocator"]),
        "tasksets": 1,
    }
    summary = []
    for index, (cold, replay) in enumerate(zip(run.cold, run.replays)):
        doc = load_result(cold.result, tally, f"served: job {index} result")
        try:
            if doc is not None and check_served(doc, expect, tally):
                summary.append(summarize_served(doc, expect["tasksets"]))
        except (KeyError, TypeError, ValueError) as exc:
            tally.check(False, f"served: malformed result ({exc!r})")
        tally.check(
            cold.result is not None and replay.result == cold.result,
            f"served: replay of job {index} returned different bytes",
        )
    # One served result, byte for byte, against the same spec run
    # directly through JobRunner (serial, no store).
    sample = run.cold[seed % len(run.cold)]
    request = work / "sample-request.json"
    request.write_text(json.dumps(sample.request))
    direct = work / "sample-direct.json"
    done = launch(["direct", str(request), str(direct)])
    tally.check(
        done.code == 0 and direct.exists()
        and direct.read_bytes() == sample.result,
        "served: result differs from the same spec run through JobRunner",
    )
    return summary


def served_metrics(run: Session, samples: dict, server: Server,
                   probe: Probe) -> dict[str, float]:
    cold = [job.latency_s for job in run.cold]
    warm = [job.latency_s for job in run.replays]
    return {
        "wall_s": probe.scaled(run.start, run.end),
        "raw_wall_s": run.end - run.start,
        "warm_wall_s": percentile(
            [probe.scaled(job.start, job.end) for job in run.replays], 0.5
        ),
        "raw_warm_wall_s": percentile(warm, 0.5),
        "setup_s": percentile(samples["setup_scaled_s"], 0.5),
        "raw_setup_s": percentile(samples["setup_s"], 0.5),
        "peak_rss_mb": server.peak_rss_kb / 1024,
        **latency_percentiles(cold, warm),
    }


def served_layers(plain: Session, traced: Session, server: Server,
                  probe: Probe, tally: Tally) -> dict[str, float]:
    written = tally.check(server.spans.exists(),
                          "served: the traced server wrote no spans")
    spans = json.loads(server.spans.read_text()) if written else []
    layer = summarize([(spans, traced.start, traced.end)], service=True,
                      cold_jobs=len(traced.cold))
    layer.update(count_events(server.log))
    # Queue wait and failures as the status documents report them.
    layer["jobs.queue_wait_s"] = sum(
        job.status["started"] - job.status["created"]
        for job in traced.cold if job.status.get("started") is not None
    )
    layer["jobs.failed"] = sum(
        job.status.get("state") != "done" for job in traced.cold
    )
    layer["store.bytes_written"] = (
        traced.store_bytes_after - traced.store_bytes_before
    )
    layer["store.entries"] = store_stats(server.store)["entries"]
    layer["trace.overhead"] = (
        probe.scaled(traced.start, traced.end)
        / probe.scaled(plain.start, plain.end) - 1.0
    )
    return layer


def workload_served(seed: int, seconds: int, trace: bool, size: str,
                    work: Path, tally: Tally):
    cfg = SIZES[size]["served"]
    base = 100_000 + 1000 * seed
    requests = [served_request(base + i) for i in range(cfg["jobs"])]
    warmup = served_request(base + 999)
    plans = [False, True] if trace else [False] * cfg["setups"]
    setups, sessions, servers = [], [], []
    # The client, the server and its workers share one CPU with the probe,
    # where the probe tracks the speed they got; on two CPUs each flips
    # between speeds on its own, and a job waits for the slower one.
    with Probe(pin_to_probe_cpu()) as probe:
        try:
            for index, traced in enumerate(plans):
                server = Server(work / f"server{index}", traced, warmup)
                servers.append(server)
                setups.append(server.start(tally))
                if trace or index == len(plans) - 1:
                    sessions.append(run_session(server, requests, tally))
                server.stop()
        finally:
            for server in servers:
                server.stop()
    summaries = [check_session(s, seed, work, tally) for s in sessions]
    tally.check(
        all(s == summaries[0] for s in summaries),
        "served: results differ between sessions of one seed",
    )
    tally.check(bool(probe.samples), "served: the speed probe recorded nothing")
    samples = {
        "job_s": [[job.latency_s for job in s.cold] for s in sessions],
        "replay_s": [[job.latency_s for job in s.replays] for s in sessions],
        "setup_s": [end - start for start, end in setups],
        "setup_scaled_s": [probe.scaled(start, end) for start, end in setups],
    }
    if trace:
        layer = served_layers(sessions[0], sessions[1], servers[1], probe,
                              tally)
        return layer, summaries[0], samples
    return served_metrics(sessions[0], samples, servers[-1], probe), \
        summaries[0], samples


WORKLOADS = {
    "fig2": workload_fig2,
    "detection": workload_detection,
    "served": workload_served,
}


# -- environment stamp and output ----------------------------------------------


def environment(args) -> dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                cwd=ROOT, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "scale": "default" if args.size == "full" else "smoke/reduced",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def parse_args(argv: list[str]) -> argparse.Namespace:
    def non_negative(value: str) -> int:
        number = int(value)
        if number < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return number

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative, default=0)
    parser.add_argument("--seconds", type=non_negative, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' is the self-check size")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's result summary as the "
                             "reference of the default seed 0")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    env = environment(args)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        metrics, summary, samples = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), args.size,
            work / "run", tally,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference_key = f"{args.workload}@seed0"
    references = (
        json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    )
    if args.record_reference:
        if (args.seed != 0 or args.size != "full" or summary is None
                or tally.failed):
            print("perfbench: record the reference with --seed 0 at full "
                  "size from a run whose checks passed", file=sys.stderr)
            return 2
        references[reference_key] = summary
        REFERENCE.write_text(json.dumps(references, indent=1) + "\n")
    elif args.seed == 0 and args.size == "full":
        match_reference(args.workload, references.get(reference_key),
                        summary, tally)

    if not set(declared) <= set(metrics):
        print(f"perfbench: BENCHMARK.json names metrics "
              f"{sorted(set(declared) - set(metrics))} this run lacks",
              file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }
    report = {"environment": env, "failures": tally.failures,
              "samples": samples, **result}
    WORK.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=1) + "\n")
    for name, value in metrics.items():
        unit = declared.get(name, EXTRA_UNITS.get(name, ""))
        print(f"{args.workload:>9} {name:<30} {value:>14.6g} {unit}")
    print(f"{args.workload:>9} error_rate {tally.failed}/{tally.attempted}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
