"""The plugin-registry contract, checked in a fresh interpreter.

In-process tests run after earlier tests have loaded the built-ins, so
they cannot see what a plugin meets when it registers first.  Each case
here starts a new interpreter that imports only the registry module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
from repro.errors import ConfigError
from {module} import {register}, {names}, {info}, {error}

try:
    {register}({builtin!r})(lambda workers=None: None)
except ConfigError as exc:
    collision = [type(exc).__name__, str(exc)]
else:
    collision = None
try:
    {info}("warp-drive")
except {error} as exc:
    unknown = str(exc)
else:
    unknown = None
print(json.dumps(
    {{"collision": collision, "names": {names}(), "unknown": unknown}}
))
"""

_THREADS_SCRIPT = """
import json
import threading
from {module} import {names}

barrier = threading.Barrier(8)
seen = []

def first_lookup():
    barrier.wait()
    seen.append({names}())

threads = [threading.Thread(target=first_lookup) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps(seen))
"""

_CASES = {
    "allocators": (
        dict(
            module="repro.allocators.registry",
            register="register_allocator",
            names="allocator_names",
            info="get_allocator_info",
            error="UnknownAllocatorError",
            builtin="hydra",
        ),
        [
            "hydra", "hydra[gp]", "hydra[exact-rta]", "hydra+lp",
            "hydra[np]", "adaptive", "adaptive[exact-rta]",
            "adaptive[contego]", "singlecore", "optimal",
            "optimal[branch-bound]", "first-feasible", "slackiest-core",
            "binpack-first-fit", "binpack-best-fit", "binpack-worst-fit",
            "binpack-next-fit",
        ],
    ),
    "workloads": (
        dict(
            module="repro.workloads.registry",
            register="register_workload",
            names="workload_names",
            info="get_workload_info",
            error="UnknownWorkloadError",
            builtin="paper-synthetic",
        ),
        [
            "paper-synthetic", "uunifast", "uunifast-discard",
            "uniform-periods", "harmonic-periods", "heavy-security",
            "uav-case-study", "table1-suite",
        ],
    ),
    "executors": (
        dict(
            module="repro.executors.registry",
            register="register_executor",
            names="executor_names",
            info="get_executor_info",
            error="UnknownExecutorError",
            builtin="serial",
        ),
        ["serial", "pool", "subprocess-workers"],
    ),
}


def _run_fresh(script: str):
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("surface", sorted(_CASES))
def test_registry_contract_in_a_fresh_interpreter(surface):
    names, builtins = _CASES[surface]
    report = _run_fresh(_SCRIPT.format(**names))

    # A plugin claiming a built-in name before any lookup collides at
    # its own registration instead of shadowing the built-in.
    assert report["collision"] is not None
    kind, message = report["collision"]
    assert kind == "ConfigError"
    assert f"{names['builtin']!r} already registered" in message

    # The built-ins, and only they, in registration order.
    assert report["names"] == builtins

    # An unknown spec is the registry's typed error naming every spec.
    unknown = report["unknown"]
    assert unknown is not None
    assert "unknown" in unknown and "'warp-drive'" in unknown
    for name in builtins:
        assert name in unknown


@pytest.mark.parametrize("surface", sorted(_CASES))
def test_concurrent_first_lookups_see_every_builtin(surface):
    """Threads racing the built-ins import all wait for the whole table."""
    names, builtins = _CASES[surface]
    assert _run_fresh(_THREADS_SCRIPT.format(**names)) == [builtins] * 8
