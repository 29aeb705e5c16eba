#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark (about a minute)::

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, at the ``tiny`` size: the run
exits 0, its last stdout line carries exactly the metrics of
``BENCHMARK.json`` with their units, every check passed, and the traced
run covers at least 95% of its wall time with spans.  It also checks
that ``design.json`` describes every workload and metric, and that the
benchmark refuses to run, without printing a result, in a directory
holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_COVERAGE = 0.95


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((BENCH / "design.json").read_text())
    problems: list[str] = []
    for section in ("end_to_end", "per_layer"):
        names = {m["name"] for m in spec[section]}
        if not names <= set(design[section]):
            problems.append(f"design.json lacks {sorted(names - set(design[section]))}")
    workloads = [w["name"] for w in spec["workloads"]]
    if set(workloads) != set(design["workloads"]):
        problems.append("design.json and BENCHMARK.json name other workloads")

    for workload in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run([str(BENCH / "run.py"), "--workload", workload,
                        "--seed", "0", "--seconds", "1", "--trace", str(trace),
                        "--size", "tiny"], ROOT)
            label = f"{workload} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if trace:
                coverage = result["metrics"]["trace.coverage"]["value"]
                if coverage < MIN_COVERAGE:
                    problems.append(f"{label}: trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
                label += f" (coverage {coverage:.3f})"
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["perfbench/run.py", "--workload", workloads[0], "--seed", "0",
                "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a bare directory without the program did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
