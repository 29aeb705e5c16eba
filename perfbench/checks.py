"""Output checks: invariants that hold for any seed, plus the reference
summary recorded for the default seed.

Every operation the benchmark performs — a request, an HTTP call, a
check — goes through one :class:`Tally`; ``failed / attempted`` is the
run's error rate.  Acceptance counts must match the reference exactly;
detection times only within :data:`TIME_REL_TOL`, so a simulation kernel
that reorders floating-point work still passes while a wrong answer
does not.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

#: Relative tolerance on recorded detection times.
TIME_REL_TOL = 1e-6


class Tally:
    """Counts attempted and failed operations; keeps failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def _reject_constant(token: str) -> Any:
    raise ValueError(f"bare {token} in result")


def load_result(data: bytes | None, tally: Tally, what: str) -> dict | None:
    """Parse result bytes; a bare ``NaN``/``Infinity`` fails the check."""
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except (TypeError, ValueError) as exc:
        tally.check(False, f"{what}: unreadable result ({exc})")
        return None
    if not tally.check(isinstance(doc, dict), f"{what}: result is an object"):
        return None
    return doc


def _integral(value: float) -> bool:
    return abs(value - round(value)) < 1e-9


def _in_unit(value: float) -> bool:
    return 0.0 <= value <= 1.0


# -- fig2 ------------------------------------------------------------------


def check_fig2(doc: dict, expect: dict, tally: Tally) -> bool:
    points = doc["data"]["points"]
    tasksets = expect["tasksets"]
    return all([
        tally.check(doc["experiment"] == "fig2", "fig2: experiment name"),
        tally.check(doc["scale"] == expect["scale"], "fig2: scale"),
        tally.check(len(points) == expect["points"], "fig2: point count"),
        tally.check(len(doc["rows"]) == expect["points"], "fig2: row count"),
        tally.check(
            all(_in_unit(p["ratio_hydra"]) and _in_unit(p["ratio_single"])
                for p in points),
            "fig2: acceptance ratios lie in [0, 1]",
        ),
        tally.check(
            all(p["tasksets"] == tasksets
                and _integral(p["ratio_hydra"] * tasksets)
                and _integral(p["ratio_single"] * tasksets)
                for p in points),
            "fig2: ratios are whole counts of the task sets",
        ),
    ])


def summarize_fig2(doc: dict) -> list:
    return [
        [p["cores"], p["utilization"],
         round(p["ratio_hydra"] * p["tasksets"]),
         round(p["ratio_single"] * p["tasksets"])]
        for p in doc["data"]["points"]
    ]


# -- detection -------------------------------------------------------------


def check_detection(doc: dict, expect: dict, tally: Tally) -> bool:
    panels = doc["data"]["panels"]
    cells = [cell for panel in panels for cell in panel["cells"]]
    trials, horizon = expect["sim_trials"], expect["sim_duration"]
    return all([
        tally.check(doc["experiment"] == expect["experiment"],
                    "detection: experiment name"),
        tally.check([p["cores"] for p in panels] == expect["cores"],
                    "detection: panel per core count"),
        tally.check(
            all(len(p["cells"]) == expect["cells_per_panel"] for p in panels),
            "detection: cell count",
        ),
        tally.check(len(doc["rows"]) == len(cells), "detection: row count"),
        tally.check(
            all(0 <= c["allocated"] <= c["total"] == expect["tasksets"]
                for c in cells),
            "detection: allocated within task sets",
        ),
        tally.check(
            all(len(c["times"]) + c["censored"] + c["undetectable"]
                == trials * c["allocated"] for c in cells),
            "detection: detected + censored + undetectable = attacks",
        ),
        tally.check(
            all(math.isfinite(t) and 0.0 <= t <= horizon
                for c in cells for t in c["times"]),
            "detection: detection times finite and within the horizon",
        ),
    ])


def summarize_detection(doc: dict) -> list:
    return [
        [panel["cores"], c["utilization"], c["scheme"], c["allocated"],
         c["total"], len(c["times"]), c["censored"], c["undetectable"],
         sum(c["times"]) / len(c["times"]) if c["times"] else 0.0,
         max(c["times"], default=0.0)]
        for panel in doc["data"]["panels"]
        for c in panel["cells"]
    ]


# -- served ----------------------------------------------------------------


def check_served(doc: dict, expect: dict, tally: Tally) -> bool:
    panels = doc["data"]["panels"]
    cells = [c for p in panels for c in p["comparison"]["cells"]]
    tasksets = expect["tasksets"]
    return all([
        tally.check(doc["experiment"] == expect["experiment"],
                    "served: experiment name"),
        tally.check([p["cores"] for p in panels] == expect["cores"],
                    "served: panel per core count"),
        tally.check(
            all(len(p["comparison"]["cells"]) == expect["cells_per_panel"]
                for p in panels),
            "served: cell count",
        ),
        tally.check(
            all(_in_unit(c["acceptance"]) and _in_unit(c["mean_tightness"])
                and _integral(c["acceptance"] * tasksets) for c in cells),
            "served: acceptance and tightness ratios lie in [0, 1]",
        ),
    ])


def summarize_served(doc: dict, tasksets: int) -> str:
    """One digit per grid cell: task sets the cell accepted."""
    return "".join(
        str(round(c["acceptance"] * tasksets))
        for p in doc["data"]["panels"]
        for c in p["comparison"]["cells"]
    )


# -- reference -------------------------------------------------------------


def _same(recorded: Any, measured: Any, rel_tol: float) -> bool:
    if isinstance(recorded, float) or isinstance(measured, float):
        return math.isclose(recorded, measured, rel_tol=rel_tol, abs_tol=0.0)
    if isinstance(recorded, list) and isinstance(measured, list):
        return len(recorded) == len(measured) and all(
            _same(a, b, rel_tol) for a, b in zip(recorded, measured)
        )
    return recorded == measured


def match_reference(name: str, recorded: Any, measured: Any,
                    tally: Tally) -> bool:
    """Counts and labels exactly; floats within :data:`TIME_REL_TOL`."""
    return tally.check(
        _same(recorded, measured, TIME_REL_TOL),
        f"{name}: results differ from the reference summary",
    )
