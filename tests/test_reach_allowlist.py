"""The reach audit's allowlist (``tools/reach_allowlist.toml``) names
only functions that exist, each with a valid reason."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach_audit.py"


def _audit():
    spec = importlib.util.spec_from_file_location("reach_audit", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    spec.loader.exec_module(module)
    return module


def test_allowlist_entries_name_functions_with_valid_reasons():
    audit = _audit()
    functions = audit.source_functions()
    assert audit.allowlist_problems(audit.load_allowlist(), functions) == []


def test_a_missing_function_or_reason_is_a_problem():
    audit = _audit()
    functions = audit.source_functions()
    problems = audit.allowlist_problems(
        {
            "repro.analysis.rta:no_such_function": "oracle: pins nothing",
            "repro.analysis.rta:rta_schedulable": "because",
            "repro.sim.detection:detection_time": "oracle: a scan",
        },
        functions,
    )
    assert len(problems) == 3
    assert "no such function" in problems[0]
    assert "category" in problems[1]
    assert "pins" in problems[2]


def test_functions_are_keyed_by_qualified_name():
    functions = _audit().source_functions()
    assert "repro.cli:main" in functions
    assert "repro.sim.engine:Simulator.run_reference" in functions
    first = functions["repro.cli:main"]
    assert first.path.name == "cli.py" and first.first <= first.last
