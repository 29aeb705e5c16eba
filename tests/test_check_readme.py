"""The README drift audit (``tools/check_readme.py``) catches broken
``python`` examples, not just drifted shell commands."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_readme.py"


def _checker():
    spec = importlib.util.spec_from_file_location("check_readme", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _page(tmp_path, source: str) -> Path:
    page = tmp_path / "page.md"
    page.write_text(f"Example:\n\n```python\n{source}```\n")
    return page


def test_python_blocks_flag_bad_imports_and_keywords(tmp_path):
    page = _page(
        tmp_path,
        "from repro.experiments import SweepEngine, no_such_name\n"
        "engine = SweepEngine(workers=2, no_such_keyword=1)\n",
    )
    problems = _checker().check_file(page)
    assert len(problems) == 2
    assert "python block at line 3" in problems[0]
    assert "cannot import 'no_such_name'" in problems[0]
    assert "SweepEngine() takes no keyword 'no_such_keyword'" in problems[1]


def test_repository_python_examples_resolve():
    """The ``python`` examples in README.md and docs/ import and call
    only what this checkout provides."""
    checker = _checker()
    root = _TOOL.parents[1]
    problems: list[str] = []
    for page in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        text = page.read_text(encoding="utf-8")
        for fence in checker._PY_FENCE.finditer(text):
            problems += checker.check_python_block(fence.group(1))
    assert problems == []


def test_python_blocks_accept_valid_examples(tmp_path):
    page = _page(
        tmp_path,
        "from repro.experiments import SweepEngine, get_experiment\n"
        "engine = SweepEngine(workers=2, cache='results/cache')\n"
        "get_experiment('fig2').run(engine=engine)\n",
    )
    assert _checker().check_file(page) == []
