"""Shared fixtures for the benchmark harness.

Every figure/table benchmark runs the corresponding experiment driver
once (``benchmark.pedantic`` with a single round — these are experiment
regenerations, not microbenchmarks), prints the regenerated table the
paper reports, and asserts the paper's qualitative shape.

Scale via ``REPRO_SCALE`` (``smoke`` / ``default`` / ``paper``);
``default`` keeps the whole suite within a few minutes.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import get_scale


@pytest.fixture(scope="session")
def scale():
    return get_scale()