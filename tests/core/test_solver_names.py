"""Unknown solver and search names are typed errors listing the known ones."""

from __future__ import annotations

import pytest

from repro.allocators import BinPackingAllocator
from repro.allocators.adaptive import AdaptiveAllocator
from repro.core import (
    HydraAllocator,
    NonPreemptiveHydraAllocator,
    OptimalAllocator,
    SingleCoreAllocator,
)
from repro.core.hydra import PERIOD_SOLVERS
from repro.core.variants import LpRefinedHydraAllocator
from repro.errors import ConfigError

_PERIOD = sorted(PERIOD_SOLVERS)


@pytest.mark.parametrize(
    ("build", "accepted"),
    [
        (lambda: HydraAllocator(solver="magic"), _PERIOD),
        (lambda: NonPreemptiveHydraAllocator(solver="magic"), _PERIOD),
        (lambda: LpRefinedHydraAllocator(solver="magic"), _PERIOD),
        (lambda: AdaptiveAllocator(solver="magic"), _PERIOD),
        (lambda: BinPackingAllocator(solver="magic"), _PERIOD),
        (
            lambda: SingleCoreAllocator(solver="magic"),
            ["closed-form", "exact-rta"],
        ),
        (
            lambda: OptimalAllocator(search="magic"),
            ["branch-bound", "exhaustive"],
        ),
    ],
    ids=[
        "hydra", "hydra-np", "hydra+lp", "adaptive", "binpack",
        "singlecore", "optimal",
    ],
)
def test_unknown_name_is_a_config_error_listing_known_names(build, accepted):
    with pytest.raises(ConfigError) as excinfo:
        build()
    message = str(excinfo.value)
    assert "'magic'" in message
    for name in accepted:
        assert f"'{name}'" in message
