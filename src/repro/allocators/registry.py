"""The allocator registry: strategies as named plugins.

Strategies self-register with :func:`register_allocator` ::

    @register_allocator(
        "my-strategy",
        title="My strategy in one line",
        tags=("extension",),
    )
    class MyAllocator(Allocator):
        name = "my-strategy"
        def allocate(self, system): ...

The table is a :class:`repro.registry.Registry` whose built-ins live in
:mod:`repro.allocators.builtin`.  Spec strings double as report
labels: every built-in factory produces an allocator whose ``name``
attribute equals its registry spec, so a scheme label in a table can
always be resolved back to the strategy that produced it.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.core.allocator import Allocator
from repro.errors import ConfigError
from repro.model.allocation import Allocation, AllocationResult
from repro.model.system import SystemModel
from repro.registry import PluginInfo, Registry

__all__ = [
    "AllocatorInfo",
    "UnknownAllocatorError",
    "register_allocator",
    "unregister_allocator",
    "get_allocator",
    "get_allocator_info",
    "allocator_names",
    "iter_allocator_info",
    "run_allocator",
]


class UnknownAllocatorError(ConfigError):
    """Raised when a spec resolves to no registered allocator."""


#: Registry metadata of one strategy; ``factory()`` builds an Allocator.
AllocatorInfo = PluginInfo

REGISTRY = Registry(
    "allocator", "repro.allocators.builtin", UnknownAllocatorError
)
register_allocator = REGISTRY.register
unregister_allocator = REGISTRY.unregister
get_allocator_info = REGISTRY.info
allocator_names = REGISTRY.names
iter_allocator_info = REGISTRY.entries


def get_allocator(spec: str) -> Allocator:
    """Instantiate the strategy registered under ``spec``."""
    return get_allocator_info(spec).factory()


def run_allocator(
    allocator: str | Allocator,
    system: SystemModel,
    extra_diagnostics: Mapping[str, object] | None = None,
) -> AllocationResult:
    """Resolve (if needed), run, and time one strategy on ``system``.

    The uniform entry point of the allocator API: accepts either a
    registry spec or a ready :class:`Allocator`, and wraps the raw
    :class:`Allocation` into a typed
    :class:`~repro.model.allocation.AllocationResult` carrying solver
    diagnostics and wall-clock timing.
    """
    spec = allocator if isinstance(allocator, str) else allocator.name
    strategy = get_allocator(allocator) if isinstance(allocator, str) else allocator
    start = time.perf_counter()
    allocation = strategy.allocate(system)
    elapsed = time.perf_counter() - start
    if not isinstance(allocation, Allocation):
        raise ConfigError(
            f"allocator {spec!r} returned {type(allocation).__name__}, "
            f"not an Allocation"
        )
    diagnostics = dict(allocation.info)
    diagnostics.update(extra_diagnostics or {})
    return AllocationResult(
        allocator=spec,
        allocation=allocation,
        diagnostics=diagnostics,
        elapsed_s=elapsed,
    )
