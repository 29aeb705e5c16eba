"""The allocator registry: one decorator turns a strategy into a plugin.

Mirrors :mod:`repro.experiments.registry`: strategies self-register
with :func:`register_allocator` ::

    @register_allocator(
        "my-strategy",
        title="My strategy in one line",
        tags=("extension",),
    )
    class MyAllocator(Allocator):
        name = "my-strategy"
        def allocate(self, system): ...

and every consumer — TOML scenario grids (``[grid] allocator = [...]``)
and the registered grid ablations, ``repro-hydra allocators``, the
``--allocator`` CLI override — resolves strategies through this table
instead of importing solver modules directly.  Anything registered
before :func:`repro.cli.main` runs is sweepable with no driver code.

Spec strings double as report labels: every built-in factory produces
an allocator whose ``name`` attribute equals its registry spec, so a
scheme label in a table can always be resolved back to the strategy
that produced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.core.allocator import Allocator
from repro.errors import ConfigError
from repro.model.allocation import Allocation, AllocationResult
from repro.model.system import SystemModel

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


@dataclass(frozen=True)
class AllocatorInfo:
    """Registry metadata of one allocation strategy.

    Attributes
    ----------
    name:
        Registry spec — what TOML grids and ``--allocator`` accept.
    title:
        One-line human title (``repro-hydra allocators`` shows it).
    description:
        What the strategy does / which paper baseline it implements.
    tags:
        Free-form labels (``"paper"``, ``"optimal"``, ``"binpack"`` …).
    factory:
        Zero-argument callable producing a ready :class:`Allocator`.
    """

    name: str
    title: str
    description: str = ""
    tags: tuple[str, ...] = ()
    factory: Callable[[], Allocator] = field(repr=False, default=None)  # type: ignore[assignment]

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
        }


#: spec → registered strategy metadata (registration order preserved).
_REGISTRY: dict[str, AllocatorInfo] = {}


def _ensure_builtin_allocators() -> None:
    from importlib import import_module

    import_module("repro.allocators.builtin")


def register_allocator(
    name: str | None = None,
    *,
    title: str = "",
    description: str = "",
    tags: tuple[str, ...] = (),
    replace: bool = False,
) -> Callable:
    """Class/factory decorator registering a strategy under ``name``.

    ``name`` defaults to the class's ``name`` attribute.  Registering a
    taken spec raises unless ``replace=True`` (plugins overriding a
    built-in must say so explicitly).
    """

    def decorate(factory: Callable[[], Allocator]):
        # Load the built-ins first (re-entrant during their own import):
        # a plugin claiming a built-in name before any lookup happened
        # must still hit the collision check, not shadow it silently.
        _ensure_builtin_allocators()
        key = name or getattr(factory, "name", "")
        if not key:
            raise ConfigError(
                "allocator needs a registry name (decorator argument or "
                "a 'name' class attribute)"
            )
        if key in _REGISTRY and not replace:
            raise ConfigError(
                f"allocator {key!r} already registered; pass replace=True "
                f"to override"
            )
        _REGISTRY[key] = AllocatorInfo(
            name=key,
            title=title or getattr(factory, "__doc__", "") or key,
            description=description,
            tags=tuple(tags),
            factory=factory,
        )
        return factory

    return decorate


def unregister_allocator(name: str) -> None:
    """Remove ``name`` from the registry (test/plugin hygiene helper)."""
    _REGISTRY.pop(name, None)


def get_allocator_info(spec: str) -> AllocatorInfo:
    """The registry entry for ``spec``.

    Raises :class:`UnknownAllocatorError` naming every known spec —
    the CLI and the TOML validator turn this into a helpful hint.
    """
    _ensure_builtin_allocators()
    try:
        return _REGISTRY[spec]
    except KeyError:
        raise UnknownAllocatorError(
            f"unknown allocator {spec!r}; known allocators: "
            f"{', '.join(sorted(_REGISTRY))} "
            f"(see 'repro-hydra allocators')"
        ) from None


def get_allocator(spec: str) -> Allocator:
    """Instantiate the strategy registered under ``spec``."""
    return get_allocator_info(spec).factory()


def allocator_names() -> list[str]:
    """Every registered spec, in registration order."""
    _ensure_builtin_allocators()
    return list(_REGISTRY)


def iter_allocator_info() -> Iterator[AllocatorInfo]:
    """Registry entries of every strategy, in registration order."""
    _ensure_builtin_allocators()
    yield from _REGISTRY.values()


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
