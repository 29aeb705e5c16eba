"""The workload registry: one decorator turns a generator into an axis.

Mirrors :mod:`repro.allocators.registry`: workload families
self-register with :func:`register_workload` ::

    @register_workload(
        "my-workload",
        title="My workload shape in one line",
        tags=("extension",),
    )
    class MyWorkload(WorkloadGenerator):
        name = "my-workload"
        def generate(self, platform, total_utilization, rng): ...

and every consumer — TOML scenario grids (``[grid] workload =
[...]``), ``repro-hydra workloads``, the ``--workload`` CLI override,
the ``workload-sample`` point runner — resolves generators through
this table instead of importing :mod:`repro.taskgen` recipes directly.
Anything registered before :func:`repro.cli.main` runs is sweepable
with no driver code.

Spec strings double as sweep-cell label prefixes: every built-in
factory produces a generator whose ``name`` attribute equals its
registry spec, so a ``uunifast::hydra|best-fit/rm/rta`` scheme label
can always be resolved back to the family that generated its task
sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.model.platform import Platform
from repro.taskgen.synthetic import SyntheticWorkload
from repro.workloads.api import WorkloadGenerator

__all__ = [
    "WorkloadInfo",
    "UnknownWorkloadError",
    "register_workload",
    "unregister_workload",
    "get_workload",
    "get_workload_info",
    "workload_names",
    "iter_workload_info",
    "run_workload",
]


class UnknownWorkloadError(ConfigError):
    """Raised when a spec resolves to no registered workload generator."""


@dataclass(frozen=True)
class WorkloadInfo:
    """Registry metadata of one workload family.

    Attributes
    ----------
    name:
        Registry spec — what TOML grids and ``--workload`` accept.
    title:
        One-line human title (``repro-hydra workloads`` shows it).
    description:
        What the family varies relative to the paper's Sec. IV-B recipe.
    tags:
        Free-form labels (``"paper"``, ``"periods"``, ``"case-study"`` …).
    factory:
        Zero-argument callable producing a ready
        :class:`~repro.workloads.api.WorkloadGenerator`.
    """

    name: str
    title: str
    description: str = ""
    tags: tuple[str, ...] = ()
    factory: Callable[[], WorkloadGenerator] = field(repr=False, default=None)  # type: ignore[assignment]

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
        }


#: spec → registered family metadata (registration order preserved).
_REGISTRY: dict[str, WorkloadInfo] = {}


def _ensure_builtin_workloads() -> None:
    from importlib import import_module

    import_module("repro.workloads.builtin")


def register_workload(
    name: str | None = None,
    *,
    title: str = "",
    description: str = "",
    tags: tuple[str, ...] = (),
    replace: bool = False,
) -> Callable:
    """Class/factory decorator registering a family under ``name``.

    ``name`` defaults to the class's ``name`` attribute.  Registering a
    taken spec raises unless ``replace=True`` (plugins overriding a
    built-in must say so explicitly).
    """

    def decorate(factory: Callable[[], WorkloadGenerator]):
        # Load the built-ins first (re-entrant during their own import):
        # a plugin claiming a built-in name before any lookup happened
        # must still hit the collision check, not shadow it silently.
        _ensure_builtin_workloads()
        key = name or getattr(factory, "name", "")
        if not key:
            raise ConfigError(
                "workload generator needs a registry name (decorator "
                "argument or a 'name' class attribute)"
            )
        if key in _REGISTRY and not replace:
            raise ConfigError(
                f"workload {key!r} already registered; pass replace=True "
                f"to override"
            )
        _REGISTRY[key] = WorkloadInfo(
            name=key,
            title=title or getattr(factory, "__doc__", "") or key,
            description=description,
            tags=tuple(tags),
            factory=factory,
        )
        return factory

    return decorate


def unregister_workload(name: str) -> None:
    """Remove ``name`` from the registry (test/plugin hygiene helper)."""
    _REGISTRY.pop(name, None)


def get_workload_info(spec: str) -> WorkloadInfo:
    """The registry entry for ``spec``.

    Raises :class:`UnknownWorkloadError` naming every known spec —
    the CLI and the TOML validator turn this into a helpful hint.
    """
    _ensure_builtin_workloads()
    try:
        return _REGISTRY[spec]
    except KeyError:
        raise UnknownWorkloadError(
            f"unknown workload {spec!r}; known workloads: "
            f"{', '.join(sorted(_REGISTRY))} "
            f"(see 'repro-hydra workloads')"
        ) from None


def get_workload(spec: str) -> WorkloadGenerator:
    """Instantiate the family registered under ``spec``."""
    return get_workload_info(spec).factory()


def workload_names() -> list[str]:
    """Every registered spec, in registration order."""
    _ensure_builtin_workloads()
    return list(_REGISTRY)


def iter_workload_info() -> Iterator[WorkloadInfo]:
    """Registry entries of every family, in registration order."""
    _ensure_builtin_workloads()
    yield from _REGISTRY.values()


def _resolve(
    workload: str | WorkloadGenerator,
) -> WorkloadGenerator:
    if isinstance(workload, str):
        return get_workload(workload)
    return workload


def run_workload(
    workload: str | WorkloadGenerator,
    platform: Platform | int,
    total_utilization: float,
    rng: np.random.Generator | int | None = None,
) -> SyntheticWorkload:
    """Resolve (if needed) and run one generator at one target.

    The uniform entry point of the workload API, mirroring
    :func:`repro.allocators.run_allocator`: accepts either a registry
    spec or a ready :class:`WorkloadGenerator`.
    """
    return _resolve(workload).generate(platform, total_utilization, rng)
