"""One plugin registry: a decorator turns a factory into a named plugin.

The allocator, workload and executor surfaces each bind one
:class:`Registry` and re-export its methods under their own names
(``register_allocator``, ``get_workload_info``, ``executor_names`` …)::

    REGISTRY = Registry(
        "allocator", "repro.allocators.builtin", UnknownAllocatorError
    )
    register_allocator = REGISTRY.register

so how a plugin is registered, found, listed and reported unknown is
decided here once.  Every consumer — TOML scenario grids, the
``--allocator`` / ``--workload`` / ``--executor`` flags, job
submissions and the ``repro-hydra allocators|workloads|executors``
listings — resolves specs through one of these tables, so anything
registered before :func:`repro.cli.main` runs is usable by name with
no driver code.

Each registry imports its one built-ins module before any lookup or
registration, so a plugin that claims a built-in name fails at its own
registration instead of shadowing the built-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Iterator

from repro.errors import ConfigError

__all__ = ["PluginInfo", "Registry"]


@dataclass(frozen=True)
class PluginInfo:
    """Registry metadata of one plugin.

    Attributes
    ----------
    name:
        Registry spec — what TOML grids, CLI flags and job submissions
        accept.
    title:
        One-line human title (the listing commands show it).
    description:
        What the plugin does / which paper baseline it implements.
    tags:
        Free-form labels (``"paper"``, ``"extension"``, ``"local"`` …).
    factory:
        Callable producing a ready plugin instance.
    """

    name: str
    title: str
    description: str = ""
    tags: tuple[str, ...] = ()
    factory: Callable[..., Any] = field(repr=False, default=None)  # type: ignore[assignment]

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "tags": list(self.tags),
        }


class Registry:
    """Spec → :class:`PluginInfo`, in registration order.

    Parameters
    ----------
    noun:
        What one entry is called in messages (``"allocator"``); its
        plural names the listing command.
    builtins_module:
        The one module whose import registers every built-in.
    unknown_error:
        The :class:`~repro.errors.ConfigError` subclass an unknown spec
        raises.
    """

    def __init__(
        self,
        noun: str,
        builtins_module: str,
        unknown_error: type[ConfigError],
    ) -> None:
        self._noun = noun
        self._builtins_module = builtins_module
        self._unknown_error = unknown_error
        self._entries: dict[str, PluginInfo] = {}

    def _load_builtins(self) -> None:
        # No "loaded" flag: the import system already hands the
        # half-imported module back to its own registrations, which
        # land here, and makes any other thread wait until the import
        # is done.  A flag set before the import would let that thread
        # read a half-filled table.
        import_module(self._builtins_module)

    def register(
        self,
        name: str | None = None,
        *,
        title: str = "",
        description: str = "",
        tags: tuple[str, ...] = (),
        replace: bool = False,
    ) -> Callable:
        """Class/factory decorator registering a plugin under ``name``.

        ``name`` defaults to the factory's ``name`` attribute.
        Registering a taken spec raises unless ``replace=True`` (plugins
        overriding a built-in must say so explicitly).
        """

        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            self._load_builtins()
            key = name or getattr(factory, "name", "")
            if not key:
                raise ConfigError(
                    f"{self._noun} needs a non-empty registry name "
                    f"(decorator argument or a 'name' class attribute)"
                )
            if key in self._entries and not replace:
                raise ConfigError(
                    f"{self._noun} {key!r} already registered; pass "
                    f"replace=True to override"
                )
            self._entries[key] = PluginInfo(
                name=key,
                title=title or getattr(factory, "__doc__", "") or key,
                description=description,
                tags=tuple(tags),
                factory=factory,
            )
            return factory

        return decorate

    def unregister(self, name: str) -> None:
        """Remove ``name`` from the registry (test/plugin hygiene helper)."""
        self._entries.pop(name, None)

    def info(self, spec: str) -> PluginInfo:
        """The entry for ``spec``.

        Raises the registry's unknown-spec error naming every known
        spec — the CLI, the TOML validator and the job service turn
        this into a helpful hint.
        """
        self._load_builtins()
        try:
            return self._entries[spec]
        except KeyError:
            raise self._unknown_error(
                f"unknown {self._noun} {spec!r}; known {self._noun}s: "
                f"{', '.join(sorted(self._entries))} "
                f"(see 'repro-hydra {self._noun}s')"
            ) from None

    def names(self) -> list[str]:
        """Every registered spec, in registration order."""
        self._load_builtins()
        return list(self._entries)

    def entries(self) -> Iterator[PluginInfo]:
        """Every entry, in registration order."""
        self._load_builtins()
        yield from self._entries.values()
