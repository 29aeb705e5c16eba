"""The executor registry: execution backends as named plugins.

Backends self-register with :func:`register_executor` ::

    @register_executor(
        "my-backend",
        title="My backend in one line",
        tags=("extension",),
    )
    def make_my_backend(workers=None):
        return MyExecutor(workers)

The table is a :class:`repro.registry.Registry` whose built-ins live in
:mod:`repro.executors.builtin`.  Factories take the requested worker
count (``None`` means "backend default") and return a ready
:class:`~repro.executors.api.Executor`.

Choosing an executor can never change a result byte — backends are
required to be payload-identical — so executor names deliberately do
not participate in cache keys or job ids, exactly like worker counts.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.executors.api import Executor
from repro.registry import PluginInfo, Registry

__all__ = [
    "ExecutorInfo",
    "UnknownExecutorError",
    "register_executor",
    "unregister_executor",
    "get_executor",
    "get_executor_info",
    "executor_names",
    "iter_executor_info",
]


class UnknownExecutorError(ConfigError):
    """Raised when a spec resolves to no registered executor."""


#: Registry metadata of one backend; ``factory(workers=None)`` builds it.
ExecutorInfo = PluginInfo

REGISTRY = Registry("executor", "repro.executors.builtin", UnknownExecutorError)
register_executor = REGISTRY.register
unregister_executor = REGISTRY.unregister
get_executor_info = REGISTRY.info
executor_names = REGISTRY.names
iter_executor_info = REGISTRY.entries


def get_executor(spec: str, workers: int | None = None) -> Executor:
    """Instantiate the backend registered under ``spec``.

    ``workers`` is the requested fan-out (``None`` → backend default);
    serial backends may ignore it.
    """
    executor = get_executor_info(spec).factory(workers=workers)
    if not isinstance(executor, Executor):
        raise ConfigError(
            f"executor factory {spec!r} returned "
            f"{type(executor).__name__}, not an Executor"
        )
    return executor
