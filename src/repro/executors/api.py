"""The executor protocol: *where* sweep points run, behind one surface.

The :class:`~repro.experiments.parallel.SweepEngine` decides *which*
points of a :class:`~repro.experiments.parallel.SweepSpec` must be
computed (cache misses, cancellation batches); an :class:`Executor`
decides *where* those computations happen — in-process, over a fork
pool, or across long-lived worker subprocesses speaking a
newline-delimited-JSON task protocol.  Because every point
is deterministic (its SeedSequence stream depends only on the spec and
the point index) and every payload is plain JSON, executors are
interchangeable: any registered backend must produce byte-identical
results, which the golden fixtures and the CI smoke pin.

Executors self-register with
:func:`~repro.executors.registry.register_executor` exactly like
allocators and workloads do; ``python -m repro executors``
lists/describes them and ``--executor NAME`` selects one per run.

The unit of work is deliberately *the sweep point*, not an arbitrary
callable: a point is addressed by ``(spec, index)`` and both halves
serialise to plain JSON, so the same protocol works for an in-process
loop, a pickled pool call, a subprocess line protocol — and, later, a
multi-host transport — without executors ever needing to ship code.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = ["Executor"]


class Executor(ABC):
    """One execution backend for sweep points.

    Contract
    --------
    * :meth:`run_points` computes the given point indices of one spec
      and returns ``(index, payload)`` pairs **in the requested
      order**, with each payload equal — as a JSON value — to what
      :func:`repro.experiments.parallel.execute_point` returns for
      that index.  Determinism makes retries safe: running a point
      twice yields the same payload.
    * Executors never touch the result store; the engine persists
      payloads from the submitting process, so cache behaviour is
      identical across backends.
    * :meth:`close` releases any long-lived resources (worker
      processes, sockets) and is idempotent; a closed executor may
      lazily re-acquire them if used again (both built-in worker
      backends do).  Whoever built an executor closes it.
    """

    #: Registry spec of the backend (set by the concrete class).
    name: str = ""

    #: Requested fan-out (1 means serial); informational for backends
    #: that have no workers at all.
    workers: int = 1

    @abstractmethod
    def run_points(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        """Compute ``indices`` of ``spec``; ordered ``(index, payload)``."""

    def close(self) -> None:
        """Release long-lived resources (idempotent; default: none)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
