"""Common allocator interface.

The :class:`Allocator` ABC is the behavioural contract every
allocation scheme in the paper (HYDRA, SingleCore, OPT), every
ablation variant, and every registered strategy
(:mod:`repro.allocators`) implements.  The result types it produces
(:class:`~repro.model.allocation.Allocation` and friends) live in
:mod:`repro.model.allocation`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.allocation import Allocation
    from repro.model.system import SystemModel

__all__ = ["Allocator"]


class Allocator(abc.ABC):
    """Base class for security-task allocation schemes.

    This is the single strategy protocol of the allocator API: one
    method, ``allocate(system) -> Allocation``, over the shared
    :class:`~repro.model.system.SystemModel` input (which carries the
    :class:`~repro.model.platform.Platform`).  Register implementations
    with :func:`repro.allocators.register_allocator` to make them
    sweepable from TOML grids and the CLI.
    """

    #: Short scheme identifier used in results and reports.
    name: str = "base"

    @abc.abstractmethod
    def allocate(self, system: SystemModel) -> Allocation:
        """Allocate the system's security tasks.

        Must return an :class:`Allocation` (never raise for ordinary
        unschedulability — that outcome is data, not an error).
        """
