"""Multicore platform model.

The paper assumes a platform of ``M`` identical cores
``M = {π1, …, πM}`` with partitioned fixed-priority preemptive
scheduling.  A :class:`Platform` is little more than a validated core
count plus naming helpers, but keeping it as a first-class object lets
the allocators, analyses and the simulator share one vocabulary for
"core m".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ValidationError

__all__ = ["Platform"]


@dataclass(frozen=True, slots=True)
class Platform:
    """A symmetric multicore platform with ``num_cores`` identical cores.

    Cores are identified by integer indices ``0 … num_cores - 1``
    (the paper's ``π1 … πM`` one-based labels are only used for
    display).
    """

    num_cores: int

    def __post_init__(self) -> None:
        if not isinstance(self.num_cores, int) or self.num_cores < 1:
            raise ValidationError(
                f"a platform needs at least one core, got {self.num_cores!r}"
            )

    def cores(self) -> range:
        """The core indices, ``range(num_cores)``."""
        return range(self.num_cores)

    def __iter__(self) -> Iterator[int]:
        return iter(self.cores())

    def __len__(self) -> int:
        return self.num_cores

    def __contains__(self, core: object) -> bool:
        return isinstance(core, int) and 0 <= core < self.num_cores

    def validate_core(self, core: int) -> None:
        """Raise :class:`ValidationError` if ``core`` is not a valid index."""
        if core not in self:
            raise ValidationError(
                f"core index {core!r} outside platform with "
                f"{self.num_cores} cores"
            )
