"""The Table I security-task suite: Tripwire and Bro.

The paper illustrates security integration with the default task split
of two open-source intrusion-detection tools — Tripwire (host integrity:
hash checks over binaries, libraries, device/kernel state and
configuration) and Bro (network monitoring) — and measures their WCETs
on a 1 GHz ARM Cortex-A8.  Those measurements are not printed in the
paper; the WCETs below are representative magnitudes for hash-sweep and
packet-scan workloads on such a board (tens to hundreds of
milliseconds), with desired periods drawn from the paper's ``[1000,
3000]`` ms range and ``T_max = 10·T_des`` as in Sec. IV-B.

Each task carries the attack ``surface`` it monitors; the attack
injection model (:mod:`repro.sim.attacks`) uses it to decide which task
can detect which attack.  ``TRIPWIRE_PRECEDENCE`` encodes the paper's
§V observation that the checker's *own* binary should be validated
before it checks anything else (used by the precedence-constraint
simulator extension).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.model.task import SecurityTask, TaskSet

__all__ = [
    "SecurityAppSpec",
    "TABLE1_SPECS",
    "table1_security_tasks",
    "TRIPWIRE_PRECEDENCE",
]


@dataclass(frozen=True, slots=True)
class SecurityAppSpec:
    """One row of Table I with our representative timing parameters."""

    name: str
    application: str  # "tripwire" or "bro"
    function: str  # the paper's description of what the task does
    surface: str  # attack surface label used by the simulator
    wcet: float
    period_des: float

    @property
    def period_max(self) -> float:
        return 10.0 * self.period_des

    def to_task(self, wcet_scale: float = 1.0) -> SecurityTask:
        return SecurityTask(
            name=self.name,
            wcet=self.wcet * wcet_scale,
            period_des=self.period_des,
            period_max=self.period_max,
            surface=self.surface,
        )


#: Table I of the paper, one spec per row (timing values representative).
TABLE1_SPECS: tuple[SecurityAppSpec, ...] = (
    SecurityAppSpec(
        name="tw_own_binary",
        application="tripwire",
        function="Compare the hash value of the security application binary",
        surface="security-binary",
        wcet=180.0,
        period_des=1000.0,
    ),
    SecurityAppSpec(
        name="tw_executables",
        application="tripwire",
        function="Check hash of the file-system binaries (/bin, /sbin)",
        surface="filesystem",
        wcet=500.0,
        period_des=1500.0,
    ),
    SecurityAppSpec(
        name="tw_libraries",
        application="tripwire",
        function="Check library hashes (/lib)",
        surface="libraries",
        wcet=350.0,
        period_des=2000.0,
    ),
    SecurityAppSpec(
        name="tw_kernel_dev",
        application="tripwire",
        function="Check hash of peripherals and kernel info (/dev, /proc)",
        surface="kernel",
        wcet=330.0,
        period_des=2500.0,
    ),
    SecurityAppSpec(
        name="tw_config",
        application="tripwire",
        function="Check configuration hashes (/etc)",
        surface="config",
        wcet=330.0,
        period_des=3000.0,
    ),
    SecurityAppSpec(
        name="bro_network",
        application="bro",
        function="Scan network interface traffic (e.g. en0)",
        surface="network",
        wcet=300.0,
        period_des=1250.0,
    ),
)

#: §V precedence: check the checker's own binary before everything else.
TRIPWIRE_PRECEDENCE: dict[str, tuple[str, ...]] = {
    "tw_executables": ("tw_own_binary",),
    "tw_libraries": ("tw_own_binary",),
    "tw_kernel_dev": ("tw_own_binary",),
    "tw_config": ("tw_own_binary",),
}


def table1_security_tasks(wcet_scale: float = 1.0) -> TaskSet:
    """The six Table I security tasks as a :class:`TaskSet`.

    ``wcet_scale`` uniformly scales the WCETs (e.g. to model a slower
    board) without altering the period structure.
    """
    if wcet_scale <= 0:
        raise ValidationError(f"wcet_scale must be positive, got {wcet_scale}")
    return TaskSet(spec.to_task(wcet_scale) for spec in TABLE1_SPECS)
