"""Discrete-event scheduling simulator (the Fig. 1 substrate).

* :mod:`repro.sim.engine` — the multicore fixed-priority engine.
  ``Simulator.run`` takes a per-core kernel when every task is bound to
  a core, preemptible, strictly periodic, runs its full WCET and has no
  predecessors (and slices are off); any other input runs the
  reference event loop, ``Simulator.run_reference``.  The kernel is
  pinned bit for bit to the reference run on each core's tasks alone,
  and keeps finished jobs as per-task columns (``SimResult.track``).
* :mod:`repro.sim.band` — the security tasks alone, in the idle time
  the real-time band leaves on each core (the paper puts every security
  task below every real-time task).  Detection points take it
  (``simulate_allocation(..., security_only=True)``): it computes each
  core's real-time busy periods once, with numpy, and steps through
  security jobs only, on a clock that jumps over the busy periods; a
  busy period whose end a sum of WCETs would not round as the kernel
  does is replayed with the kernel's loop.  Its oracles are the kernel
  (the same security jobs and misses, times bit for bit) and exact RTA
  (each monitor's first job ends at its critical-instant response
  time).
* :mod:`repro.sim.runner` — system+allocation → simulation bridge.
* :mod:`repro.sim.attacks` / :mod:`repro.sim.detection` — attack
  injection and detection-time measurement.
* :mod:`repro.sim.trace` — trace utilities (merge, Gantt).
"""

from repro.sim.attacks import Attack, sample_attacks, surfaces_of
from repro.sim.detection import (
    DETECTION_POLICIES,
    DetectionIndex,
    build_surface_map,
    detection_time,
    detection_times,
    undetected_breakdown,
)
from repro.sim.engine import SimResult, SimTask, Simulator
from repro.sim.events import DeadlineMiss, ExecutionSlice, JobRecord, JobTrack
from repro.sim.runner import build_sim_tasks, simulate_allocation
from repro.sim.trace import ascii_gantt, merge_slices

__all__ = [
    "SimTask",
    "Simulator",
    "SimResult",
    "JobRecord",
    "JobTrack",
    "ExecutionSlice",
    "DeadlineMiss",
    "build_sim_tasks",
    "simulate_allocation",
    "Attack",
    "sample_attacks",
    "surfaces_of",
    "build_surface_map",
    "detection_time",
    "detection_times",
    "undetected_breakdown",
    "DetectionIndex",
    "DETECTION_POLICIES",
    "ascii_gantt",
    "merge_slices",
]
