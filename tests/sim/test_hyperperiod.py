"""A synchronous periodic schedule repeats every hyperperiod.

When every task releases at ``t = 0`` and the core meets every
implicit deadline, no work is left at the hyperperiod ``H`` (the least
common multiple of the periods), so the schedule from ``kH`` on is the
schedule from 0 shifted by ``kH``: each window's jobs see the same
response times, the core is busy for the same demand, and the first job
of every window sits at a critical instant.  Both event loops are held
to it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.analysis.rta import response_time
from repro.analysis.schedulability import rta_test
from repro.model.task import RealTimeTask
from repro.sim.engine import SimTask, Simulator

#: One core's tasks as ``(wcet, period)``, highest priority first (rate
#: monotonic).  Every period is a multiple of 0.5, so every release and
#: completion time is exact in binary floating point.
PERIOD_SETS = {
    "single": [(2.0, 10.0)],
    "harmonic": [(1.0, 5.0), (2.0, 10.0), (4.0, 20.0)],
    "integer": [(1.0, 4.0), (2.0, 6.0), (1.0, 10.0)],
    "coprime": [(1.0, 3.0), (1.0, 5.0), (1.0, 7.0)],
    "fractional": [(0.5, 2.5), (1.0, 5.0), (1.5, 7.5)],
    "full-load-harmonic": [(2.0, 4.0), (4.0, 8.0)],
}


def hyperperiod(periods) -> float:
    """The least common multiple of exact rational periods:
    ``lcm(numerators) / gcd(denominators)`` of the reduced fractions."""
    fractions = [Fraction(period) for period in periods]
    numerator = math.lcm(*(f.numerator for f in fractions))
    denominator = math.gcd(*(f.denominator for f in fractions))
    return numerator / denominator


def sim_tasks(pairs) -> list[SimTask]:
    return [
        SimTask(name=f"t{i}", wcet=wcet, period=period, priority=i, core=0)
        for i, (wcet, period) in enumerate(pairs)
    ]


def windows_of(result, name: str, h: float) -> dict[int, list[float]]:
    """The response times of ``name``'s finished jobs, keyed by the
    hyperperiod window each job was released in."""
    track = result.track(name)
    windows: dict[int, list[float]] = {}
    for release, done in zip(track.release, track.completion):
        windows.setdefault(int(release // h), []).append(done - release)
    return windows


@pytest.fixture(params=["run", "run_reference"])
def engine(request) -> str:
    return request.param


@pytest.fixture(params=sorted(PERIOD_SETS))
def pairs(request):
    pairs = PERIOD_SETS[request.param]
    tasks = [RealTimeTask(name=f"t{i}", wcet=c, period=t)
             for i, (c, t) in enumerate(pairs)]
    assert rta_test(tasks)  # every window then starts with no backlog
    return pairs


def test_hyperperiod_of_known_sets():
    assert hyperperiod([5.0, 10.0, 20.0]) == 20.0
    assert hyperperiod([3.0, 5.0, 7.0]) == 105.0
    assert hyperperiod([2.5, 5.0, 7.5]) == 15.0


def test_responses_repeat_every_hyperperiod(pairs, engine):
    h = hyperperiod([period for _, period in pairs])
    result = getattr(Simulator(sim_tasks(pairs), 1, 3 * h), engine)()
    assert result.misses == []
    for i, (_, period) in enumerate(pairs):
        windows = windows_of(result, f"t{i}", h)
        assert sorted(windows) == [0, 1, 2]
        assert len(windows[0]) == round(h / period)
        assert windows[1] == pytest.approx(windows[0], abs=1e-9)
        assert windows[2] == pytest.approx(windows[0], abs=1e-9)


def test_busy_time_over_whole_hyperperiods_is_the_demand(pairs, engine):
    h = hyperperiod([period for _, period in pairs])
    result = getattr(Simulator(sim_tasks(pairs), 1, 2 * h), engine)()
    demand = 0.0
    for wcet, period in pairs:
        demand += round(2 * h / period) * wcet
    assert result.busy_time[0] == pytest.approx(demand, abs=1e-9)


def test_every_window_opens_at_a_critical_instant(pairs, engine):
    h = hyperperiod([period for _, period in pairs])
    result = getattr(Simulator(sim_tasks(pairs), 1, 3 * h), engine)()
    for i, (wcet, _) in enumerate(pairs):
        bound = response_time(wcet, pairs[:i])
        windows = windows_of(result, f"t{i}", h)
        for window in (0, 1, 2):
            assert windows[window][0] == pytest.approx(bound, abs=1e-9)
            assert max(windows[window]) <= bound + 1e-9
