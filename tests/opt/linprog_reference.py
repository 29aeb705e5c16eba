"""scipy's HiGHS solver behind :func:`repro.opt.lp.solve_lp`'s signature.

The reference the simplex in :mod:`repro.opt.lp` is cross-checked
against.  scipy is not a dependency of the package: a test that calls
:func:`solve_lp_highs` is skipped where scipy is missing.  Patching it
over ``repro.opt.joint.solve_lp`` routes every per-assignment LP of the
OPT searches through HiGHS.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.opt.lp import LpResult


def solve_lp_highs(
    c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None
) -> LpResult:
    """``solve_lp`` semantics, solved by ``scipy.optimize.linprog``."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(c)
    if bounds is None:
        bounds = [(0.0, math.inf)] * n
    if any(lb > ub for lb, ub in bounds):
        return LpResult(status="infeasible")
    res = linprog(
        c,
        A_ub=a_ub if a_ub is not None and len(a_ub) else None,
        b_ub=b_ub if b_ub is not None and len(b_ub) else None,
        A_eq=a_eq if a_eq is not None and len(a_eq) else None,
        b_eq=b_eq if b_eq is not None and len(b_eq) else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpResult(status="infeasible")
    if res.status == 3:
        return LpResult(status="unbounded")
    assert res.success, res.message
    return LpResult(
        status="optimal", x=np.asarray(res.x), objective=float(res.fun)
    )
