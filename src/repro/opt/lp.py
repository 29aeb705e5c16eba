"""A dense two-phase simplex linear-programming solver.

Solves problems of the form

    min  c·x
    s.t. A_ub · x ≤ b_ub
         A_eq · x = b_eq
         lb ≤ x ≤ ub    (elementwise; ±inf allowed)

The joint period-optimisation of the OPT baseline
(:mod:`repro.opt.joint`) is an LP in the rate variables ``y = 1/T``
(DESIGN §2.2), and the paper's environment (GPkit/CVXOPT, or PuLP) is
not installable offline — so the solver is implemented here from
scratch.  Bland's anti-cycling rule guarantees termination; the test
suite cross-checks its results against ``scipy.optimize.linprog``
wherever scipy is installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SolverError, ValidationError

__all__ = ["LpResult", "solve_lp"]

_EPS = 1e-9


@dataclass(frozen=True)
class LpResult:
    """Outcome of an LP solve.

    ``status`` is one of ``"optimal"``, ``"infeasible"`` or
    ``"unbounded"``; ``x`` and ``objective`` are ``None`` unless optimal.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(
    c: Sequence[float],
    a_ub: Sequence[Sequence[float]] | None = None,
    b_ub: Sequence[float] | None = None,
    a_eq: Sequence[Sequence[float]] | None = None,
    b_eq: Sequence[float] | None = None,
    bounds: Sequence[tuple[float, float]] | None = None,
) -> LpResult:
    """Solve the LP described in the module docstring.

    Parameters
    ----------
    c:
        Objective coefficients (minimised).
    a_ub, b_ub:
        ``A_ub·x ≤ b_ub`` rows, optional.
    a_eq, b_eq:
        ``A_eq·x = b_eq`` rows, optional.
    bounds:
        Per-variable ``(lb, ub)``; defaults to ``(0, +inf)`` like the
        standard form.  Use ``-math.inf`` / ``math.inf`` for free sides.
    """
    c_arr = np.asarray(c, dtype=float)
    n = c_arr.shape[0]
    if n == 0:
        raise ValidationError("LP needs at least one variable")
    aub = np.asarray(a_ub, dtype=float) if a_ub is not None else np.zeros((0, n))
    bub = np.asarray(b_ub, dtype=float) if b_ub is not None else np.zeros(0)
    aeq = np.asarray(a_eq, dtype=float) if a_eq is not None else np.zeros((0, n))
    beq = np.asarray(b_eq, dtype=float) if b_eq is not None else np.zeros(0)
    if aub.shape != (bub.shape[0], n) or aeq.shape != (beq.shape[0], n):
        raise ValidationError("inconsistent LP matrix shapes")
    if bounds is None:
        bounds = [(0.0, math.inf)] * n
    if len(bounds) != n:
        raise ValidationError("one (lb, ub) pair required per variable")
    for lb, ub in bounds:
        if lb > ub:
            return LpResult(status="infeasible")

    return _solve_simplex(c_arr, aub, bub, aeq, beq, bounds)


# ---------------------------------------------------------------------------
# Simplex implementation
# ---------------------------------------------------------------------------


def _solve_simplex(c, aub, bub, aeq, beq, bounds) -> LpResult:
    """Reduce to standard form and run the two-phase tableau simplex."""
    n = c.shape[0]

    # --- variable substitution ------------------------------------------
    # Every original variable x_j becomes either (x'_j + lb_j) for finite
    # lb, or (x⁺_j − x⁻_j) when lb = −inf.  ``columns[j]`` lists the
    # (index, sign) pairs of standard-form variables composing x_j;
    # ``offsets[j]`` is the additive constant.
    columns: list[list[tuple[int, float]]] = []
    offsets = np.zeros(n)
    num_std = 0
    extra_ub_rows: list[tuple[int, float]] = []  # (orig var, ub) pairs
    for j, (lb, ub) in enumerate(bounds):
        if math.isinf(lb) and lb > 0 or math.isinf(ub) and ub < 0:
            raise ValidationError(f"invalid bounds for variable {j}: {lb}, {ub}")
        if math.isinf(lb):
            columns.append([(num_std, 1.0), (num_std + 1, -1.0)])
            num_std += 2
        else:
            columns.append([(num_std, 1.0)])
            offsets[j] = lb
            num_std += 1
        if not math.isinf(ub):
            extra_ub_rows.append((j, ub))

    def expand_row(row: np.ndarray) -> np.ndarray:
        out = np.zeros(num_std)
        for j, coeff in enumerate(row):
            if coeff != 0.0:
                for idx, sign in columns[j]:
                    out[idx] += coeff * sign
        return out

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    senses: list[str] = []  # "le" or "eq"
    for i in range(aub.shape[0]):
        rows.append(expand_row(aub[i]))
        rhs.append(float(bub[i] - aub[i] @ offsets))
        senses.append("le")
    for j, ub in extra_ub_rows:
        unit = np.zeros(n)
        unit[j] = 1.0
        rows.append(expand_row(unit))
        rhs.append(float(ub - offsets[j]))
        senses.append("le")
    for i in range(aeq.shape[0]):
        rows.append(expand_row(aeq[i]))
        rhs.append(float(beq[i] - aeq[i] @ offsets))
        senses.append("eq")

    c_std = np.zeros(num_std)
    for j, coeff in enumerate(c):
        for idx, sign in columns[j]:
            c_std[idx] += coeff * sign
    objective_offset = float(c @ offsets)

    m = len(rows)
    if m == 0:
        # No constraints: optimum is at a bound or unbounded.
        x_std = np.zeros(num_std)
        if np.any(c_std < -_EPS):
            return LpResult(status="unbounded")
        x = _recover(x_std, columns, offsets, n)
        return LpResult(status="optimal", x=x, objective=objective_offset)

    # --- slack variables and non-negative rhs ----------------------------
    num_slack = sum(1 for s in senses if s == "le")
    total = num_std + num_slack
    a_full = np.zeros((m, total))
    b_full = np.zeros(m)
    slack_at = num_std
    for i, (row, b_i, sense) in enumerate(zip(rows, rhs, senses)):
        a_full[i, :num_std] = row
        b_full[i] = b_i
        if sense == "le":
            a_full[i, slack_at] = 1.0
            slack_at += 1
    for i in range(m):
        if b_full[i] < 0:
            a_full[i] *= -1.0
            b_full[i] *= -1.0

    # --- phase 1 ----------------------------------------------------------
    tableau = np.zeros((m, total + m))
    tableau[:, :total] = a_full
    tableau[:, total:] = np.eye(m)
    basis = list(range(total, total + m))
    cost1 = np.zeros(total + m)
    cost1[total:] = 1.0
    value1, status = _simplex_core(tableau, b_full, cost1, basis)
    if status == "unbounded":  # pragma: no cover - phase 1 is bounded below
        raise SolverError("phase-1 simplex reported unbounded")
    if value1 > 1e-7:
        return LpResult(status="infeasible")
    keep = _drive_out_artificials(tableau, b_full, basis, total)

    # --- phase 2 ----------------------------------------------------------
    tableau2 = np.ascontiguousarray(tableau[keep][:, :total])
    b2 = b_full[keep]
    basis2 = [basis[i] for i in keep]
    cost2 = np.zeros(total)
    cost2[:num_std] = c_std
    value2, status = _simplex_core(tableau2, b2, cost2, basis2)
    if status == "unbounded":
        return LpResult(status="unbounded")
    x_std = np.zeros(total)
    for i, var in enumerate(basis2):
        x_std[var] = b2[i]
    x = _recover(x_std[:num_std], columns, offsets, n)
    return LpResult(
        status="optimal", x=x, objective=float(value2 + objective_offset)
    )


def _recover(x_std, columns, offsets, n) -> np.ndarray:
    x = np.array(offsets, dtype=float)
    for j in range(n):
        for idx, sign in columns[j]:
            x[j] += sign * x_std[idx]
    return x


def _simplex_core(
    tableau: np.ndarray,
    rhs: np.ndarray,
    cost: np.ndarray,
    basis: list[int],
    max_pivots: int = 100_000,
) -> tuple[float, str]:
    """Run the primal simplex on an explicit tableau, in place.

    ``tableau`` (m×k) and ``rhs`` (m) must describe a basic feasible
    solution with basic columns listed in ``basis``.  Uses Bland's rule.
    Returns the optimal objective value and a status string.
    """
    m, k = tableau.shape
    for _ in range(max_pivots):
        # Reduced costs: c_j − c_B · B⁻¹ A_j.  The tableau is kept in
        # canonical form, so B⁻¹A is the tableau itself.
        cb = cost[basis]
        reduced = cost - cb @ tableau
        reduced[basis] = 0.0  # exactly zero for basic columns
        entering = -1
        for j in range(k):
            if reduced[j] < -_EPS:
                entering = j  # Bland: smallest index
                break
        if entering < 0:
            return float(cb @ rhs), "optimal"
        # Ratio test (Bland: smallest basis index among ties).
        leaving = -1
        best_ratio = math.inf
        for i in range(m):
            coef = tableau[i, entering]
            if coef > _EPS:
                ratio = rhs[i] / coef
                if ratio < best_ratio - _EPS or (
                    abs(ratio - best_ratio) <= _EPS
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return math.nan, "unbounded"
        _pivot(tableau, rhs, leaving, entering)
        basis[leaving] = entering
    raise SolverError("simplex exceeded the pivot limit")  # pragma: no cover


def _pivot(tableau: np.ndarray, rhs: np.ndarray, row: int, col: int) -> None:
    pivot = tableau[row, col]
    tableau[row] /= pivot
    rhs[row] /= pivot
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            factor = tableau[i, col]
            tableau[i] -= factor * tableau[row]
            rhs[i] -= factor * rhs[row]


def _drive_out_artificials(
    tableau: np.ndarray, rhs: np.ndarray, basis: list[int], total: int
) -> list[int]:
    """After phase 1, pivot any artificial variable out of the basis (its
    value is zero).  Rows where no real column can serve as a pivot are
    redundant constraints; they are excluded from the returned list of
    rows to keep for phase 2.
    """
    m = tableau.shape[0]
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= total:
            pivot_col = -1
            for j in range(total):
                if abs(tableau[i, j]) > _EPS:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, rhs, i, pivot_col)
                basis[i] = pivot_col
                keep.append(i)
            # else: redundant row, dropped.
        else:
            keep.append(i)
    return keep
