"""Unit tests for the two-phase simplex LP solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from linprog_reference import solve_lp_highs
from repro.errors import ValidationError
from repro.opt.lp import solve_lp


class TestBasics:
    def test_trivial_bound_optimum(self):
        # min x, x ≥ 0 → 0.
        result = solve_lp([1.0])
        assert result.is_optimal
        assert result.objective == pytest.approx(0.0)

    def test_maximize_via_negation(self):
        # max x s.t. x ≤ 5 → min −x.
        result = solve_lp([-1.0], a_ub=[[1.0]], b_ub=[5.0])
        assert result.x[0] == pytest.approx(5.0)
        assert result.objective == pytest.approx(-5.0)

    def test_two_variable_vertex(self):
        # min −x − 2y s.t. x + y ≤ 4, x ≤ 2 → (0, 4), value −8.
        result = solve_lp(
            [-1.0, -2.0],
            a_ub=[[1.0, 1.0], [1.0, 0.0]],
            b_ub=[4.0, 2.0],
        )
        assert result.x == pytest.approx([0.0, 4.0])
        assert result.objective == pytest.approx(-8.0)

    def test_two_variable_vertex_balanced(self):
        # min −2x − y s.t. x + y ≤ 4, x ≤ 2 → (2, 2), value −6.
        result = solve_lp(
            [-2.0, -1.0],
            a_ub=[[1.0, 1.0], [1.0, 0.0]],
            b_ub=[4.0, 2.0],
        )
        assert result.x == pytest.approx([2.0, 2.0])
        assert result.objective == pytest.approx(-6.0)

    def test_equality_constraint(self):
        # min x + y s.t. x + y = 3, x,y ≥ 0 → 3.
        result = solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0])
        assert result.objective == pytest.approx(3.0)

    def test_lower_bounds_shift(self):
        # min x with x ∈ [2, 10] → 2.
        result = solve_lp([1.0], bounds=[(2.0, 10.0)])
        assert result.x[0] == pytest.approx(2.0)

    def test_upper_bounds(self):
        result = solve_lp([-1.0], bounds=[(0.0, 7.0)])
        assert result.x[0] == pytest.approx(7.0)

    def test_free_variable(self):
        # min x with x free and x ≥ −3 via constraint −x ≤ 3.
        result = solve_lp(
            [1.0], a_ub=[[-1.0]], b_ub=[3.0],
            bounds=[(-math.inf, math.inf)],
        )
        assert result.x[0] == pytest.approx(-3.0)

    def test_negative_rhs_handled(self):
        # −x ≤ −2  ⇔  x ≥ 2.
        result = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        assert result.x[0] == pytest.approx(2.0)


class TestStatuses:
    def test_infeasible(self):
        # x ≤ 1 and x ≥ 2.
        result = solve_lp(
            [1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0]
        )
        assert result.status == "infeasible"
        assert result.x is None

    def test_unbounded(self):
        result = solve_lp([-1.0])  # max x, x ≥ 0, no upper limit
        assert result.status == "unbounded"

    def test_crossed_bounds_infeasible(self):
        assert solve_lp([1.0], bounds=[(3.0, 2.0)]).status == "infeasible"

    def test_degenerate_equality_feasible(self):
        # Redundant pair of equalities.
        result = solve_lp(
            [1.0, 1.0],
            a_eq=[[1.0, 1.0], [2.0, 2.0]],
            b_eq=[2.0, 4.0],
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)

    def test_inconsistent_equalities_infeasible(self):
        result = solve_lp(
            [1.0, 1.0],
            a_eq=[[1.0, 1.0], [1.0, 1.0]],
            b_eq=[2.0, 3.0],
        )
        assert result.status == "infeasible"


class TestValidation:
    def test_empty_objective_rejected(self):
        with pytest.raises(ValidationError):
            solve_lp([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_lp([1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])

    def test_wrong_bounds_length_rejected(self):
        with pytest.raises(ValidationError):
            solve_lp([1.0, 2.0], bounds=[(0.0, 1.0)])


class TestAgainstScipy:
    """Randomised cross-checks against scipy's HiGHS solver (skipped
    where scipy is not installed)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_bounded_problems(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        # Keep feasible: constraints satisfied at the origin-ish point.
        b_ub = np.abs(rng.normal(size=m)) + 1.0
        bounds = [(0.0, float(rng.uniform(0.5, 5.0))) for _ in range(n)]
        ours = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        scipy_result = solve_lp_highs(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        assert ours.status == scipy_result.status
        if ours.is_optimal:
            assert ours.objective == pytest.approx(
                scipy_result.objective, abs=1e-6
            )

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_random_problems_with_equalities(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        c = rng.normal(size=n)
        a_eq = rng.normal(size=(1, n))
        x0 = rng.uniform(0.2, 0.8, size=n)
        b_eq = a_eq @ x0  # feasible by construction
        bounds = [(0.0, 1.0)] * n
        ours = solve_lp(c, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        scipy_result = solve_lp_highs(c, a_eq=a_eq, b_eq=b_eq, bounds=bounds)
        assert ours.status == scipy_result.status
        if ours.is_optimal:
            assert ours.objective == pytest.approx(
                scipy_result.objective, abs=1e-6
            )

    def test_solution_feasibility(self):
        rng = np.random.default_rng(99)
        c = rng.normal(size=4)
        a_ub = rng.normal(size=(3, 4))
        b_ub = np.abs(rng.normal(size=3)) + 0.5
        bounds = [(0.0, 2.0)] * 4
        result = solve_lp(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
        assert result.is_optimal
        assert np.all(a_ub @ result.x <= b_ub + 1e-8)
        assert np.all(result.x >= -1e-9)
        assert np.all(result.x <= 2.0 + 1e-9)
