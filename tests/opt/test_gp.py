"""Unit tests for the geometric-program solver and the GP period route."""

from __future__ import annotations

import math

import pytest

from repro.analysis.interference import Interferer, InterferenceEnv
from repro.errors import InfeasibleError, ValidationError
from repro.model.task import SecurityTask
from repro.opt.gp import GeometricProgram, Monomial, Posynomial
from repro.opt.period import adapt_period
from repro.opt.period_gp import adapt_period_gp, build_period_gp


class TestMonomial:
    def test_evaluate(self):
        m = Monomial(2.0, {"x": 2.0, "y": -1.0})
        assert m.evaluate({"x": 3.0, "y": 2.0}) == pytest.approx(9.0)

    def test_rejects_nonpositive_coeff(self):
        with pytest.raises(ValidationError):
            Monomial(0.0, {})
        with pytest.raises(ValidationError):
            Monomial(-1.0, {"x": 1.0})

    def test_variables(self):
        assert Monomial(1.0, {"x": 1.0, "y": 0.0}).variables() == {"x"}


class TestPosynomial:
    def test_sum_of_monomials(self):
        p = Monomial(1.0, {"x": 1.0}) + Monomial(2.0, {})
        assert isinstance(p, Posynomial)
        assert p.evaluate({"x": 3.0}) == pytest.approx(5.0)

    def test_posynomial_addition(self):
        p = Posynomial([Monomial(1.0, {"x": 1.0})])
        q = p + Monomial(1.0, {"x": -1.0})
        assert q.evaluate({"x": 2.0}) == pytest.approx(2.5)

    def test_requires_terms(self):
        with pytest.raises(ValidationError):
            Posynomial([])


class TestGeometricProgram:
    def test_single_variable_box(self):
        # min x s.t. 2/x ≤ 1 → x* = 2.
        gp = GeometricProgram(
            Monomial(1.0, {"x": 1.0}),
            [Monomial(2.0, {"x": -1.0})],
        )
        result = gp.solve()
        assert result.variables["x"] == pytest.approx(2.0, rel=1e-5)
        assert result.objective == pytest.approx(2.0, rel=1e-5)

    def test_two_variable_known_optimum(self):
        # min 1/(xy) s.t. x ≤ 2, y ≤ 3 → optimum at (2, 3), value 1/6.
        gp = GeometricProgram(
            Monomial(1.0, {"x": -1.0, "y": -1.0}),
            [
                Monomial(0.5, {"x": 1.0}),
                Monomial(1.0 / 3.0, {"y": 1.0}),
            ],
        )
        result = gp.solve()
        assert result.variables["x"] == pytest.approx(2.0, rel=1e-4)
        assert result.variables["y"] == pytest.approx(3.0, rel=1e-4)

    def test_posynomial_constraint(self):
        # min x s.t. 1/x + x/10 ≤ 1.  Feasible x ∈ [~1.127, ~8.873].
        gp = GeometricProgram(
            Monomial(1.0, {"x": 1.0}),
            [Monomial(1.0, {"x": -1.0}) + Monomial(0.1, {"x": 1.0})],
        )
        result = gp.solve()
        expected = 5.0 - math.sqrt(15.0)  # smaller root of x²−10x+10
        assert result.variables["x"] == pytest.approx(expected, rel=1e-4)

    def test_infeasible_raises(self):
        # x ≤ 1 and x ≥ 2 simultaneously.
        gp = GeometricProgram(
            Monomial(1.0, {"x": 1.0}),
            [
                Monomial(1.0, {"x": 1.0}),  # x ≤ 1
                Monomial(2.0, {"x": -1.0}),  # x ≥ 2
            ],
        )
        with pytest.raises(InfeasibleError):
            gp.solve()

    def test_constant_constraint_above_one_infeasible(self):
        gp = GeometricProgram(
            Monomial(1.0, {"x": 1.0}),
            [Monomial(1.5, {}), Monomial(1.0, {"x": -1.0})],
        )
        with pytest.raises(InfeasibleError):
            gp.solve()

    def test_no_variables_rejected(self):
        with pytest.raises(ValidationError):
            GeometricProgram(Monomial(1.0, {}), [])

    def test_result_satisfies_constraints(self):
        constraints = [
            Monomial(3.0, {"x": -1.0, "y": -0.5}),
            Monomial(0.25, {"x": 1.0}),
            Monomial(0.2, {"y": 1.0}),
        ]
        gp = GeometricProgram(
            Monomial(1.0, {"x": 1.0, "y": 1.0}), constraints
        )
        result = gp.solve()
        for c in constraints:
            assert c.evaluate(result.variables) <= 1.0 + 1e-6


class TestPeriodGp:
    def test_build_has_three_constraints(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=1000.0
        )
        program = build_period_gp(task, InterferenceEnv())
        assert len(program.constraints) == 3

    def test_idle_core_matches_closed_form(self):
        task = SecurityTask(
            name="s", wcet=5.0, period_des=100.0, period_max=1000.0
        )
        environment = InterferenceEnv()
        gp_solution = adapt_period_gp(task, environment)
        closed = adapt_period(task, environment)
        assert gp_solution is not None and closed is not None
        assert gp_solution.period == pytest.approx(closed.period, rel=1e-5)

    def test_interference_matches_closed_form(self):
        task = SecurityTask(
            name="s", wcet=10.0, period_des=50.0, period_max=500.0
        )
        environment = InterferenceEnv([Interferer(20.0, 40.0)])
        gp_solution = adapt_period_gp(task, environment)
        closed = adapt_period(task, environment)
        assert gp_solution is not None and closed is not None
        assert gp_solution.period == pytest.approx(closed.period, rel=1e-5)
        assert gp_solution.tightness == pytest.approx(
            closed.tightness, rel=1e-5
        )

    def test_infeasible_returns_none(self):
        task = SecurityTask(
            name="s", wcet=10.0, period_des=50.0, period_max=55.0
        )
        environment = InterferenceEnv([Interferer(20.0, 40.0)])
        assert adapt_period_gp(task, environment) is None
        assert adapt_period(task, environment) is None
