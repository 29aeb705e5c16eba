"""A small geometric-programming (GP) solver.

The paper's appendix reformulates period adaptation as a GP:

    min  f0(y)   s.t.  fi(y) ≤ 1  (posynomials),  gj(y) = 1  (monomials)

and solves the log-transformed convex problem with an interior-point
method (via GPkit/CVXOPT on the authors' testbed).  Neither package can
be installed here, so this module implements the same pipeline from
scratch:

* a tiny posynomial algebra (:class:`Monomial`, :class:`Posynomial`);
* the log transform ``y = e^t`` turning each posynomial constraint into a
  log-sum-exp convex function;
* a two-phase log-barrier interior-point method with damped Newton steps.

It is deliberately general (any number of variables, any posynomial
constraints) so it can also solve GP formulations beyond Eq. (7); its
answers are property-tested against the closed form of
:mod:`repro.opt.period`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InfeasibleError, SolverError, ValidationError

__all__ = [
    "Monomial",
    "Posynomial",
    "GeometricProgram",
    "GpResult",
]


@dataclass(frozen=True)
class Monomial:
    """``c · Π y_v^{a_v}`` with positive coefficient ``c``."""

    coeff: float
    exponents: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.coeff <= 0 or not math.isfinite(self.coeff):
            raise ValidationError(
                f"monomial coefficient must be positive and finite, got "
                f"{self.coeff!r}"
            )
        object.__setattr__(self, "exponents", dict(self.exponents))

    def __add__(self, other: "Monomial | Posynomial") -> "Posynomial":
        return Posynomial([self]) + other

    def evaluate(self, values: Mapping[str, float]) -> float:
        result = self.coeff
        for var, a in self.exponents.items():
            result *= values[var] ** a
        return result

    def variables(self) -> set[str]:
        return {v for v, a in self.exponents.items() if a != 0.0}


class Posynomial:
    """A sum of monomials (all coefficients positive)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Monomial]) -> None:
        self._terms = tuple(terms)
        if not self._terms:
            raise ValidationError("a posynomial needs at least one monomial")

    @property
    def terms(self) -> tuple[Monomial, ...]:
        return self._terms

    def __add__(self, other: "Posynomial | Monomial") -> "Posynomial":
        if isinstance(other, Monomial):
            return Posynomial((*self._terms, other))
        return Posynomial((*self._terms, *other.terms))

    __radd__ = __add__

    def evaluate(self, values: Mapping[str, float]) -> float:
        """The sum of the terms, added left to right."""
        total = 0.0
        for term in self._terms:
            total += term.evaluate(values)
        return total

    def variables(self) -> set[str]:
        result: set[str] = set()
        for term in self._terms:
            result |= term.variables()
        return result


def _as_posynomial(p: Posynomial | Monomial) -> Posynomial:
    return Posynomial([p]) if isinstance(p, Monomial) else p


class _LogSumExp:
    """Log-space form of a posynomial: ``f(t) = log Σ_k exp(A_k·t + b_k)``.

    Provides value, gradient and Hessian for Newton's method.
    """

    __slots__ = ("a", "b")

    def __init__(
        self, posy: Posynomial, variable_order: Sequence[str]
    ) -> None:
        index = {v: i for i, v in enumerate(variable_order)}
        rows = len(posy.terms)
        self.a = np.zeros((rows, len(variable_order)))
        self.b = np.zeros(rows)
        for k, term in enumerate(posy.terms):
            self.b[k] = math.log(term.coeff)
            for var, exp in term.exponents.items():
                if exp != 0.0:
                    self.a[k, index[var]] = exp

    def value(self, t: np.ndarray) -> float:
        z = self.a @ t + self.b
        zmax = float(np.max(z))
        return zmax + math.log(float(np.sum(np.exp(z - zmax))))

    def value_grad_hess(
        self, t: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        z = self.a @ t + self.b
        zmax = float(np.max(z))
        w = np.exp(z - zmax)
        total = float(np.sum(w))
        p = w / total
        value = zmax + math.log(total)
        grad = self.a.T @ p
        weighted = self.a * p[:, None]
        hess = self.a.T @ weighted - np.outer(grad, grad)
        return value, grad, hess


@dataclass(frozen=True)
class GpResult:
    """Solution of a geometric program.

    ``variables`` holds the optimal (primal) values of the original
    positive variables; ``objective`` is the optimal posynomial objective
    value.
    """

    variables: dict[str, float]
    objective: float
    iterations: int


class GeometricProgram:
    """``min f0(y) s.t. fi(y) ≤ 1`` over positive variables ``y``.

    Monomial equality constraints ``g(y) = 1`` can be expressed by the
    caller as the pair ``g ≤ 1`` and ``g^{-1} ≤ 1``.
    """

    def __init__(
        self,
        objective: Posynomial | Monomial,
        constraints: Sequence[Posynomial | Monomial] = (),
    ) -> None:
        self.objective = _as_posynomial(objective)
        self.constraints = [_as_posynomial(c) for c in constraints]
        variables: set[str] = set(self.objective.variables())
        for c in self.constraints:
            variables |= c.variables()
        if not variables:
            raise ValidationError("the GP has no variables")
        self.variable_order: tuple[str, ...] = tuple(sorted(variables))

    # -- interior-point machinery -------------------------------------

    def solve(
        self,
        tol: float = 1e-9,
        feas_tol: float = 1e-8,
        max_barrier_rounds: int = 60,
    ) -> GpResult:
        """Solve the GP; raises :class:`InfeasibleError` when no point
        satisfies all constraints (to ``feas_tol`` in log space) and
        :class:`SolverError` on numerical failure."""
        order = self.variable_order
        f0 = _LogSumExp(self.objective, order)
        fis = [_LogSumExp(c, order) for c in self.constraints]

        t = self._phase_one(fis, feas_tol)
        iterations = 0
        if not fis:
            # Unconstrained log-convex minimisation.
            t, it = self._newton(f0, [], t, barrier=0.0, tol=tol)
            iterations += it
        else:
            barrier = 1.0
            mu = 20.0
            for _ in range(max_barrier_rounds):
                t, it = self._newton(f0, fis, t, barrier=barrier, tol=tol)
                iterations += it
                if len(fis) / barrier < tol:
                    break
                barrier *= mu
            else:  # pragma: no cover - defensive
                raise SolverError("barrier method exceeded round limit")

        values = {
            var: math.exp(t[i]) for i, var in enumerate(order)
        }
        return GpResult(
            variables=values,
            objective=self.objective.evaluate(values),
            iterations=iterations,
        )

    def _phase_one(
        self, fis: list[_LogSumExp], feas_tol: float
    ) -> np.ndarray:
        """Find a strictly feasible log-space point, or raise
        :class:`InfeasibleError`.

        Minimises ``s`` subject to ``fi(t) ≤ s`` by subgradient-free
        damped Newton on the softmax surrogate
        ``Φβ(t) = (1/β)·log Σ exp(β·fi(t))`` (a smooth, convex upper
        bound of ``max_i fi(t)`` that tightens as β grows).
        """
        n = len(self.variable_order)
        t = np.zeros(n)
        if not fis:
            return t
        betas = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
                 65536.0)
        for beta in betas:
            t = self._minimize_softmax(fis, t, beta)
            worst = max(f.value(t) for f in fis)
            if worst < -1e-6:
                return t
        worst = max(f.value(t) for f in fis)
        # The softmax surrogate sits log(m)/β above the true max, so a
        # boundary-feasible problem (min-max exactly 0) can only be
        # certified to that resolution.
        boundary_tol = max(
            feas_tol, 2.0 * math.log(max(len(fis), 2)) / betas[-1]
        )
        if worst <= boundary_tol:
            # Feasible only on (or numerically at) the boundary: no
            # interior exists, but the point itself is the optimum of
            # the degenerate single-point region.
            return t
        raise InfeasibleError(
            f"geometric program is infeasible (min max-violation "
            f"{worst:.3e} in log space)"
        )

    def _minimize_softmax(
        self, fis: list[_LogSumExp], t0: np.ndarray, beta: float
    ) -> np.ndarray:
        t = t0.copy()
        for _ in range(200):
            value, grad, hess = self._softmax_vgh(fis, t, beta)
            step = self._newton_step(grad, hess)
            if float(np.linalg.norm(grad)) < 1e-10:
                break
            # Backtracking line search on the surrogate.
            alpha = 1.0
            base = value
            slope = float(grad @ step)
            for _ in range(60):
                candidate = t + alpha * step
                if self._softmax_value(fis, candidate, beta) <= (
                    base + 0.25 * alpha * slope
                ):
                    break
                alpha *= 0.5
            else:
                break
            t = t + alpha * step
            if alpha * float(np.linalg.norm(step)) < 1e-12:
                break
        return t

    @staticmethod
    def _softmax_value(
        fis: list[_LogSumExp], t: np.ndarray, beta: float
    ) -> float:
        vals = np.array([f.value(t) for f in fis])
        vmax = float(np.max(vals))
        return vmax + math.log(float(np.sum(np.exp(beta * (vals - vmax))))) / beta

    @staticmethod
    def _softmax_vgh(
        fis: list[_LogSumExp], t: np.ndarray, beta: float
    ) -> tuple[float, np.ndarray, np.ndarray]:
        n = t.shape[0]
        vals = np.empty(len(fis))
        grads = np.empty((len(fis), n))
        hesses = np.empty((len(fis), n, n))
        for i, f in enumerate(fis):
            vals[i], grads[i], hesses[i] = f.value_grad_hess(t)
        vmax = float(np.max(vals))
        w = np.exp(beta * (vals - vmax))
        w /= float(np.sum(w))
        value = vmax + math.log(float(np.sum(np.exp(beta * (vals - vmax))))) / beta
        grad = grads.T @ w
        hess = np.tensordot(w, hesses, axes=1)
        hess += beta * (grads.T @ (grads * w[:, None]) - np.outer(grad, grad))
        return value, grad, hess

    def _newton(
        self,
        f0: _LogSumExp,
        fis: list[_LogSumExp],
        t0: np.ndarray,
        barrier: float,
        tol: float,
    ) -> tuple[np.ndarray, int]:
        """Damped Newton on ``barrier·f0(t) − Σ log(−fi(t))`` (or plain
        ``f0`` when there are no constraints)."""
        t = t0.copy()
        iterations = 0

        def merit(point: np.ndarray) -> float:
            v0 = f0.value(point)
            if not fis:
                return v0
            total = barrier * v0
            for f in fis:
                slack = -f.value(point)
                if slack <= 0:
                    return math.inf
                total -= math.log(slack)
            return total

        if fis and math.isinf(merit(t)):
            # The start sits on the constraint boundary (degenerate
            # feasible region, e.g. T_des = T_max): no interior to walk
            # through, the boundary point itself is the optimum.
            return t, iterations

        for _ in range(200):
            iterations += 1
            v0, g0, h0 = f0.value_grad_hess(t)
            if fis:
                grad = barrier * g0
                hess = barrier * h0
                for f in fis:
                    vi, gi, hi = f.value_grad_hess(t)
                    slack = -vi
                    if slack <= 0:
                        slack = 1e-14
                    grad += gi / slack
                    hess += np.outer(gi, gi) / slack**2 + hi / slack
            else:
                grad, hess = g0, h0
            step = self._newton_step(grad, hess)
            decrement = float(-grad @ step)
            if decrement / 2.0 < tol:
                break
            alpha = 1.0
            base = merit(t)
            slope = float(grad @ step)
            for _ in range(80):
                candidate = t + alpha * step
                if merit(candidate) <= base + 0.25 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                break
            t = t + alpha * step
        return t, iterations

    @staticmethod
    def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
        n = grad.shape[0]
        reg = 1e-12
        for _ in range(16):
            try:
                return np.linalg.solve(hess + reg * np.eye(n), -grad)
            except np.linalg.LinAlgError:
                reg *= 100.0
        raise SolverError("Newton system is singular beyond regularisation")
