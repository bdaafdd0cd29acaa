"""Reductions of deterministic optimization problems to constrained
divergence minimization, plus the entropy-maximization wrapper.

Each reduction is value preserving pointwise: the original objective at a
feasible point equals the transformed divergence (plus a reported offset
and scale), so the optimum transfers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import constraints as cs
from .constraints import ConstraintSet
from .divergence import PowerGamma
from .engine import (
    Estimate,
    EstimatorConfig,
    estimate_entropy_extremum,
    estimate_min_divergence,
)
from .entropy import EntropySpec

__all__ = [
    "SeparableQuadratic",
    "LinearObjective",
    "Assignment",
    "Transport",
    "EntropyMax",
    "QuadraticReduction",
    "LinearReduction",
    "reduce_quadratic",
    "reduce_linear",
    "reduce_assignment",
    "reduce_transport",
    "solve",
]


# problem instances ------------------------------------------------------------


@dataclass(frozen=True)
class SeparableQuadratic:
    """Minimize sum_k (c1_k + c2_k x_k + c3_k x_k^2) over a constraint set
    in the original x coordinates."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    omega: ConstraintSet

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.c1.shape == self.c2.shape == self.c3.shape):
            raise ValueError("coefficient vectors must share a shape")
        if np.any(self.c2 == 0):
            raise ValueError("c2 entries must be nonzero")
        if np.any(self.c3 <= 0):
            raise ValueError("c3 entries must be positive")

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(self.c1 + self.c2 * x + self.c3 * x**2))


@dataclass(frozen=True)
class LinearObjective:
    """Optimize sum_k cost_k x_k over a set on the (1/gamma)-norm sphere."""

    cost: np.ndarray
    gamma: float
    omega: ConstraintSet  # on the transformed vector; its scale is the total mass A

    def __post_init__(self):
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))
        if np.any(self.cost <= 0):
            raise ValueError("cost entries must be positive")
        g = self.gamma
        if not (g >= 2.0 or 0.0 < g < 1.0 or g < 0.0):
            raise ValueError("gamma must lie in ]0,1[, [2,inf[ or ]-inf,0[")


@dataclass(frozen=True)
class Assignment:
    """Linear assignment with side constraints and an interval relaxation
    of the 0/1 coordinates."""

    costs: np.ndarray
    eps1: float = 0.05
    eps2: float = 0.05
    side: Optional[ConstraintSet] = None

    def __post_init__(self):
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))
        if self.costs.ndim != 2 or self.costs.shape[0] != self.costs.shape[1]:
            raise ValueError("costs must be a square matrix")
        if np.any(self.costs <= 0):
            raise ValueError("costs must be positive")
        if not (self.eps1 > 0 and self.eps2 > 0 and self.eps1 + self.eps2 < 1):
            raise ValueError("need eps1, eps2 > 0 with eps1 + eps2 < 1")


@dataclass(frozen=True)
class Transport:
    """Discrete mass transport: couplings with marginals mu, nu and a
    concentration objective; side constraints optional.

    ``band`` relaxes the marginal equalities to |sum - target| <= band so
    that the constraint set has nonvoid interior in the mass slice (the
    simulated vector never hits an exact affine equality); the relaxed
    optimum converges to the exact one as the band shrinks.
    """

    mu: np.ndarray
    nu: np.ndarray
    side: Optional[ConstraintSet] = None
    band: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=float))
        if np.any(self.mu < 0) or np.any(self.nu < 0):
            raise ValueError("marginals mu and nu must be nonnegative")
        if abs(self.mu.sum() - self.nu.sum()) > 1e-12 * max(1.0, self.mu.sum()):
            raise ValueError("marginals must carry equal mass")
        if self.mu.sum() <= 0:
            raise ValueError("total mass must be positive")
        if not self.band > 0:
            raise ValueError(f"band must be > 0 (got {self.band!r})")

    def objective(self, coupling) -> float:
        pi = np.asarray(coupling, dtype=float).reshape(self.mu.size, self.nu.size)
        k12 = self.mu.size * self.nu.size
        return float(k12 * np.sum((pi - 1.0 / k12) ** 2))


@dataclass(frozen=True)
class EntropyMax:
    """Constrained entropy extremum over Omega in A * simplex."""

    spec: EntropySpec
    K: int
    omega: ConstraintSet


# reductions -------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticReduction:
    gen: PowerGamma
    P: np.ndarray
    omega: ConstraintSet
    offset: float
    c2: np.ndarray

    def to_reduced(self, x) -> np.ndarray:
        return -self.c2 * np.asarray(x, dtype=float)


def reduce_quadratic(inst: SeparableQuadratic) -> QuadraticReduction:
    """Rewrite the separable quadratic as offset + D_{phi_2}(Q, P) with
    q_k = -c2_k x_k, p_k = c2_k^2 / (2 c3_k).  The reduced set is the user's
    set in q coordinates, {q : -q / c2 in Omega} (``constraints.scaled``), so
    a halfspace keeps its row and takes the engine's dual."""
    c2, c3 = inst.c2, inst.c3
    P = c2**2 / (2.0 * c3)
    offset = float(np.sum(inst.c1 - c2**2 / (4.0 * c3)))
    return QuadraticReduction(
        gen=PowerGamma(2.0, 1.0), P=P, omega=cs.scaled(inst.omega, -1.0 / c2),
        offset=offset, c2=c2,
    )


@dataclass(frozen=True)
class LinearReduction:
    gamma: float
    P: np.ndarray  # probability vector
    prefactor: float  # norm of the cost vector
    direction: str  # "min" or "max"
    omega: ConstraintSet

    def to_reduced(self, x) -> np.ndarray:
        """Transformed coordinates q_k = x_k^(1/gamma)."""
        return np.asarray(x, dtype=float) ** (1.0 / self.gamma)

    def hellinger_value(self, x) -> float:
        q = self.to_reduced(x)
        return float(np.sum(q**self.gamma * self.P ** (1.0 - self.gamma)))


def reduce_linear(inst: LinearObjective) -> LinearReduction:
    """Rewrite sum x_k cost_k as prefactor * H_gamma(Q, P) with
    q_k = x_k^(1/gamma) and p_k proportional to cost_k^(1/(1-gamma));
    minimization for gamma >= 2 or gamma < 0, maximization for gamma in
    ]0,1[."""
    g = inst.gamma
    if np.all(inst.cost == 0):
        raise ValueError("cost vector must be nonzero")
    powered = inst.cost ** (1.0 / (1.0 - g))
    prefactor = float(powered.sum() ** (1.0 - g))
    P = powered / powered.sum()
    direction = "max" if 0.0 < g < 1.0 else "min"
    return LinearReduction(
        gamma=g, P=P, prefactor=prefactor, direction=direction, omega=inst.omega,
    )


def _row_col_constraints(K1: int, K2: int, rows, cols, tol: float = 1e-9):
    """Row/column-sum equalities on a flattened K1 x K2 matrix."""
    parts = []
    for i in range(K1):
        coeffs = np.zeros(K1 * K2)
        coeffs[i * K2:(i + 1) * K2] = 1.0
        parts.append(cs.affine_equality(coeffs, float(rows[i]), tol=tol))
    for j in range(K2):
        coeffs = np.zeros(K1 * K2)
        coeffs[j::K2] = 1.0
        parts.append(cs.affine_equality(coeffs, float(cols[j]), tol=tol))
    return parts


def reduce_assignment(inst: Assignment):
    """Flatten the assignment to a K^2-dimensional linear objective over
    the polka-dot relaxation ([0,eps1] u [1-eps2,1] per coordinate,
    unit row/column sums, optional side constraints); total mass A = K."""
    K = inst.costs.shape[0]
    k2 = K * K
    cost_flat = inst.costs.reshape(-1)
    parts = _row_col_constraints(K, K, np.ones(K), np.ones(K))

    lo_hi = cs.ConstraintSet(
        membership=lambda pts: np.all(
            ((pts >= -1e-12) & (pts <= inst.eps1 + 1e-12))
            | ((pts >= 1.0 - inst.eps2 - 1e-12) & (pts <= 1.0 + 1e-12)),
            axis=1,
        ),
        description=f"polka-dot [0,{inst.eps1}] u [{1 - inst.eps2},1]",
    )
    parts.append(lo_hi)
    if inst.side is not None:
        parts.append(inst.side)
    omega = cs.intersection(*parts, scale=float(K))
    linear = LinearObjective(cost=cost_flat, gamma=2.0, omega=omega)
    return reduce_linear(linear)


@dataclass(frozen=True)
class TransportReduction:
    gen: PowerGamma
    P: np.ndarray  # uniform over K1*K2
    omega: ConstraintSet
    offset: float  # objective = K1 K2 sum q^2 + offset
    shape: tuple

    def objective_identity(self, coupling) -> float:
        q = np.asarray(coupling, dtype=float).reshape(-1)
        k12 = q.size
        return float(k12 * np.sum(q**2) + self.offset)


def reduce_transport(inst: Transport) -> TransportReduction:
    """Flatten couplings to K1*K2 vectors; the concentration objective is
    exactly D_{2 phi_2}(Q, uniform), equal to K1 K2 sum q^2 + (1 - 2A)."""
    K1, K2 = inst.mu.size, inst.nu.size
    A = float(inst.mu.sum())
    parts = _row_col_constraints(K1, K2, inst.mu, inst.nu, tol=inst.band)
    parts.append(cs.box(np.full(K1 * K2, -inst.band), np.full(K1 * K2, A + inst.band)))
    if inst.side is not None:
        parts.append(inst.side)
    omega = cs.intersection(*parts, scale=A)
    return TransportReduction(
        gen=PowerGamma(2.0, 2.0),
        P=np.full(K1 * K2, 1.0 / (K1 * K2)),
        omega=omega,
        offset=1.0 - 2.0 * A,
        shape=(K1, K2),
    )


# solver dispatch ----------------------------------------------------------------


@dataclass
class SolveReport:
    value: float
    estimate: Estimate
    details: dict = field(default_factory=dict)


def solve(problem, config: EstimatorConfig) -> SolveReport:
    """Run the full pipeline on a reduced problem instance and map the
    estimate back to the original scale."""
    if isinstance(problem, SeparableQuadratic):
        red = reduce_quadratic(problem)
        est = estimate_min_divergence(
            red.gen, red.P, red.omega, config, mode="deterministic"
        )
        return SolveReport(
            value=red.offset + est.value, estimate=est,
            details={"offset": red.offset, "kind": "quadratic"},
        )
    if isinstance(problem, Transport):
        red = reduce_transport(problem)
        est = estimate_min_divergence(red.gen, red.P, red.omega, config,
                                      mode="simplex", target="divergence")
        return SolveReport(
            value=est.value, estimate=est,
            details={"kind": "transport", "offset": red.offset},
        )
    if isinstance(problem, (LinearObjective, Assignment)):
        red = reduce_assignment(problem) if isinstance(problem, Assignment) else reduce_linear(problem)
        gen = PowerGamma(red.gamma, 1.0)
        est = estimate_min_divergence(gen, red.P, red.omega, config,
                                      mode="simplex", target="hellinger")
        return SolveReport(
            value=red.prefactor * est.value, estimate=est,
            details={"kind": "linear", "prefactor": red.prefactor,
                     "direction": red.direction},
        )
    if isinstance(problem, EntropyMax):
        est = estimate_entropy_extremum(problem.spec, problem.K, problem.omega, config)
        return SolveReport(value=est.value, estimate=est, details={"kind": "entropy"})
    raise TypeError(f"unknown problem type {type(problem).__name__}")
