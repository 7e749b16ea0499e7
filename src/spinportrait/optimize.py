"""Search for measurement directions that minimize error amplification.

Noise in the measured probabilities propagates into the reconstructed state
with a factor controlled by the conditioning of the forward map, and the
larger the product of shell Gram determinants, the better conditioned the
inversion.  The search maximizes either that log-product, INFEASIBLE at the
first shell su2 refuses (one without det M(L) >= GRAM_DET_FLOOR), or the
negated condition number over the direction angles, with the orientation gauge
fixed (first direction pinned to +z, second to the phi = 0 half-plane).

The optimizer is a seeded multi-restart compass search: deterministic for a
fixed seed, monotone in the objective, and terminating once the step shrinks
below the tolerance or the iteration budget is spent.  For three directions
the known optimum is an orthogonal triad (unit triple product), which the
search reproduces; for more directions no closed-form optimum is available
and the result is validated by dominating randomized baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FeasibilityError, OptimizationError
from .linalg import condition_number
from .spin import Direction, Spin
from .su2 import DirectionSet, _shell_grams, q_matrix

INFEASIBLE = -1e18

OBJECTIVES = ("gram-product", "condition-number")


@dataclass(frozen=True)
class OptimizerConfig:
    objective: str = "gram-product"
    restarts: int = 4
    max_iters: int = 400
    seed: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise DomainError(f"objective must be one of {OBJECTIVES}")
        if self.restarts < 1:
            raise DomainError("restarts must be >= 1")
        if self.tolerance <= 0:
            raise DomainError("tolerance must be positive")


def _log_dets(vectors: np.ndarray) -> float:
    """Sum of log det M(L) over the checked shells, or INFEASIBLE at a refusal."""
    try:
        return sum((math.log(det) for _, det in _shell_grams(vectors, checked=True)), 0.0)
    except FeasibilityError:
        return INFEASIBLE


def objective(ds: DirectionSet, kind: str = "gram-product") -> float:
    """Scalar figure of merit for a direction set (larger is better).

    ``gram-product`` returns log prod_L det M(L), with the sentinel -1e18
    standing in for -infinity whenever su2 refuses a shell, so line searches
    can step across infeasible regions.  ``condition-number`` returns the
    negated condition number of the equal-weight forward map.
    """
    if kind == "gram-product":
        return _log_dets(ds.unit_vectors())
    if kind == "condition-number":
        cond = condition_number(q_matrix(ds.spin, ds.dirs))
        return -cond if math.isfinite(cond) else INFEASIBLE
    raise DomainError(f"unknown objective kind {kind!r}")


def _n_params(spin: Spin) -> int:
    # theta_2, then (theta, phi) for every later direction
    return max(2 * (2 * spin.two_j + 1) - 3, 0)


def _params_to_angles(spin: Spin, x: np.ndarray):
    n_u = 2 * spin.two_j + 1
    thetas = np.zeros(n_u)
    phis = np.zeros(n_u)
    if x.size:
        thetas[1] = _fold_theta(x[0])
    for i in range(2, n_u):
        thetas[i] = _fold_theta(x[2 * i - 3])
        phis[i] = x[2 * i - 2] % (2.0 * math.pi)
    return thetas, phis


def _angles_to_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    st = np.sin(thetas)
    return np.array((np.cos(phis) * st, np.sin(phis) * st, np.cos(thetas))).T.copy()


def _params_to_set(spin: Spin, x: np.ndarray) -> DirectionSet:
    thetas, phis = _params_to_angles(spin, x)
    return DirectionSet(
        spin, [Direction(float(t), float(p)) for t, p in zip(thetas, phis)]
    )


def _fold_theta(t: float) -> float:
    """Reflect an unconstrained angle into [0, pi]."""
    t = t % (2.0 * math.pi)
    return 2.0 * math.pi - t if t > math.pi else t


def _random_params(spin: Spin, rng: np.random.Generator) -> np.ndarray:
    n = _n_params(spin)
    x = np.empty(n)
    if n:
        x[0] = math.acos(rng.uniform(-1.0, 1.0))
    for i in range(1, (n + 1) // 2):
        x[2 * i - 1] = math.acos(rng.uniform(-1.0, 1.0))
        x[2 * i] = rng.uniform(0.0, 2.0 * math.pi)
    return x


def _compass_search(fun, x0, step, tolerance, max_iters):
    """Greedy coordinate pattern search; monotone nondecreasing in fun."""
    x = x0.copy()
    best = fun(x)
    for _ in range(max_iters):
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sign * step
                val = fun(trial)
                if val > best:
                    x, best = trial, val
                    improved = True
        if not improved:
            step *= 0.5
            if step < tolerance:
                break
    return x, best


def optimize(spin: Spin, config: OptimizerConfig = OptimizerConfig()):
    """Best direction set over multi-restart compass search.

    Returns (direction_set, objective_value).  Ties across restarts break
    toward the lowest restart index, so a fixed seed fully determines the
    output.  Raises OptimizationError if no restart finds a feasible set.
    """
    if config.objective == "gram-product":
        def fun(x):
            return _log_dets(_angles_to_vectors(*_params_to_angles(spin, x)))
    else:
        def fun(x):
            return objective(_params_to_set(spin, x), config.objective)
    best_x = None
    best_val = -math.inf
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        x0 = None
        for _ in range(64):
            candidate = _random_params(spin, rng)
            if fun(candidate) > INFEASIBLE:
                x0 = candidate
                break
        if x0 is None:
            continue
        x, val = _compass_search(fun, x0, 0.4, config.tolerance, config.max_iters)
        if val > best_val:
            best_x, best_val = x, val
    if best_x is None or best_val <= INFEASIBLE:
        raise OptimizationError("every restart remained infeasible")
    return _params_to_set(spin, best_x), best_val
