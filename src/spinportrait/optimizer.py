"""Search for measurement directions that minimize error amplification.

Noise in the measured probabilities propagates into the reconstructed state
with a factor controlled by the conditioning of the forward map, and the
larger the product of the nested shell Gram determinants, the better
conditioned the inversion.  The search maximizes either that log-product
(D-optimal design over the leading blocks M(L)), INFEASIBLE for a set with a
block of det M(L) below the objective's own cut _DET_CUT = 1e-12 (or NaN), or
the negated condition number of the least-squares inverse (INFEASIBLE where
su2 refuses it), over the direction angles, with the orientation gauge fixed
(first direction pinned to +z, second to the phi = 0 half-plane).  The cut is
the objective's alone: su2 inverts sets by a relative rank rule, and the
objective only needs a finite logarithm.

The optimizer is a seeded multi-restart BFGS ascent (Nocedal & Wright,
Numerical Optimization, ch. 6).  Its gradients are closed-form: only row k of
each shell's harmonic factor Y_L depends on direction k, and
``su2._harmonic_factors`` differentiates that row by the direction's angles.
The gram-product gradient is d log det M(L) = 2 tr(Y_s^-1 dY_s), Y_s the
leading (2L+1)-square block of Y_L; the condition-number gradient takes
d sigma = u^T dY v for the extreme singular values and the quotient rule, a
gradient almost everywhere of a nonsmooth objective, on which BFGS still
makes progress (Lewis & Overton, Math. Program. 141, 135 (2013)).  Each
iteration backtracks by halves along the quasi-Newton direction, its first
trial capped at a max-norm step of 0.4, and accepts the first trial that
passes the Armijo test, so every accepted step strictly raises the score.
The trials are scored by the value-only stacked scorers, so the returned
value is exactly the scorer's, and an INFEASIBLE trial is rejected like any
other.  A restart stops after ``max_iters`` accepted steps, or once an
accepted step, or the last backtracked trial, is shorter than ``tolerance``
in max-norm.  For three directions the known optimum is an orthogonal triad
(unit triple product), which the search reproduces; for more directions no
closed-form optimum is available and the result is validated by dominating
randomized baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizationError
from .linalg import LSQ_RTOL
from .spin import Direction, Spin
from .su2 import DirectionSet, _harmonic_factors, _shell_grams, _spectrum

INFEASIBLE = -1e18
_DET_CUT = 1e-12  # a gram-product set with a smaller (or NaN) det M(L) scores INFEASIBLE
_START_DRAWS = 64  # isotropic start candidates per restart
_FIRST_STEP = 0.4  # max-norm cap on each iteration's first trial step
_ARMIJO = 1e-4  # sufficient-increase fraction of the directional slope


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
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iters < 0:
            raise DomainError(f"max_iters must be >= 0, got {self.max_iters}")


def _log_dets(vectors: np.ndarray) -> list:
    """Sum of log det M(L) over the shells of each stacked set (k, N, 3).

    A set gets INFEASIBLE if any det M(L) is below _DET_CUT.  The logs are
    ``math.log`` summed in shell order, so a set scores the same alone or in
    any stack.
    """
    dets = np.empty(((vectors.shape[-2] + 1) // 2, len(vectors)))
    for L, (_, det) in enumerate(_shell_grams(vectors)):
        dets[L] = det
    feasible = (dets >= _DET_CUT).all(axis=0)
    return [
        sum(map(math.log, row), 0.0) if ok else INFEASIBLE
        for row, ok in zip(dets.T.tolist(), feasible.tolist())
    ]


def _neg_conds(vectors: np.ndarray) -> list:
    """-cond of each stacked set's (k, N, 3) least-squares inverse, INFEASIBLE if refused."""
    s = _spectrum(vectors)
    return [
        -hi / lo if lo > LSQ_RTOL * hi else INFEASIBLE
        for hi, lo in zip(s[:, 0].tolist(), s[:, -1].tolist())
    ]


def _log_det_slopes(factors: np.ndarray, d_factors: np.ndarray) -> np.ndarray:
    """d/dtheta_k and d/dphi_k, (2, N), of sum_L log det M(L) for one set.

    d log det M(L) = 2 tr(Y_s^-1 dY_s) with Y_s the leading (2L+1)-square block
    of Y_L.  Each Y_s is padded to N x N by an identity, so every shell
    inverts in one call, and the padding is masked out of the trace.
    """
    n = factors.shape[-1]
    inside = np.arange(n) < 2 * np.arange(len(factors))[:, None, None] + 1
    block = inside & np.swapaxes(inside, -1, -2)
    inverse = np.linalg.inv(np.where(block, factors, np.eye(n)))
    return 2.0 * (d_factors * np.where(block, np.swapaxes(inverse, -1, -2), 0.0)).sum(axis=(1, 3))


def _neg_cond_slopes(factors: np.ndarray, d_factors: np.ndarray) -> np.ndarray:
    """d/dtheta_k and d/dphi_k, (2, N), of -sigma_max / sigma_min for one set.

    sigma_max is the largest singular value of any shell factor and sigma_min
    the smallest of the first 2L+1 of each; d sigma = u^T dY v from their
    singular vectors.
    """
    u, sv, vh = np.linalg.svd(factors)
    shells = np.arange(len(factors))
    a = int(np.argmax(sv[:, 0]))
    b = int(np.argmin(sv[shells, 2 * shells]))
    hi, lo = sv[a, 0], sv[b, 2 * b]
    d_hi = u[a, :, 0] * (d_factors[:, a] @ vh[a, 0])
    d_lo = u[b, :, 2 * b] * (d_factors[:, b] @ vh[b, 2 * b])
    return (hi * d_lo / lo - d_hi) / lo


_SCORES = {"gram-product": _log_dets, "condition-number": _neg_conds}
_SLOPES = {"gram-product": _log_det_slopes, "condition-number": _neg_cond_slopes}
OBJECTIVES = tuple(_SCORES)


def objective(ds: DirectionSet, kind: str = "gram-product") -> float:
    """Scalar figure of merit for a direction set (larger is better).

    ``gram-product`` returns log prod_L det M(L), with the sentinel -1e18
    standing in for -infinity below the determinant cut, so line searches
    can step across infeasible regions.  ``condition-number`` returns
    -s[0] / s[-1] of the singular values of su2.least_squares, INFEASIBLE
    where it refuses the set (s[-1] <= LSQ_RTOL s[0]).  Either scores a stack
    of sets, so a set scores the same alone or stacked.
    """
    if kind not in _SCORES:
        raise DomainError(f"unknown objective kind {kind!r}")
    return _SCORES[kind](ds.unit_vectors()[None])[0]


def _n_params(spin: Spin) -> int:
    # theta_2, then (theta, phi) for every later direction
    return max(2 * (2 * spin.two_j + 1) - 3, 0)


def _theta_params(n: int) -> list:
    """Columns of the theta parameters: x[0] for direction 1, x[2i-3] for direction i >= 2."""
    return [0, *range(1, n, 2)][:n]


def _params_to_angles(spin: Spin, x: np.ndarray):
    """Angles (thetas, phis), each (..., 2*two_j+1), of parameter rows (..., n_params)."""
    thetas = np.zeros(x.shape[:-1] + (2 * spin.two_j + 1,))
    phis = np.zeros_like(thetas)
    # direction i >= 2 has phi x[2i-2]
    thetas[..., 1:] = _fold_theta(x[..., _theta_params(x.shape[-1])])
    phis[..., 2:] = x[..., 2::2] % (2.0 * math.pi)
    return thetas, phis


def _angles_to_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    st = np.sin(thetas)
    return np.stack((np.cos(phis) * st, np.sin(phis) * st, np.cos(thetas)), axis=-1)


def _params_to_set(spin: Spin, x: np.ndarray) -> DirectionSet:
    thetas, phis = _params_to_angles(spin, x)
    return DirectionSet(
        spin, [Direction(float(t), float(p)) for t, p in zip(thetas, phis)]
    )


def _fold_theta(t: np.ndarray) -> np.ndarray:
    """Reflect unconstrained angles into [0, pi]."""
    t = t % (2.0 * math.pi)
    return np.where(t > math.pi, 2.0 * math.pi - t, t)


def _gradient(spin: Spin, kind: str, x: np.ndarray) -> np.ndarray:
    """Gradient of the ``kind`` score at one parameter row x (n_params,).

    The angle slopes of the set's harmonic factors, chained through the
    parametrization: the theta fold flips the sign where x mod 2 pi > pi.
    """
    thetas, phis = _params_to_angles(spin, x)
    vectors = _angles_to_vectors(thetas, phis)
    factors, d_factors = _harmonic_factors(vectors, spin.two_j, derivatives=True)
    d_theta, d_phi = _SLOPES[kind](factors, d_factors)
    columns = _theta_params(x.size)
    g = np.empty_like(x)
    g[columns] = np.where(x[columns] % (2.0 * math.pi) > math.pi, -d_theta[1:], d_theta[1:])
    g[2::2] = d_phi[2:]
    return g


def _random_params(spin: Spin, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` isotropic start rows (count, n_params), drawn row after row.

    Each entry is the next ``rng.uniform`` double, mapped as in the one-row
    draws ``acos(uniform(-1, 1))`` for a theta and ``uniform(0, 2 pi)`` for a
    phi, so row i is bitwise the i-th of ``count`` one-row draws.
    """
    n = _n_params(spin)
    x = rng.uniform(size=(count, n))
    columns = _theta_params(n)
    x[:, 2::2] *= 2.0 * math.pi
    cosines = (-1.0 + 2.0 * x[:, columns]).flat
    x[:, columns] = np.reshape([math.acos(c) for c in cosines], (count, len(columns)))
    return x


def _bfgs_ascent(score, gradient, x0, tolerance, max_iters):
    """BFGS ascent with a backtracking Armijo line search from a feasible x0.

    ``score`` maps a (k, n) array to k values; ``gradient`` maps x to the
    score's gradient and runs only at accepted points.  Each iteration's
    trials are the quasi-Newton step, capped at max-norm _FIRST_STEP, and its
    halvings down to ``tolerance``, scored first alone and then the rest in
    one stacked call; the first that raises the score by _ARMIJO times its
    linear prediction is taken.  The inverse-Hessian update is skipped when
    s^T y <= 0, which keeps it positive definite.  Returns (x, value).
    """
    x = x0.copy()
    best = score(x[None])[0]
    g = gradient(x)
    h = None  # the identity until the first update, which scales it by s^T y / y^T y
    for _ in range(max_iters):
        p = g if h is None else h @ g
        length = np.abs(p).max(initial=0.0)
        if length > _FIRST_STEP:
            p = p * (_FIRST_STEP / length)
            length = _FIRST_STEP
        slope = g @ p
        if not slope > 0.0 or length < tolerance:
            break
        steps = 0.5 ** np.arange(int(math.log2(length / tolerance)) + 1)
        trials = x + steps[:, None] * p
        needed = _ARMIJO * slope * steps
        values = score(trials[:1])
        if not values[0] - best > needed[0]:
            values = [*values, *score(trials[1:])]
        passed = [i for i, v in enumerate(values) if v - best > needed[i]]
        if not passed:
            break
        s = trials[passed[0]] - x
        x, best = trials[passed[0]], values[passed[0]]
        g_new = gradient(x)
        y = g - g_new  # the gradient change of the minimized -score
        sy = s @ y
        if sy > 0.0:
            if h is None:
                h = np.eye(x.size) * (sy / (y @ y))
            v = np.eye(x.size) - np.outer(y, s) / sy
            h = v.T @ h @ v + np.outer(s, s) / sy
        g = g_new
        if np.abs(s).max() < tolerance:
            break
    return x, best


_START_RULES = {
    "gram-product": f"a shell Gram determinant det M(L) below _DET_CUT = {_DET_CUT:g}",
    "condition-number": f"a least-squares inverse refused at s_min <= LSQ_RTOL s_max, LSQ_RTOL = {LSQ_RTOL:g}",
}


def optimize(spin: Spin, config: OptimizerConfig = OptimizerConfig()):
    """Best direction set over multi-restart BFGS ascent.

    Each restart draws _START_DRAWS isotropic start rows from its own seeded
    generator, scores them in one stacked call and starts from the first
    feasible one.  Returns (direction_set, objective_value).  Ties across
    restarts break toward the lowest restart index, so a fixed seed fully
    determines the output.  Raises OptimizationError if no restart draws a
    feasible start.
    """
    kind = config.objective

    def score(rows):
        return _SCORES[kind](_angles_to_vectors(*_params_to_angles(spin, rows)))

    def gradient(x):
        return _gradient(spin, kind, x)

    best_x = None
    best_val = -math.inf
    for restart in range(config.restarts):
        starts = _random_params(spin, np.random.default_rng((config.seed, restart)), _START_DRAWS)
        feasible = [i for i, v in enumerate(score(starts)) if v > INFEASIBLE]
        if not feasible:
            continue
        x, val = _bfgs_ascent(score, gradient, starts[feasible[0]], config.tolerance, config.max_iters)
        if val > best_val:
            best_x, best_val = x, val
    if best_x is None:
        raise OptimizationError(
            f"every restart remained infeasible: each of {config.restarts} restart(s) tried "
            f"{_START_DRAWS} start draws, and every draw had {_START_RULES[kind]}"
        )
    return _params_to_set(spin, best_x), best_val
