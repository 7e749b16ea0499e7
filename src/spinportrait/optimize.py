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

The optimizer is a seeded multi-restart compass search: deterministic for a
fixed seed, monotone in the objective, and terminating once the step shrinks
below the tolerance or the iteration budget is spent.  A sweep's trials are
scored in stacked batches (one angle map, then for the whole batch either one
stacked dot product, one Legendre pass and one determinant per shell, or one
stacked SVD of the shell factors); the first trial that improves is taken and
the batch after it rebuilt from the new point, so the points visited, the
returned set and its value are bitwise those of scoring one trial at a time.
``objective(ds)`` is a batch of one.  For three directions the known optimum
is an orthogonal triad (unit triple product), which the search reproduces; for
more directions no closed-form optimum is available and the result is
validated by dominating randomized baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizationError
from .linalg import LSQ_RTOL
from .spin import Direction, Spin
from .su2 import DirectionSet, _shell_grams, _spectrum

INFEASIBLE = -1e18
_DET_CUT = 1e-12  # a gram-product set with a smaller (or NaN) det M(L) scores INFEASIBLE

# Trials scored per stacked evaluation of a compass sweep (_compass_search).
# Longer batches waste the rows after an accepted trial, shorter ones pay the
# per-call cost more often; 16 timed best or within noise of it at two_j 1,
# 2, 4 and 8, where 4 trials, 32 and a whole sweep were slower at two_j=8.
_CHUNK = 16


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


_SCORES = {"gram-product": _log_dets, "condition-number": _neg_conds}
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


def _params_to_angles(spin: Spin, x: np.ndarray):
    """Angles (thetas, phis), each (..., 2*two_j+1), of parameter rows (..., n_params)."""
    thetas = np.zeros(x.shape[:-1] + (2 * spin.two_j + 1,))
    phis = np.zeros_like(thetas)
    n = x.shape[-1]
    # direction 1 has theta x[0]; direction i >= 2 has theta x[2i-3], phi x[2i-2]
    thetas[..., 1:] = _fold_theta(x[..., [0, *range(1, n, 2)][:n]])
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


def _random_params(spin: Spin, rng: np.random.Generator) -> np.ndarray:
    n = _n_params(spin)
    x = np.empty(n)
    if n:
        x[0] = math.acos(rng.uniform(-1.0, 1.0))
    for i in range(1, (n + 1) // 2):
        x[2 * i - 1] = math.acos(rng.uniform(-1.0, 1.0))
        x[2 * i] = rng.uniform(0.0, 2.0 * math.pi)
    return x


def _score_one(score, x: np.ndarray) -> float:
    """The score of one parameter vector: a batch of one."""
    return next(iter(score(x[None])))


def _compass_search(score, x0, step, tolerance, max_iters):
    """Greedy coordinate pattern search; monotone nondecreasing in the score.

    A sweep tries (coordinate i, +step), (i, -step) for i = 0, 1, ... and
    moves to every trial that beats the incumbent.  The trials still ahead
    are scored _CHUNK at a time as the rows of one array; the first row that
    improves is accepted and the rows after it are rebuilt from the new point,
    so the points visited are exactly those of a one-trial-at-a-time sweep.
    ``score`` maps a (k, n) array to k values, read in order and no further
    than the first improvement.
    """
    x = x0.copy()
    best = _score_one(score, x)
    coords = np.repeat(np.arange(x.size), 2)
    signs = np.tile((1.0, -1.0), x.size)
    for _ in range(max_iters):
        improved = False
        start = 0
        while start < coords.size:
            stop = min(start + _CHUNK, coords.size)
            trials = np.repeat(x[None], stop - start, axis=0)
            trials[np.arange(stop - start), coords[start:stop]] += signs[start:stop] * step
            for j, val in enumerate(score(trials)):
                if val > best:
                    x, best, improved = trials[j], val, True
                    start += j + 1
                    break
            else:
                start = stop
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
    def score(rows):
        return _SCORES[config.objective](_angles_to_vectors(*_params_to_angles(spin, rows)))

    best_x = None
    best_val = -math.inf
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        x0 = None
        for _ in range(64):
            candidate = _random_params(spin, rng)
            if _score_one(score, candidate) > INFEASIBLE:
                x0 = candidate
                break
        if x0 is None:
            continue
        x, val = _compass_search(score, x0, 0.4, config.tolerance, config.max_iters)
        if val > best_val:
            best_x, best_val = x, val
    if best_x is None or best_val <= INFEASIBLE:
        raise OptimizationError("every restart remained infeasible")
    return _params_to_set(spin, best_x), best_val
