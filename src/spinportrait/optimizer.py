"""Search for measurement directions that minimize error amplification.

Noise in the measured probabilities propagates into the reconstructed state
with a factor controlled by the conditioning of the forward map, and the
larger the product of the nested shell Gram determinants, the better
conditioned the inversion.  The search maximizes one of three scores over
the direction angles, with the orientation gauge fixed (first direction
pinned to +z, second to the phi = 0 half-plane):

* ``gram-product``: that log-product (D-optimal design over the leading
  blocks M(L)), INFEASIBLE for a set with a block of det M(L) below the
  objective's own cut _DET_CUT = 1e-12 (or NaN).  The cut is the
  objective's alone: su2 inverts sets by a relative rank rule, and the
  objective only needs a finite logarithm.
* ``condition-number``: the negated condition number of the least-squares
  inverse.
* ``a-optimal``: -||Q^+||_F^2 = -sum 1/s^2 over the singular values s of
  the forward map Q, the paper's optimum reconstruction.  Averaged over
  Haar-pure states, the squared Hilbert-Schmidt error of the reconstructed
  state is c1 ||Q^+||_F^2 - c2 N d (Pukelsheim, Optimal Design of
  Experiments (1993)).

Each objective is one entry of ``_OBJECTIVES``: its stacked scorer, its
stacked slopes and the rule that makes a start draw INFEASIBLE.  The last
two share one least-squares scorer, INFEASIBLE where su2 refuses the set
(s_min <= LSQ_RTOL s_max).

The optimizer is a seeded multi-restart BFGS ascent (Nocedal & Wright,
Numerical Optimization, ch. 6) whose restarts climb in lockstep: each
iteration scores the first trials of every climbing restart in one stacked
call and takes one stacked gradient at all the accepted points.  Its
gradients are closed-form: only row k of each shell's harmonic factor Y_L
depends on direction k, and ``orthopoly._harmonic_factors`` differentiates that
row by the direction's angles.  The gram-product gradient is
d log det M(L) = 2 tr(Y_s^-1 dY_s), Y_s the leading (2L+1)-square block of
Y_L; the other two take d sigma = u^T dY v: the condition number for the
extreme singular values with the quotient rule, a gradient almost everywhere
of a nonsmooth objective, on which BFGS still makes progress (Lewis &
Overton, Math. Program. 141, 135 (2013)), and a-optimal for all kept ones,
d sum s^-2 = -2 sum s^-3 d s.  Each iteration backtracks by halves along the
quasi-Newton direction, its first trial capped at a max-norm step of 0.4,
and accepts the first trial that passes the Armijo test, so every accepted
step strictly raises the score.  The trials are scored by the value-only
stacked scorers, so the returned value is exactly the scorer's, and an
INFEASIBLE trial is rejected like any other.  A restart stops after
``max_iters`` accepted steps, or once an accepted step, or the last
backtracked trial, is shorter than ``tolerance`` in max-norm.  Every row of
a stacked call is computed as it would be alone, so each restart follows,
bit for bit, the path it takes on its own.  For three directions the known
optimum is an orthogonal triad (unit triple product), which the search
reproduces; for more directions no closed-form optimum is available and the
result is validated by dominating randomized baselines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptimizationError
from .linalg import LSQ_RTOL, is_integer
from .orthopoly import _harmonic_factors
from .spin import Direction, Spin
from .su2 import DirectionSet, _shell_dets, _shell_svd, _spectrum

INFEASIBLE = -1e18
_DET_CUT = 1e-12  # a gram-product set with a smaller (or NaN) det M(L) scores INFEASIBLE
_START_DRAWS = 64  # isotropic start candidates per restart
_FIRST_STEP = 0.4  # max-norm cap on each iteration's first trial step
_ARMIJO = 1e-4  # sufficient-increase fraction of the directional slope


def _debug(message: str, *args):
    """A DEBUG record to the ``spinportrait`` logger, formatted only if a handler takes it.

    The library does not import ``logging`` for it: until some code has
    loaded the module, no level or handler can be set, so the record would
    be dropped anyway.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("spinportrait").debug(message, *args)


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
        for name in ("restarts", "max_iters", "seed"):
            if not is_integer(getattr(self, name)):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise DomainError("restarts must be >= 1")
        real = isinstance(self.tolerance, (float, np.floating)) or is_integer(self.tolerance)
        if not (real and 0.0 < self.tolerance < math.inf):
            raise DomainError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iters < 0:
            raise DomainError(f"max_iters must be >= 0, got {self.max_iters}")


def _log_dets(vectors: np.ndarray) -> list:
    """Sum of log det M(L) over the shells of each stacked set (k, N, 3).

    A set gets INFEASIBLE if any det M(L) is below _DET_CUT.  The logs are
    ``math.log`` summed in shell order, so a set scores the same alone or in
    any stack.
    """
    dets = _shell_dets(vectors)
    feasible = (dets >= _DET_CUT).all(axis=0)
    return [
        sum(map(math.log, row), 0.0) if ok else INFEASIBLE
        for row, ok in zip(dets.T.tolist(), feasible.tolist())
    ]


def _least_squares_scorer(value):
    """Stacked scorer of sets (k, N, 3): ``value`` of each least-squares spectrum, INFEASIBLE if refused."""

    def score(vectors: np.ndarray) -> list:
        s = _spectrum(vectors)
        with np.errstate(all="ignore"):  # value runs on the refused rows too
            return np.where(s[:, -1] > LSQ_RTOL * s[:, 0], value(s), INFEASIBLE).tolist()

    return score


def _log_det_slopes(factors: np.ndarray, d_factors: np.ndarray) -> np.ndarray:
    """d/dtheta_k and d/dphi_k, (2, R, N), of sum_L log det M(L) for R stacked sets.

    d log det M(L) = 2 tr(Y_s^-1 dY_s) with Y_s the leading (2L+1)-square block
    of Y_L.  Each Y_s is padded to N x N by an identity, so every shell of
    every set inverts in one call, and the padding is masked out of the trace.
    """
    n = factors.shape[-1]
    inside = np.arange(n) < 2 * np.arange(factors.shape[-3])[:, None, None] + 1
    block = inside & np.swapaxes(inside, -1, -2)
    inverse = np.linalg.inv(np.where(block, factors, np.eye(n)))
    return 2.0 * (d_factors * np.where(block, np.swapaxes(inverse, -1, -2), 0.0)).sum(axis=(-3, -1))


def _neg_cond_slopes(factors: np.ndarray, d_factors: np.ndarray) -> np.ndarray:
    """d/dtheta_k and d/dphi_k, (2, R, N), of -sigma_max / sigma_min for R stacked sets.

    sigma_max is the largest singular value of any shell factor of a set and
    sigma_min the smallest of the first 2L+1 of each, picked per set by index
    arrays from one stacked SVD; d sigma = u^T dY v from their singular vectors.
    """
    u, sv, vh = _shell_svd(factors)
    rows, shells = np.arange(len(factors)), np.arange(factors.shape[-3])
    a = sv[:, :, 0].argmax(axis=1)
    b = sv[:, shells, 2 * shells].argmin(axis=1)
    hi, lo = sv[rows, a, 0, None], sv[rows, b, 2 * b, None]
    d_hi = u[rows, a, :, 0] * (d_factors[:, rows, a] @ vh[rows, a, 0, :, None])[..., 0]
    d_lo = u[rows, b, :, 2 * b] * (d_factors[:, rows, b] @ vh[rows, b, 2 * b, :, None])[..., 0]
    return (hi * d_lo / lo - d_hi) / lo


def _neg_inverse_sum_slopes(factors: np.ndarray, d_factors: np.ndarray) -> np.ndarray:
    """d/dtheta_k and d/dphi_k, (2, R, N), of -sum 1/s^2 for R stacked sets.

    s = sigma / N over the first 2L+1 singular values sigma of each shell
    factor, so the slope is 2 N^2 sum sigma^-3 d sigma with d sigma = u^T dY v.
    """
    u, sv, vh = _shell_svd(factors)
    weights = 2.0 * factors.shape[-1] ** 2 / sv**3  # 0 past 2L, where sv is inf
    return (u * weights[..., None, :] * (d_factors @ np.swapaxes(vh, -1, -2))).sum(axis=(-3, -1))


# objective -> (stacked scorer, stacked slopes, the rule that makes a start draw INFEASIBLE)
_LSQ_RULE = f"a least-squares inverse refused at s_min <= LSQ_RTOL s_max, LSQ_RTOL = {LSQ_RTOL:g}"
_OBJECTIVES = {
    "gram-product": (
        _log_dets, _log_det_slopes, f"a shell Gram determinant det M(L) below _DET_CUT = {_DET_CUT:g}"
    ),
    "condition-number": (_least_squares_scorer(lambda s: -s[:, 0] / s[:, -1]), _neg_cond_slopes, _LSQ_RULE),
    "a-optimal": (_least_squares_scorer(lambda s: -(s**-2.0).sum(-1)), _neg_inverse_sum_slopes, _LSQ_RULE),
}
OBJECTIVES = tuple(_OBJECTIVES)


def objective(ds: DirectionSet, kind: str = "gram-product") -> float:
    """Scalar figure of merit for a direction set (larger is better).

    ``gram-product`` returns log prod_L det M(L), with the sentinel -1e18
    standing in for -infinity below the determinant cut, so line searches
    can step across infeasible regions.  ``condition-number`` returns
    -s[0] / s[-1] of the singular values of su2.least_squares and
    ``a-optimal`` -sum 1/s^2, the squared Frobenius norm of its inverse,
    each INFEASIBLE where it refuses the set (s[-1] <= LSQ_RTOL s[0]).  Each
    scores a stack of sets, so a set scores the same alone or stacked.
    """
    if kind not in _OBJECTIVES:
        raise DomainError(f"unknown objective kind {kind!r}")
    return _OBJECTIVES[kind][0](ds.unit_vectors()[None])[0]


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
    """Gradient of the ``kind`` score at parameter rows x (R, n_params), or one row (n_params,).

    The angle slopes of the sets' harmonic factors, all from one stacked
    call, chained through the parametrization: the theta fold flips the sign
    where x mod 2 pi > pi.  A single row is the stack of one.
    """
    rows = np.atleast_2d(x)
    vectors = _angles_to_vectors(*_params_to_angles(spin, rows))
    factors, d_factors = _harmonic_factors(vectors, spin.two_j, derivatives=True)
    d_theta, d_phi = _OBJECTIVES[kind][1](factors, d_factors)
    columns = _theta_params(rows.shape[1])
    g = np.empty_like(rows)
    g[:, columns] = np.where(rows[:, columns] % (2.0 * math.pi) > math.pi, -d_theta[:, 1:], d_theta[:, 1:])
    g[:, 2::2] = d_phi[:, 2:]
    return g.reshape(x.shape)


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


def _bfgs_ascent(score, gradient, x0, values0, tolerance, max_iters):
    """BFGS ascents with backtracking Armijo line searches, one per feasible row of x0, in lockstep.

    ``x0`` (R, n) holds the start rows and ``values0`` their R scores;
    ``score`` maps a (k, n) array to k values and ``gradient`` a (k, n) array
    to the k gradients, which are taken at accepted points only.  Each
    iteration steps every active row at once.  A row's trials are its
    quasi-Newton step, capped at max-norm _FIRST_STEP, and its halvings down
    to ``tolerance``; the first trials of all active rows are scored in one
    call, then the other halvings of the rows whose first trial failed in a
    second, and each row takes its first trial that raises its score by
    _ARMIJO times the linear prediction.  One gradient call serves every
    accepted point.  A row's inverse-Hessian update is skipped when
    s^T y <= 0, which keeps it positive definite.  A row leaves the active
    set after ``max_iters`` accepted steps, at a non-positive slope, when no
    trial passes, or once its step (accepted or the last halving) is shorter
    than ``tolerance``; so each row follows, bit for bit, the path it takes
    alone.  Returns (x, values, steps, stops): the final rows, their scores,
    the accepted steps and the stop reason of each row.
    """
    x = np.array(x0, dtype=float)
    best = list(values0)
    g = gradient(x)
    eye = np.eye(x.shape[1])
    h = [None] * len(x)  # the identity until a row's first update, which scales it by s^T y / y^T y
    steps = [0] * len(x)
    stops = ["iteration cap"] * len(x)
    active = range(len(x))
    for _ in range(max_iters):
        moves = []  # (row, trials, Armijo thresholds) of each row still climbing
        for r in active:
            p = g[r] if h[r] is None else h[r] @ g[r]
            length = np.abs(p).max(initial=0.0)
            if length > _FIRST_STEP:
                p = p * (_FIRST_STEP / length)
                length = _FIRST_STEP
            slope = g[r] @ p
            if not slope > 0.0 or length < tolerance:
                stops[r] = "short step" if slope > 0.0 else "non-positive slope"
                continue
            halvings = 0.5 ** np.arange(int(math.log2(length / tolerance)) + 1)
            moves.append((r, x[r] + halvings[:, None] * p, _ARMIJO * slope * halvings))
        if not moves:
            break
        values = [[v] for v in score(np.array([trials[0] for _, trials, _ in moves]))]
        failed = [i for i, (r, _, needed) in enumerate(moves) if not values[i][0] - best[r] > needed[0]]
        rest = [moves[i][1][1:] for i in failed]
        if sum(map(len, rest)):
            tail = iter(score(np.concatenate(rest)))
            for i, trials in zip(failed, rest):
                values[i] += [next(tail) for _ in trials]
        accepted = []
        for (r, trials, needed), tried in zip(moves, values):
            passed = next((i for i, v in enumerate(tried) if v - best[r] > needed[i]), None)
            if passed is None:
                stops[r] = "no Armijo pass"
            else:
                accepted.append((r, trials[passed], tried[passed]))
        if not accepted:
            break
        g_new = gradient(np.array([point for _, point, _ in accepted]))
        active = []
        for (r, point, value), g_row in zip(accepted, g_new):
            s = point - x[r]
            x[r], best[r] = point, value
            y = g[r] - g_row  # the gradient change of the minimized -score
            sy = s @ y
            if sy > 0.0:
                if h[r] is None:
                    h[r] = eye * (sy / (y @ y))
                v = eye - np.outer(y, s) / sy
                h[r] = v.T @ h[r] @ v + np.outer(s, s) / sy
            g[r] = g_row
            steps[r] += 1
            if np.abs(s).max() < tolerance:
                stops[r] = "short step"
            else:
                active.append(r)
    return x, best, steps, stops


def optimize(spin: Spin, config: OptimizerConfig = OptimizerConfig()):
    """Best direction set over multi-restart BFGS ascent, the restarts in lockstep.

    Each restart draws _START_DRAWS isotropic start rows from its own seeded
    generator; the draws of all restarts are scored in one stacked call, and
    each restart starts from its first feasible draw (a restart with none is
    skipped).  The restarts then climb together (:func:`_bfgs_ascent`), each
    along the path it would take alone.  Returns (direction_set,
    objective_value).  Ties across restarts break toward the lowest restart
    index, so a fixed seed fully determines the output.  One DEBUG record per
    restart goes to the ``spinportrait`` logger.  Raises OptimizationError if
    no restart draws a feasible start.
    """
    kind = config.objective
    scorer, _, start_rule = _OBJECTIVES[kind]

    def score(rows):
        return scorer(_angles_to_vectors(*_params_to_angles(spin, rows)))

    def gradient(rows):
        return _gradient(spin, kind, rows)

    draws = np.concatenate([
        _random_params(spin, np.random.default_rng((config.seed, restart)), _START_DRAWS)
        for restart in range(config.restarts)
    ])
    values = np.reshape(score(draws), (config.restarts, _START_DRAWS))
    feasible = values > INFEASIBLE
    live = np.flatnonzero(feasible.any(axis=1))
    if not live.size:
        raise OptimizationError(
            f"every restart remained infeasible: each of {config.restarts} restart(s) tried "
            f"{_START_DRAWS} start draws, and every draw had {start_rule}"
        )
    first = feasible[live].argmax(axis=1)
    starts = values[live, first].tolist()
    x, best, steps, stops = _bfgs_ascent(
        score, gradient, draws[live * _START_DRAWS + first], starts, config.tolerance, config.max_iters
    )
    climbed = dict(zip(live.tolist(), zip(first.tolist(), starts, best, steps, stops)))
    for restart in range(config.restarts):
        if restart not in climbed:
            _debug("optimize restart %d: all %d start draws infeasible, skipped", restart, _START_DRAWS)
            continue
        draw, start, end, accepted, stop = climbed[restart]
        _debug(
            "optimize restart %d: start draw %d, %d of %d draws infeasible, value %r -> %r "
            "in %d accepted steps, stopped by %s",
            restart, draw, _START_DRAWS - int(feasible[restart].sum()), _START_DRAWS, start, end, accepted, stop,
        )
    winner = int(np.argmax(best))  # the first of equal maxima: the lowest restart index
    return _params_to_set(spin, x[winner]), best[winner]
