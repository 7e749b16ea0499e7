"""The batched compass search, pinned against the one-trial-at-a-time search.

The oracle is the search as it ran before sweeps were scored in stacked
batches: a Python loop from parameters to angles, one trial scored per call,
and the per-set log product summed over the checked shells (the
condition-number oracle scores the same numpy-built unit vectors through the
stacked scorer, one set per call, so no libm sin/cos enters).  The batched
search must visit the same points, so its direction sets and values must be
bitwise the oracle's, and every row of a batch must score exactly as the set
scores alone.
"""

import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    OptimizerConfig,
    Spin,
    objective,
    optimize,
)
from spinportrait import su2
from spinportrait import optimizer as opt
from spinportrait.optimizer import INFEASIBLE
from conftest import random_direction_set

SEEDS = (0, 7, 23)


def oracle_log_dets(vectors: np.ndarray) -> float:
    """Sum of log det M(L) in shell order, INFEASIBLE at a det below 1e-12 or NaN."""
    total = 0.0
    for _, det in su2._shell_grams(vectors):
        if not det >= 1e-12:
            return INFEASIBLE
        total += math.log(det)
    return total


def oracle_fold_theta(t: float) -> float:
    t = t % (2.0 * math.pi)
    return 2.0 * math.pi - t if t > math.pi else t


def oracle_params_to_angles(spin: Spin, x: np.ndarray):
    n_u = 2 * spin.two_j + 1
    thetas = np.zeros(n_u)
    phis = np.zeros(n_u)
    if x.size:
        thetas[1] = oracle_fold_theta(x[0])
    for i in range(2, n_u):
        thetas[i] = oracle_fold_theta(x[2 * i - 3])
        phis[i] = x[2 * i - 2] % (2.0 * math.pi)
    return thetas, phis


def oracle_angles_to_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    st = np.sin(thetas)
    return np.array((np.cos(phis) * st, np.sin(phis) * st, np.cos(thetas))).T.copy()


def oracle_params_to_set(spin: Spin, x: np.ndarray) -> DirectionSet:
    thetas, phis = oracle_params_to_angles(spin, x)
    return DirectionSet(spin, [Direction(float(t), float(p)) for t, p in zip(thetas, phis)])


def oracle_compass_search(fun, x0, step, tolerance, max_iters):
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


def oracle_optimize(spin: Spin, config: OptimizerConfig):
    def fun(x):
        vectors = oracle_angles_to_vectors(*oracle_params_to_angles(spin, x))
        if config.objective == "gram-product":
            return oracle_log_dets(vectors)
        return opt._neg_conds(vectors[None])[0]
    best_x = None
    best_val = -math.inf
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        x0 = None
        for _ in range(64):
            candidate = opt._random_params(spin, rng)
            if fun(candidate) > INFEASIBLE:
                x0 = candidate
                break
        if x0 is None:
            continue
        x, val = oracle_compass_search(fun, x0, 0.4, config.tolerance, config.max_iters)
        if val > best_val:
            best_x, best_val = x, val
    return oracle_params_to_set(spin, best_x), best_val


def assert_same_search(two_j: int, config: OptimizerConfig):
    ds, value = optimize(Spin(two_j), config)
    ref_ds, ref_value = oracle_optimize(Spin(two_j), config)
    assert ds.dirs == ref_ds.dirs
    assert value == ref_value
    assert type(value) is float


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4])
def test_gram_product_search_is_bitwise_the_oracle(two_j, seed):
    assert_same_search(two_j, OptimizerConfig(restarts=2, max_iters=40, seed=seed))


@pytest.mark.parametrize(
    "two_j,config",
    [(1, OptimizerConfig(restarts=3, max_iters=400, seed=0))]
    + [(two_j, OptimizerConfig(restarts=2, max_iters=300, seed=2024 + two_j)) for two_j in (2, 3, 4)],
)
def test_criterion_09_configs_are_bitwise_the_oracle(two_j, config):
    assert_same_search(two_j, config)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("two_j", [1, 2])
def test_condition_number_search_is_bitwise_the_oracle(two_j, seed):
    assert_same_search(
        two_j, OptimizerConfig(objective="condition-number", restarts=2, max_iters=30, seed=seed)
    )


def nearly_coplanar_set(spin: Spin, squash: float, rng) -> DirectionSet:
    vectors = random_direction_set(spin, rng).unit_vectors() * [1.0, 1.0, squash]
    return DirectionSet(spin, [Direction.from_cartesian(v) for v in vectors])


@pytest.mark.parametrize(
    "two_j,kind",
    [pytest.param(two_j, "gram-product", id=str(two_j)) for two_j in (1, 2, 4, 8)]
    + [pytest.param(two_j, "condition-number", id=f"{two_j}-cond") for two_j in (1, 2, 4, 8)],
)
def test_batched_rows_score_as_single_sets(two_j, kind):
    spin = Spin(two_j)
    rng = np.random.default_rng(two_j)
    sets = [random_direction_set(spin, rng) for _ in range(12)]
    sets += [nearly_coplanar_set(spin, squash, rng) for squash in np.logspace(-1, -9, 12)]
    vectors = np.array([ds.unit_vectors() for ds in sets])
    if kind == "gram-product":
        vectors[5] = np.nan
        vectors[17, -1] = np.nan
        with np.errstate(invalid="ignore"):
            values = opt._log_dets(vectors)
            expected = [oracle_log_dets(v) for v in vectors]
        assert values == expected
        assert values[5] == values[17] == INFEASIBLE
        assert values.count(INFEASIBLE) > 2
    else:
        values = opt._neg_conds(vectors)
        assert values[-1] == INFEASIBLE  # squashed to 1e-9, below LSQ_RTOL
    assert any(v > INFEASIBLE for v in values)
    for i, ds in enumerate(sets):
        if not np.isnan(vectors[i]).any():
            assert objective(ds, kind) == values[i]


@pytest.mark.parametrize("two_j", [0, 1, 2, 4, 8])
def test_batched_parameter_rows_score_as_single_trials(two_j):
    spin = Spin(two_j)
    rng = np.random.default_rng(100 + two_j)
    rows = rng.normal(scale=20.0, size=(40, opt._n_params(spin)))
    vectors = opt._angles_to_vectors(*opt._params_to_angles(spin, rows))
    expected = [oracle_log_dets(oracle_angles_to_vectors(*oracle_params_to_angles(spin, x))) for x in rows]
    assert opt._log_dets(vectors) == expected
    for x in rows[:5]:
        assert opt._params_to_set(spin, x).dirs == oracle_params_to_set(spin, x).dirs


class RecordingScore:
    """A score of -|x - target|^2 that keeps every batch it was given."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.batches = []

    def __call__(self, rows):
        self.batches.append(rows.copy())
        return [-float(np.sum((x - self.target) ** 2)) for x in rows]

    def one(self, x):
        return self(x[None])[0]


def compass_trial(x, t, step=0.4):
    """Trial t of a sweep from x: coordinate t // 2, +step for even t, -step for odd."""
    out = x.copy()
    out[t // 2] += step if t % 2 == 0 else -step
    return out


@pytest.mark.parametrize("accepted", [0, opt._CHUNK - 1])
def test_acceptance_at_the_edges_of_a_chunk(accepted):
    n = opt._CHUNK
    target = np.zeros(n)
    target[accepted // 2] = -1.0 if accepted % 2 else 1.0
    score = RecordingScore(target)
    x, best = opt._compass_search(score, np.zeros(n), 0.4, 1e-3, 1)
    ref_x, ref_best = oracle_compass_search(RecordingScore(target).one, np.zeros(n), 0.4, 1e-3, 1)
    assert np.array_equal(x, ref_x) and best == ref_best

    start, first, second = score.batches[:3]
    assert len(start) == 1 and len(first) == opt._CHUNK
    assert np.array_equal(first, [compass_trial(np.zeros(n), t) for t in range(opt._CHUNK)])
    # the next batch resumes at the trial after the accepted one, from the new point
    assert len(second) == opt._CHUNK
    assert np.array_equal(
        second, [compass_trial(first[accepted], t) for t in range(accepted + 1, accepted + 1 + opt._CHUNK)]
    )
