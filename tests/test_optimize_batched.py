"""The BFGS direction search: its gradient, its stacked trials and its scorers.

The gradient is held to central differences of the scorers.  The search,
which runs its restarts in lockstep, is pinned against a one-restart-at-a-time,
one-trial-at-a-time oracle: one-row start draws each scored
alone, the line search's halvings each scored alone until the first that
passes, a Python loop from parameters to angles, and the per-set log product
summed over the checked shells (the condition-number oracle scores the same
numpy-built unit vectors through the stacked scorer, one set per call, so no
libm sin/cos enters).  The stacked search must visit the same points, so its
direction sets and values must be bitwise the oracle's, and every row of a
batch must score exactly as the set scores alone.
"""

import logging
import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    OptimizationError,
    OptimizerConfig,
    Spin,
    objective,
    optimize,
)
from spinportrait import su2
from spinportrait import optimizer as opt
from spinportrait.cli import main
from spinportrait.optimizer import INFEASIBLE
from conftest import random_direction_set

SEEDS = (0, 7, 23)


def oracle_log_dets(vectors: np.ndarray) -> float:
    """Sum of log det M(L) in shell order, INFEASIBLE at a det below 1e-12 or NaN."""
    total = 0.0
    for L, gram in enumerate(su2._shell_grams(vectors)):
        det = np.linalg.det(gram) if L else 1.0
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


def oracle_random_params(spin: Spin, rng) -> np.ndarray:
    """One start row, drawn one uniform at a time."""
    n = opt._n_params(spin)
    x = np.empty(n)
    if n:
        x[0] = math.acos(rng.uniform(-1.0, 1.0))
    for i in range(1, (n + 1) // 2):
        x[2 * i - 1] = math.acos(rng.uniform(-1.0, 1.0))
        x[2 * i] = rng.uniform(0.0, 2.0 * math.pi)
    return x


def oracle_bfgs_ascent(fun, gradient, x0, tolerance, max_iters):
    """BFGS ascent whose line search scores one halving per call."""
    x = x0.copy()
    best = fun(x)
    g = gradient(x)
    h = None
    for _ in range(max_iters):
        p = g if h is None else h @ g
        length = np.abs(p).max(initial=0.0)
        if length > 0.4:
            p = p * (0.4 / length)
            length = 0.4
        slope = g @ p
        if not slope > 0.0 or length < tolerance:
            break
        step = 1.0
        while step * length >= tolerance:
            trial = x + step * p
            val = fun(trial)
            if val - best > 1e-4 * slope * step:
                break
            step *= 0.5
        else:
            break
        s = trial - x
        x, best = trial, val
        g_new = gradient(x)
        y = g - g_new
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


def oracle_optimize(spin: Spin, config: OptimizerConfig):
    def fun(x):
        vectors = oracle_angles_to_vectors(*oracle_params_to_angles(spin, x))
        if config.objective == "gram-product":
            return oracle_log_dets(vectors)
        return opt._OBJECTIVES["condition-number"][0](vectors[None])[0]

    def gradient(x):
        return opt._gradient(spin, config.objective, x)

    best_x = None
    best_val = -math.inf
    for restart in range(config.restarts):
        rng = np.random.default_rng((config.seed, restart))
        x0 = None
        for _ in range(64):
            candidate = oracle_random_params(spin, rng)
            if fun(candidate) > INFEASIBLE:
                x0 = candidate
                break
        if x0 is None:
            continue
        x, val = oracle_bfgs_ascent(fun, gradient, x0, config.tolerance, config.max_iters)
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


@pytest.mark.parametrize("two_j", [0, 1, 2, 4, 8, 16])
def test_start_draws_are_the_one_row_draws(two_j):
    spin = Spin(two_j)
    for seed in range(5):
        rng = np.random.default_rng((seed, 1))
        expected = np.array([oracle_random_params(spin, rng) for _ in range(64)])
        got = opt._random_params(spin, np.random.default_rng((seed, 1)), 64)
        assert got.shape == (64, opt._n_params(spin))
        assert got.tobytes() == expected.tobytes()


def stacked_score(spin: Spin, kind: str):
    def score(rows):
        return opt._OBJECTIVES[kind][0](opt._angles_to_vectors(*opt._params_to_angles(spin, rows)))
    return score


def feasible_start(spin: Spin, kind: str, seed: int) -> np.ndarray:
    starts = opt._random_params(spin, np.random.default_rng(seed), 64)
    values = stacked_score(spin, kind)(starts)
    return starts[next(i for i, v in enumerate(values) if v > INFEASIBLE)]


def folded_copies(x: np.ndarray) -> np.ndarray:
    """x with its theta entries moved to 2 pi - theta, -theta and theta + 2 pi in turn."""
    out = x.copy()
    for j, col in enumerate(opt._theta_params(x.size)):
        out[col] = (2.0 * math.pi - x[col], -x[col], x[col] + 2.0 * math.pi)[j % 3]
    return out


@pytest.mark.parametrize("kind", opt.OBJECTIVES)
@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
def test_gradient_is_the_central_difference(kind, two_j):
    spin = Spin(two_j)
    score = stacked_score(spin, kind)
    columns = opt._theta_params(opt._n_params(spin))
    flipped = np.zeros(opt._n_params(spin), dtype=bool)
    flipped[columns] = [j % 3 < 2 for j in range(len(columns))]
    for seed in range(3):
        x = feasible_start(spin, kind, 100 * two_j + seed)
        g = opt._gradient(spin, kind, x)
        moved = folded_copies(x)
        assert score(moved[None])[0] == pytest.approx(score(x[None])[0], rel=1e-12)  # the same directions
        g_moved = opt._gradient(spin, kind, moved)
        # a fold moves the unit vectors by rounding, so the absolute floor scales with the gradient
        assert np.allclose(g_moved, np.where(flipped, -g, g), rtol=1e-12, atol=1e-12 * max(1.0, np.abs(g).max()))
        assert (moved[columns] < 0).any() and (moved[columns] > math.pi).any()
        for row, grad in ((x, g), (moved, g_moved)):
            h = 1e-6
            shifts = h * np.eye(row.size)
            values = np.array(score(np.concatenate((row + shifts, row - shifts))))
            assert (values > INFEASIBLE).all()
            central = (values[: row.size] - values[row.size :]) / (2 * h)
            assert np.abs(grad - central).max() <= 1e-6 * max(1.0, np.abs(grad).max())


@pytest.mark.parametrize("kind", opt.OBJECTIVES)
@pytest.mark.parametrize("two_j", [1, 2, 4])
def test_every_accepted_step_raises_the_score(kind, two_j):
    spin = Spin(two_j)
    score = stacked_score(spin, kind)
    accepted = []

    def gradient(rows):  # called at the start and at each accepted point only
        accepted.extend(rows.copy())
        return opt._gradient(spin, kind, rows)

    x0 = feasible_start(spin, kind, two_j)[None]
    (x,), (best,), _, _ = opt._bfgs_ascent(score, gradient, x0, score(x0), 1e-8, 60)
    values = score(np.array(accepted))
    assert len(values) > 5
    assert all(later > earlier for earlier, later in zip(values, values[1:]))
    assert np.array_equal(accepted[-1], x) and values[-1] == best


@pytest.mark.parametrize("kind", opt.OBJECTIVES)
@pytest.mark.parametrize("two_j", [2, 4])
def test_a_fixed_seed_gives_the_same_set_and_value(kind, two_j):
    config = OptimizerConfig(objective=kind, restarts=2, max_iters=30, seed=5)
    ds, value = optimize(Spin(two_j), config)
    again, value_again = optimize(Spin(two_j), config)
    assert ds.dirs == again.dirs and value == value_again
    other, _ = optimize(Spin(two_j), OptimizerConfig(objective=kind, restarts=2, max_iters=30, seed=6))
    assert other.dirs != ds.dirs


def oracle_least_squares_scores(vectors: np.ndarray, kind: str) -> list:
    """Each set's score from its own spectrum, INFEASIBLE at s_min <= 1e-8 s_max, one set at a time."""
    out = []
    for s in su2._spectrum(vectors):
        hi, lo = float(s[0]), float(s[-1])
        if not lo > 1e-8 * hi:
            out.append(INFEASIBLE)
        else:
            out.append(-hi / lo if kind == "condition-number" else -float((s**-2.0).sum()))
    return out


@pytest.mark.parametrize("kind", opt.OBJECTIVES)
@pytest.mark.parametrize("two_j", [1, 2, 4])
def test_objective_is_row_zero_of_its_stacked_scorer(kind, two_j):
    spin = Spin(two_j)
    rng = np.random.default_rng(two_j)
    sets = [random_direction_set(spin, rng) for _ in range(4)]
    sets += [nearly_coplanar_set(spin, squash, rng) for squash in (1e-3, 1e-6, 1e-9, 0.0)]
    scorer = opt._OBJECTIVES[kind][0]
    for ds in sets:
        stack = np.array([ds.unit_vectors()] + [other.unit_vectors() for other in sets if other is not ds])
        assert objective(ds, kind) == scorer(stack)[0] == scorer(ds.unit_vectors()[None])[0]
    if kind != "gram-product":
        vectors = np.array([ds.unit_vectors() for ds in sets])
        values = scorer(vectors)
        assert values == oracle_least_squares_scores(vectors, kind)
        assert values[-1] == INFEASIBLE and values[0] > INFEASIBLE


@pytest.mark.parametrize(
    "kind,rule",
    [
        ("gram-product", "a shell Gram determinant det M(L) below _DET_CUT = 1e-12"),
        ("condition-number", "a least-squares inverse refused at s_min <= LSQ_RTOL s_max, LSQ_RTOL = 1e-08"),
        ("a-optimal", "a least-squares inverse refused at s_min <= LSQ_RTOL s_max, LSQ_RTOL = 1e-08"),
    ],
)
def test_every_objective_names_its_start_rule(kind, rule, monkeypatch):
    # every start draw is refused: no spectrum passes s_min > 2 s_max, no determinant 1e300
    monkeypatch.setattr(opt, "LSQ_RTOL", 2.0)
    monkeypatch.setattr(opt, "_DET_CUT", 1e300)
    with pytest.raises(OptimizationError) as info:
        optimize(Spin(1), OptimizerConfig(objective=kind, restarts=2))
    assert str(info.value) == (
        "every restart remained infeasible: each of 2 restart(s) tried 64 start draws, and every draw had " + rule
    )


def test_infeasible_start_draws_are_reported(tmp_path, capsys):
    # no isotropic draw of 33 directions keeps every det M(L) >= 1e-12
    message = (
        "every restart remained infeasible: each of 1 restart(s) tried 64 start draws, and every "
        "draw had a shell Gram determinant det M(L) below _DET_CUT = 1e-12"
    )
    with pytest.raises(OptimizationError) as info:
        optimize(Spin(16), OptimizerConfig(restarts=1, max_iters=5))
    assert str(info.value) == message
    out = tmp_path / "dirs.json"
    code = main(["optimize-dirs", "--two-j", "16", "--restarts", "1", "--max-iters", "5", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.strip() == "infeasible: " + message
    assert not out.exists()


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
        values = opt._OBJECTIVES["condition-number"][0](vectors)
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
    """A score of -|x - target|^2 that keeps every batch it was given.

    Its ``gradient`` is the fixed direction ``e``, the slope the line search
    reads, so the accepted halving is set by the target alone.
    """

    def __init__(self, target, e):
        self.target = np.asarray(target, dtype=float)
        self.e = e
        self.batches = []

    def __call__(self, rows):
        self.batches.append(rows.copy())
        return [-float(np.sum((x - self.target) ** 2)) for x in rows]

    def gradient(self, rows):
        return np.tile(self.e, (len(rows), 1))


@pytest.mark.parametrize("accepted", [0, 15])
def test_acceptance_at_the_edges_of_a_chunk(accepted):
    # From 0 the first trial is 0.4 e, and with target = tau e halving k
    # passes the Armijo test iff 2^-k < 5 tau - 2.5e-4; the tolerance leaves
    # exactly 16 trials, so halving 15 is the last of the stacked batch.
    e = np.array([1.0, -0.5, 0.25, 0.0])
    tau = (1.5 * 2.0 ** -accepted + 2.5e-4) / 5.0
    score = RecordingScore(tau * e, e)
    x0 = np.zeros((1, 4))
    (x,), (best,), _, _ = opt._bfgs_ascent(score, score.gradient, x0, score(x0), 0.4 * 2.0 ** -15.5, 1)
    trials = [2.0 ** -k * 0.4 * e for k in range(16)]
    assert np.array_equal(x, trials[accepted]) and best == score(x[None])[0]
    start, first, *rest = score.batches[:-1]
    assert np.array_equal(start, [np.zeros(4)]) and np.array_equal(first, trials[:1])
    # the first trial is scored alone; the other halvings only if it fails, in one batch
    assert len(rest) == (accepted > 0)
    if rest:
        assert np.array_equal(rest[0], trials[1:])


def restart_records(caplog) -> list:
    """The arguments of each optimize restart's DEBUG record, in order."""
    return [r.args for r in caplog.records if r.name == "spinportrait" and r.levelno == logging.DEBUG]


@pytest.mark.parametrize(
    "two_j,kind,restarts,max_iters,staggered",
    [
        (1, "gram-product", 1, 100, False),
        (1, "gram-product", 4, 100, True),
        (2, "gram-product", 4, 40, True),
        (2, "gram-product", 5, 40, True),
        (4, "gram-product", 5, 40, False),  # every restart runs to the cap
        (1, "condition-number", 1, 100, False),
        (1, "condition-number", 4, 100, True),
        (2, "condition-number", 5, 40, False),
    ],
)
def test_lockstep_restarts_are_bitwise_the_oracle(two_j, kind, restarts, max_iters, staggered, caplog):
    config = OptimizerConfig(objective=kind, restarts=restarts, max_iters=max_iters, seed=3)
    with caplog.at_level(logging.DEBUG, logger="spinportrait"):
        assert_same_search(two_j, config)
    steps = [args[6] for args in restart_records(caplog)]
    assert len(steps) == restarts
    # staggered: the restarts leave the lockstep at different iterations
    assert (len(set(steps)) > 1) == staggered


def lone_paths(spin: Spin, kind: str, starts: np.ndarray, max_iters: int):
    """(x, value, steps, stop) of each start row climbed on its own."""
    score = stacked_score(spin, kind)
    out = []
    for row in starts:
        (x,), (value,), (steps,), (stop,) = opt._bfgs_ascent(
            score, lambda rows: opt._gradient(spin, kind, rows), row[None], score(row[None]), 1e-8, max_iters
        )
        out.append((x, value, steps, stop))
    return out


@pytest.mark.parametrize("kind", opt.OBJECTIVES)
@pytest.mark.parametrize("two_j", [1, 2, 4])
def test_lockstep_rows_follow_their_lone_paths(kind, two_j):
    spin = Spin(two_j)
    score = stacked_score(spin, kind)
    starts = np.array([feasible_start(spin, kind, 50 * two_j + i) for i in range(5)])
    x, values, steps, stops = opt._bfgs_ascent(
        score, lambda rows: opt._gradient(spin, kind, rows), starts, score(starts), 1e-8, 30
    )
    alone = lone_paths(spin, kind, starts, 30)
    assert x.tobytes() == np.array([a[0] for a in alone]).tobytes()
    assert (values, steps, stops) == tuple(list(column) for column in zip(*alone))[1:]


def test_a_restart_without_a_feasible_draw_is_skipped(monkeypatch, caplog):
    # at two_j=1 every restart of seed 3 reaches the triad's exact 0, so the
    # skipped restart 0 hands the tie to restart 1, not to restart 2
    spin, config = Spin(1), OptimizerConfig(restarts=3, max_iters=100, seed=3)
    with caplog.at_level(logging.DEBUG, logger="spinportrait"):
        optimize(spin, config)
    kept = restart_records(caplog)[1:]
    caplog.clear()
    real = opt._random_params
    made = []

    def draws(spin, rng, count):
        made.append(real(spin, rng, count))
        return np.zeros_like(made[-1]) if len(made) == 1 else made[-1]  # every direction on +z

    monkeypatch.setattr(opt, "_random_params", draws)
    with caplog.at_level(logging.DEBUG, logger="spinportrait"):
        ds, value = optimize(spin, config)
    skipped, *records = restart_records(caplog)
    assert skipped == (0, 64) and records == kept
    alone = lone_paths(spin, "gram-product", np.array([made[1][0], made[2][0]]), 100)
    assert alone[0][1] == alone[1][1] == value == 0.0
    assert ds.dirs == opt._params_to_set(spin, alone[0][0]).dirs


@pytest.mark.parametrize("restarts", [1, 2, 5])
def test_one_call_of_each_kind_per_lockstep_iteration(restarts, monkeypatch, caplog):
    calls = []
    real_score, real_gradient = opt._log_dets, opt._gradient

    def score(vectors):
        calls.append(("score", len(vectors)))
        return real_score(vectors)

    def gradient(spin, kind, rows):
        calls.append(("gradient", len(rows)))
        return real_gradient(spin, kind, rows)

    monkeypatch.setitem(opt._OBJECTIVES, "gram-product", (score, *opt._OBJECTIVES["gram-product"][1:]))
    monkeypatch.setattr(opt, "_gradient", gradient)
    with caplog.at_level(logging.DEBUG, logger="spinportrait"):
        optimize(Spin(2), OptimizerConfig(restarts=restarts, max_iters=40, seed=3))
    steps = [args[6] for args in restart_records(caplog)]
    assert calls[:2] == [("score", 64 * restarts), ("gradient", restarts)]
    iterations, rest = [], calls[2:]
    while rest:  # first trials, at most one call of halvings, then one gradient
        kinds = [kind for kind, _ in rest[:3]]
        size = 3 if kinds == ["score", "score", "gradient"] else 2 if kinds[:2] == ["score", "gradient"] else 0
        if not size:  # the last iteration, where no restart passed
            assert kinds in (["score"], ["score", "score"])
            break
        iterations.append(rest[size - 1][1])
        rest = rest[size:]
    # an iteration serves every restart still climbing, so there are as many as the longest climb
    assert len(iterations) == max(steps)
    assert iterations == [sum(s > i for s in steps) for i in range(max(steps))]


def test_one_debug_record_per_restart(tmp_path, caplog, capsys):
    config = OptimizerConfig(restarts=2, max_iters=100, seed=3)
    with caplog.at_level(logging.INFO, logger="spinportrait"):
        optimize(Spin(1), config)
    assert caplog.records == []  # no record is made, so nothing is formatted
    with caplog.at_level(logging.DEBUG, logger="spinportrait"):
        optimize(Spin(1), config)
    records = [r for r in caplog.records if r.name == "spinportrait"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    starts = opt._log_dets(opt._angles_to_vectors(*opt._params_to_angles(Spin(1), np.array(
        [opt._random_params(Spin(1), np.random.default_rng((3, r)), 1)[0] for r in range(2)]
    ))))
    # restart, start draw, infeasible draws, draws, start value, end value, accepted steps, stop
    assert [r.args for r in records] == [
        (0, 0, 0, 64, starts[0], 0.0, 12, "short step"),
        (1, 0, 0, 64, starts[1], 0.0, 7, "short step"),
    ]
    assert records[1].getMessage() == (
        f"optimize restart 1: start draw 0, 0 of 64 draws infeasible, value {starts[1]!r} -> 0.0 "
        "in 7 accepted steps, stopped by short step"
    )
    # the CLI's stdout and exit code do not change with the logger's level
    capsys.readouterr()
    args = ["optimize-dirs", "--two-j", "1", "--restarts", "2", "--max-iters", "100", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "quiet.json")]) == 0
    quiet = capsys.readouterr()
    with caplog.at_level(logging.DEBUG, logger="spinportrait"):
        assert main(args + ["--out", str(tmp_path / "debug.json")]) == 0
    assert capsys.readouterr() == quiet and quiet.out == ""
    assert (tmp_path / "quiet.json").read_text() == (tmp_path / "debug.json").read_text()
