import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    DomainError,
    OptimizationError,
    OptimizerConfig,
    Spin,
    condition_number,
    feasibility,
    objective,
    optimize,
    q_matrix,
)
from spinportrait.cli import main
from spinportrait.su2 import least_squares
from conftest import coplanar_triad, random_direction_set

INFEASIBLE = -1e18


def spearman(a, b) -> float:
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra @ rb) / math.sqrt((ra @ ra) * (rb @ rb)))


class TestObjective:
    def test_orthogonal_triad_is_global_maximum(self, orthogonal_triad):
        assert objective(orthogonal_triad, "gram-product") == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(0)
        for _ in range(25):
            ds = random_direction_set(Spin(1), rng)
            assert objective(ds, "gram-product") <= 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 16])
    def test_condition_number_kind_is_the_forward_map_cond(self, two_j):
        rng = np.random.default_rng(500 + two_j)
        for _ in range(4):
            ds = random_direction_set(Spin(two_j), rng)
            expected = -condition_number(q_matrix(ds.spin, ds.dirs))
            assert objective(ds, "condition-number") == pytest.approx(expected, rel=1e-10)

    def test_condition_number_kind_refuses_the_coplanar_triad(self):
        # the least-squares inverse refuses it (rank 3 < 4 at LSQ_RTOL)
        assert objective(coplanar_triad(), "condition-number") == INFEASIBLE

    def test_coplanar_sentinel(self):
        ds = DirectionSet(
            Spin(1),
            [Direction(math.pi / 2, 0.0), Direction(math.pi / 2, 1.0), Direction(math.pi / 2, 2.0)],
        )
        assert objective(ds, "gram-product") == INFEASIBLE

    def test_condition_number_kind(self, orthogonal_triad):
        value = objective(orthogonal_triad, "condition-number")
        assert value == pytest.approx(
            -condition_number(q_matrix(Spin(1), orthogonal_triad.dirs))
        )

    def test_unknown_kind(self, orthogonal_triad):
        with pytest.raises(DomainError):
            objective(orthogonal_triad, "nope")

    def test_monotone_link_between_objectives(self):
        # better Gram product should mean lower condition number
        rng = np.random.default_rng(42)
        gram_values, conds = [], []
        count = 0
        while count < 50:
            ds = random_direction_set(Spin(1), rng)
            val = objective(ds, "gram-product")
            if val <= INFEASIBLE:
                continue
            gram_values.append(val)
            conds.append(condition_number(q_matrix(Spin(1), ds.dirs)))
            count += 1
        assert spearman(gram_values, conds) <= -0.8

    def test_gauge_invariance(self):
        # rotate every direction by one common SO(3) rotation
        rng = np.random.default_rng(5)
        spin = Spin(2)
        ds = random_direction_set(spin, rng)
        theta, axis_phi = 0.77, 0.31
        c, s = math.cos(theta), math.sin(theta)
        axis = np.array([math.cos(axis_phi), math.sin(axis_phi), 0.0])
        def rodrigues(v):
            return (
                v * c + np.cross(axis, v) * s + axis * (axis @ v) * (1 - c)
            )
        rotated = DirectionSet(
            spin,
            [Direction.from_cartesian(rodrigues(d.cartesian)) for d in ds.dirs],
        )
        before = objective(ds, "gram-product")
        after = objective(rotated, "gram-product")
        assert abs(before - after) < 1e-10


class TestOptimize:
    def test_spin_half_reaches_orthogonal_triad(self):
        ds, value = optimize(Spin(1), OptimizerConfig(restarts=3, max_iters=400, seed=0))
        v = ds.unit_vectors()
        triple = abs(v[0] @ np.cross(v[1], v[2]))
        assert triple >= 1.0 - 1e-6
        assert value >= math.log((1.0 - 1e-6) ** 2)

    def test_deterministic_under_seed(self):
        config = OptimizerConfig(restarts=2, max_iters=150, seed=7)
        ds1, v1 = optimize(Spin(2), config)
        ds2, v2 = optimize(Spin(2), config)
        assert v1 == v2
        assert ds1.dirs == ds2.dirs

    def test_beats_random_baselines_spin_one(self):
        spin = Spin(2)
        ds, value = optimize(spin, OptimizerConfig(restarts=2, max_iters=250, seed=3))
        rng = np.random.default_rng(99)
        baselines = []
        while len(baselines) < 50:
            cand = random_direction_set(spin, rng)
            val = objective(cand, "gram-product")
            if val > INFEASIBLE:
                baselines.append(val)
        assert value >= max(baselines)

    def test_result_is_feasible(self):
        for two_j in (1, 2, 3):
            ds, value = optimize(
                Spin(two_j), OptimizerConfig(restarts=2, max_iters=150, seed=two_j)
            )
            assert feasibility(ds) > 0.0
            assert value > INFEASIBLE

    def test_gauge_fixing(self):
        ds, _ = optimize(Spin(2), OptimizerConfig(restarts=1, max_iters=100, seed=11))
        assert ds.dirs[0].theta == 0.0
        assert ds.dirs[1].phi == 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            OptimizerConfig(objective="bogus")
        with pytest.raises(DomainError):
            OptimizerConfig(restarts=0)
        with pytest.raises(DomainError):
            OptimizerConfig(tolerance=0.0)
        for bad in (
            {"tolerance": math.nan}, {"tolerance": math.inf}, {"max_iters": -3},
            # refused at construction, before optimize reaches default_rng or range
            {"restarts": 2.5}, {"max_iters": 3.5}, {"seed": 1.5}, {"seed": -1},
            # a bool would be a tolerance of 1, a string a bare TypeError
            {"tolerance": True}, {"tolerance": "1e-8"},
        ):
            with pytest.raises(DomainError):
                OptimizerConfig(**bad)

    @pytest.mark.parametrize("name", ["restarts", "max_iters", "seed"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_budgets_are_refused(self, name, flag):
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            OptimizerConfig(**{name: flag})

    def test_numpy_integer_budgets_are_taken(self):
        config = OptimizerConfig(restarts=np.int64(1), max_iters=np.int64(5), seed=np.int64(2))
        assert optimize(Spin(1), config)[1] == optimize(Spin(1), OptimizerConfig(restarts=1, max_iters=5, seed=2))[1]

    def test_zero_iterations_return_the_start(self):
        ds, value = optimize(Spin(1), OptimizerConfig(restarts=1, max_iters=0, seed=0))
        assert value == pytest.approx(objective(ds, "gram-product"), abs=1e-12)
        assert value > INFEASIBLE

    def test_condition_number_objective_runs(self):
        ds, value = optimize(
            Spin(1),
            OptimizerConfig(
                objective="condition-number", restarts=1, max_iters=60, seed=0
            ),
        )
        assert value == pytest.approx(
            -condition_number(q_matrix(Spin(1), ds.dirs))
        )
        # optimum of the condition number is also the orthogonal triad
        assert -value < 1.8


def haar_error(ds: DirectionSet) -> float:
    """Exact Haar-pure average of ||rho_hat - rho||_HS^2 at one count per direction.

    The trace form Tr(Q+ E[Sigma] Q+^T): block k of the counts' covariance is
    (diag w - w w^T) / N^2 with w = N P_k, and over Haar-pure states
    E w = 1/d and E w w^T = (I + J) / (d (d + 1)).
    """
    d, n = ds.spin.dim, ds.n_dirs
    _, inverse = least_squares(ds)
    block = (np.eye(d) / (d + 1) - np.ones((d, d)) / (d * (d + 1))) / n**2
    return float(np.trace(inverse @ np.kron(np.eye(n), block) @ inverse.T))


class TestAOptimal:
    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 16])
    def test_scores_minus_the_squared_frobenius_norm_of_the_inverse(self, two_j):
        rng = np.random.default_rng(800 + two_j)
        for _ in range(3):
            ds = random_direction_set(Spin(two_j), rng)
            _, inverse = least_squares(ds)
            assert objective(ds, "a-optimal") == pytest.approx(-np.sum(inverse**2), rel=1e-10)

    def test_refuses_what_the_least_squares_inverse_refuses(self):
        assert objective(coplanar_triad(), "a-optimal") == INFEASIBLE

    @pytest.mark.parametrize("two_j,max_iters", [(2, 200), (4, 100), (8, 40)])
    def test_its_set_has_the_least_haar_averaged_error(self, two_j, max_iters):
        spin = Spin(two_j)
        errors = {}
        for kind in ("gram-product", "a-optimal"):
            ds, value = optimize(spin, OptimizerConfig(objective=kind, restarts=2, max_iters=max_iters, seed=3))
            d, n = spin.dim, ds.n_dirs
            errors[kind] = haar_error(ds)
            # c1 ||Q+||_F^2 - c2 N d, since Q+ maps every block's ones to coords(I)
            frobenius = -objective(ds, "a-optimal")
            assert errors[kind] == pytest.approx((frobenius / (d + 1) - n / (d + 1)) / n**2, rel=1e-9)
        assert errors["a-optimal"] <= errors["gram-product"]

    def test_starts_at_two_j_16_where_gram_product_cannot(self, tmp_path, capsys):
        config = OptimizerConfig(objective="a-optimal", restarts=1, max_iters=5)
        ds, value = optimize(Spin(16), config)
        assert INFEASIBLE < value == pytest.approx(objective(ds, "a-optimal"), rel=1e-9)
        least_squares(ds)  # admitted
        with pytest.raises(OptimizationError):
            optimize(Spin(16), OptimizerConfig(restarts=1, max_iters=5))
        args = ["optimize-dirs", "--two-j", "16", "--restarts", "1", "--max-iters", "5"]
        assert main(args + ["--objective", "a-optimal", "--out", str(tmp_path / "d.json")]) == 0
        assert main(args + ["--objective", "gram-product", "--out", str(tmp_path / "g.json")]) == 4

    def test_the_qubit_optimum_is_the_orthogonal_triad(self, orthogonal_triad):
        ds, value = optimize(Spin(1), OptimizerConfig(objective="a-optimal", restarts=2, max_iters=100, seed=3))
        v = ds.unit_vectors()
        assert abs(v[0] @ np.cross(v[1], v[2])) >= 1.0 - 1e-6
        assert value == pytest.approx(objective(orthogonal_triad, "a-optimal"), rel=1e-12)
