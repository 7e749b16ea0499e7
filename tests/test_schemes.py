import decimal
import math

import numpy as np
import pytest

from spinportrait import (
    AWGrid,
    Direction,
    DirectionSet,
    DomainError,
    FeasibilityError,
    InvariantError,
    ProbVector,
    Spin,
    UnitaryFrameSet,
    aw_directions,
    aw_forward,
    aw_m_matrix,
    aw_normalized_forward,
    aw_reconstruct,
    condition_number,
    default_aw_grid,
    feasibility,
    gamma_prime,
    haar_unitary,
    hermitian_to_vec,
    mu_bound,
    newton_young_directions,
    normalize_to_eq,
    numerical_rank,
    prob_vector,
    q_matrix,
    r_matrix,
    random_density_matrix,
    random_frame_set,
    reconstruct,
    reconstruct_pinv,
    sun_gram,
    vec_to_hermitian,
)
from spinportrait import su2
from spinportrait.orthopoly import assoc_legendre, coeff_table
from spinportrait.spin import Directions

# frozen regression value: gamma_prime(random_frame_set(Spin(1), default_rng(5)))
GAMMA_PRIME_J_HALF_SEED_5 = 0.09150362733837276


class TestRMatrix:
    def test_three_haar_frames_full_rank(self):
        spin = Spin(1)
        rng = np.random.default_rng(12)
        frames = [haar_unitary(2, rng) for _ in range(3)]
        r = r_matrix(spin, frames)
        assert r.shape == (6, 4)
        assert numerical_rank(r) == 4

    def test_repeated_frames_collapse_rank(self):
        spin = Spin(2)
        u = haar_unitary(3, np.random.default_rng(1))
        r = r_matrix(spin, [u, u, u, u])
        assert numerical_rank(r) == spin.dim

    def test_mixed_state_column(self):
        spin = Spin(2)
        rng = np.random.default_rng(2)
        frames = [haar_unitary(3, rng) for _ in range(4)]
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        out = r_matrix(spin, frames, weights) @ hermitian_to_vec(np.eye(3) / 3.0)
        expected = np.repeat(weights, 3) / 3.0
        assert np.abs(out - expected).max() < 1e-13

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_frame_count_thresholds(self, two_j):
        spin = Spin(two_j)
        rng = np.random.default_rng(50 + two_j)
        frames = [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
        full = spin.dim**2
        assert numerical_rank(r_matrix(spin, frames)) == full
        fewer = frames[:-1]
        assert numerical_rank(r_matrix(spin, fewer)) < full

    def test_per_block_row_sums_frame_independent(self):
        spin = Spin(2)
        rng = np.random.default_rng(9)
        frames = [haar_unitary(3, rng) for _ in range(4)]
        r = r_matrix(spin, frames)
        identity_coords = hermitian_to_vec(np.eye(3))
        for k in range(4):
            block = r[3 * k : 3 * (k + 1)]
            assert np.abs(block.sum(axis=0) - identity_coords / 4.0).max() < 1e-13


class TestGammaPrime:
    def test_equal_frames_degenerate(self):
        spin = Spin(1)
        u = haar_unitary(2, np.random.default_rng(0))
        ufs = UnitaryFrameSet(spin, [u, u, u])
        assert abs(gamma_prime(ufs)) < 1e-12

    def test_diagonal_blocks_identity(self):
        spin = Spin(2)
        ufs = random_frame_set(spin, np.random.default_rng(4))
        g = sun_gram(ufs)
        two_j = spin.two_j
        for k in range(len(ufs.frames)):
            block = g[k * two_j : (k + 1) * two_j, k * two_j : (k + 1) * two_j]
            assert np.abs(block - np.eye(two_j)).max() < 1e-11

    def test_range_and_regression_value(self):
        ufs = random_frame_set(Spin(1), np.random.default_rng(5))
        value = gamma_prime(ufs)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(GAMMA_PRIME_J_HALF_SEED_5, abs=1e-12)

    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 16])
    def test_gram_is_the_operator_traces(self, two_j):
        spin = Spin(two_j)
        ufs = random_frame_set(spin, np.random.default_rng(70 + two_j))
        # S_L(u) = u f_L(Jz) u^dag as complex matrices, rows (frame, L >= 1)
        u = np.array(ufs.frames)[:, None]
        ops = (u * coeff_table(spin)[None, 1:, None, :]) @ np.swapaxes(u, -1, -2).conj()
        ops = ops.reshape(-1, spin.dim, spin.dim)
        traces = np.einsum("aij,bji->ab", ops, ops)
        assert np.abs(traces.imag).max() < 1e-12
        assert np.abs(sun_gram(ufs) - traces.real).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2])
    def test_bounded_by_one(self, two_j):
        for seed in range(5):
            ufs = random_frame_set(Spin(two_j), np.random.default_rng(seed))
            assert -1e-12 <= gamma_prime(ufs) <= 1.0 + 1e-12


class TestReconstructPinv:
    def test_uniform_vector_gives_mixed_state(self):
        spin = Spin(1)
        ufs = random_frame_set(spin, np.random.default_rng(7))
        p = ProbVector(spin, 3, np.full(6, 1.0 / 6.0))
        rec = reconstruct_pinv(p, ufs)
        assert np.abs(rec - np.eye(2) / 2.0).max() < 1e-12

    @pytest.mark.parametrize("two_j,seed", [(1, 0), (2, 3), (3, 8)])
    def test_round_trip(self, two_j, seed):
        spin = Spin(two_j)
        rng = np.random.default_rng(seed)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        p = prob_vector(spin, rho, list(ufs.frames))
        rec = reconstruct_pinv(p, ufs)
        assert np.abs(rec - rho).max() < 1e-9
        assert np.trace(rec).real == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_with_weights(self):
        spin = Spin(1)
        rng = np.random.default_rng(13)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        weights = np.array([0.5, 0.3, 0.2])
        p = prob_vector(spin, rho, list(ufs.frames), weights)
        rec = reconstruct_pinv(normalize_to_eq(p), ufs)
        assert np.abs(rec - rho).max() < 1e-9

    def test_is_the_one_least_squares_reconstruction(self):
        assert reconstruct_pinv is su2.reconstruct

    def test_mismatched_priors_are_refused_before_the_inverse(self):
        # the pseudo-inverse would return a trace-one state far from rho
        spin = Spin(2)
        rng = np.random.default_rng(31)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        p = prob_vector(spin, rho, ufs.frames, (0.4, 0.3, 0.2, 0.1))
        before = su2._solver.cache_info()
        with pytest.raises(DomainError, match="block sums are not the priors"):
            reconstruct_pinv(p, ufs)
        assert su2._solver.cache_info() == before
        assert np.abs(reconstruct_pinv(normalize_to_eq(p), ufs) - rho).max() < 1e-9

    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 16])
    def test_prior_stacked_vectors_invert_through_normalize_to_eq(self, two_j):
        # the oracle is the least-squares inverse of the map with the priors
        spin = Spin(two_j)
        rng = np.random.default_rng((two_j, 32))
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        w = rng.uniform(0.5, 1.5, two_j + 2)
        w /= w.sum()
        p = prob_vector(spin, rho, ufs.frames, w)
        x = np.linalg.lstsq(r_matrix(spin, ufs.frames, w), p.values, rcond=None)[0]
        rec = reconstruct_pinv(normalize_to_eq(p), ufs)
        assert np.abs(rec - vec_to_hermitian(x, spin.dim)).max() <= 1e-12
        assert np.abs(rec - rho).max() <= 1e-12

    def test_rank_deficient_rejected(self):
        spin = Spin(1)
        u = haar_unitary(2, np.random.default_rng(0))
        ufs = UnitaryFrameSet(spin, [u, u, u])
        p = ProbVector(spin, 3, np.full(6, 1.0 / 6.0))
        with pytest.raises(FeasibilityError):
            reconstruct_pinv(p, ufs)

    @pytest.mark.parametrize(
        "weights,message",
        [
            ([math.nan, 0.5, 0.5], "negative or NaN prior weight nan"),
            ([0.5, math.nan, 0.5], "negative or NaN prior weight nan"),
            ([math.inf, 0.5, 0.5], "sum to inf"),
            ([math.inf, -math.inf, 1.0], "negative or NaN prior weight -inf"),
        ],
    )
    def test_non_finite_weights_rejected(self, weights, message):
        # the forward map is the one place priors are taken
        spin = Spin(1)
        ufs = random_frame_set(spin, np.random.default_rng(7))
        with pytest.raises(DomainError, match=message):
            r_matrix(spin, ufs.frames, weights)
        dirs = [Direction(0.0, 0.0), Direction(1.5, 0.0), Direction(1.5, 1.5)]
        with pytest.raises(DomainError, match=message):
            q_matrix(spin, dirs, weights)

    @pytest.mark.parametrize("matrix", [q_matrix, r_matrix])
    def test_empty_frame_sequence_is_refused(self, matrix):
        with pytest.raises(DomainError, match="at least one frame"):
            matrix(Spin(1), [])

    @pytest.mark.parametrize("two_j", [1, 2])
    def test_mu_bound(self, two_j):
        for seed in range(20):
            ufs = random_frame_set(Spin(two_j), np.random.default_rng((two_j, seed)))
            gamma = gamma_prime(ufs)
            mu = condition_number(sun_gram(ufs))
            assert mu <= mu_bound(gamma) * (1.0 + 1e-9)

    @pytest.mark.parametrize("two_j", range(1, 17))
    def test_mu_bound_is_finite_and_bounds_the_applied_condition_number(self, two_j):
        # Haar sets give Gamma' of 1e-19 and below from two_j = 6 on, where
        # 1 - sqrt(1 - Gamma') rounds to zero.  The bound is on the condition
        # number of the L >= 1 Gram matrix, whose eigenvalues straddle 1; the
        # forward map's squared singular values are those eigenvalues and N, the
        # trace direction's, so its condition number is at most sqrt(N bound)
        # (a Gamma' near 1 at two_j = 1 can put it above the bound itself)
        for seed in range(3):
            ufs = random_frame_set(Spin(two_j), np.random.default_rng((two_j, seed)))
            s = su2.least_squares(ufs)[0]
            bound = mu_bound(gamma_prime(ufs))
            assert math.isfinite(bound)
            assert condition_number(sun_gram(ufs)) <= bound * (1.0 + 1e-9)
            assert s[0] / s[-1] <= math.sqrt(len(ufs.frames) * bound)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 1e-4, 1e-10, 1e-19, 1e-120])
    def test_mu_bound_matches_exact_arithmetic(self, gamma):
        with decimal.localcontext() as ctx:
            ctx.prec = 400  # 1 - Gamma' holds every digit of Gamma'
            root = (1 - decimal.Decimal(gamma)).sqrt()
            want = float((1 + root) / (1 - root))
        assert abs(mu_bound(gamma) - want) <= 4 * np.finfo(float).eps * want

    @pytest.mark.parametrize("gamma", [0.0, -1e-300])
    def test_mu_bound_is_infinite_at_zero(self, gamma):
        assert mu_bound(gamma) == math.inf

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_mu_bound_refuses_a_non_finite_gamma(self, gamma):
        with pytest.raises(DomainError, match="Gamma' must be finite"):
            mu_bound(gamma)


class TestFrameSetValidation:
    def test_wrong_count(self):
        with pytest.raises(DomainError):
            UnitaryFrameSet(Spin(1), [np.eye(2, dtype=complex)] * 4)

    def test_non_unitary(self):
        with pytest.raises(InvariantError):
            UnitaryFrameSet(Spin(1), [np.eye(2, dtype=complex) * 2] * 3)

    def test_equality_and_hash_by_identity(self):
        # equal frames in two objects: comparing their arrays would be ambiguous
        a = random_frame_set(Spin(1), np.random.default_rng(0))
        b = random_frame_set(Spin(1), np.random.default_rng(0))
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestAWGrid:
    def test_example_spin_half_grid(self):
        grid = AWGrid(Spin(1), (math.pi / 3, 2 * math.pi / 3), 0.5)
        dirs = aw_directions(grid)
        assert len(dirs) == 4
        phis = sorted(d.phi for d in dirs)
        assert np.allclose(phis, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert dirs[0].theta == dirs[1].theta == math.pi / 3
        assert dirs[2].theta == dirs[3].theta == 2 * math.pi / 3

    def test_count_and_cone_structure(self):
        spin = Spin(4)
        grid = default_aw_grid(spin)
        dirs = aw_directions(grid)
        assert len(dirs) == spin.dim**2
        for q in range(spin.dim):
            cone = dirs[q * spin.dim : (q + 1) * spin.dim]
            assert len({d.theta for d in cone}) == 1

    def test_grid_is_a_checked_directions_tuple(self, monkeypatch):
        spin = Spin(2)
        dirs = aw_directions(default_aw_grid(spin))
        assert type(dirs) is Directions
        built = []
        new = Directions.__new__

        def counting_new(cls, entries):
            if type(entries) is not cls:
                built.append(entries)
            return new(cls, entries)

        monkeypatch.setattr(Directions, "__new__", counting_new)
        rho = random_density_matrix(spin, np.random.default_rng(5))
        w = aw_normalized_forward(spin, rho, dirs)
        aw_reconstruct(spin, w, dirs, normalized=True)
        assert built == []
        Directions(list(dirs))  # the spy sees a raw sequence
        assert len(built) == 1

    def test_validation(self):
        with pytest.raises(DomainError):
            AWGrid(Spin(1), (0.5, 0.5), 0.5)  # repeated polar angle
        with pytest.raises(DomainError):
            AWGrid(Spin(1), (0.5, 1.0), 0.6)  # twist above 1/(2j+1)
        with pytest.raises(DomainError):
            AWGrid(Spin(1), (0.0, 1.0), 0.5)  # polar angle on the pole
        with pytest.raises(DomainError):
            AWGrid(Spin(2), (0.5, 1.0), 0.3)  # wrong angle count


class TestAWReconstruction:
    @pytest.mark.parametrize("two_j,seed", [(1, 0), (2, 1), (6, 2)])
    def test_round_trip(self, two_j, seed):
        spin = Spin(two_j)
        rho = random_density_matrix(spin, np.random.default_rng(seed))
        dirs = aw_directions(default_aw_grid(spin))
        assert numerical_rank(aw_m_matrix(spin, dirs), rtol=1e-10) == spin.dim**2
        w = aw_forward(spin, rho, dirs)
        rec = aw_reconstruct(spin, w, dirs)
        assert np.abs(rec - rho).max() < (1e-10 if two_j == 1 else 1e-9)

    @pytest.mark.parametrize("two_j", [1, 2, 6])
    def test_normalized_variant_round_trip(self, two_j):
        spin = Spin(two_j)
        rho = random_density_matrix(spin, np.random.default_rng(two_j))
        dirs = aw_directions(default_aw_grid(spin))
        w_prime = aw_normalized_forward(spin, rho, dirs)
        assert w_prime.sum() == pytest.approx(1.0, abs=1e-12)
        rec = aw_reconstruct(spin, w_prime, dirs, normalized=True)
        assert np.abs(rec - rho).max() < 1e-9

    @pytest.mark.parametrize(
        "rho,message",
        [
            (np.diag([1.0, -1.0]), "negative or NaN normalized probability"),
            (np.zeros((2, 2)), "sum to 0.0, not a positive number"),
            (np.full((2, 2), math.nan), "sum to nan, not a positive number"),
            (np.diag([-1.0, 0.0]), r"sum to -[12]\.\d*, not a positive number"),
        ],
    )
    def test_normalized_forward_refuses_what_is_no_probability(self, rho, message):
        spin = Spin(1)
        dirs = aw_directions(default_aw_grid(spin))
        with pytest.raises(InvariantError, match=message):
            aw_normalized_forward(spin, rho, dirs)

    def test_agreement_with_direction_scheme(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(77))
        dirs = aw_directions(default_aw_grid(spin))
        rec_grid = aw_reconstruct(spin, aw_forward(spin, rho, dirs), dirs)
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        rec_dirset = reconstruct(p, orthogonal_triad)
        assert np.abs(rec_grid - rec_dirset).max() < 1e-9

    def test_singular_directions_rejected(self):
        spin = Spin(1)
        dirs = [Direction(0.5, 0.0)] * 4
        with pytest.raises(FeasibilityError):
            aw_reconstruct(spin, np.full(4, 0.25), dirs)

    @pytest.mark.parametrize(
        "w,message",
        [
            ([0.25, 0.25, 0.5], r"expected 4 values, one per direction, got shape \(3,\)"),
            (np.full((2, 2), 0.25), r"expected 4 values, one per direction, got shape \(2, 2\)"),
            ([0.25, math.nan, 0.25, 0.5], "must be finite"),
            ([0.25, math.inf, 0.25, 0.5], "must be finite"),
        ],
    )
    def test_malformed_values_are_refused(self, w, message):
        spin = Spin(1)
        dirs = aw_directions(default_aw_grid(spin))
        for normalized in (False, True):
            with pytest.raises(DomainError, match=message):
                aw_reconstruct(spin, w, dirs, normalized=normalized)


class TestNewtonYoung:
    def test_equatorial_cone_rejected(self):
        with pytest.raises(FeasibilityError):
            newton_young_directions(Spin(1), math.pi / 2)

    def test_accepted_cone_spin_half(self):
        ds = newton_young_directions(Spin(1), math.pi / 4)
        assert len(ds.dirs) == 3
        assert abs(feasibility(ds)) > 1e-6
        assert len({d.theta for d in ds.dirs}) == 1

    def test_spin_three_cone(self):
        ds = newton_young_directions(Spin(6), 0.6)
        assert len(ds.dirs) == 13
        assert feasibility(ds) != 0.0
        rho = random_density_matrix(Spin(6), np.random.default_rng(3))
        p = prob_vector(Spin(6), rho, ds.dirs)
        assert np.abs(reconstruct(p, ds) - rho).max() < 1e-8

    def test_round_trip_on_cone(self):
        spin = Spin(2)
        ds = newton_young_directions(spin, 0.8)
        rho = random_density_matrix(spin, np.random.default_rng(6))
        p = prob_vector(spin, rho, ds.dirs)
        assert np.abs(reconstruct(p, ds) - rho).max() < 1e-9

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            newton_young_directions(Spin(1), 0.0)


def oracle_floor_refuses(two_j: int, theta: float) -> bool:
    """The absolute floor the cone check once applied: some |P_L^m(cos theta)| <= 1e-10, m <= L <= 2j."""
    c = math.cos(theta)
    return any(abs(assoc_legendre(L, m, c)) <= 1e-10 for L in range(1, two_j + 1) for m in range(L + 1))


def legendre_root_thetas(two_j: int) -> list:
    """theta = arccos x at every root x in (-1, 1) of every P_L^m, m <= L <= 2j."""
    thetas = []
    for L in range(1, two_j + 1):
        for m in range(L + 1):
            # the roots of P_L^m inside (-1, 1) are those of the m-th derivative of P_L
            roots = np.polynomial.legendre.Legendre.basis(L).deriv(m).roots()
            thetas += [math.acos(x) for x in roots.real if abs(x) < 1.0]
    return thetas


def block_rule_refuses(two_j: int, theta: float) -> bool:
    n = 2 * two_j + 1
    ds = DirectionSet(Spin(two_j), [Direction(theta, 2.0 * math.pi * k / n) for k in range(n)])
    try:
        list(su2._block_inverses(ds.unit_vectors()))
    except FeasibilityError:
        return True
    return False


def cone_refused(two_j: int, theta: float) -> bool:
    try:
        newton_young_directions(Spin(two_j), theta)
    except FeasibilityError:
        return True
    return False


class TestConeRefusalsWithoutTheFloor:
    """A vanishing P_L^m zeroes a column pair of the shell-L factor, so the block rule refuses the cone.

    Each row of the factor has unit norm, so lambda_max(M(L)) >= 1, while
    |P_L^m| <= 1e-10 bounds lambda_min / lambda_max by 2e-20 (2L+1), far
    below BLOCK_RTOL.
    """

    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_cones_at_the_legendre_roots_are_refused(self, two_j):
        for theta in legendre_root_thetas(two_j):
            for t in (theta - 1e-12, theta, theta + 1e-12):
                with pytest.raises(FeasibilityError, match=r"^shell L=\d+ Gram eigenvalue ratio"):
                    newton_young_directions(Spin(two_j), t)

    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_refusals_are_the_floor_and_the_block_verdict(self, two_j):
        # a grid, the roots, and cones so close to a pole that sin(theta)^m is below the floor
        thetas = [*np.linspace(0.0, math.pi, 302)[1:-1], *legendre_root_thetas(two_j), 1e-11, math.pi - 1e-11]
        floor = [oracle_floor_refuses(two_j, t) for t in thetas]
        refused = [cone_refused(two_j, t) for t in thetas]
        assert refused == [f or block_rule_refuses(two_j, t) for f, t in zip(floor, thetas)]
        assert any(floor) and not all(refused)
