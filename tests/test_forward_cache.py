"""Batched rotations, the shared forward builder, and the per-set caches.

Reference values come from loops over the single-frame functions and from a
scaling-and-squaring Taylor exponential, so the batched and memoized paths
are checked against code that shares none of their arithmetic.
"""

import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    FeasibilityError,
    ProbVector,
    Spin,
    UnitaryFrameSet,
    angular_momentum,
    aw_directions,
    aw_forward,
    aw_m_matrix,
    aw_normalized_forward,
    aw_reconstruct,
    default_aw_grid,
    dequantizer,
    gram,
    hermitian_to_vec,
    prob_vector,
    q_matrix,
    r_matrix,
    random_density_matrix,
    random_frame_set,
    reconstruct,
    reconstruct_pinv,
    rotation,
    tomogram_column,
)
from spinportrait import kernels, linalg, schemes, spin as spin_module, su2, tomography
from spinportrait.spin import frame_matrices, rotations

from conftest import loop_quantizer, random_direction_set


def scaled_series_expm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """exp(a) by a Taylor series of a / 2^s followed by s squarings."""
    s = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=0).max(), 1e-300))) + 1)
    b = a / 2.0**s
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def generator_oracle(spin: Spin, theta: float, phi: float) -> np.ndarray:
    jx, jy, _ = angular_momentum(spin)
    return scaled_series_expm(-1j * theta * (-math.sin(phi) * jx + math.cos(phi) * jy))


def loop_rows(spin, frames, weights=None):
    """Forward-map rows one dequantizer at a time, the reference for the builder."""
    if weights is None:
        weights = np.full(len(frames), 1.0 / len(frames))
    return np.array(
        [
            p_k * hermitian_to_vec(dequantizer(spin, two_m, f))
            for p_k, f in zip(weights, frames)
            for two_m in spin.two_m_values()
        ]
    )


class TestBatchedRotations:
    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 16])
    def test_series_oracle(self, two_j):
        spin = Spin(two_j)
        below_two_pi = math.nextafter(2.0 * math.pi, 0.0)
        thetas = [0.0, math.pi, 0.0, math.pi, 1.3, 2.9]
        phis = [0.0, 0.0, below_two_pi, below_two_pi, 4.1, below_two_pi]
        stack = rotations(spin, thetas, phis)
        for r, theta, phi in zip(stack, thetas, phis):
            assert np.abs(r - generator_oracle(spin, theta, phi)).max() < 1e-12
            n = Direction(theta, phi)
            assert np.abs(rotation(spin, n) - generator_oracle(spin, n.theta, n.phi)).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 4, 9])
    def test_stack_matches_single_rotations(self, two_j):
        spin = Spin(two_j)
        ds = random_direction_set(spin, np.random.default_rng(two_j))
        stack = frame_matrices(spin, ds.dirs)
        for r, n in zip(stack, ds.dirs):
            assert np.abs(r - rotation(spin, n)).max() < 1e-14

    def test_mixed_frames_keep_their_order(self):
        spin = Spin(2)
        u = schemes.haar_unitary(3, np.random.default_rng(3))
        n = Direction(0.7, 2.0)
        stack = frame_matrices(spin, [u, n, u])
        assert np.array_equal(stack[0], u) and np.array_equal(stack[2], u)
        assert np.abs(stack[1] - rotation(spin, n)).max() < 1e-15


class TestForwardBuilder:
    @pytest.mark.parametrize("two_j", [1, 2, 5])
    def test_matrices_match_loop_rows(self, two_j):
        spin = Spin(two_j)
        rng = np.random.default_rng(40 + two_j)
        ds = random_direction_set(spin, rng)
        weights = rng.uniform(0.5, 1.5, ds.n_dirs)
        weights /= weights.sum()
        assert np.abs(q_matrix(spin, ds.dirs, weights) - loop_rows(spin, ds.dirs, weights)).max() < 1e-14
        frames = random_frame_set(spin, rng).frames
        assert np.abs(r_matrix(spin, frames) - loop_rows(spin, frames)).max() < 1e-14
        grid = aw_directions(default_aw_grid(spin))
        top = np.array([hermitian_to_vec(dequantizer(spin, two_j, n)) for n in grid])
        assert np.abs(aw_m_matrix(spin, grid) - top).max() < 1e-14

    @pytest.mark.parametrize("two_j", [1, 3, 6])
    def test_probabilities_match_single_frames(self, two_j):
        spin = Spin(two_j)
        rng = np.random.default_rng(60 + two_j)
        rho = random_density_matrix(spin, rng)
        ds = random_direction_set(spin, rng)
        columns = np.array([tomogram_column(spin, rho, n) for n in ds.dirs])
        direct = np.array(
            [[np.real(v.conj() @ rho @ v) for v in frame_matrices(spin, [n])[0].T] for n in ds.dirs]
        )
        assert np.abs(columns - direct).max() < 1e-15
        p = prob_vector(spin, rho, ds.dirs)
        assert np.abs(p.values - columns.ravel() / ds.n_dirs).max() < 1e-15
        grid = aw_directions(default_aw_grid(spin))
        assert np.abs(aw_forward(spin, rho, grid) - [tomogram_column(spin, rho, n)[0] for n in grid]).max() < 1e-15

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_stacks_match_loop_assembly(self, two_j):
        spin = Spin(two_j)
        rng = np.random.default_rng(80 + two_j)
        ds = random_direction_set(spin, rng)
        while True:
            try:
                stack = su2.quantizer_stack(ds)
                break
            except FeasibilityError:
                ds = random_direction_set(spin, rng)
        loop = np.array(
            [loop_quantizer(spin, k, two_m, ds) for k in range(ds.n_dirs) for two_m in spin.two_m_values()]
        )
        assert np.abs(stack - loop).max() < 1e-9 * max(1.0, np.abs(loop).max())
        deq = np.array(
            [dequantizer(spin, two_m, n) / ds.n_dirs for n in ds.dirs for two_m in spin.two_m_values()]
        )
        assert np.abs(kernels.dequantizer_stack(ds) - deq).max() < 1e-15


def _assert_read_only(arr):
    assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    with pytest.raises(ValueError):
        arr.flat[0] = 0.0


class TestCaches:
    def test_every_cached_array_is_read_only(self, qutrit_set):
        spin = qutrit_set.spin
        rng = np.random.default_rng(11)
        rho = random_density_matrix(spin, rng)
        for arr in spin_module._jy_eigen(spin.two_j):
            _assert_read_only(arr)
        for arr in linalg._upper(spin.dim):
            _assert_read_only(arr)
        _assert_read_only(tomography.measured_kets(spin, qutrit_set.dirs))
        grid = aw_directions(default_aw_grid(spin))
        _assert_read_only(tomography.measured_kets(spin, grid, highest_only=True))
        _assert_read_only(su2.quantizer_stack(qutrit_set))
        _assert_read_only(kernels.dequantizer_stack(qutrit_set))
        aw_reconstruct(spin, aw_normalized_forward(spin, rho, grid), grid, normalized=True)
        _assert_read_only(schemes._aw_solver(spin, tuple(grid))[1])
        ufs = random_frame_set(spin, rng)
        reconstruct_pinv(prob_vector(spin, rho, ufs.frames), ufs)
        for u in ufs.frames:
            _assert_read_only(u)
        for _, inverse in ufs._solvers.values():
            _assert_read_only(inverse)

    def test_bounds(self):
        assert tomography._direction_kets.cache_info().maxsize == 16
        assert schemes._aw_solver.cache_info().maxsize == 16
        assert su2.quantizer_stack.cache_info().maxsize == 16
        spin = Spin(1)
        rng = np.random.default_rng(12)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        for _ in range(20):
            w = rng.uniform(0.5, 1.5, 3)
            w /= w.sum()
            p = prob_vector(spin, rho, ufs.frames, w)
            assert np.abs(reconstruct_pinv(p, ufs, w) - rho).max() < 1e-12
        assert len(ufs._solvers) <= schemes.SOLVER_CACHE_SIZE

    def test_one_frame_set_two_weight_vectors(self):
        spin = Spin(3)
        rng = np.random.default_rng(13)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        uniform = np.full(5, 0.2)
        skewed = np.array([0.1, 0.3, 0.2, 0.15, 0.25])
        for w in (uniform, skewed, uniform, skewed):
            p = prob_vector(spin, rho, ufs.frames, w)
            assert np.abs(reconstruct_pinv(p, ufs, w) - rho).max() < 1e-12
        p = prob_vector(spin, rho, ufs.frames)
        assert np.abs(reconstruct_pinv(p, ufs) - rho).max() < 1e-12
        assert len(ufs._solvers) == 2

    def test_caller_mutation_does_not_reach_the_frame_set(self):
        spin = Spin(2)
        rng = np.random.default_rng(14)
        frames = [schemes.haar_unitary(3, rng) for _ in range(4)]
        ufs = UnitaryFrameSet(spin, frames)
        rho = random_density_matrix(spin, rng)
        p = prob_vector(spin, rho, ufs.frames)
        first = reconstruct_pinv(p, ufs)
        for u in frames:
            u[:] = np.eye(3)
        assert all(not np.array_equal(u, np.eye(3)) for u in ufs.frames)
        assert np.array_equal(prob_vector(spin, rho, ufs.frames).values, p.values)
        assert np.array_equal(reconstruct_pinv(p, ufs), first)
        assert np.abs(first - rho).max() < 1e-12

    def test_equal_direction_sets_share_kets(self):
        spin = Spin(2)
        ds = random_direction_set(spin, np.random.default_rng(15))
        copy = DirectionSet(spin, [Direction(n.theta, n.phi) for n in ds.dirs])
        assert tomography.measured_kets(spin, ds.dirs) is tomography.measured_kets(spin, list(copy.dirs))
        assert tomography.measured_kets(spin, ds.dirs) is not tomography.measured_kets(
            spin, ds.dirs, highest_only=True
        )


def _message(fn):
    with pytest.raises(FeasibilityError) as info:
        fn()
    return str(info.value)


class TestRefusals:
    def test_aw_two_j_16_grid(self):
        spin = Spin(16)
        grid = aw_directions(default_aw_grid(spin))
        rho = random_density_matrix(spin, np.random.default_rng(16))
        w = aw_normalized_forward(spin, rho, grid)
        schemes._aw_solver.cache_clear()
        messages = {_message(lambda: aw_reconstruct(spin, w, grid, normalized=True)) for _ in range(3)}
        assert messages == {"direction matrix is numerically singular"}

    def test_det_floor_su2_set(self, monkeypatch):
        spin = Spin(16)
        ds = random_direction_set(spin, np.random.default_rng(17))
        dets = [np.linalg.det(gram(spin, L, ds)) for L in range(1, spin.two_j + 1)]
        first = next(L for L, det in enumerate(dets, start=1) if abs(det) < su2.GRAM_DET_FLOOR)
        expected = (
            f"shell L={first} Gram determinant {dets[first - 1]:.3e} below "
            f"{su2.GRAM_DET_FLOOR:.0e}; the direction set cannot be inverted"
        )
        p = ProbVector(spin, ds.n_dirs, np.full(ds.n_dirs * spin.dim, 1.0 / (ds.n_dirs * spin.dim)))

        def no_operators(*args, **kwargs):
            raise AssertionError("a refused set built S_L operators")

        # every shell is tested before any S_L operator is built
        monkeypatch.setattr(su2, "s_operator_stacks", no_operators)
        su2.quantizer_stack.cache_clear()
        messages = {_message(lambda: reconstruct(p, ds)) for _ in range(3)}
        assert messages == {expected}

    def test_rank_deficient_frames(self):
        spin = Spin(1)
        u = schemes.haar_unitary(2, np.random.default_rng(18))
        ufs = UnitaryFrameSet(spin, [u, u, u])
        p = prob_vector(spin, np.eye(2) / 2.0, ufs.frames)
        messages = {_message(lambda: reconstruct_pinv(p, ufs)) for _ in range(3)}
        assert messages == {"frame forward map has rank 2 < 4"}
