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
    normalize_to_eq,
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
from spinportrait import kernels, linalg, orthopoly, schemes, spin as spin_module, su2, tomography
from spinportrait.spin import frame_matrices, rotations

from conftest import coplanar_triad, loop_quantizer, random_direction_set


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
        op = rng.normal(size=(spin.dim, spin.dim)) + 1j * rng.normal(size=(spin.dim, spin.dim))
        loop = [
            np.trace(op @ dequantizer(spin, two_m, n)) / ds.n_dirs
            for n in ds.dirs for two_m in spin.two_m_values()
        ]
        assert np.abs(kernels.symbol(spin, op, ds) - loop).max() < 1e-14


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
        layout = linalg._coord_layout(spin.dim)
        for arr in (*layout.triangle, layout.gather, layout.weights, layout.index):
            _assert_read_only(arr)
        _assert_read_only(tomography.forward_rows(spin, qutrit_set.dirs))
        grid = aw_directions(default_aw_grid(spin))
        _assert_read_only(aw_m_matrix(spin, grid))
        _assert_read_only(su2.quantizer_stack(qutrit_set))
        aw_reconstruct(spin, aw_normalized_forward(spin, rho, grid), grid, normalized=True)
        _assert_read_only(schemes._aw_solver(spin, tuple(grid))[1])
        ufs = random_frame_set(spin, rng)
        reconstruct_pinv(prob_vector(spin, rho, ufs.frames), ufs)
        for u in ufs.frames:
            _assert_read_only(u)
        hits = su2._solver.cache_info().hits
        for arr in su2._solver(ufs):
            _assert_read_only(arr)
        assert su2._solver.cache_info().hits == hits + 1
        reconstruct(prob_vector(spin, rho, qutrit_set.dirs), qutrit_set)
        for arr in su2.least_squares(qutrit_set):
            _assert_read_only(arr)
        _assert_read_only(orthopoly.coeff_table(spin))

    def test_bounds(self):
        assert tomography._frame_rows.cache_info().maxsize == 16
        assert schemes._aw_solver.cache_info().maxsize == 16
        assert su2.quantizer_stack.cache_info().maxsize == 16
        assert su2._solver.cache_info().maxsize == 16
        assert orthopoly.coeff_table.cache_info().maxsize == 16
        spin = Spin(1)
        rng = np.random.default_rng(12)
        rho = random_density_matrix(spin, rng)
        su2._solver.cache_clear()
        for _ in range(20):
            ufs = random_frame_set(spin, rng)
            w = rng.uniform(0.5, 1.5, 3)
            p = normalize_to_eq(prob_vector(spin, rho, ufs.frames, w / w.sum()))
            assert np.abs(reconstruct_pinv(p, ufs) - rho).max() < 1e-12
        assert su2._solver.cache_info().currsize == 16

    def test_one_frame_set_two_weight_vectors(self):
        # priors come off through normalize_to_eq, so both vectors share one inverse
        spin = Spin(3)
        rng = np.random.default_rng(13)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        uniform = np.full(5, 0.2)
        skewed = np.array([0.1, 0.3, 0.2, 0.15, 0.25])
        su2._solver.cache_clear()
        answers = []
        for w in (uniform, skewed, uniform, skewed):
            p = normalize_to_eq(prob_vector(spin, rho, ufs.frames, w))
            answers.append(reconstruct_pinv(p, ufs))
            assert np.abs(answers[-1] - rho).max() < 1e-12
        assert np.array_equal(answers[0], answers[2])
        assert np.array_equal(answers[1], answers[3])
        info = su2._solver.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 3)

    def test_su2_and_sun_share_one_memo(self, qutrit_set):
        spin = qutrit_set.spin
        rng = np.random.default_rng(19)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        su2._solver.cache_clear()
        for _ in range(2):
            reconstruct(prob_vector(spin, rho, qutrit_set.dirs), qutrit_set)
            reconstruct_pinv(prob_vector(spin, rho, ufs.frames), ufs)
        # an equal direction set built anew is the same key
        copy = DirectionSet(spin, [Direction(n.theta, n.phi) for n in qutrit_set.dirs])
        reconstruct(prob_vector(spin, rho, copy.dirs), copy)
        info = su2._solver.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 3)

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

    def test_equal_direction_sets_share_rows(self):
        spin = Spin(2)
        ds = random_direction_set(spin, np.random.default_rng(15))
        copy = DirectionSet(spin, [Direction(n.theta, n.phi) for n in ds.dirs])
        assert tomography.forward_rows(spin, ds.dirs) is tomography.forward_rows(spin, list(copy.dirs))

    def test_the_aw_forward_and_inverse_share_one_rotation(self, monkeypatch):
        spin = Spin(4)
        grid = aw_directions(default_aw_grid(spin))
        rho = random_density_matrix(spin, np.random.default_rng(17))
        calls = []

        def counted(*args):
            calls.append(args)
            return rotations(*args)

        monkeypatch.setattr(spin_module, "rotations", counted)
        tomography._frame_rows.cache_clear()
        schemes._aw_solver.cache_clear()
        w = aw_normalized_forward(spin, rho, grid)
        assert np.abs(aw_reconstruct(spin, w, grid, normalized=True) - rho).max() < 1e-12
        aw_m_matrix(spin, grid)
        assert len(calls) == 1


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
        # a set the absolute floor det M(L) >= 1e-12 refused inverts, and the
        # least-squares inverse never builds the quantizer stack
        spin = Spin(16)
        ds = random_direction_set(spin, np.random.default_rng(17))
        dets = [np.linalg.det(gram(spin, L, ds)) for L in range(1, spin.two_j + 1)]
        assert min(dets) < 1e-12
        rho = random_density_matrix(spin, np.random.default_rng(17))
        p = prob_vector(spin, rho, ds.dirs)

        def no_quantizers(*args, **kwargs):
            raise AssertionError("the least-squares inverse built the quantizer stack")

        monkeypatch.setattr(su2, "quantizer_stack", no_quantizers)
        su2._solver.cache_clear()
        answers = [reconstruct(p, ds) for _ in range(3)]
        assert np.abs(answers[0] - rho).max() < 1e-9
        assert all(np.array_equal(a, answers[0]) for a in answers)

    def test_singular_blocks_refuse_before_any_operator(self, monkeypatch):
        ds = coplanar_triad()

        def no_operators(*args, **kwargs):
            raise AssertionError("a refused set multiplied the operator basis")

        monkeypatch.setattr(su2, "_shell_product", no_operators)
        su2.quantizer_stack.cache_clear()
        messages = {_message(lambda: su2.quantizer_stack(ds)) for _ in range(3)}
        assert len(messages) == 1 and messages.pop().startswith("shell L=1 Gram eigenvalue ratio")

    def test_rank_deficient_frames(self):
        spin = Spin(1)
        u = schemes.haar_unitary(2, np.random.default_rng(18))
        ufs = UnitaryFrameSet(spin, [u, u, u])
        p = prob_vector(spin, np.eye(2) / 2.0, ufs.frames)
        messages = {_message(lambda: reconstruct_pinv(p, ufs)) for _ in range(3)}
        assert messages == {"frame forward map has rank 2 < 4"}
