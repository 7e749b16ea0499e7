"""Every forward map as one product of memoized forward rows and operator coordinates.

The reference is a per-frame loop of v^dag A v over the columns v of each
frame's unitary, which shares none of the rows' arithmetic.  Errors are held
to 1e-15 times the operator's entrywise 1-norm, which bounds every trace
Tr(A |v><v|) of a unit ket.
"""

import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    Spin,
    UnitaryFrameSet,
    aw_directions,
    aw_forward,
    aw_m_matrix,
    default_aw_grid,
    haar_unitary,
    prob_vector,
    q_matrix,
    random_density_matrix,
    tomogram,
    tomogram_column,
)
from spinportrait import kernels, tomography
from spinportrait.linalg import hermitian_to_vec, operator_coords
from spinportrait.spin import Directions, frame_matrices

from conftest import random_direction_set

TWO_JS = range(17)
TOL = 1e-15


def loop_traces(spin, a, frames):
    """Tr(a U(m, frame_k)) = v^dag a v, frame by frame and ket by ket, shape (N, 2j+1)."""
    out = np.empty((len(frames), spin.dim), dtype=complex)
    for k, frame in enumerate(frames):
        v = frame_matrices(spin, [frame])[0]
        for i in range(spin.dim):
            out[k, i] = np.vdot(v[:, i], a @ v[:, i])
    return out


def random_operator(spin, rng):
    return rng.normal(size=(spin.dim, spin.dim)) + 1j * rng.normal(size=(spin.dim, spin.dim))


def random_directions(rng, n):
    return [Direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(n)]


def assert_close(got, want, a):
    assert np.abs(np.asarray(got) - want).max() <= TOL * np.abs(a).sum()


@pytest.mark.parametrize("two_j", TWO_JS)
def test_operator_coords_are_the_parts_coordinates(two_j):
    spin = Spin(two_j)
    a = random_operator(spin, np.random.default_rng(two_j))
    z = operator_coords(a)
    assert z.shape == (spin.dim**2, 2)
    assert_close(z[:, 0], hermitian_to_vec((a + a.conj().T) / 2.0), a)
    assert_close(z[:, 1], hermitian_to_vec((a - a.conj().T) / 2.0j), a)
    h = (a + a.conj().T) / 2.0
    assert np.array_equal(operator_coords(h)[:, 0], hermitian_to_vec(h))  # a Hermitian matrix's own coordinates


@pytest.mark.parametrize("two_j", TWO_JS)
def test_directions_and_their_symbol(two_j):
    spin = Spin(two_j)
    rng = np.random.default_rng(100 + two_j)
    ds = random_direction_set(spin, rng)
    rho = random_density_matrix(spin, rng)
    want = loop_traces(spin, rho, ds.dirs)
    for dirs in (ds.dirs, list(ds.dirs), tuple(ds.dirs)):
        assert_close(tomography.tomogram_columns(spin, rho, dirs), want.real, rho)
    assert_close(prob_vector(spin, rho, ds.dirs).values, want.real.ravel() / ds.n_dirs, rho)
    assert_close(q_matrix(spin, ds.dirs) @ hermitian_to_vec(rho), want.real.ravel() / ds.n_dirs, rho)
    a = random_operator(spin, rng)
    assert_close(kernels.symbol(spin, a, ds), loop_traces(spin, a, ds.dirs).ravel() / ds.n_dirs, a)


@pytest.mark.parametrize("two_j", TWO_JS)
def test_checked_and_raw_frames(two_j):
    spin = Spin(two_j)
    rng = np.random.default_rng(200 + two_j)
    frames = [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
    ufs = UnitaryFrameSet(spin, frames)
    rho = random_density_matrix(spin, rng)
    want = loop_traces(spin, rho, frames)
    assert_close(prob_vector(spin, rho, ufs.frames).values, want.real.ravel() / len(frames), rho)
    assert_close(tomography.tomogram_columns(spin, rho, frames), want.real, rho)
    mixed = frames[:1] + random_directions(rng, 2) + frames[1:]
    assert_close(tomography.tomogram_columns(spin, rho, mixed), loop_traces(spin, rho, mixed).real, rho)
    for frame in mixed[:3]:
        column = loop_traces(spin, rho, [frame])[0].real
        assert_close(tomogram_column(spin, rho, frame), column, rho)
        assert_close([tomogram(spin, rho, two_m, frame) for two_m in spin.two_m_values()], column, rho)


@pytest.mark.parametrize("two_j", TWO_JS)
def test_aw_direction_lists_of_any_length(two_j):
    spin = Spin(two_j)
    rng = np.random.default_rng(300 + two_j)
    rho = random_density_matrix(spin, rng)
    grid = aw_directions(default_aw_grid(spin))
    for dirs in (grid, list(grid[: spin.dim]), random_directions(rng, 1), random_directions(rng, 2 * spin.dim**2 + 1)):
        assert_close(aw_forward(spin, rho, dirs), loop_traces(spin, rho, dirs)[:, 0].real, rho)
    top = np.array([hermitian_to_vec(np.outer(v, v.conj())) for v in frame_matrices(spin, grid)[:, :, 0]])
    assert np.abs(aw_m_matrix(spin, grid) - top).max() <= TOL


@pytest.mark.parametrize("two_j", [0, 1, 2, 5, 16])
def test_a_state_that_is_not_hermitian_is_read_by_its_hermitian_part(two_j):
    spin = Spin(two_j)
    rng = np.random.default_rng(400 + two_j)
    a = random_operator(spin, rng)
    ds = random_direction_set(spin, rng)
    frames = [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
    want = loop_traces(spin, a, ds.dirs).real
    assert_close(tomography.tomogram_columns(spin, a, ds.dirs), want, a)
    assert_close(tomography.tomogram_columns(spin, a, frames), loop_traces(spin, a, frames).real, a)
    assert_close(tomogram_column(spin, a, ds.dirs[0]), want[0], a)
    assert_close(aw_forward(spin, a, ds.dirs), want[:, 0], a)
    hermitian = (a + a.conj().T) / 2.0
    assert_close(tomography.tomogram_columns(spin, a, ds.dirs), tomography.tomogram_columns(spin, hermitian, ds.dirs), a)


class TestTable:
    def test_equal_direction_tuples_share_one_entry(self):
        spin = Spin(3)
        ds = random_direction_set(spin, np.random.default_rng(5))
        tomography._frame_rows.cache_clear()
        rows = tomography.forward_rows(spin, ds.dirs)
        assert rows.shape == (ds.n_dirs * spin.dim, spin.dim**2) and not rows.flags.writeable
        copy = DirectionSet(spin, [Direction(n.theta, n.phi) for n in ds.dirs])
        for dirs in (copy.dirs, tuple(copy.dirs), list(ds.dirs), Directions(list(copy.dirs))):
            assert tomography.forward_rows(spin, dirs) is rows
        info = tomography._frame_rows.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 4)

    def test_frame_sets_with_equal_frames_do_not_share_an_entry(self):
        spin = Spin(3)
        rng = np.random.default_rng(6)
        frames = [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
        first, second = UnitaryFrameSet(spin, frames), UnitaryFrameSet(spin, frames)
        assert first.frames != second.frames and hash(first.frames) != hash(second.frames)
        assert first.frames == first.frames
        tomography._frame_rows.cache_clear()
        rows = tomography.forward_rows(spin, first.frames)
        other = tomography.forward_rows(spin, second.frames)
        assert other is not rows and np.array_equal(other, rows)
        assert tomography.forward_rows(spin, first.frames) is rows
        info = tomography._frame_rows.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 1)

    def test_a_raw_frame_list_is_built_on_every_call(self):
        spin = Spin(2)
        rng = np.random.default_rng(7)
        frames = [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
        frames[1] = Direction(0.4, 1.1)
        tomography._frame_rows.cache_clear()
        rows = tomography.forward_rows(spin, frames)
        again = tomography.forward_rows(spin, frames)
        assert again is not rows and rows.flags.writeable and np.array_equal(again, rows)
        assert tomography._frame_rows.cache_info().currsize == 0

    def test_the_aw_forward_and_matrix_read_one_entry(self):
        spin = Spin(4)
        grid = aw_directions(default_aw_grid(spin))
        rho = random_density_matrix(spin, np.random.default_rng(8))
        tomography._frame_rows.cache_clear()
        matrix = aw_m_matrix(spin, grid)
        assert matrix.shape == (spin.dim**2, spin.dim**2) and not matrix.flags.writeable
        assert_close(aw_forward(spin, rho, list(grid)), matrix @ hermitian_to_vec(rho), rho)
        info = tomography._frame_rows.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
