"""The one coordinate layout of ``linalg`` and its two readers.

The oracle is the layout written out: the diagonal, then sqrt(2) Re and
sqrt(2) Im of the row-major strict upper triangle.  ``hermitian_to_vec`` reads
the Hermitian part of any square matrix, so on a Hermitian matrix it gives
these bits, and ``vec_to_hermitian`` of both columns of ``operator_coords``
rebuilds any matrix.
"""

import numpy as np
import pytest

from spinportrait import DomainError, hermitian_to_vec, vec_to_hermitian
from spinportrait.linalg import SQRT2, _coord_layout, operator_coords

DIMS = range(1, 26)
EPS = np.finfo(float).eps


def layout_formula(h):
    iu = np.triu_indices(len(h), k=1)
    return np.concatenate([h.real.diagonal(), SQRT2 * h.real[iu], SQRT2 * h.imag[iu]])


def hermitian_with_zeros(rng, d):
    """A Hermitian matrix whose lower triangle is the conjugate of its upper
    one bit for bit, with +0 and -0 planted in both parts."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    parts = g.view(float).reshape(-1)
    parts[::5] = 0.0
    parts[2::7] = -0.0
    iu = np.triu_indices(d, k=1)
    h = np.empty((d, d), dtype=complex)
    h[range(d), range(d)] = g.real.diagonal()
    h[iu] = g[iu]
    h.T[iu] = g[iu].conj()
    return h


def random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@pytest.mark.parametrize("d", DIMS)
def test_hermitian_matrices_give_the_formulas_bits(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        h = hermitian_with_zeros(rng, d)
        assert np.array_equal(h, h.conj().T)
        got = hermitian_to_vec(h)
        assert got.shape == (d * d,) and got.flags.c_contiguous
        assert got.tobytes() == layout_formula(h).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_any_square_matrix_gives_its_hermitian_parts_coordinates(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        a = random_matrix(rng, d)
        want = hermitian_to_vec((a + a.conj().T) / 2.0)
        assert np.abs(hermitian_to_vec(a) - want).max() <= 1e-15 * np.abs(a).max()


@pytest.mark.parametrize("d", DIMS)
def test_both_columns_of_operator_coords_rebuild_the_matrix(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(5):
        a = random_matrix(rng, d)
        z = operator_coords(a)
        back = vec_to_hermitian(z[:, 0], d) + 1j * vec_to_hermitian(z[:, 1], d)
        assert np.abs(back - a).max() <= 4 * EPS * np.abs(a).max()


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2), ()])
def test_non_square_or_non_2d_input_is_refused(shape):
    with pytest.raises(DomainError, match="square matrix"):
        hermitian_to_vec(np.zeros(shape))


@pytest.mark.parametrize("d", DIMS)
def test_the_table_is_memoized_and_read_only(d):
    layout = _coord_layout(d)
    assert layout is _coord_layout(d)
    rows, cols = layout.triangle
    assert np.array_equal(rows, np.triu_indices(d, k=1)[0]) and np.array_equal(cols, np.triu_indices(d, k=1)[1])
    assert sorted(layout.index) == list(range(d * d))  # a permutation of the packed row
    for arr in (rows, cols, layout.gather, layout.weights, layout.index):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0
