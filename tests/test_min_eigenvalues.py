"""The region's smallest-eigenvalue kernel against known spectra and LAPACK.

Inputs are U diag(lam) U^dagger with a Haar U and a known lam, made exactly
Hermitian as the region's candidates are.  Every result is held to
C_EPS * d * eps * ||H|| of the known smallest eigenvalue and of ``eigvalsh``.
The product U diag(lam) U^dagger is itself only near the spectrum lam: over
600 draws of each kind at d = 3..25, ``eigvalsh`` strayed up to 3.6 d eps ||H||
from the known value and the kernel up to 2.9 (both at the maximally mixed
state), and the two differed by up to 2.4.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinportrait import region
from spinportrait.orthopoly import MAX_TWO_J
from spinportrait.region import _min_eigenvalues
from spinportrait.schemes import haar_unitary

EPS = np.finfo(float).eps
C_EPS = 4.0
DIMS = st.integers(3, MAX_TWO_J + 1)
SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.floats(1e-6, 1e6)


def _hermitian(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, exactly Hermitian with a real diagonal."""
    return (m + m.conj().T) / 2.0


def _with_spectrum(lam, u) -> np.ndarray:
    return _hermitian((u * lam) @ u.conj().T)


def _block_unitary(d: int, rng) -> np.ndarray:
    """Haar blocks on the diagonal, so some Householder columns are zero."""
    cut = int(rng.integers(1, d))
    u = np.zeros((d, d), dtype=complex)
    u[:cut, :cut] = haar_unitary(cut, rng)
    u[cut:, cut:] = haar_unitary(d - cut, rng)
    return u


def _check(h: np.ndarray, lam_min: float):
    """The kernel's value for h, within C_EPS d eps ||h|| of lam_min and of eigvalsh."""
    got = _min_eigenvalues(h[None])[0]
    bound = C_EPS * len(h) * EPS * np.abs(np.linalg.eigvalsh(h)).max()
    assert abs(got - lam_min) <= bound
    assert abs(got - np.linalg.eigvalsh(h)[0]) <= bound
    return got


@given(DIMS, SCALES, SEEDS)
def test_maximally_mixed_is_trace_over_d(d, trace, seed):
    u = haar_unitary(d, np.random.default_rng(seed))
    h = _with_spectrum(np.full(d, trace / d), u)
    got = _check(h, trace / d)
    assert abs(got - np.trace(h).real / d) <= 4.0 * EPS * trace


@given(DIMS, SCALES)
def test_multiple_of_identity_is_exact(d, value):
    assert _min_eigenvalues(value * np.eye(d, dtype=complex)[None])[0] == value


@given(DIMS, SCALES, SEEDS)
def test_rank_one_states(d, trace, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    _check(_hermitian(trace * np.outer(psi, psi.conj())), 0.0)


@given(DIMS, st.data(), SEEDS)
def test_rank_deficient_states(d, data, seed):
    # a zero eigenvalue of multiplicity d - rank, where Laguerre converges
    # only linearly: the slowest case of the iteration
    rank = data.draw(st.integers(1, d - 1))
    rng = np.random.default_rng(seed)
    lam = np.r_[np.zeros(d - rank), rng.dirichlet(np.ones(rank))]
    _check(_with_spectrum(lam, haar_unitary(d, rng)), 0.0)


@given(DIMS, st.sampled_from([1e-8, 1e-12]), st.integers(2, 4), SEEDS)
def test_clusters_at_the_bottom(d, gap, size, seed):
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-1.0, 1.0, d))
    size = min(size, d)
    lam[:size] = lam[0] + gap * np.arange(size)
    _check(_with_spectrum(lam, haar_unitary(d, rng)), lam[0])


@given(DIMS, SEEDS)
def test_diagonal_and_block_diagonal(d, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, d)
    _check(np.diag(lam).astype(complex), lam.min())
    _check(_with_spectrum(lam, _block_unitary(d, rng)), lam.min())


@settings(max_examples=20)
@given(DIMS, SEEDS)
def test_random_states(d, seed):
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(d))
    _check(_with_spectrum(lam, haar_unitary(d, rng)), lam.min())


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [3, 5, 17])
def test_row_bits_do_not_depend_on_batch(d):
    rng = np.random.default_rng(d)
    chunk = region._CHUNK // d
    n = max(10_000, chunk + 2) if d < 17 else 2 * chunk + 2
    rows = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    rows = (rows + rows.conj().transpose(0, 2, 1)) / 2.0
    batch = _min_eigenvalues(rows)
    for i in (0, 1, chunk - 1, chunk, chunk + 1, n - 1):
        assert _bits(_min_eigenvalues(rows[i : i + 1])) == _bits(batch[i : i + 1])
    # the same row straddling a chunk boundary, alone and at every offset
    moved = rows.copy()
    moved[chunk - 1] = moved[chunk] = rows[0]
    again = _min_eigenvalues(moved)
    assert _bits(again[chunk - 1]) == _bits(again[chunk]) == _bits(batch[0])


@pytest.mark.parametrize("d", [3, 5])
def test_stack_is_left_unchanged(d):
    # the kernel reduces its planes in place, so it must work on a copy
    rng = np.random.default_rng(d)
    rows = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    rows = (rows + rows.conj().transpose(0, 2, 1)) / 2.0
    before = rows.copy()
    _min_eigenvalues(rows)
    np.testing.assert_array_equal(rows, before)


def test_iteration_cap_raises(monkeypatch):
    rng = np.random.default_rng(0)
    h = _with_spectrum(rng.uniform(0.0, 1.0, 5), haar_unitary(5, rng))
    monkeypatch.setattr(region, "_MAX_LAGUERRE_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge in 1 Laguerre steps"):
        _min_eigenvalues(np.stack([np.eye(5, dtype=complex), h]))
    # a row that converges within the cap still returns
    assert _min_eigenvalues(np.eye(5, dtype=complex)[None])[0] == 1.0
