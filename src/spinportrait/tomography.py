"""Continuous-frame tomography: dequantizer, quantizer, and sphere inversion.

The dequantizer U(m, frame) = V |j m><j m| V^dag turns a state into the fair
probability w(m, frame) = Tr(rho U), the real part of the one trace evaluator
v^dag A v over the measured kets (``_traces``), which the symbol calculus of
``kernels`` reads for any operator A.  The quantizer D(m, n), built from the
orthogonal operator expansion, inverts the map through

    rho = sum_m (4 pi)^-1  integral  w(m, n) D(m, n) dOmega.

The spherical integral is evaluated by an exact product quadrature
(Gauss-Legendre in cos(theta) times a uniform trapezoid in phi): the integrand
is a spherical polynomial of degree at most 4j, so N_theta >= 2j+1 and
N_phi >= 4j+2 nodes already integrate it exactly.  Defaults double the minimal
counts for safety.

Every quantizer is frame-diagonal, D(m, n) = V_n diag(K[m]) V_n^dag with the
real symmetric K = f^T diag(2L+1) f (f the coefficient table), so the whole
quadrature sum is one product A diag(c) A^dag over the (d, N d) matrix A of
all nodes' kets, c_n = omega_n K w_n: no S_L is built, at the price of O(N d^2)
transient memory (3.9 MB at two_j=8, 45 MB at two_j=16 with default nodes).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import projector_coords, validate_weights
from .orthopoly import coeff_table
from .spin import Direction, Frame, Spin, frame_matrices, frame_matrix

TomogramFn = Callable[[int, Direction], float]


def dequantizer(spin: Spin, two_m: int, frame: Frame) -> np.ndarray:
    """Rank-one projector V |j m><j m| V^dag; sums to the identity over m."""
    idx = spin.m_index(two_m)
    v = frame_matrix(spin, frame)
    col = v[:, idx]
    return np.outer(col, col.conj())


def tomogram(spin: Spin, rho: np.ndarray, two_m: int, frame: Frame) -> float:
    """Probability of projection two_m in the given frame, Tr(rho U(m, frame))."""
    return float(tomogram_column(spin, rho, frame)[spin.m_index(two_m)])


def tomogram_column(spin: Spin, rho: np.ndarray, frame: Frame) -> np.ndarray:
    """All 2j+1 probabilities of one frame, ordered by descending m."""
    return _traces(frame_matrix(spin, frame), _state(spin, rho)).real


def tomogram_columns(
    spin: Spin, rho: np.ndarray, frames: Sequence[Frame], highest_only: bool = False
) -> np.ndarray:
    """Probabilities of every frame, shape (N, 2j+1), or (N, 1) with only m = j."""
    return _traces(measured_kets(spin, frames, highest_only), _state(spin, rho)).real


def measured_kets(
    spin: Spin, frames: Sequence[Frame], highest_only: bool = False
) -> np.ndarray:
    """Measured kets V_k |j m> as columns, shape (N, d, 2j+1) or (N, d, 1).

    Sequences made only of directions are memoized by value (read-only
    result), since a state-by-state caller measures the same set repeatedly.
    """
    frames = tuple(frames)
    if all(isinstance(f, Direction) for f in frames):
        return _direction_kets(spin, frames, highest_only)
    kets = frame_matrices(spin, frames)
    return kets[:, :, :1] if highest_only else kets


@lru_cache(maxsize=16)
def _direction_kets(spin: Spin, dirs: tuple, highest_only: bool) -> np.ndarray:
    kets = frame_matrices(spin, dirs)
    if highest_only:
        kets = np.ascontiguousarray(kets[:, :, :1])
    kets.flags.writeable = False
    return kets


def forward_matrix(spin: Spin, frames: Sequence[Frame], weights=None) -> np.ndarray:
    """Forward-map matrix: row (k, m) holds p_k times the coordinates of U(m, frame_k).

    Hermitian operators are flattened with the isometric real coordinate map,
    so the matrix is real and applying it to the coordinates of rho reproduces
    the probability vector exactly.  Any number of frames is accepted (uniform
    priors by default), which the rank experiments rely on.
    """
    frames = tuple(frames)
    w = validate_weights(weights, len(frames))
    kets = frame_matrices(spin, frames)
    rows = projector_coords(np.swapaxes(kets, 1, 2))
    return (w[:, None, None] * rows).reshape(-1, spin.dim * spin.dim)


def _state(spin: Spin, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spin.dim, spin.dim):
        raise DomainError(f"state shape {rho.shape} does not match dim {spin.dim}")
    return rho


def _traces(kets: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Tr(a |v><v|) = v^dag a v, complex, for the kets stored as columns of ``kets``."""
    return np.sum(kets.conj() * (a @ kets), axis=-2)


def _shell_sum(spin: Spin) -> np.ndarray:
    """K = f^T diag(2L+1) f, real symmetric: D(m, n) = V_n diag(K[m]) V_n^dag."""
    table = coeff_table(spin)
    return table.T @ ((2 * np.arange(spin.dim) + 1)[:, None] * table)


def quantizer_continuous(spin: Spin, two_m: int, n: Direction) -> np.ndarray:
    """Quantizer D(m, n) = sum_L (2L+1) f_L(m) S_L(n) = V_n diag(K[m]) V_n^dag."""
    idx = spin.m_index(two_m)
    v = frame_matrix(spin, n)
    return (v * _shell_sum(spin)[idx]) @ v.conj().T


def sphere_quadrature(spin: Spin, n_theta: int | None = None, n_phi: int | None = None):
    """Nodes and weights integrating (4 pi)^-1 * dOmega exactly to degree 4j.

    Returns theta-major (directions, weights), node k at polar node
    k // n_phi and azimuth k % n_phi, with weights summing to one.  Node counts
    below the exactness thresholds (2j+1 polar, 4j+2 azimuthal) are rejected.
    """
    min_theta = spin.two_j + 1
    min_phi = 2 * spin.two_j + 2
    if n_theta is None:
        n_theta = 2 * min_theta
    if n_phi is None:
        n_phi = 2 * min_phi
    if n_theta < min_theta:
        raise ConfigError(f"n_theta={n_theta} below exactness threshold {min_theta}")
    if n_phi < min_phi:
        raise ConfigError(f"n_phi={n_phi} below exactness threshold {min_phi}")
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dirs = [
        Direction(float(theta), float(phi))
        for theta, phi in zip(np.repeat(thetas, n_phi), np.tile(phis, n_theta))
    ]
    return dirs, np.repeat(gl_weights / (2.0 * n_phi), n_phi)


def reconstruct_from_sphere(
    spin: Spin,
    tomogram_fn: TomogramFn,
    n_theta: int | None = None,
    n_phi: int | None = None,
) -> np.ndarray:
    """Recover the state from tomogram values sampled over the sphere.

    ``tomogram_fn(two_m, direction)`` supplies w(m, n); the callback lets the
    same inversion run against synthetic, stored, or streamed data.  It is
    called per node in ``sphere_quadrature`` order, m descending.  The sum is
    one product A diag(c) A^dag (module docstring; O(N d^2) transient memory),
    fixed in order, so results are reproducible bit for bit.
    """
    dirs, weights = sphere_quadrature(spin, n_theta, n_phi)
    w = np.array([[tomogram_fn(two_m, n) for two_m in spin.two_m_values()] for n in dirs])
    c = weights[:, None] * (w @ _shell_sum(spin))
    a = np.swapaxes(frame_matrices(spin, dirs), 0, 1).reshape(spin.dim, -1)
    return (a * c.reshape(-1)) @ a.conj().T
