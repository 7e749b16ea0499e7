"""Continuous-frame tomography: dequantizer, quantizer, and sphere inversion.

The dequantizer U(m, frame) = V |j m><j m| V^dag turns a state into the fair
probability w(m, frame) = Tr(rho U); the quantizer D(m, n), built from the
orthogonal operator expansion, inverts the map through

    rho = sum_m (4 pi)^-1  integral  w(m, n) D(m, n) dOmega.

The spherical integral is evaluated by an exact product quadrature
(Gauss-Legendre in cos(theta) times a uniform trapezoid in phi): the integrand
is a spherical polynomial of degree at most 4j, so N_theta >= 2j+1 and
N_phi >= 4j+2 nodes already integrate it exactly.  Defaults double the minimal
counts for safety.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import hermitian_to_vec, projector_coords, validate_weights
from .orthopoly import coeff_table, s_operator_stack
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
    rho = _state(spin, rho)
    idx = spin.m_index(two_m)
    v = frame_matrix(spin, frame)
    col = v[:, idx]
    return float(np.real(col.conj() @ rho @ col))


def tomogram_column(spin: Spin, rho: np.ndarray, frame: Frame) -> np.ndarray:
    """All 2j+1 probabilities of one frame, ordered by descending m."""
    return _probabilities(frame_matrix(spin, frame), _state(spin, rho))


def tomogram_columns(
    spin: Spin, rho: np.ndarray, frames: Sequence[Frame], highest_only: bool = False
) -> np.ndarray:
    """Probabilities of every frame, shape (N, 2j+1), or (N, 1) with only m = j."""
    return _probabilities(measured_kets(spin, frames, highest_only), _state(spin, rho))


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


def _probabilities(kets: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr(rho |v><v|) for the kets stored as columns of ``kets`` (last axis)."""
    return projector_coords(np.swapaxes(kets, -1, -2)) @ hermitian_to_vec(rho)


def quantizer_continuous(spin: Spin, two_m: int, n: Direction) -> np.ndarray:
    """Quantizer D(m, n) = sum_L (2L+1) f_L(m) S_L(n)."""
    idx = spin.m_index(two_m)
    table = coeff_table(spin)
    stack = s_operator_stack(spin, n)
    weights = (2 * np.arange(spin.dim) + 1) * table[:, idx]
    return np.einsum("L,Lab->ab", weights, stack)


def sphere_quadrature(spin: Spin, n_theta: int | None = None, n_phi: int | None = None):
    """Nodes and weights integrating (4 pi)^-1 * dOmega exactly to degree 4j.

    Returns (directions, weights) with weights summing to one.  Node counts
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
    dirs = []
    weights = []
    for theta, gw in zip(thetas, gl_weights):
        for phi in phis:
            dirs.append(Direction(float(theta), float(phi)))
            weights.append(gw / (2.0 * n_phi))
    return dirs, np.array(weights)


def reconstruct_from_sphere(
    spin: Spin,
    tomogram_fn: TomogramFn,
    n_theta: int | None = None,
    n_phi: int | None = None,
) -> np.ndarray:
    """Recover the state from tomogram values sampled over the sphere.

    ``tomogram_fn(two_m, direction)`` supplies w(m, n); the callback lets the
    same inversion run against synthetic, stored, or streamed data.  Summation
    follows the fixed node order, so results are reproducible bit for bit.
    """
    dirs, weights = sphere_quadrature(spin, n_theta, n_phi)
    d = spin.dim
    weighted_table = (2 * np.arange(d)[:, None] + 1) * coeff_table(spin)
    rho = np.zeros((d, d), dtype=complex)
    for direction, weight in zip(dirs, weights):
        stack = s_operator_stack(spin, direction)
        w_col = np.array(
            [tomogram_fn(two_m, direction) for two_m in spin.two_m_values()]
        )
        rho += weight * np.tensordot(weighted_table @ w_col, stack, axes=1)
    return rho
