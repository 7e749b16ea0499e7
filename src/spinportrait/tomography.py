"""Continuous-frame tomography: dequantizer, quantizer, and sphere inversion.

The dequantizer U(m, frame) = V |j m><j m| V^dag turns a state into the fair
probability w(m, frame) = Tr(rho U).  The map is linear, P = Q coords(rho):
every forward map is one product of the frame set's forward rows, the
coordinates of its U(m, frame_k) (:func:`forward_rows`, memoized per
direction sequence and per checked frame set), with the gathered real
coordinates z of the operator (``linalg.operator_coords``), Tr(A U) =
rows . (z[:, 0] + i z[:, 1]).  Probabilities read column 0, the Hermitian
part, gathered alone (``linalg.hermitian_to_vec``), and the symbol calculus
of ``kernels`` both columns, for any operator A; a single frame's column
reads its kets instead (:func:`tomogram_column`).  The quantizer D(m, n),
built from the orthogonal operator expansion, inverts the map through

    rho = sum_m (4 pi)^-1  integral  w(m, n) D(m, n) dOmega.

The spherical integral is evaluated by an exact product quadrature
(Gauss-Legendre in cos(theta) times a uniform trapezoid in phi): the integrand
is a spherical polynomial of degree at most 4j, so N_theta >= 2j+1 and
N_phi >= 4j+2 nodes already integrate it exactly.  Defaults double the minimal
counts for safety.

Every quantizer is frame-diagonal, D(m, n) = V_n diag(K[m]) V_n^dag with the
real symmetric K = f^T diag(2L+1) f (f the coefficient table), so the
quadrature sum is sum_n V_n diag(c_n) V_n^dag with c_n = omega_n K w_n, and no
S_L is built.  On the product grid the sum separates.  The azimuthal factors
of V(theta, phi) = e^{-i phi Jz} e^{-i theta Jy} e^{i phi Jz} are diagonal
phases, so with d(theta) = e^{-i theta Jy} (real)

    rho_ab = sum_p e^{-i phi_p (m_a - m_b)} H[p, ab],
    H = C (n_phi x n_theta d) @ G (n_theta d x d^2),
    C[p, (t, k)] = c_{(t, p)}[k],   G[(t, k), ab] = d_ak(theta_t) d_bk(theta_t),

a Gauss-Legendre polar product followed by a discrete Fourier sum in phi (the
separation of variables of fast spherical transforms, Driscoll and Healy
1994).  Each quadrature's nodes, weights, K, G and phases are built together
as one memo entry per (spin, n_theta, n_phi), for two_j up to
``orthopoly.MAX_TWO_J`` (G is 1.3 MB at two_j=16 and 6.25 MB at 24), and one
call with default nodes peaks at 0.27 MB traced at two_j=8 and 1.7 MB at
two_j=16, where rotating every node into a (d, N d) ket matrix took 3.9 and
45 MB.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import hermitian_to_vec, is_integer, memo, projector_coords, validate_weights
from .orthopoly import coeff_table
from .spin import Direction, Directions, Frame, Spin, _CheckedFrames, frame_matrices, frame_matrix, rotations

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
    """All 2j+1 probabilities of one frame, ordered by descending m: Re diag(V^dag rho V) from its kets."""
    v = frame_matrices(spin, [frame])[0]
    return (v.conj() * (_state(spin, rho) @ v)).sum(axis=0).real


def tomogram_columns(spin: Spin, rho: np.ndarray, frames: Sequence[Frame]) -> np.ndarray:
    """Probabilities of every frame, shape (N, 2j+1): :func:`forward_rows` times the state's coordinates.

    The rows multiply the coordinates of the Hermitian part of ``rho``, so
    the result is Re Tr(rho U) for a ``rho`` that is not Hermitian.
    """
    return (forward_rows(spin, frames) @ hermitian_to_vec(_state(spin, rho))).reshape(-1, spin.dim)


def forward_rows(spin: Spin, frames: Sequence[Frame]) -> np.ndarray:
    """Rows coords(U(m, frame_k)), shape (N d, d^2), row k d + (j - m): the table every forward map reads.

    Sequences made only of directions are memoized by value and a
    ``UnitaryFrameSet``'s checked frames by identity (read-only result), since
    a state-by-state caller measures the same set repeatedly; the checks
    their constructors made are not repeated.  Any other frame sequence is
    checked and its rows built on every call.
    """
    if not isinstance(frames, (Directions, _CheckedFrames)):
        frames = tuple(frames)
        if not all(isinstance(f, Direction) for f in frames):
            return _projector_rows(frame_matrices(spin, frames))
    return _frame_rows(spin, frames, False)


@memo
def _frame_rows(spin: Spin, frames: tuple, highest: bool) -> np.ndarray:
    """Rows of every projection of the frames, or with ``highest`` of m = j alone, (N, d^2)."""
    kets = frame_matrices(spin, frames)
    return _projector_rows(kets[:, :, :1] if highest else kets)


def _projector_rows(kets: np.ndarray) -> np.ndarray:
    """Coordinates of |v><v| for the kets v stored as columns of a stack (N, d, m), shape (N m, d^2)."""
    return projector_coords(np.swapaxes(kets, 1, 2)).reshape(-1, kets.shape[1] ** 2)


def forward_matrix(spin: Spin, frames: Sequence[Frame], weights=None) -> np.ndarray:
    """Forward-map matrix: row (k, m) holds p_k times the coordinates of U(m, frame_k).

    Hermitian operators are flattened with the isometric real coordinate map,
    so the matrix is real and applying it to the coordinates of rho reproduces
    the probability vector exactly.  Any number of frames is accepted (uniform
    priors by default), which the rank experiments rely on.  The rows are
    those of :func:`forward_rows`, built anew and not memoized.
    """
    kets = frame_matrices(spin, frames)
    rows = _projector_rows(kets)
    rows *= np.repeat(validate_weights(weights, len(kets)), spin.dim)[:, None]
    return rows


def _state(spin: Spin, rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spin.dim, spin.dim):
        raise DomainError(f"state shape {rho.shape} does not match dim {spin.dim}")
    return rho


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
    k // n_phi and azimuth k % n_phi, with weights summing to one.  Both are
    memoized per (spin, n_theta, n_phi): the directions come as one shared
    tuple and the weights as a read-only array.  The entry also holds the
    tables :func:`reconstruct_from_sphere` reads with the same counts, built
    with the nodes (G is 6.25 MB at two_j=24), so a spin above
    ``orthopoly.MAX_TWO_J`` raises DomainError.  Node counts that are not
    integers (bool included) or lie below the exactness thresholds (2j+1
    polar, 4j+2 azimuthal) raise ConfigError.
    """
    return _sphere(spin, *_node_counts(spin, n_theta, n_phi))[0]


def _node_counts(spin: Spin, n_theta, n_phi) -> tuple[int, int]:
    return (
        _node_count("n_theta", n_theta, spin.two_j + 1),
        _node_count("n_phi", n_phi, 2 * spin.two_j + 2),
    )


def _node_count(name: str, n, minimum: int) -> int:
    """A node count checked against its exactness threshold; twice that by default."""
    if n is None:
        return 2 * minimum
    if not is_integer(n):
        raise ConfigError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise ConfigError(f"{name}={n} below exactness threshold {minimum}")
    return int(n)


@memo
def _sphere(spin: Spin, n_theta: int, n_phi: int):
    """((directions, weights), K, G, phase) of one quadrature (module docstring), read-only.

    K comes first, so a spin above ``orthopoly.MAX_TWO_J`` is refused before
    G is built; G keeps the real part of ``rotations``, d(theta) being real.
    """
    shell = _shell_sum(spin)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dirs = tuple(
        Direction(float(theta), float(phi))
        for theta, phi in zip(np.repeat(thetas, n_phi), np.tile(phis, n_theta))
    )
    polar = rotations(spin, thetas, 0).real
    products = np.einsum("tak,tbk->tkab", polar, polar, order="C").reshape(n_theta * spin.dim, -1)
    phase = np.exp(-1j * phis[:, None] * spin.m_values())
    return (dirs, np.repeat(gl_weights / (2.0 * n_phi), n_phi)), shell, products, phase


def reconstruct_from_sphere(
    spin: Spin,
    tomogram_fn: TomogramFn,
    n_theta: int | None = None,
    n_phi: int | None = None,
) -> np.ndarray:
    """Recover the state from tomogram values sampled over the sphere.

    ``tomogram_fn(two_m, direction)`` supplies w(m, n); the callback lets the
    same inversion run against synthetic, stored, or streamed data.  It is
    called per node in ``sphere_quadrature`` order, m descending, and every
    value must be a finite real scalar (DomainError names the first that is
    not).  The sum is separated into polar and azimuthal parts (module
    docstring; O(n_theta d^3) memoized and O(n_phi d^2) transient memory),
    fixed in order, so results are reproducible bit for bit.
    """
    n_theta, n_phi = _node_counts(spin, n_theta, n_phi)
    (dirs, weights), shell, products, phase = _sphere(spin, n_theta, n_phi)
    two_ms = spin.two_m_values()
    w = _tomogram_table(
        [tomogram_fn(two_m, n) for n in dirs for two_m in two_ms], dirs, two_ms
    )
    c = (weights[:, None] * (w @ shell)).reshape(n_theta, n_phi, spin.dim)
    h = np.swapaxes(c, 0, 1).reshape(n_phi, -1) @ products
    return np.einsum("pa,pab,pb->ab", phase, h.reshape(n_phi, spin.dim, spin.dim), phase.conj())


def _tomogram_table(values: list, dirs: tuple, two_ms: range) -> np.ndarray:
    """The callback's values as a (N, d) float array; DomainError at the first bad one.

    A value is good when it is a finite real scalar (bool, integer or float);
    the values are read as one array, and one by one only if that array is not
    a finite real vector.
    """
    try:
        w = np.array(values)
    except (TypeError, ValueError, OverflowError):
        w = None
    if w is None or w.shape != (len(values),) or not _finite_real(w):
        k = next((k for k, v in enumerate(values) if not _finite_real(np.asarray(v), 0)), None)
        if k is not None:
            n, two_m = dirs[k // len(two_ms)], two_ms[k % len(two_ms)]
            raise DomainError(
                f"tomogram value {values[k]!r} at node {k // len(two_ms)} (theta={n.theta!r}, "
                f"phi={n.phi!r}), two_m={two_m} is not a finite real number"
            )
        w = np.array(values, dtype=float)  # good values of mixed integer widths
    return w.astype(float, copy=False).reshape(-1, len(two_ms))


def _finite_real(a: np.ndarray, ndim: int = 1) -> bool:
    return a.ndim == ndim and a.dtype.kind in "biuf" and bool(np.isfinite(a).all())
