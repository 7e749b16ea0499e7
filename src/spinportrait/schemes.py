"""Alternative reconstruction schemes: SU(N) frames and direction grids.

Two routes besides the 4j+1-direction scheme:

* General unitary frames in the full Hilbert space.  2j+2 generic frames make
  the forward map injective (each frame block adds 2j new independent rows
  plus the shared sum rule), and the state is recovered through a
  pseudo-inverse.  Feasibility and conditioning are controlled by the Gram
  matrix of the L >= 1 frame operators S_L(u_k) (:func:`sun_gram`), whose
  determinant Gamma' lies in [0, 1] and bounds that Gram matrix's condition
  number by (1 + sqrt(1 - Gamma')) / (1 - sqrt(1 - Gamma')).  The forward map
  the least-squares inverse applies to N frames adds the trace direction,
  squared singular value N, so its condition number is at most
  sqrt(N times that bound).

* Direction grids measuring only the highest projection m = j along (2j+1)^2
  directions arranged on nested cones,

      phi_qr = 2 pi (r + q Delta) / (2j+1),      0 <= q, r <= 2j,

  inverted by a single matrix solve, with a normalized variant that first
  scales the probability vector to unit sum and restores the trace afterward.
  The single-cone special case (all polar angles equal) needs every associated
  Legendre value P_L^m(cos theta), m <= L <= 2j, to be nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, InvariantError
from .linalg import AW_RTOL, INPUT_TOL, hermitian_to_vec, memo, svd_inverse, vec_to_hermitian
from .orthopoly import s_operator_coords
from .spin import Direction, Directions, Spin, _CheckedFrames, frame_matrices
from .su2 import DirectionSet, _block_inverses, reconstruct
from .tomography import _frame_rows, _state, forward_matrix


@dataclass(frozen=True, eq=False)
class UnitaryFrameSet:
    """2j+2 unitary frames of dimension 2j+1, the minimal injective count.

    Compared and hashed by identity, since the frames are arrays.  The
    frames are validated once, here: they keep the read-only stack, which the
    maps take without a second test.  The equal-weight inverse of
    ``reconstruct_pinv`` is memoized per set in the one cache of
    ``su2.least_squares``; a vector stacked with other priors is inverted
    through ``normalize_to_eq``.
    """

    spin: Spin
    frames: tuple

    def __init__(self, spin: Spin, frames: Sequence[np.ndarray]):
        object.__setattr__(self, "spin", spin)
        # refuses a wrong shape or a non-unitary frame, once: later maps reuse the stack
        object.__setattr__(self, "frames", _CheckedFrames(frame_matrices(spin, frames)))
        expected = spin.two_j + 2
        if len(self.frames) != expected:
            raise DomainError(
                f"need {expected} frames for two_j={spin.two_j}, got {len(self.frames)}"
            )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a Gaussian matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_frame_set(spin: Spin, rng: np.random.Generator) -> UnitaryFrameSet:
    return UnitaryFrameSet(
        spin, [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
    )


# forward-map matrix for unitary frames, row (k, m) = p_k * coords(U(m, u_k))
r_matrix = forward_matrix


def sun_gram(ufs: UnitaryFrameSet) -> np.ndarray:
    """Gram matrix of the frame operators S_L(u_k), L = 1..2j, k = 1..2j+2.

    Block (k, k') is the 2j x 2j matrix Tr(S_L(u_k) S_L'(u_k')); diagonal
    blocks are the identity because each frame's operators are orthonormal.
    The coordinates are isometric, so the traces are their dot products.
    """
    spin = ufs.spin
    coords = s_operator_coords(spin, ufs.frames)[:, 1:].reshape(-1, spin.dim ** 2)
    return coords @ coords.T


def gamma_prime(ufs: UnitaryFrameSet) -> float:
    """Volume of the frame-operator parallelogram, det of the Gram matrix.

    Lies in [0, 1]; zero exactly when reconstruction is impossible.
    """
    return float(np.linalg.det(sun_gram(ufs)))


def mu_bound(gamma: float) -> float:
    """Condition-number bound (1 + r) / (1 - r), r = sqrt(1 - Gamma'), Gamma' clipped to [0, 1].

    It bounds the condition number of the L >= 1 Gram matrix
    (:func:`sun_gram`); the condition number of the forward map the
    least-squares inverse applies to N frames is at most sqrt(N mu_bound).

    Written as (1 + r)^2 / Gamma', the same value without the difference
    1 - r, which rounds to zero below Gamma' ~ 1e-16 (Haar frame sets give
    1e-19 and less from two_j = 6 on).  Gamma' = 0 gives inf.
    """
    if not math.isfinite(gamma):
        raise DomainError(f"Gamma' must be finite, got {gamma}")
    gamma = min(max(gamma, 0.0), 1.0)
    if gamma == 0.0:
        return math.inf
    return (1.0 + math.sqrt(1.0 - gamma)) ** 2 / gamma


reconstruct_pinv = reconstruct  # the least-squares inverse of an equal-weight vector


@dataclass(frozen=True)
class AWGrid:
    """Nested-cone direction grid: 2j+1 distinct polar angles and a twist."""

    spin: Spin
    thetas: tuple
    delta: float

    def __init__(self, spin: Spin, thetas: Sequence[float], delta: float):
        object.__setattr__(self, "spin", spin)
        object.__setattr__(self, "thetas", tuple(float(t) for t in thetas))
        object.__setattr__(self, "delta", float(delta))
        if len(self.thetas) != spin.dim:
            raise DomainError(
                f"need {spin.dim} polar angles, got {len(self.thetas)}"
            )
        if any(not (0.0 < t < math.pi) for t in self.thetas):
            raise DomainError("polar angles must lie strictly inside (0, pi)")
        if len(set(self.thetas)) != len(self.thetas):
            raise DomainError("polar angles must be pairwise distinct")
        if not (0.0 < self.delta <= 1.0 / spin.dim):
            raise DomainError(
                f"twist delta must lie in (0, 1/{spin.dim}], got {self.delta}"
            )


def default_aw_grid(spin: Spin, delta: float | None = None) -> AWGrid:
    """Equispaced polar angles theta_q = pi (q+1) / (2j+2), maximal twist."""
    d = spin.dim
    thetas = [math.pi * (q + 1) / (d + 1) for q in range(d)]
    return AWGrid(spin, thetas, 1.0 / d if delta is None else delta)


def aw_directions(grid: AWGrid) -> Directions:
    """The (2j+1)^2 grid directions, cone-major (q outer, r inner).

    They come as a checked :class:`spin.Directions` tuple, which the aw maps
    take as it is, without checking and hashing the directions again.
    """
    d = grid.spin.dim
    return Directions(
        Direction(theta, 2.0 * math.pi * (r + q * grid.delta) / d)
        for q, theta in enumerate(grid.thetas)
        for r in range(d)
    )


def aw_m_matrix(spin: Spin, dirs: Sequence[Direction]) -> np.ndarray:
    """Highest-projection map matrix, row k = coords(U(j, n_k)), the memoized table aw_forward reads (read-only)."""
    dirs = Directions(dirs)
    full = spin.dim * spin.dim
    if len(dirs) != full:
        raise DomainError(f"need {full} directions, got {len(dirs)}")
    return _frame_rows(spin, dirs, True)


def aw_forward(spin: Spin, rho: np.ndarray, dirs: Sequence[Direction]) -> np.ndarray:
    """Probabilities of m = j along each direction: the memoized m = j rows times the state's coordinates."""
    return _frame_rows(spin, Directions(dirs), True) @ hermitian_to_vec(_state(spin, rho))


@memo
def _aw_solver(spin: Spin, dirs: tuple):
    """Singular values and inverse (rule AW_RTOL) of the grid matrix, one SVD."""
    return svd_inverse(aw_m_matrix(spin, dirs), AW_RTOL)


def aw_reconstruct(
    spin: Spin,
    w: Sequence[float],
    dirs: Sequence[Direction],
    normalized: bool = False,
) -> np.ndarray:
    """Solve the highest-projection system for the state.

    With ``normalized=True`` the input is taken as the unit-sum variant of the
    probability vector and the overall scale is restored by dividing out the
    trace of the solution, which a state's data makes positive: a trace not
    above 1e-14 raises FeasibilityError.  ``w`` must hold one finite value
    per direction (DomainError otherwise).  The grid's rank verdict and
    inverse are memoized per (spin, directions).
    """
    dirs = Directions(dirs)
    w = np.asarray(w, dtype=float)
    if w.shape != (len(dirs),):
        raise DomainError(f"expected {len(dirs)} values, one per direction, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("highest-projection values must be finite")
    _, inverse = _aw_solver(spin, dirs)
    if inverse is None:
        raise FeasibilityError("direction matrix is numerically singular")
    rho = vec_to_hermitian(inverse @ w, spin.dim)
    if normalized:
        trace = float(np.trace(rho).real)
        if not trace > 1e-14:
            raise FeasibilityError(f"normalized inversion has trace {trace:.3e}, not a positive number")
        rho = rho / trace
    return rho


def aw_normalized_forward(
    spin: Spin, rho: np.ndarray, dirs: Sequence[Direction]
) -> np.ndarray:
    """Unit-sum variant of the highest-projection probabilities.

    A sum that is not finite and positive, and a normalized value below
    -INPUT_TOL (NaN included), raise InvariantError, as the probability
    vectors' checks do.
    """
    w = aw_forward(spin, rho, dirs)
    total = w.sum()
    if not 0.0 < total < np.inf:
        raise InvariantError(f"highest-projection probabilities sum to {total}, not a positive number")
    w /= total
    if not w.min(initial=0.0) >= -INPUT_TOL:
        raise InvariantError(f"negative or NaN normalized probability {w.min()}")
    return w


def newton_young_directions(spin: Spin, theta: float) -> DirectionSet:
    """4j+1 directions on one cone, uniformly spaced in azimuth.

    Requires P_L^m(cos theta) != 0 for all m <= L <= 2j; the equator, for
    example, is rejected for every spin because P_1^0(0) = 0.  The shell
    blocks are checked as the su2 quantizers check any set, which refuses
    such a cone by the shell-L block's eigenvalue ratio.
    """
    theta = float(theta)
    if not (0.0 < theta < math.pi):
        raise DomainError("cone angle must lie strictly inside (0, pi)")
    n_u = 2 * spin.two_j + 1
    dirs = [
        Direction(theta, 2.0 * math.pi * k / n_u) for k in range(n_u)
    ]
    ds = DirectionSet(spin, dirs)
    _block_inverses(ds.unit_vectors())  # refuses a singular block
    return ds
