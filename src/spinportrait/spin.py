"""Angular-momentum operators, rotations, and density-matrix helpers.

Spin magnitudes are stored as doubled integers (``two_j = 2j``) so that
half-integer bookkeeping stays exact; projections likewise travel as doubled
values ``two_m``.  The matrix basis is ordered by descending projection,
|j, j> first, and every module in the package shares that ordering.

Rotations use the Wigner factorization

    R(theta, phi) = exp(-i phi Jz) exp(-i theta Jy) exp(i phi Jz),

which equals exp(-i theta n_perp . J) with n_perp = (-sin phi, cos phi, 0) for
every angle, theta = pi included.  Jz is diagonal, so one eigendecomposition
of Jy per spin (memoized) turns a whole list of directions into a stack of
rotations with one batched matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, InvariantError
from .linalg import EIG_TOL, INPUT_TOL, is_integer, memo

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Spin:
    """Half-integer spin, stored as the doubled integer ``two_j``."""

    two_j: int

    def __post_init__(self):
        if not is_integer(self.two_j):
            raise DomainError(f"two_j must be an integer, got {self.two_j!r}")
        if self.two_j < 0:
            raise DomainError(f"two_j must be nonnegative, got {self.two_j}")

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def two_m_values(self) -> range:
        """Doubled projections two_j, two_j - 2, ..., -two_j (descending)."""
        return range(self.two_j, -self.two_j - 1, -2)

    def m_values(self) -> np.ndarray:
        """Projections j, j - 1, ..., -j as floats, descending."""
        return np.arange(self.two_j, -self.two_j - 1, -2) / 2.0

    def m_index(self, two_m: int) -> int:
        """Basis index of the projection ``two_m`` (index 0 is m = +j)."""
        if (self.two_j - two_m) % 2 != 0 or abs(two_m) > self.two_j:
            raise DomainError(
                f"projection two_m={two_m} invalid for two_j={self.two_j}"
            )
        return (self.two_j - two_m) // 2


@dataclass(frozen=True)
class Direction:
    """Unit vector n(theta, phi) on the sphere.

    theta is the polar angle in [0, pi]; phi is stored reduced to [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not (-INPUT_TOL <= theta <= math.pi + INPUT_TOL):
            raise DomainError(f"theta must lie in [0, pi], got {theta}")
        if not math.isfinite(phi):
            raise DomainError(f"phi must be finite, got {phi}")
        phi %= TWO_PI
        if phi == TWO_PI:  # a tiny negative phi rounds up to 2 pi
            phi = 0.0
        object.__setattr__(self, "theta", min(max(theta, 0.0), math.pi))
        object.__setattr__(self, "phi", phi)
        # memo keys hash tuples of directions: hash each one once, as the dataclass would
        object.__setattr__(self, "_hash", hash((self.theta, phi)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [math.cos(self.phi) * st, math.sin(self.phi) * st, math.cos(self.theta)]
        )

    @classmethod
    def from_cartesian(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise DomainError("zero vector has no direction")
        v = v / norm
        return cls(math.acos(min(max(v[2], -1.0), 1.0)), math.atan2(v[1], v[0]))


Frame = Union[Direction, np.ndarray]


class Directions(tuple):
    """A tuple of directions, checked once to hold only directions and hashed once.

    It compares and hashes exactly as the plain tuple, so it shares memo
    entries with one.  ``Directions(d)`` returns ``d`` itself when it is
    already checked; any other entry raises DomainError.
    """

    def __new__(cls, dirs):
        if type(dirs) is cls:
            return dirs
        self = super().__new__(cls, dirs)
        if not all(isinstance(d, Direction) for d in self):
            raise DomainError("directions must be Direction instances")
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


class _CheckedFrames(tuple):
    """Array frames whose read-only stack (N, d, d) :func:`frame_matrices` checked.

    The entries are views of the stack; :func:`frame_matrices` returns the
    stack itself when its dimension matches the spin, without a second check.
    Compared and hashed by identity, so the forward-row memo keys on the set
    of checked frames, not on array values.
    """

    def __new__(cls, stack: np.ndarray):
        stack.flags.writeable = False
        self = super().__new__(cls, stack)
        self.stack = stack
        return self

    __hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __reduce__(self):
        # copies rebuild from the stack, so their entries stay views of one read-only array
        return type(self), (self.stack,)


def angular_momentum(spin: Spin):
    """Matrices (Jx, Jy, Jz) in the descending-m basis.

    Jz is diagonal with eigenvalues j, j-1, ..., -j; the ladder elements are
    <j,m+1|J+|j,m> = sqrt(j(j+1) - m(m+1)).
    """
    d = spin.dim
    two_j = spin.two_j
    jz = np.diag(spin.m_values()).astype(complex)
    jp = np.zeros((d, d), dtype=complex)
    for idx, two_m in enumerate(spin.two_m_values()):
        if two_m == two_j:
            continue
        # raise m -> m+1 moves one row up in the descending ordering
        jp[idx - 1, idx] = math.sqrt(
            (two_j * (two_j + 2) - two_m * (two_m + 2)) / 4.0
        )
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return jx, jy, jz


@memo
def _jy_eigen(two_j: int):
    """Eigenvalues and eigenvectors of Jy for one spin (read-only arrays)."""
    _, jy, _ = angular_momentum(Spin(two_j))
    return np.linalg.eigh(jy)


def rotations(spin: Spin, thetas, phis) -> np.ndarray:
    """Stack of rotations R(theta_k, phi_k), shape (N, d, d).

    Wigner factorization: the polar rotation exp(-i theta Jy) comes from the
    memoized spectral decomposition of Jy, and the azimuthal factors
    exp(-+i phi Jz) are diagonal phases applied to its rows and columns.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    phis = np.asarray(phis, dtype=float).reshape(-1)
    vals, vecs = _jy_eigen(spin.two_j)
    polar = (vecs * np.exp(-1j * thetas[:, None, None] * vals)) @ vecs.conj().T
    azimuth = np.exp(-1j * phis[:, None] * spin.m_values())
    return azimuth[:, :, None] * polar * azimuth.conj()[:, None, :]


def rotation(spin: Spin, n: Direction) -> np.ndarray:
    """Rotation mapping the z-axis onto n.

    R(n) = exp(-i (n_perp . J) theta) with n_perp = (-sin phi, cos phi, 0),
    built by :func:`rotations` through the Wigner factorization.
    R(n) Jz R(n)^dag = J . n, so R|j j> is the highest-weight state along n.
    For theta = pi the result depends on phi (any such rotation maps z to -z).
    """
    return rotations(spin, n.theta, n.phi)[0]


def frame_matrix(spin: Spin, frame: Frame) -> np.ndarray:
    """Unitary matrix of a measurement frame.

    A ``Direction`` yields the SU(2) rotation; a square array is validated as
    a unitary of the right dimension and used as-is.
    """
    return frame_matrices(spin, [frame])[0]


def frame_matrices(spin: Spin, frames: Sequence[Frame]) -> np.ndarray:
    """Unitaries of a frame sequence, shape (N, d, d).

    Directions are rotated all at once; array frames are validated and
    stacked all together by :func:`_unitaries`.  The frames of a
    ``UnitaryFrameSet``, checked when the set was made, return its read-only
    stack after a dimension test alone.
    """
    if isinstance(frames, _CheckedFrames):
        if frames.stack.shape[1:] != (spin.dim, spin.dim):
            raise DomainError(f"frame shape {frames.stack.shape[1:]} does not match dim {spin.dim}")
        return frames.stack
    frames = tuple(frames)
    rot = [k for k, f in enumerate(frames) if isinstance(f, Direction)]
    arr = [k for k, f in enumerate(frames) if not isinstance(f, Direction)]
    if not rot:
        return _unitaries(spin.dim, frames)
    rotated = rotations(spin, [frames[k].theta for k in rot], [frames[k].phi for k in rot])
    if not arr:
        return rotated
    out = np.empty((len(frames), spin.dim, spin.dim), dtype=complex)
    out[rot] = rotated
    out[arr] = _unitaries(spin.dim, [frames[k] for k in arr], arr)
    return out


def _unitaries(d: int, frames, positions=None) -> np.ndarray:
    """Array frames stacked, (N, d, d), after one shape test each and one batched U^dag U - I test.

    The first bad frame in order decides the error: DomainError for a wrong
    shape, InvariantError for a frame off unitarity by more than INPUT_TOL in
    some entry (NaN included), named by its position ``positions[k]`` (default k).
    """
    mats = [np.asarray(f, dtype=complex) for f in frames]
    n_good = next((i for i, u in enumerate(mats) if u.shape != (d, d)), len(mats))
    good = np.stack(mats[:n_good]) if n_good else np.empty((0, d, d), dtype=complex)
    within = np.abs(np.swapaxes(good.conj(), 1, 2) @ good - np.eye(d)) <= INPUT_TOL
    if not within.all():
        k = int(np.argmin(within.all(axis=(1, 2))))
        position = k if positions is None else positions[k]
        raise InvariantError(f"frame {position} is not unitary to {INPUT_TOL:g}")
    if n_good < len(mats):
        raise DomainError(f"frame shape {mats[n_good].shape} does not match dim {d}")
    return good


def basis_ket(spin: Spin, two_m: int) -> np.ndarray:
    ket = np.zeros(spin.dim, dtype=complex)
    ket[spin.m_index(two_m)] = 1.0
    return ket


def validate_density_matrix(spin: Spin, rho):
    """Check Hermiticity, unit trace, and positive semidefiniteness.

    Raises InvariantError on violation; returns the matrix as a complex array.
    Every test is written to fail on NaN, so a NaN matrix raises.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (spin.dim, spin.dim):
        raise DomainError(f"density matrix shape {rho.shape} != dim {spin.dim}")
    if not np.abs(rho - rho.conj().T).max() <= INPUT_TOL:
        raise InvariantError(f"density matrix is not Hermitian to {INPUT_TOL:g}")
    trace = np.trace(rho)
    if not (abs(trace.real - 1.0) <= INPUT_TOL and abs(trace.imag) <= INPUT_TOL):
        raise InvariantError(f"density matrix trace {trace} != 1")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if not min_eig >= -EIG_TOL:
        raise InvariantError(f"density matrix has eigenvalue {min_eig} < -{EIG_TOL}")
    return rho


def random_density_matrix(spin: Spin, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix, G G^dag normalized to unit trace."""
    d = spin.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
