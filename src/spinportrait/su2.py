"""Finite SU(2) scheme: 4j+1 directions and the two inverses of their forward map.

A spin-j state is encoded in the (2j+1)(4j+1) probabilities of all
projections along N = 4j+1 directions.  The degree-L parts
S_L(n_k) = sum_m f_L(m) U(m, n_k) of the measured projectors overlap as
Tr(S_L(n_i) S_L(n_k)) = P_L(n_i . n_k), which the addition theorem factors as
Y_L Y_L^T with Y_L the degree-L real spherical harmonics of the directions.
Both inverses of the equal-weight forward map are the one product

    N sum_L S_L^T G_L (x) f_L(m)

and differ only in the per-shell matrix G_L:

* :func:`reconstruct` takes G_L = P_L(n_i . n_k)^+ over all N directions,
  the pseudo-inverse of the map, the canonical dual frame and the linear
  inverse of least error (A. J. Scott, J. Phys. A 39, 13507 (2006));
  :func:`least_squares` shares its memo, rank rule (LSQ_RTOL) and refusal
  with the sun frames.
* The paper's nested quantizers D(m, k) serve shell L by the first 2L+1
  directions, rho = sum_{L, k <= 2L, m} P_eq(m, n_k) D_L(m, k): G_L is the
  zero-padded inverse of the leading block M(L) = Y Y^T, Y the leading
  (2L+1)-square block of Y_L.  They carry the symbol calculus and the
  region's candidate map, and refuse a set at its first block with
  lambda_min(M(L)) <= BLOCK_RTOL lambda_max(M(L)), lambda = sigma(Y)^2.

The determinants behind feasibility and the optimizer objective read M(L)
from one Legendre recurrence (:func:`_shell_grams`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError, FeasibilityError
from .linalg import (
    BLOCK_RTOL,
    LSQ_RTOL,
    SQRT2,
    _rank,
    projector_coords,
    svd_inverse,
    validate_weights,
    vec_to_hermitian,
)
from .orthopoly import coeff_table, legendre_series, s_operator_stack
from .portrait import ProbVector, _layout_index
from .spin import Direction, Spin, frame_matrices
from .tomography import forward_matrix


@dataclass(frozen=True)
class DirectionSet:
    """Ordered 4j+1 measurement directions with nested shell structure."""

    spin: Spin
    dirs: tuple

    def __init__(self, spin: Spin, dirs: Sequence[Direction]):
        object.__setattr__(self, "spin", spin)
        object.__setattr__(self, "dirs", tuple(dirs))
        expected = 2 * spin.two_j + 1
        if len(self.dirs) != expected:
            raise DomainError(
              f"need {expected} directions for two_j={spin.two_j}, got {len(self.dirs)}"
            )
        if not all(isinstance(d, Direction) for d in self.dirs):
            raise DomainError("directions must be Direction instances")

    @property
    def n_dirs(self) -> int:
        return len(self.dirs)

    def shell(self, L: int) -> tuple:
        """Directions of shell L, the first 2L+1 of the set."""
        if not (0 <= L <= self.spin.two_j):
            raise DomainError(f"L={L} outside 0..{self.spin.two_j}")
        return self.dirs[: 2 * L + 1]

    def unit_vectors(self) -> np.ndarray:
        return np.array([d.cartesian for d in self.dirs])


def _check_spin(spin: Spin, ds: DirectionSet):
    if spin != ds.spin:
        raise DomainError(f"{spin} does not match the direction set's {ds.spin}")


def _shell_grams(vectors: np.ndarray):
    """(M(L), det M(L)) for each L with 2L+1 <= N, lazily, from one recurrence.

    ``vectors`` is one set (N, 3) or a stack of sets (..., N, 3); M(L) is a
    view of the leading block of P_L(n_i . n_k) over all N x N dot products,
    and det M(L) has the stack's leading shape.
    """
    dots = (vectors @ np.swapaxes(vectors, -1, -2)).clip(-1.0, 1.0)
    for L, p in enumerate(legendre_series((vectors.shape[-2] - 1) // 2, dots)):
        gram_l = p[..., : 2 * L + 1, : 2 * L + 1]
        yield gram_l, (np.linalg.det(gram_l) if L else 1.0)


def _harmonic_factors(vectors: np.ndarray, two_j: int) -> np.ndarray:
    """Factors Y_L Y_L^T = P_L(n_i . n_k) of N = 2 two_j + 1 vectors, (two_j+1, N, N).

    The addition theorem: column 0 of Y_L is Pbar_L^0(cos theta), columns
    2M-1, 2M are sqrt(2) Pbar_L^M(cos theta) (cos M phi, sin M phi), with
    Pbar_L^M = sqrt((L-M)!/(L+M)!) P_L^M by its stable recurrence in L, and
    the columns past 2L are zero.
    """
    cos_theta = vectors[:, 2].clip(-1.0, 1.0)
    sin_theta = np.hypot(vectors[:, 0], vectors[:, 1])
    pbar = np.zeros((two_j + 1, two_j + 1, len(vectors)))  # [L, M], zero for M > L
    pbar[0, 0] = 1.0
    for L in range(1, two_j + 1):
        m = np.arange(L)[:, None]
        pbar[L, :L] = (
            (2 * L - 1) * cos_theta * pbar[L - 1, :L]
            - np.sqrt((L + m - 1) * (L - m - 1)) * pbar[max(L - 2, 0), :L]
        ) / np.sqrt((L - m) * (L + m))
        pbar[L, L] = math.sqrt((2 * L - 1) / (2 * L)) * sin_theta * pbar[L - 1, L - 1]
    mphi = np.arange(1, two_j + 1)[:, None] * np.arctan2(vectors[:, 1], vectors[:, 0])
    out = np.empty((two_j + 1, len(vectors), len(vectors)))
    out[:, :, 0] = pbar[:, 0]
    out[:, :, 1::2] = np.swapaxes(SQRT2 * pbar[:, 1:] * np.cos(mphi), 1, 2)
    out[:, :, 2::2] = np.swapaxes(SQRT2 * pbar[:, 1:] * np.sin(mphi), 1, 2)
    return out


def gram(spin: Spin, L: int, ds) -> np.ndarray:
    """Shell-L Gram matrix P_L(n_i . n_k), (2L+1) x (2L+1)."""
    if not (1 <= L <= spin.two_j):
        raise DomainError(f"L={L} outside 1..{spin.two_j}")
    if isinstance(ds, DirectionSet):
        _check_spin(spin, ds)
        ds = ds.dirs
    vectors = np.array([d.cartesian for d in ds])
    if len(vectors) < 2 * L + 1:
        raise DomainError(f"shell {L} needs {2 * L + 1} directions")
    return next(islice(_shell_grams(vectors), L, None))[0]


def shell_determinants(ds: DirectionSet) -> np.ndarray:
    """det M(L) for L = 1..2j."""
    return np.array([det for _, det in _shell_grams(ds.unit_vectors())][1:])


def feasibility(ds: DirectionSet) -> float:
    """Product of shell Gram determinants; nonzero iff the map is invertible.

    For j = 1/2 this is the squared triple product of the three directions.
    """
    return float(np.prod(shell_determinants(ds)))


def delta_q(dirs: Sequence[Direction], q: int) -> float:
    """Secondary feasibility determinant, det Y_q over the first 2q+1 directions.

    Y_q is the shell-q factor of :func:`_harmonic_factors`, so
    delta_q^2 = det M(q), and delta_1 is the triple product up to sign.
    """
    dirs = tuple(dirs)[: 2 * q + 1]
    if len(dirs) < 2 * q + 1:
        raise DomainError(f"delta_{q} needs {2 * q + 1} directions")
    return float(np.linalg.det(_harmonic_factors(np.array([d.cartesian for d in dirs]), q)[q]))


def feasibility_delta(ds: DirectionSet) -> float:
    """Product of the delta_q for q = 1..2j; its square is :func:`feasibility`."""
    return float(np.prod([delta_q(ds.dirs, q) for q in range(1, ds.spin.two_j + 1)]))


# forward-map matrix for directions, row (k, m) = p_k * coords(U(m, n_k))
q_matrix = forward_matrix


def _block_inverses(vectors: np.ndarray):
    """G_L, the inverse of M(L) zero-padded to N x N, for L = 0, 1, ..., lazily.

    M(L) = Y Y^T with Y the leading (2L+1)-square block of the shell-L
    harmonic factor, so M(L)^-1 = U diag(sigma^-2) U^T from the SVD of Y.  A
    block with lambda_min <= BLOCK_RTOL lambda_max (lambda = sigma^2) refuses
    the set, so a caller is refused only by the shells it reads.
    """
    n = len(vectors)
    for L, factor in enumerate(_harmonic_factors(vectors, (n - 1) // 2)):
        size = 2 * L + 1
        u, sv, _ = np.linalg.svd(factor[:size, :size])
        lam = sv * sv
        if not lam[-1] > BLOCK_RTOL * lam[0]:
            raise FeasibilityError(
                f"shell L={L} Gram eigenvalue ratio {lam[-1] / lam[0]:.3e} at or below "
                f"{BLOCK_RTOL:.0e}; the direction set cannot be inverted"
            )
        inverse = np.zeros((n, n))
        inverse[:size, :size] = (u / lam) @ u.T
        yield inverse


def _shell_product(ds: DirectionSet, grams: np.ndarray) -> np.ndarray:
    """N sum_L S_L^T G_L (x) f_L(m) for the per-shell G_L, grams (2j+1, N, N).

    The (d*d, N*d) matrix whose column (k, m) holds the coordinates of the
    dual of U(m, n_k): an inverse of the equal-weight forward map.
    """
    spin, n, d = ds.spin, ds.n_dirs, ds.spin.dim
    table = coeff_table(spin)
    # shells[k, L]: coordinates of S_L(n_k) = sum_m f_L(m) U(m, n_k)
    shells = table @ projector_coords(np.swapaxes(frame_matrices(spin, ds.dirs), 1, 2))
    shell_g = np.transpose(shells, (1, 2, 0)) @ grams
    return np.tensordot(shell_g, n * table, axes=(0, 0)).reshape(d * d, n * d)


def l_dequantizer(spin: Spin, L: int, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Shell-resolved dequantizer (4j+1)^-1 f_L(m) S_L(n_k)."""
    _check_spin(spin, ds)
    if not (0 <= k <= 2 * L):
        raise DomainError(f"direction {k} outside shell L={L}")
    f_lm = coeff_table(spin)[L, spin.m_index(two_m)]
    stack = s_operator_stack(spin, ds.dirs[k])
    return f_lm * stack[L] / (2 * spin.two_j + 1)


def l_quantizer(spin: Spin, L: int, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Shell-L dual operator.

    D_L(m, k) = (4j+1) f_L(m) sum_k' [M(L)^-1]_kk' S_L(n_k'), the dual basis of
    {S_L(n_k)} scaled by the coefficient table.  Paired with the shell-resolved
    dequantizer it is biorthogonal:

        Tr(U_L(m, n_k) D_L'(m', k')) = f_L(m) f_L(m') delta_LL' delta_kk'.
    """
    _check_spin(spin, ds)
    if not (0 <= k < len(ds.shell(L))):
        raise DomainError(f"direction {k} outside shell L={L}")
    grams = np.zeros((spin.dim, ds.n_dirs, ds.n_dirs))
    grams[L] = next(islice(_block_inverses(ds.unit_vectors()), L, None))
    column = _shell_product(ds, grams)[:, _layout_index(spin, ds.n_dirs, k, two_m)]
    return vec_to_hermitian(column, spin.dim)


def quantizer(spin: Spin, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Full quantizer for direction k: the sum of its shell duals.

    Direction k belongs to the shells with 2L+1 > k, so the first direction
    contributes to every shell and later directions only to the higher ones.
    A read-only entry of :func:`quantizer_stack`.
    """
    _check_spin(spin, ds)
    return quantizer_stack(ds)[_layout_index(ds.spin, ds.n_dirs, k, two_m)]


@lru_cache(maxsize=16)
def quantizer_stack(ds: DirectionSet) -> np.ndarray:
    """All quantizers in probability-vector layout, shape (N_u * d, d, d).

    The columns of the nested inverse, entry index(k, m) in the ProbVector
    layout so reconstruction is a single contraction.  Every shell block is
    checked before any forward-map row is built, so a refused set costs only
    its harmonic factors and the block SVDs up to the refused shell.  The
    result is memoized per direction set (read-only array, safe to share).
    """
    grams = np.stack(list(_block_inverses(ds.unit_vectors())))
    out = vec_to_hermitian(_shell_product(ds, grams).T, ds.spin.dim)
    out.flags.writeable = False
    return out


def reconstruct(p_eq: ProbVector, ds: DirectionSet) -> np.ndarray:
    """Least-squares inverse map of the equal-weight probability vector.

    The input must be an equal-weight vector over this direction set; vectors
    built with other priors are rejected (renormalize them first).
    """
    spin = ds.spin
    if p_eq.spin != spin or p_eq.n_rotations != ds.n_dirs:
        raise DomainError("probability vector does not match the direction set")
    if not np.abs(p_eq.block_sums() - 1.0 / ds.n_dirs).max() <= 1e-8:
        raise DomainError(
            "probability vector is not equal-weight; renormalize it first"
        )
    _, inverse = least_squares(ds)
    return vec_to_hermitian(inverse @ p_eq.values, spin.dim)


def least_squares(frame_set, weights=None):
    """Singular values and pseudo-inverse of a frame set's forward map, read-only.

    A DirectionSet is taken with equal weights, a unitary frame set (``spin``,
    ``frames``) with the priors ``weights``; both share one memo of 16 sets.
    A map of rank below (2j+1)^2 at LSQ_RTOL raises FeasibilityError.
    """
    if isinstance(frame_set, DirectionSet):
        if weights is not None:
            raise DomainError("a direction set is inverted in its equal-weight form")
        key = b""
    else:
        key = validate_weights(weights, len(frame_set.frames)).tobytes()
    s, inverse = _solver(frame_set, key)
    if inverse is None:
        full = frame_set.spin.dim ** 2
        raise FeasibilityError(f"frame forward map has rank {_rank(s, LSQ_RTOL)} < {full}")
    return s, inverse


@lru_cache(maxsize=16)
def _solver(frame_set, weights: bytes):
    """(s, inverse) of :func:`least_squares`: shell by shell for a direction set."""
    if not isinstance(frame_set, DirectionSet):
        a = forward_matrix(frame_set.spin, frame_set.frames, np.frombuffer(weights))
        return svd_inverse(a, LSQ_RTOL)
    n, d = frame_set.n_dirs, frame_set.spin.dim
    u, sv, _ = np.linalg.svd(_harmonic_factors(frame_set.unit_vectors(), d - 1))
    kept = np.arange(n) < 2 * np.arange(d)[:, None] + 1
    s = np.sort(sv[kept])[::-1] / n
    s.flags.writeable = False
    if _rank(s, LSQ_RTOL) < d * d:
        return s, None
    # G_L = P_L(n_i . n_k)^+ from the factor's SVD
    gram_pinv = (u * np.where(kept, sv, np.inf)[:, None, :] ** -2.0) @ np.swapaxes(u, 1, 2)
    inverse = _shell_product(frame_set, gram_pinv)
    inverse.flags.writeable = False
    return s, inverse


def apply_quantizer(values: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Contract arbitrary layout-ordered coefficients with the quantizers.

    This is the nested linear inverse of the symbol calculus, which agrees
    with :func:`reconstruct` on every vector the forward map produces; it
    does not require the coefficients to be a valid probability vector, and
    complex coefficients (symbols of non-Hermitian operators) keep their
    imaginary parts.
    """
    values = np.asarray(values, dtype=complex)
    stack = quantizer_stack(ds)
    n, d, _ = stack.shape
    if values.shape != (n,):
        raise DomainError(f"expected {n} coefficients, got shape {values.shape}")
    return (values @ stack.reshape(n, d * d)).reshape(d, d)


def dual_vectors(ds: DirectionSet) -> np.ndarray:
    """Dual vectors of the first-shell directions, l_k = sum M(1)^-1_kk' n_k'.

    They satisfy l_k . n_k' = delta_kk'; for three directions they reduce to
    the scaled cross products [n_2 x n_3] / (n_1 . [n_2 x n_3]) and cyclic.
    """
    if ds.spin.two_j < 1:
        raise DomainError("dual vectors need at least the L=1 shell")
    gram_1 = next(islice(_block_inverses(ds.unit_vectors()), 1, None))
    return gram_1[:3, :3] @ ds.unit_vectors()[:3]
