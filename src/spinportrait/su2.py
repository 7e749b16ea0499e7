"""Finite SU(2) scheme: 4j+1 directions and the two inverses of their forward map.

A spin-j state is encoded in the (2j+1)(4j+1) probabilities of all
projections along N = 4j+1 directions.  The degree-L parts
S_L(n_k) = sum_m f_L(m) U(m, n_k) of the measured projectors overlap as
Tr(S_L(n_i) S_L(n_k)) = P_L(n_i . n_k), which the addition theorem factors as
Y_L Y_L^T with Y_L the degree-L real spherical harmonics of the directions
(columns past 2L zero), and S_L(n_k) = T_L Y_L[k]^T with T_L the per-spin
orthonormal operators of :func:`orthopoly.shell_basis`.  Both inverses of
the equal-weight forward map are the one product

    N sum_L T_L X_L (x) f_L(m)

and differ only in X_L.  One batched SVD of the Y_L, each shell's singular
values past 2L+1 set to inf (:func:`_shell_svd`), gives both, the singular
values of Q (:func:`_spectrum`) and the optimizer's condition-number and
a-optimal slopes:

* :func:`reconstruct` takes X_L = Y_L^+, the pseudo-inverse of the map, the
  canonical dual frame and the linear inverse of least error (A. J. Scott,
  J. Phys. A 39, 13507 (2006)), whose error grows as cond(Q) and not as
  cond(Q)^2; with :func:`least_squares` it serves the sun frames too.
* The paper's nested quantizers D(m, k) serve shell L by the first 2L+1
  directions, rho = sum_{L, k <= 2L, m} P_eq(m, n_k) D_L(m, k): X_L is
  [Y_s^-1 | 0], the pseudo-inverse of Y_L with its rows past 2L zeroed, Y_s
  its leading (2L+1)-square block and M(L) = Y_s Y_s^T that of
  P_L(n_i . n_k).  They carry the symbol calculus and the region's candidate
  map, and refuse a set at its first block with
  lambda_min(M(L)) <= BLOCK_RTOL lambda_max(M(L)), lambda = sigma(Y_s)^2.

Two kernels stay apart, as measured (one BLAS thread, best of 7): LU, for
:func:`delta_q`, which :func:`feasibility_delta` multiplies bitwise, and for
the gram-product slopes (20 and 34 us on 2 and 8 sets at two_j=1, 29 and 53
us by the SVD); and det M(L) from one Legendre recurrence for
:func:`feasibility` and the gram-product score (:func:`_shell_dets`: 48, 102
and 323 us on 128 sets at two_j 1, 2, 4; the factors alone 50, 117, 626).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError, FeasibilityError
from .linalg import (
    BLOCK_RTOL,
    LSQ_RTOL,
    PRIOR_TOL,
    _rank,
    memo,
    svd_inverse,
    vec_to_hermitian,
)
from .orthopoly import _harmonic_factors, coeff_table, legendre_series, s_operator_stack, shell_basis
from .portraits import ProbVector, _layout_index
from .spin import Direction, Directions, Spin
from .tomography import forward_matrix


@dataclass(frozen=True)
class DirectionSet:
    """Ordered 4j+1 measurement directions with nested shell structure."""

    spin: Spin
    dirs: tuple

    def __init__(self, spin: Spin, dirs: Sequence[Direction]):
        object.__setattr__(self, "spin", spin)
        dirs = tuple(dirs)
        expected = 2 * spin.two_j + 1
        if len(dirs) != expected:
            raise DomainError(
              f"need {expected} directions for two_j={spin.two_j}, got {len(dirs)}"
            )
        object.__setattr__(self, "dirs", Directions(dirs))
        # the inverse memos key on the set: hash its directions once, not per lookup
        object.__setattr__(self, "_hash", hash((spin, self.dirs)))
        vectors = np.array([d.cartesian for d in self.dirs])
        vectors.flags.writeable = False
        object.__setattr__(self, "_vectors", vectors)

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_dirs(self) -> int:
        return len(self.dirs)

    def shell(self, L: int) -> tuple:
        """Directions of shell L, the first 2L+1 of the set."""
        if not (0 <= L <= self.spin.two_j):
            raise DomainError(f"L={L} outside 0..{self.spin.two_j}")
        return self.dirs[: 2 * L + 1]

    def unit_vectors(self) -> np.ndarray:
        """The directions' unit vectors (N, 3), built once with the set (read-only)."""
        return self._vectors


def _check_spin(spin: Spin, ds: DirectionSet):
    if spin != ds.spin:
        raise DomainError(f"{spin} does not match the direction set's {ds.spin}")


def _shell_grams(vectors: np.ndarray):
    """M(L) for each L with 2L+1 <= N, lazily, from one recurrence.

    ``vectors`` is one set (N, 3) or a stack of sets (..., N, 3); M(L) is a
    view of the leading block of P_L(n_i . n_k) over all N x N dot products.
    """
    dots = (vectors @ np.swapaxes(vectors, -1, -2)).clip(-1.0, 1.0)
    for L, p in enumerate(legendre_series((vectors.shape[-2] - 1) // 2, dots)):
        yield p[..., : 2 * L + 1, : 2 * L + 1]


def _shell_dets(vectors: np.ndarray) -> np.ndarray:
    """det M(L) for L = 0, 1, ..., shape (shells,) + the stack's leading shape, of sets (..., N, 3)."""
    grams = islice(_shell_grams(vectors), 1, None)
    return np.array([np.ones(vectors.shape[:-2]), *map(np.linalg.det, grams)])


def _shell_svd(factors: np.ndarray, nested: bool = False, compute_uv: bool = True):
    """(u, sv, vh), or sv alone, of shell factors (..., shells, N, N), each shell's sv past 2L set to inf.

    With ``nested`` each factor's rows past 2L are zeroed first.
    """
    kept = np.arange(factors.shape[-1]) < 2 * np.arange(factors.shape[-3])[:, None] + 1
    svd = np.linalg.svd(np.where(kept[:, :, None], factors, 0.0) if nested else factors, compute_uv=compute_uv)
    sv = np.where(kept, svd[1] if compute_uv else svd, np.inf)
    return (svd[0], sv, svd[2]) if compute_uv else sv


def _pinv(u: np.ndarray, sv: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """vh^T sv^-1 u^T of stacked SVD factors; an inf sv drops its pair."""
    return np.swapaxes(vh / sv[..., None], -1, -2) @ np.swapaxes(u, -1, -2)


def _spectrum(vectors: np.ndarray, compute_uv: bool = False):
    """Singular values s of Q, descending, for sets (..., N, 3), or (s, u, sv, vh) with ``compute_uv``.

    s holds the kept sv of :func:`_shell_svd` over all shells, divided by N.
    """
    n = vectors.shape[-2]
    d = (n + 1) // 2
    svd = _shell_svd(_harmonic_factors(vectors, d - 1), compute_uv=compute_uv)
    sv = svd[1] if compute_uv else svd
    s = np.sort(sv.reshape(sv.shape[:-2] + (d * n,)), axis=-1)[..., d * d - 1 :: -1] / n
    return (s, *svd) if compute_uv else s


def gram(spin: Spin, L: int, ds) -> np.ndarray:
    """Shell-L Gram matrix P_L(n_i . n_k), (2L+1) x (2L+1)."""
    if not (1 <= L <= spin.two_j):
        raise DomainError(f"L={L} outside 1..{spin.two_j}")
    if isinstance(ds, DirectionSet):
        _check_spin(spin, ds)
        ds = ds.dirs
    vectors = np.array([d.cartesian for d in Directions(ds)])
    if len(vectors) < 2 * L + 1:
        raise DomainError(f"shell {L} needs {2 * L + 1} directions")
    return next(islice(_shell_grams(vectors), L, None))


def shell_determinants(ds: DirectionSet) -> np.ndarray:
    """det M(L) for L = 1..2j."""
    return _shell_dets(ds.unit_vectors())[1:]


def feasibility(ds: DirectionSet) -> float:
    """Product of shell Gram determinants; nonzero iff the map is invertible.

    For j = 1/2 this is the squared triple product of the three directions.
    """
    return float(np.prod(shell_determinants(ds)))


def _factor_dets(vectors: np.ndarray) -> list:
    """det Y_q over the first 2q+1 directions, q = 0, 1, ..., of one set (N, 3) from one factor call."""
    factors = _harmonic_factors(vectors, (len(vectors) - 1) // 2)
    return [float(np.linalg.det(y[: 2 * q + 1, : 2 * q + 1])) for q, y in enumerate(factors)]


def delta_q(dirs: Sequence[Direction], q: int) -> float:
    """Secondary feasibility determinant, det Y_q over the first 2q+1 directions.

    Y_q is the shell-q factor of :func:`_harmonic_factors`, so
    delta_q^2 = det M(q), and delta_1 is the triple product up to sign.
    """
    if q < 0:
        raise DomainError(f"q={q} is negative")
    dirs = Directions(dirs)[: 2 * q + 1]
    if len(dirs) < 2 * q + 1:
        raise DomainError(f"delta_{q} needs {2 * q + 1} directions")
    return _factor_dets(np.array([d.cartesian for d in dirs]))[q]


def feasibility_delta(ds: DirectionSet) -> float:
    """Product of the delta_q for q = 1..2j; its square is :func:`feasibility`."""
    return float(np.prod(_factor_dets(ds.unit_vectors())[1:]))


# forward-map matrix for directions, row (k, m) = p_k * coords(U(m, n_k))
q_matrix = forward_matrix


def _block_inverses(vectors: np.ndarray) -> np.ndarray:
    """[Y_s^-1 | 0], the nested quantizers' X_L, (shells, N, N) for a set (N, 3).

    The lowest block with lambda_min <= BLOCK_RTOL lambda_max (lambda = sigma^2)
    refuses the set, so a caller passing only the directions it reads is
    refused only by the shells it reads.
    """
    u, sv, vh = _shell_svd(_harmonic_factors(vectors, (len(vectors) - 1) // 2), nested=True)
    ratios = (sv[:, ::2].diagonal() / sv[:, 0]) ** 2  # sv[L, 2L] is block L's smallest
    L = np.argmin(ratios > BLOCK_RTOL)  # the lowest refused block, if any
    if not ratios[L] > BLOCK_RTOL:
        raise FeasibilityError(
            f"shell L={L} Gram eigenvalue ratio {ratios[L]:.3e} at or below "
            f"{BLOCK_RTOL:.0e}; the direction set cannot be inverted"
        )
    return _pinv(u, sv, vh)


def _shell_product(spin: Spin, factors: np.ndarray) -> np.ndarray:
    """N sum_L T_L X_L (x) f_L(m) for per-shell factors X_L (2j+1, N, N), N = 4j+1.

    Row c of X_L pairs with column c of T_L (:func:`orthopoly.shell_basis`).
    The result is the (d*d, N*d) matrix whose column (k, m) holds the
    coordinates of the dual of U(m, n_k): an inverse of the equal-weight
    forward map.
    """
    n, d = 2 * spin.two_j + 1, spin.dim
    shells = shell_basis(spin) @ factors
    return np.tensordot(shells, n * coeff_table(spin), axes=(0, 0)).reshape(d * d, n * d)


def l_dequantizer(spin: Spin, L: int, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Shell-resolved dequantizer (4j+1)^-1 f_L(m) S_L(n_k)."""
    _check_spin(spin, ds)
    if not (0 <= k < len(ds.shell(L))):
        raise DomainError(f"direction {k} outside shell L={L}")
    f_lm = coeff_table(spin)[L, spin.m_index(two_m)]
    stack = s_operator_stack(spin, ds.dirs[k])
    return f_lm * stack[L] / (2 * spin.two_j + 1)


def l_quantizer(spin: Spin, L: int, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Shell-L dual operator.

    D_L(m, k) = (4j+1) f_L(m) sum_k' [M(L)^-1]_kk' S_L(n_k'), the dual basis of
    {S_L(n_k)} scaled by the coefficient table, read as (4j+1) f_L(m) T_L
    Y_s^-1[:, k].  Paired with the shell-resolved dequantizer it is
    biorthogonal:

        Tr(U_L(m, n_k) D_L'(m', k')) = f_L(m) f_L(m') delta_LL' delta_kk'.
    """
    _check_spin(spin, ds)
    if not (0 <= k < len(ds.shell(L))):
        raise DomainError(f"direction {k} outside shell L={L}")
    block = _block_inverses(ds.unit_vectors()[: 2 * L + 1])[L]
    f_lm = coeff_table(spin)[L, spin.m_index(two_m)]
    coords = shell_basis(spin)[L, :, : 2 * L + 1] @ block[:, k]
    return vec_to_hermitian(ds.n_dirs * f_lm * coords, spin.dim)


def quantizer(spin: Spin, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Full quantizer for direction k: the sum of its shell duals.

    Direction k belongs to the shells with 2L+1 > k, so the first direction
    contributes to every shell and later directions only to the higher ones.
    A read-only entry of :func:`quantizer_stack`.
    """
    _check_spin(spin, ds)
    return quantizer_stack(ds)[_layout_index(ds.spin, ds.n_dirs, k, two_m)]


@memo
def quantizer_stack(ds: DirectionSet) -> np.ndarray:
    """All quantizers in probability-vector layout, shape (N_u * d, d, d).

    The columns of the nested inverse, entry index(k, m) in the ProbVector
    layout so reconstruction is a single contraction.  Every shell block is
    checked before the operator basis is multiplied, so a refused set costs
    only its harmonic factors and their one batched SVD.  The result is
    memoized per direction set (read-only array, safe to share).
    """
    return vec_to_hermitian(_shell_product(ds.spin, _block_inverses(ds.unit_vectors())).T, ds.spin.dim)


def reconstruct(p: ProbVector, frame_set) -> np.ndarray:
    """Least-squares inverse map (:func:`least_squares`) of an equal-weight vector.

    ``p``'s block sums must be 1/N to PRIOR_TOL for a DirectionSet and a unitary
    frame set alike, checked before any inverse is built; a vector stacked
    with other priors is inverted as ``reconstruct(normalize_to_eq(p), frame_set)``.
    The inverse maps each block's ones to the identity's coordinates, so the
    trace is the sum of p, 1 to the checked block sums, but rounding in the
    other shells, of order eps cond(Q), leaks into it.  One shift of the
    diagonal, the least change that sets the trace to 1, removes both.
    """
    spin = frame_set.spin
    n = frame_set.n_dirs if isinstance(frame_set, DirectionSet) else len(frame_set.frames)
    if p.spin != spin or p.n_rotations != n:
        raise DomainError("probability vector does not match the frame set")
    if not np.abs(p.block_sums() - 1.0 / n).max() <= PRIOR_TOL:  # a NaN max fails too
        raise DomainError(f"probability vector's block sums are not the priors 1/N to {PRIOR_TOL:g}")
    _, inverse = least_squares(frame_set)
    y = inverse @ p.values
    diagonal = y[: spin.dim]
    diagonal += (1.0 - sum(diagonal.tolist())) / spin.dim
    return vec_to_hermitian(y, spin.dim)


def least_squares(frame_set):
    """Singular values and pseudo-inverse of a frame set's equal-weight forward map, read-only.

    A DirectionSet and a unitary frame set (``spin``, ``frames``) share one
    memo of 16 sets, keyed by the set alone.  A map of rank below (2j+1)^2 at
    LSQ_RTOL raises FeasibilityError.
    """
    s, inverse = _solver(frame_set)
    if inverse is None:
        full = frame_set.spin.dim ** 2
        raise FeasibilityError(f"frame forward map has rank {_rank(s, LSQ_RTOL)} < {full}")
    return s, inverse


@memo
def _solver(frame_set):
    """(s, inverse) of :func:`least_squares`, inverse None below full rank; Y_L^+ for a direction set."""
    if not isinstance(frame_set, DirectionSet):
        return svd_inverse(forward_matrix(frame_set.spin, frame_set.frames), LSQ_RTOL)
    s, u, sv, vh = _spectrum(frame_set.unit_vectors(), compute_uv=True)
    return s, _shell_product(frame_set.spin, _pinv(u, sv, vh)) if _rank(s, LSQ_RTOL) == s.size else None


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
    inverse = _block_inverses(ds.unit_vectors()[:3])[1]
    return inverse.T @ inverse @ ds.unit_vectors()[:3]  # M(1)^-1 = Y_s^-T Y_s^-1
