"""Orthonormal polynomial tables over spin projections and the operator basis.

The table f[L][m] (L = 0..2j, m descending) collects orthonormal polynomials
of the discrete projection variable with unit weight,

    sum_m f_L(m) f_L'(m) = delta_LL',

the discrete Chebyshev polynomials on the grid {0, ..., 2j}.  Their
three-term recurrence is the Jacobi matrix whose eigenvalues are the grid
points; eigenvector i holds f_L(x_i) for every L (Golub & Welsch, Math. Comp.
23, 221 (1969)), so the table is orthogonal to rounding at any spin.  Each
eigenvector is signed so f_0 > 0, which gives every polynomial a positive
leading coefficient, hence f_L(+j) > 0, and reproduces the closed forms

    f_0(m) = 1/sqrt(2j+1),    f_1(m) = sqrt(3) m / sqrt(j(j+1)(2j+1)).

The operator basis S_L(frame) applies the same polynomial to the rotated
projection operator; overlaps of two frames obey
Tr(S_L(n) S_L'(n')) = delta_LL' * P_L(n . n') with P_L the Legendre polynomial.
It is built once, as isometric real coordinates (:func:`s_operator_coords`),
so those overlaps are dot products of coordinate rows.

The addition theorem factors those overlaps as Y_L Y_L^T, Y_L the real
spherical harmonics of the directions (:func:`_harmonic_factors`), and the
Wigner-Eckart theorem splits each direction's operator the same way,
S_L(n) = sum_c Y_L[n, c] T_{L,c}, with (2j+1)^2 orthonormal operators T_{L,c}
that depend on the spin alone (Varshalovich, Moskalev & Khersonskii, Quantum
Theory of Angular Momentum (1988), ch. 2).  :func:`shell_basis` builds them
once per spin from S_L at 2j+1 polar nodes, so the su2 inverses of any
direction set need only that set's Y_L.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError
from .linalg import SQRT2, _coord_layout, memo, projector_coords, vec_to_hermitian
from .spin import Direction, Frame, Spin, frame_matrices

# Largest two_j the test suite validates; the table itself is orthonormal to
# rounding at any spin.  Raising it waits for a memory bound on the per-set
# stacks, which grow as two_j^4 (ROADMAP item 6).
MAX_TWO_J = 24


@memo
def coeff_table(spin: Spin) -> np.ndarray:
    """Orthonormal coefficient table, shape (2j+1, 2j+1), f[L][m_index] (read-only).

    Column i holds the eigenvector of the Jacobi matrix (off-diagonal
    sqrt(beta_k); the constant diagonal only shifts the eigenvalues, which lie
    one apart) for the i-th largest eigenvalue, m = j - i, signed so
    f_0(m) > 0.  Spins above ``MAX_TWO_J`` raise DomainError.
    """
    if spin.two_j > MAX_TWO_J:
        raise DomainError(
            f"two_j={spin.two_j} above {MAX_TWO_J}, the largest spin the test suite "
            "validates; larger spins wait for a memory bound on the per-set stacks"
        )
    n = spin.dim
    k = np.arange(1, n)
    off = np.sqrt(k * k * (n * n - k * k) / (4.0 * (4 * k * k - 1)))
    _, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return vecs[:, ::-1] * np.sign(vecs[0, ::-1])  # descending m, f_0 > 0


def s_operator(spin: Spin, L: int, frame: Frame) -> np.ndarray:
    """Operator S_L(frame) = V f_L(Jz) V^dag with V the frame unitary.

    f_L(Jz) is diagonal in the descending-m basis, so the operator is the
    degree-L polynomial of the rotated projection operator V Jz V^dag.
    """
    if not (0 <= L <= spin.two_j):
        raise DomainError(f"L={L} outside 0..{spin.two_j}")
    return s_operator_stack(spin, frame)[L]


def s_operator_stack(spin: Spin, frame: Frame) -> np.ndarray:
    """All S_L(frame) for L = 0..2j as one (2j+1, d, d) array."""
    return vec_to_hermitian(s_operator_coords(spin, [frame])[0], spin.dim)


def s_operator_coords(spin: Spin, frames: Sequence[Frame]) -> np.ndarray:
    """Coordinates of S_L(frame_k) = sum_m f_L(m) U(m, frame_k), shape (N, 2j+1, d*d).

    The one builder of S_L: the isometric coordinates of the measured
    projectors combined by the coefficient table, so the dot product of two
    rows is Tr(S_L(frame) S_L'(frame')).
    """
    return coeff_table(spin) @ projector_coords(np.swapaxes(frame_matrices(spin, frames), 1, 2))


@memo
def shell_basis(spin: Spin) -> np.ndarray:
    """Orthonormal operator basis T, shape (2j+1, d*d, 4j+1), T[L] = T_L (read-only).

    Coordinates of S_L(n) = T_L Y_L(n)^T for every direction n, Y_L the
    harmonic factor of :func:`_harmonic_factors`; T_L's first 2L+1 columns
    are orthonormal and the rest are zero, as Y_L's are.  Built from
    :func:`s_operator_coords` at the 2j+1 Gauss-Legendre nodes x_i = cos theta_i
    (Golub-Welsch, as :func:`coeff_table`) at phi = 0, where S_L is real.
    Entry (m, m') of S_L(theta, phi) is exp(-i (m - m') phi) times its phi = 0
    value, a multiple of Pbar_L^M(cos theta) at M = m - m', so projecting the
    diagonal and the upper entries of offset M on Pbar_L^M over the nodes
    (exact: the products have degree at most 4j) gives column 0 and the cos
    columns 2M-1; the sin columns 2M are the negated cos columns.
    """
    two_j, d = spin.two_j, spin.dim
    k = np.arange(1, d)
    off = k / np.sqrt(4.0 * k * k - 1)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    coords = s_operator_coords(spin, [Direction(math.acos(x), 0.0) for x in nodes])
    pbar = _pbar(nodes, np.sqrt(1.0 - nodes * nodes), two_j)
    rows, cols = _coord_layout(d).triangle
    offset = np.concatenate([np.zeros(d, dtype=int), cols - rows])  # M of the diagonal, then the upper entries
    # (2L+1)/2 sum_i w_i Pbar_L^M(x_i) with the Gauss weights w_i = 2 vecs[0, i]^2; an upper
    # coordinate is sqrt(2) times its entry
    scale = np.arange(1, 2 * d, 2)[:, None] / np.where(offset > 0, SQRT2, 1.0)
    weights = scale[:, :, None] * vecs[0] ** 2 * pbar[:, offset, :]
    t = np.einsum("lai,ila->la", weights, coords[:, :, : offset.size])
    upper = np.arange(d, offset.size)
    basis = np.zeros((d, d * d, 2 * two_j + 1))
    basis[:, range(d), 0] = t[:, :d]
    basis[:, upper, 2 * offset[d:] - 1] = t[:, d:]
    basis[:, upper + rows.size, 2 * offset[d:]] = -t[:, d:]
    return basis


def _harmonic_factors(vectors: np.ndarray, two_j: int, derivatives: bool = False):
    """Factors Y_L Y_L^T = P_L(n_i . n_k), (..., two_j+1, N, N), of sets (..., 2 two_j + 1, 3).

    The addition theorem: column 0 of Y_L is Pbar_L^0(cos theta), columns
    2M-1, 2M are sqrt(2) Pbar_L^M(cos theta) (cos M phi, sin M phi), with
    Pbar_L^M from :func:`_pbar`, and the columns past 2L are zero.

    With ``derivatives``: (Y, dY), dY (2, ..., two_j+1, N, N) holding in row k
    the derivatives of row k of Y by direction k's own theta, then phi (no
    other row depends on them).  d/dphi turns cos M phi into -M sin M phi and
    sin M phi into M cos M phi; d/dtheta of Pbar_L^M is
    (sqrt((L+M)(L-M+1)) Pbar_L^{M-1} - sqrt((L-M)(L+M+1)) Pbar_L^{M+1}) / 2,
    and -sqrt(L(L+1)) Pbar_L^1 at M = 0.
    """
    n = vectors.shape[-2]
    pbar = _pbar(vectors[..., 2].clip(-1.0, 1.0), np.hypot(vectors[..., 0], vectors[..., 1]), two_j)
    _, up, down, m = _pbar_weights(two_j)
    phi = np.arctan2(vectors[..., None, :, 1], vectors[..., None, :, 0])
    mphi = (np.arange(1, two_j + 1)[:, None] * phi)[..., None, :, :]
    cos_mphi, sin_mphi = np.cos(mphi), np.sin(mphi)

    def columns(table, cos_part, sin_part):
        out = np.empty(table.shape[:-2] + (n, n))
        out[..., 0] = table[..., 0, :]
        out[..., 1::2] = np.swapaxes(SQRT2 * table[..., 1:, :] * cos_part, -1, -2)
        out[..., 2::2] = np.swapaxes(SQRT2 * table[..., 1:, :] * sin_part, -1, -2)
        return out

    if not derivatives:
        return columns(pbar, cos_mphi, sin_mphi)
    d_pbar = np.zeros_like(pbar)
    d_pbar[..., 1:, :] = down * pbar[..., :-1, :]
    d_pbar[..., :-1, :] -= up * pbar[..., 1:, :]
    out = columns(
        np.stack((pbar, d_pbar, m * pbar)),
        np.stack((cos_mphi, cos_mphi, -sin_mphi)),
        np.stack((sin_mphi, sin_mphi, cos_mphi)),
    )
    return out[0], out[1:]


def _pbar(cos_theta: np.ndarray, sin_theta: np.ndarray, two_j: int) -> np.ndarray:
    """Pbar_L^M(cos theta) = sqrt((L-M)!/(L+M)!) P_L^M, (..., two_j+1, two_j+1, n) indexed [L, M].

    By its stable recurrence in L over angles (..., n); zero for M > L.
    """
    cos_theta = cos_theta[..., None, :]
    pbar = np.zeros(sin_theta.shape[:-1] + (two_j + 1, two_j + 1, sin_theta.shape[-1]))
    pbar[..., 0, 0, :] = 1.0
    for L, (lower, denominator, scale) in enumerate(_pbar_weights(two_j)[0], start=1):
        pbar[..., L, :L, :] = (
            (2 * L - 1) * cos_theta * pbar[..., L - 1, :L, :]
            - lower * pbar[..., max(L - 2, 0), :L, :]
        ) / denominator
        pbar[..., L, L, :] = scale * sin_theta * pbar[..., L - 1, L - 1, :]
    return pbar


@memo
def _pbar_weights(two_j: int):
    """The weights of :func:`_pbar` and :func:`_harmonic_factors`, built once per spin, read-only.

    (recurrence, up, down, m): for each L >= 1 the recurrence's
    sqrt((L+m-1)(L-m-1)) and sqrt((L-m)(L+m)) over m < L and
    sqrt((2L-1)/(2L)); the weights of Pbar_L^{M+1} over M < two_j and of
    Pbar_L^{M-1} over M >= 1 in d Pbar_L^M / d theta; and M.
    """
    recurrence = []
    for L in range(1, two_j + 1):
        m = np.arange(L)[:, None]
        recurrence.append(
            (np.sqrt((L + m - 1) * (L - m - 1)), np.sqrt((L - m) * (L + m)), math.sqrt((2 * L - 1) / (2 * L)))
        )
    ell, m = np.arange(two_j + 1)[:, None], np.arange(two_j + 1)
    up = np.where(m > 0, 0.5, 1.0) * np.sqrt(np.maximum((ell - m) * (ell + m + 1), 0))
    down = 0.5 * np.sqrt(np.maximum((ell + m) * (ell - m + 1), 0))
    return recurrence, up[:, :-1, None], down[:, 1:, None], m[:, None]


def legendre_series(L_max: int, x, m: int = 0):
    """P_m^m(x), P_{m+1}^m(x), ..., P_{L_max}^m(x) by the three-term recurrence.

    Rolls two degrees and yields each as a new array, so a caller that stops
    early pays only for the degrees it read.  m = 0 gives the Legendre
    polynomials; the phase (-1)^m is dropped.
    """
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    for k in range(1, m + 1):
        p_prev = p_prev * (2 * k - 1) * np.sqrt(np.maximum(1.0 - x * x, 0.0))
    p = x * (2 * m + 1) * p_prev if m else x.copy()
    yield p_prev
    if L_max > m:
        yield p
    for ell in range(m + 2, L_max + 1):
        p, p_prev = ((2 * ell - 1) * x * p - (ell + m - 1) * p_prev) / (ell - m), p
        yield p


def legendre(L: int, x):
    """Legendre polynomial P_L(x) = P_L^0(x), the last entry of the series."""
    return assoc_legendre(L, 0, x)


def assoc_legendre(L: int, m: int, x):
    """Associated Legendre P_L^m(x) for 0 <= m <= L, without the (-1)^m phase.

    Only zero/nonzero structure and determinant magnitudes are consumed
    downstream, so the Condon-Shortley phase is dropped.
    """
    if not (0 <= m <= L):
        raise DomainError(f"need 0 <= m <= L, got m={m}, L={L}")
    p = next(islice(legendre_series(L, x, m), L - m, None))
    return p if p.ndim else float(p)
