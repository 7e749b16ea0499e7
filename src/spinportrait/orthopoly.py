"""Orthonormal polynomial tables over spin projections and the operator basis.

The table f[L][m] (L = 0..2j, m descending) collects orthonormal polynomials
of the discrete projection variable with unit weight,

    sum_m f_L(m) f_L'(m) = delta_LL',

built from the three-term recurrence of discrete Chebyshev polynomials on the
grid {0, ..., 2j}.  Rows are normalized to unit Euclidean norm with the sign
fixed so f_L(+j) > 0, which reproduces the closed forms

    f_0(m) = 1/sqrt(2j+1),    f_1(m) = sqrt(3) m / sqrt(j(j+1)(2j+1)).

The operator basis S_L(frame) applies the same polynomial to the rotated
projection operator; overlaps of two frames obey
Tr(S_L(n) S_L'(n')) = delta_LL' * P_L(n . n') with P_L the Legendre polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError
from .spin import Frame, Spin, frame_matrices

# Largest two_j whose table is orthonormal to 1e-10 (max |f f^T - I|), and so
# is every smaller one.  The monic recurrence loses digits as the spin grows:
# 3.8e-11 at two_j=24, 2.0e-10 at 25, 4.4e-6 at 40.
MAX_TWO_J = 24


def coeff_table(spin: Spin) -> np.ndarray:
    """Orthonormal coefficient table, shape (2j+1, 2j+1), f[L][m_index].

    Row L is the degree-L discrete Chebyshev polynomial evaluated on the
    descending projections m = j, j-1, ..., -j and normalized to unit norm.
    Spins above ``MAX_TWO_J`` raise DomainError.
    """
    if spin.two_j > MAX_TWO_J:
        raise DomainError(
            f"two_j={spin.two_j} above {MAX_TWO_J}, the largest spin whose "
            "coefficient table is orthonormal to 1e-10"
        )
    n = spin.dim
    x = np.arange(n, dtype=float)
    alpha = (n - 1) / 2.0
    polys = [np.ones(n)]
    if n > 1:
        polys.append(x - alpha)
    for k in range(1, n - 1):
        beta_k = k * k * (n * n - k * k) / (4.0 * (4 * k * k - 1))
        polys.append((x - alpha) * polys[k] - beta_k * polys[k - 1])
    table = np.empty((n, n))
    for L, p in enumerate(polys):
        row = p / np.linalg.norm(p)
        # x = 2j corresponds to m = +j; flip to descending-m ordering
        row = row[::-1]
        if row[0] < 0:
            row = -row
        table[L] = row
    return table


@lru_cache(maxsize=16)
def _jacobi_table(spin: Spin) -> np.ndarray:
    """:func:`coeff_table` to machine precision at any spin (read-only).

    Column i of the eigenvectors of the recurrence's Jacobi matrix (off
    diagonal sqrt(beta_k); the constant alpha only shifts the eigenvalues
    x_i, which lie one apart) holds f_L(x_i), L = 0..2j, with no lost digits.
    """
    n = spin.dim
    k = np.arange(1, n)
    off = np.sqrt(k * k * (n * n - k * k) / (4.0 * (4 * k * k - 1)))
    _, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    vecs = vecs[:, ::-1] * np.sign(vecs[0, ::-1])  # descending m, f_0 > 0
    vecs *= np.sign(vecs[:, :1])  # f_L(+j) > 0
    vecs.flags.writeable = False
    return vecs


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
    return s_operator_stacks(spin, [frame])[0]


def s_operator_stacks(spin: Spin, frames: Sequence[Frame]) -> np.ndarray:
    """S_L(frame_k) for every frame and L = 0..2j, shape (N, 2j+1, d, d)."""
    v = frame_matrices(spin, frames)[:, None]
    table = coeff_table(spin)[None, :, None, :]
    return (v * table) @ np.swapaxes(v, -1, -2).conj()


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
