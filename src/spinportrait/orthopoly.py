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
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError
from .linalg import projector_coords, vec_to_hermitian
from .spin import Frame, Spin, frame_matrices

# Largest two_j the test suite validates; the table itself is orthonormal to
# rounding at any spin.  Raising it waits for a memory bound on the per-set
# stacks, which grow as two_j^4 (ROADMAP item 5).
MAX_TWO_J = 24


@lru_cache(maxsize=16)
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
    vecs = vecs[:, ::-1] * np.sign(vecs[0, ::-1])  # descending m, f_0 > 0
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
    return vec_to_hermitian(s_operator_coords(spin, [frame])[0], spin.dim)


def s_operator_coords(spin: Spin, frames: Sequence[Frame]) -> np.ndarray:
    """Coordinates of S_L(frame_k) = sum_m f_L(m) U(m, frame_k), shape (N, 2j+1, d*d).

    The one builder of S_L: the isometric coordinates of the measured
    projectors combined by the coefficient table, so the dot product of two
    rows is Tr(S_L(frame) S_L'(frame')).
    """
    return coeff_table(spin) @ projector_coords(np.swapaxes(frame_matrices(spin, frames), 1, 2))


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
