"""Reference values computed without spinportrait.

Every reference the benchmark checks an output against comes from this
module: rotations are matrix exponentials (``scipy.linalg.expm``) of angular
momentum matrices built here, the orthonormal projection polynomials come from
a reorthogonalized Stieltjes (Lanczos) recurrence rather than the library's
monic recurrence, and Legendre values come from ``numpy.polynomial``.

Conventions follow the library's documented ones: the basis is ordered by
descending projection, ``R(theta, phi) = exp(-i theta (-sin phi Jx + cos phi
Jy))``, probability vectors are rotation-major with descending m inside each
block, and Hermitian coordinates are isometric (diagonal, then sqrt(2) Re and
sqrt(2) Im of the strict upper triangle).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import expm

EPS = np.finfo(float).eps
INFEASIBLE = -1e18  # the library's documented sentinel for an infeasible set
GRAM_DET_FLOOR = 1e-12  # the library's documented shell-determinant floor
AW_RTOL = 1e-10  # the library's documented rank threshold for the aw grid


def spin_matrices(two_j: int):
    """(Jx, Jy, Jz) for spin two_j/2, descending-m basis."""
    m = np.arange(two_j, -two_j - 1, -2) / 2.0
    j = two_j / 2.0
    # <m+1| J+ |m> sits one row above the diagonal in descending order
    ladder = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.diag(ladder, k=1).astype(complex)
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(m).astype(complex)


def rotations(two_j: int, thetas, phis) -> np.ndarray:
    """Stack of rotations mapping z onto n(theta, phi), shape (N, d, d)."""
    jx, jy, _ = spin_matrices(two_j)
    return np.array(
        [
            expm(-1j * t * (-math.sin(p) * jx + math.cos(p) * jy))
            for t, p in zip(thetas, phis)
        ]
    )


def tomogram_columns(rho: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """w(m, frame_k) = <m| U_k^dag rho U_k |m>, shape (N, d)."""
    return np.einsum("kai,ab,kbi->ki", frames.conj(), rho, frames).real


def hermitian_coords(a: np.ndarray) -> np.ndarray:
    d = a.shape[-1]
    iu = np.triu_indices(d, k=1)
    return np.concatenate(
        [
            np.diagonal(a, axis1=-2, axis2=-1).real,
            math.sqrt(2.0) * a[..., iu[0], iu[1]].real,
            math.sqrt(2.0) * a[..., iu[0], iu[1]].imag,
        ],
        axis=-1,
    )


def forward_matrix(frames: np.ndarray, weights=None) -> np.ndarray:
    """Rows p_k * coords(|u_k m><u_k m|), rotation-major.

    ``frames`` has shape (N, d, c): only the first c columns (projections) of
    each frame are measured.
    """
    n, d, c = frames.shape
    if weights is None:
        weights = np.full(n, 1.0 / n)
    cols = np.swapaxes(frames, 1, 2)  # cols[k, i] = u_k |m_i>
    projectors = np.einsum("kia,kib->kiab", cols, cols.conj())
    rows = hermitian_coords(projectors.reshape(n * c, d, d))
    return rows * np.repeat(weights, c)[:, None]


def singular_value_cond(a: np.ndarray) -> float:
    s = np.linalg.svd(a, compute_uv=False)
    return math.inf if s.min() == 0.0 else float(s.max() / s.min())


def coeff_table(two_j: int) -> np.ndarray:
    """Orthonormal polynomials of the projection, f[L][m_index], f_L(+j) > 0.

    Stieltjes recurrence with full reorthogonalization on the descending grid.
    """
    d = two_j + 1
    x = np.arange(two_j, -two_j - 1, -2) / 2.0
    table = np.zeros((d, d))
    table[0] = 1.0 / math.sqrt(d)
    for L in range(1, d):
        q = x * table[L - 1]
        for _ in range(2):
            q -= table[:L].T @ (table[:L] @ q)
        q /= np.linalg.norm(q)
        table[L] = q if q[0] > 0 else -q
    return table


def s_operators(two_j: int, frames: np.ndarray) -> np.ndarray:
    """S_L(u_k) = u_k f_L(Jz) u_k^dag, shape (N, 2j+1, d, d)."""
    table = coeff_table(two_j)
    return np.einsum("kab,Lb,kcb->kLac", frames, table, frames.conj())


def legendre_gram(L: int, vectors: np.ndarray) -> np.ndarray:
    """P_L(n_i . n_k) over the first 2L+1 unit vectors."""
    v = vectors[: 2 * L + 1]
    coeffs = np.zeros(L + 1)
    coeffs[L] = 1.0
    return npleg.legval(np.clip(v @ v.T, -1.0, 1.0), coeffs)


def log_det_with_tol(m: np.ndarray):
    """(sign, log|det|, first-order rounding bound on log|det|).

    Entries carry relative rounding of a few ulps, so log|det| is uncertain by
    about n * cond(m) * eps; the bound keeps a 100x margin on that.
    """
    sign, logdet = np.linalg.slogdet(m)
    vals = np.abs(np.linalg.eigvalsh((m + m.T) / 2.0))
    cond = math.inf if vals.min() == 0.0 else vals.max() / vals.min()
    return float(sign), float(logdet), 100.0 * m.shape[0] * cond * EPS


def shell_logdets(two_j: int, vectors: np.ndarray):
    """Per-shell (sign, log|det|, tol) for L = 1..2j."""
    return [log_det_with_tol(legendre_gram(L, vectors)) for L in range(1, two_j + 1)]


def below_det_floor(two_j: int, vectors: np.ndarray) -> bool:
    """True when a shell determinant is under the library's absolute floor."""
    return any(
        s * math.exp(ld) < GRAM_DET_FLOOR for s, ld, _ in shell_logdets(two_j, vectors)
    )


def sun_gram(two_j: int, frames: np.ndarray) -> np.ndarray:
    """Gram matrix Tr(S_L(u_k) S_L'(u_k')) for L, L' >= 1, frame-major."""
    ops = s_operators(two_j, frames)[:, 1:]
    flat = ops.reshape(-1, two_j + 1, two_j + 1)
    return np.einsum("Aij,Bji->AB", flat, flat).real


def mu_bound(gamma: float) -> float:
    """(1 + r) / (1 - r) with r = sqrt(1 - gamma), cancellation-free."""
    root = math.sqrt(max(1.0 - gamma, 0.0))
    return (1.0 + root) ** 2 / gamma if gamma > 0.0 else math.inf


def quantizers(two_j: int, vectors: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Nested-shell dual operators in probability-vector layout, (N d, d, d).

    D(m, k) = N sum_{L : k <= 2L} f_L(m) sum_k' [M(L)^-1]_kk' S_L(n_k').
    """
    d = two_j + 1
    n = frames.shape[0]
    table = coeff_table(two_j)
    ops = s_operators(two_j, frames)
    out = np.zeros((n, d, d, d), dtype=complex)
    for L in range(d):
        size = 2 * L + 1
        minv = np.eye(1) if L == 0 else np.linalg.inv(legendre_gram(L, vectors))
        duals = np.einsum("kK,Kab->kab", minv, ops[:size, L])
        out[:size] += n * table[L][None, :, None, None] * duals[:, None]
    return out.reshape(n * d, d, d)


def inverse_rounding_scale(two_j: int, vectors: np.ndarray, frames: np.ndarray) -> float:
    """eps * max_L cond(M_L) * max_I ||D_I||_2.

    First-order size of the rounding error in any operator assembled from the
    nested-shell quantizers, per unit of total |coefficient|.
    """
    kappa = max(np.linalg.cond(legendre_gram(L, vectors)) for L in range(1, two_j + 1))
    stack = quantizers(two_j, vectors, frames)
    return float(EPS * kappa * np.linalg.norm(stack, ord=2, axis=(1, 2)).max())


def symbol(op: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """(N)^-1 Tr(op U(m, n_k)) in rotation-major layout (complex)."""
    n = frames.shape[0]
    return (np.einsum("kai,ab,kbi->ki", frames.conj(), op, frames) / n).ravel()


def candidate_min_eigs(points: np.ndarray, stack: np.ndarray, chunk: int = 4096):
    """(smallest eigenvalue, trace) of the Hermitian part of sum_I p_I D_I."""
    mins, traces = [], []
    for start in range(0, points.shape[0], chunk):
        c = np.einsum("nI,Iab->nab", points[start : start + chunk], stack)
        c = (c + np.conj(np.swapaxes(c, 1, 2))) / 2.0
        mins.append(np.linalg.eigvalsh(c)[:, 0])
        traces.append(np.einsum("naa->n", c).real)
    return np.concatenate(mins), np.concatenate(traces)
