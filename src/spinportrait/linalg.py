"""Small linear-algebra helpers shared by the reconstruction schemes.

Every map reads a (d, d) matrix in one isometric coordinate layout of d*d
reals: the d diagonal entries, then sqrt(2) Re and sqrt(2) Im of the strict
upper triangle (row-major).  For Hermitian A and B the dot product of their
coordinates is Tr(A B), so stacked coordinate rows turn probabilities
Tr(rho U) into a real matrix-vector product.  Only :func:`_coord_layout`,
once per dimension, computes the layout's indices.
"""

from __future__ import annotations

import math
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .errors import DomainError

SQRT2 = math.sqrt(2.0)

# The tolerance table: each tolerance that several modules apply, and each CLI
# threshold, written once (messages print them).  The relative rank rules, each
# a fraction of the largest singular value or eigenvalue below which a map
# counts as singular:
LSQ_RTOL = 1e-8  # the least-squares inverse of the su2 and sun forward maps
AW_RTOL = 1e-10  # the highest-projection grid matrix
BLOCK_RTOL = 1e-12  # each nested shell Gram block M(L) behind the su2 quantizers
# Absolute tolerances:
INPUT_TOL = 1e-12  # input rounding: U^dag U - I, rho - rho^dag, theta, traces and sums
PRIOR_TOL = 1e-8  # block sums of a probability vector against its priors
TRACE_TOL = 1e-9  # unit trace of the region's assembled candidates
EIG_TOL = 1e-8  # the most negative eigenvalue of a state: CLI invert's output and every state file


def memo(fn):
    """Memoize ``fn`` in an ``lru_cache`` of 16 entries whose arrays are read-only.

    The one cache rule of the package: on a miss every array in the result,
    also inside (nested) tuples and lists, is marked read-only, so entries are
    safe to share; a hit is ``lru_cache``'s own lookup, and a raised exception
    is not cached.  ``fn`` must return arrays it made, never a caller's.
    """

    @lru_cache(maxsize=16)
    @wraps(fn)
    def cached(*args, **kwargs):
        return _frozen(fn(*args, **kwargs))

    return cached


def _frozen(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _frozen(item)
    return value


def is_integer(value) -> bool:
    """True for an ``int`` or numpy integer that is not a ``bool``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _Layout(NamedTuple):
    """One dimension's coordinate layout (module docstring), every array read-only."""

    triangle: tuple  # row and column indices of the strict upper triangle, row-major
    gather: np.ndarray  # (2, d*d, 2) maps and weights of operator_coords
    weights: np.ndarray
    index: np.ndarray  # (d*d,) position of entry (r, c) in vec_to_hermitian's packed row


@memo
def _coord_layout(dim: int) -> _Layout:
    """The layout of dimension ``dim``, built once.

    :func:`operator_coords` reads z = sum over t of weights[t] * f[gather[t]],
    f the flat (re, im) pairs of the matrix: weight 1/2 on the diagonal rows
    and sqrt(2)/2 on the others, negated in the second term of the rows of
    imaginary parts, whose entries are (Im a_rc - Im a_cr, Re a_cr - Re a_rc).
    """
    triangle = rows, cols = np.triu_indices(dim, k=1)
    n_off = rows.size
    re, im = slice(dim, dim + n_off), slice(dim + n_off, None)
    diag = 2 * np.arange(dim) * (dim + 1)
    upper, lower = 2 * (rows * dim + cols), 2 * (cols * dim + rows)  # the real part of a_rc, a_cr
    gather = np.empty((2, dim * dim, 2), dtype=np.intp)
    gather[:, :dim] = diag[:, None] + (0, 1)
    gather[0, re], gather[1, re] = upper[:, None] + (0, 1), lower[:, None] + (0, 1)
    gather[0, im], gather[1, im] = np.stack([upper + 1, lower], -1), np.stack([lower + 1, upper], -1)
    weights = np.full((2, dim * dim, 2), SQRT2 / 2.0)
    weights[:, :dim] = 0.5
    weights[1, im] *= -1.0
    index = np.empty((dim, dim), dtype=np.intp)
    index[range(dim), range(dim)] = np.arange(dim)
    index[rows, cols], index[cols, rows] = np.arange(dim, dim * dim).reshape(2, n_off)
    return _Layout(triangle, gather, weights, index.ravel())


def hermitian_to_vec(a: np.ndarray) -> np.ndarray:
    """Coordinates (d*d,) of a square matrix's Hermitian part (a + a^dag)/2.

    Column 0 of :func:`operator_coords`, so a Hermitian matrix gives its own
    coordinates.  A non-square or non-2-D input raises DomainError.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    return np.ascontiguousarray(operator_coords(a)[:, 0])


def projector_coords(kets) -> np.ndarray:
    """Coordinates of the projectors |v><v| for a stack of kets.

    ``kets`` has shape (..., d); the result has shape (..., d*d) with row
    ``hermitian_to_vec(outer(v, v.conj()))`` for every ket v.  This is the one
    builder of forward-map rows: every frame kind supplies its measured kets
    and the rows follow from here.
    """
    kets = np.ascontiguousarray(kets, dtype=complex)  # fast gathers below
    d = kets.shape[-1]
    rows, cols = _coord_layout(d).triangle
    n_off = rows.size
    out = np.empty(kets.shape[:-1] + (d * d,))
    upper = kets[..., rows] * kets[..., cols].conj()
    np.add(kets.real * kets.real, kets.imag * kets.imag, out=out[..., :d])
    np.multiply(SQRT2, upper.real, out=out[..., d : d + n_off])
    np.multiply(SQRT2, upper.imag, out=out[..., d + n_off :])
    return out


def operator_coords(a) -> np.ndarray:
    """Real coordinates z, shape (d*d, 2), of any complex (d, d) matrix ``a``.

    Column 0 holds the coordinates of the Hermitian part (a + a^dag)/2 and
    column 1 those of (a - a^dag)/2i, so for every Hermitian U with
    coordinates u, Tr(a U) = u . (z[:, 0] + i z[:, 1]): forward rows times z
    are the traces' real and imaginary parts, (rows @ z).view(complex) the
    traces.  One gather from ``a.view(float)`` reads every entry.
    """
    layout = _coord_layout(np.shape(a)[-1])
    both = np.ascontiguousarray(a, dtype=complex).reshape(-1).view(float).take(layout.gather)
    both *= layout.weights
    return both[0] + both[1]


def vec_to_hermitian(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_vec`, over the last axis of a stack (..., d*d).

    The diagonal, the upper triangle (a + ib) / sqrt(2) and its conjugate are
    written into one packed row, which one complex gather (``take``, so the
    result is C-contiguous whatever the layout of ``v``) through the layout's
    index turns into the matrix.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (dim * dim,):
        raise ValueError(f"coordinate vector shape {v.shape} does not end in {dim * dim}")
    n_off = dim * (dim - 1) // 2
    packed = np.empty(v.shape, dtype=complex)
    packed[..., :dim] = v[..., :dim]
    upper = packed[..., dim : dim + n_off]
    np.multiply(1j, v[..., dim + n_off :], out=upper)
    np.add(v[..., dim : dim + n_off], upper, out=upper)
    np.divide(upper, SQRT2, out=upper)
    np.conjugate(upper, out=packed[..., dim + n_off :])
    return packed.take(_coord_layout(dim).index, axis=-1).reshape(v.shape[:-1] + (dim, dim))


def validate_weights(weights, n: int) -> np.ndarray:
    """Prior weights as a float array: n >= 1 nonnegative entries summing to one.

    ``None`` stands for the equal priors 1/n.  Both tests are written to fail
    on NaN, so NaN and infinite weights raise; so does an empty frame sequence.
    """
    if n < 1:
        raise DomainError(f"expected at least one frame, got {n}")
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise DomainError(f"expected {n} weights, got shape {w.shape}")
    if not w.min(initial=0.0) >= 0.0:
        raise DomainError(f"negative or NaN prior weight {w.min()}")
    if not abs(w.sum() - 1.0) <= INPUT_TOL:
        raise DomainError(f"prior weights sum to {w.sum()}, not 1")
    return w


def numerical_rank(a: np.ndarray, rtol: float = LSQ_RTOL) -> int:
    """Rank by singular-value threshold rtol * sigma_max."""
    return _rank(np.linalg.svd(np.asarray(a), compute_uv=False), rtol)


def svd_inverse(a: np.ndarray, rtol: float):
    """Singular values of ``a`` and, for full column rank, its pseudo-inverse.

    Returns ``(s, inverse)`` from one SVD: ``s`` descending, and ``inverse``
    None when the columns are dependent at ``rtol`` (rank counted as in
    :func:`numerical_rank`).
    """
    u, s, vt = np.linalg.svd(np.asarray(a), full_matrices=False)
    if _rank(s, rtol) < vt.shape[1]:
        return s, None
    return s, (vt.conj().T / s) @ u.conj().T


def _rank(s: np.ndarray, rtol: float) -> int:
    """Count of the descending singular values ``s`` above rtol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def condition_number(a: np.ndarray) -> float:
    """Ratio of extreme singular values (inf for a rank-deficient matrix)."""
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    smin = float(s.min())
    if smin == 0.0:
        return math.inf
    return float(s.max()) / smin
