"""The quantum region of the probability simplex.

A point of the simplex is a quantum state exactly when the candidate operator
assembled by the inverse map is a valid density matrix.  The candidate is
Hermitian by construction; besides positive semidefiniteness the point must
reproduce unit trace, which pins the first rotation block's sum to
1/(4j+1) (an arbitrary simplex point need not be any state's symbol).

For spin 1/2 with an orthonormal triad the region is a ball: writing
q = sum_k ((P(+1/2, n_k) - 1/6) / 2)^2, the candidate's smallest eigenvalue is
1/2 - 6 sqrt(q), so the state is quantum iff q <= 1/144, with pure states on
the boundary.  (q equals (|r|/12)^2 for a state with orientation vector r.)
The three closed-form residuals for an arbitrary feasible triad are the
leading minors rho_11, det(rho), rho_22 of the candidate, which together are
equivalent to positive semidefiniteness for 2x2 Hermitian matrices.
Candidates of given points come from one GEMM of the rows against the
quantizer stack read as real numbers, each quantizer a row of its entries'
real and imaginary parts.  A slice scan never assembles its points: a slice
point is affine in the free coordinates, so is its candidate, and each grid
point's candidate is one partial sum per run of the fastest grid axis plus
that axis' term.
Every verdict takes a qubit candidate [[a, b], [conj(b), c]]'s smallest
eigenvalue from the closed form (a + c)/2 - hypot((a - c)/2, |b|).  Larger
candidates go through one numpy kernel that runs across the batch: a
Householder reduction to real tridiagonal form, then Laguerre's iteration,
which rises monotonically to the smallest root of a polynomial whose roots
are all real, from the Gershgorin lower bound (Parlett, The Symmetric
Eigenvalue Problem, SIAM 1998).  Every operation of the kernel acts on each
candidate alone, in chunks of a fixed size, so a candidate's smallest
eigenvalue is bitwise the same alone or in any batch.

One contract holds for :func:`is_quantum`, :func:`classify_points` and
:func:`sample_region`: a point's smallest eigenvalue agrees across entry
points and batches to 1e-12 of max(1, |min_eig|), and its flag is the same
wherever |min_eig + tol| > 1e-12.  The candidates are not bitwise the same:
a BLAS may round a product differently with its shape and thread count.
Only :func:`sample_region`'s rows are bitwise independent of its chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import TRACE_TOL, is_integer
from .portraits import ProbVector
from .spin import Spin
from .su2 import DirectionSet, dual_vectors, quantizer_stack

DEFAULT_TOL = 1e-10
_CSV_BLOCK = 1 << 16  # rows per block of write_region_csv


def _checked_tol(tol) -> float:
    """``tol`` itself; ConfigError unless it is a finite nonnegative real number.

    A NaN would fail every comparison and an infinite tolerance pass every
    point, off the simplex included.  Python and numpy floats and integers
    are taken, a bool is not (``True`` would be a tolerance of 1).
    """
    real = isinstance(tol, (float, np.floating)) or is_integer(tol)
    if not (real and np.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol


def trace_ok(trace, tol: float):
    """Unit-trace check shared by every verdict, scalar or batched; never tighter than TRACE_TOL."""
    return np.abs(trace - 1.0) <= max(tol, TRACE_TOL)


@dataclass(frozen=True)
class RegionVerdict:
    """PSD verdict for one simplex point.

    ``margin = min_eigenvalue + tol`` is nonnegative exactly for quantum
    points; points whose candidate operator fails the trace check are never
    quantum regardless of the spectrum.
    """

    is_quantum: bool
    min_eigenvalue: float
    margin: float


def _checked_rows(points, n: int) -> np.ndarray:
    """``points`` as a C-contiguous float array of rows of n layout-ordered coordinates.

    Any other shape, or a non-finite coordinate, raises DomainError.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != n:
        raise DomainError(
            f"expected rows of n_dirs*dim = {n} coordinates, got shape {points.shape}"
        )
    if not np.isfinite(points).all():
        raise DomainError("simplex points must have finite coordinates")
    return points


def _candidate_product(ds: DirectionSet) -> np.ndarray:
    """The quantizer stack read as a real (n, 2 d^2) matrix, columns (row, col, re/im); a view, no copy."""
    return quantizer_stack(ds).view(float).reshape(ds.n_dirs * ds.spin.dim, -1)


def _candidate_planes(points: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Candidates sum_I p_I Q_I of checked rows as (re/im, d, d, m) planes, from one GEMM."""
    d = ds.spin.dim
    return (_candidate_product(ds).T @ points.T).reshape(d, d, 2, -1).transpose(2, 0, 1, 3)


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_CHUNK = 3 << 12  # rows times dimension per chunk of candidates
# Laguerre converges linearly to a root of multiplicity m < d, by a factor
# 1 - d / (m + sqrt(m (d-1) (d-m))) per step: at worst 2/3 (d = 25, m = 15),
# about 91 steps from the Gershgorin bound down to eps
_MAX_LAGUERRE_STEPS = 128
_CONJUGATE = np.array([1.0, -1.0])[:, None, None]


def _fixed_sum(a: np.ndarray) -> np.ndarray:
    """Sum along the first axis in a fixed pairwise order, by elementwise adds only."""
    while len(a) > 1:
        half = len(a) // 2
        total = a[:half] + a[half : 2 * half]
        if len(a) % 2:
            total[0] += a[-1]
        a = total
    return a[0]


def _tridiagonal(h: np.ndarray):
    """Diagonal (d, m) and squared off-diagonal (d-1, m) of a Householder
    tridiagonalization of each Hermitian matrix in (re/im, d, d, m) planes.

    The planes are reduced in place, and every step is a real
    elementwise operation across the batch or a :func:`_fixed_sum`, so a
    row's bits do not depend on its batch (numpy's complex products and its
    reductions may round differently with an element's position).  Step k
    reflects column k below the diagonal onto its first entry; only that
    entry's modulus is kept, which is all the spectrum needs.  A column whose
    entries past the first square to less than the smallest normal number is
    taken as already reduced.
    """
    _, d, _, m = h.shape
    off2 = np.empty((d - 1, m))
    for k in range(d - 2):
        x = h[:, k + 1 :, k]
        sq = _fixed_sum(x * x)
        tail2 = _fixed_sum(sq[1:])
        norm2 = np.add(sq[0], tail2, out=off2[k])
        # H = I - tau v v^dagger with v = x + phase(x_0) |x| e_0, so that
        # |v|^2 = 2 |x| (|x| + |x_0|) and tau = 2 / |v|^2
        head = np.sqrt(sq[0])
        norm = np.sqrt(norm2)
        nonzero = head > 0.0
        v = x.copy()
        v[:, 0] += x[:, 0] * (norm / np.where(nonzero, head, 1.0))
        v[0, 0] += np.where(nonzero, 0.0, norm)
        tau = (tail2 >= _TINY) / np.maximum(norm * (norm + head), _TINY)
        # p = tau B v with B = B_0 + i B_1, from the running sums
        # s[c, e] = sum_j B_c[j, :] v_e[j] = (B_c^T v_e), where B_1^T = -B_1
        b = h[:, k + 1 :, k + 1 :]
        s = b[:, None, 0] * v[None, :, 0:1]
        for j in range(1, len(v[0])):
            s += b[:, None, j] * v[None, :, j : j + 1]
        p = (s[0] + _CONJUGATE * s[1, ::-1]) * tau
        # w = p - (tau/2)(v^dagger p) v; B -= v w^dagger + w v^dagger, whose real
        # part is C + C^T and imaginary part D - D^T, C_ij + i D_ij = v_i conj(w_j);
        # B stays exactly Hermitian
        w = p - 0.5 * tau * _fixed_sum((v * p).reshape(-1, m)) * v
        c = v[0][:, None] * w[0] + v[1][:, None] * w[1]
        b[0] -= c + c.transpose(1, 0, 2)
        c = v[1][:, None] * w[0] - v[0][:, None] * w[1]
        b[1] -= c - c.transpose(1, 0, 2)
    off2[d - 2] = _fixed_sum(h[:, d - 1, d - 2] ** 2)
    return h[0, range(d), range(d)], off2


def _smallest_tridiagonal(diag: np.ndarray, off2: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each real symmetric tridiagonal matrix, given by
    columns of its diagonal (d, m) and squared off-diagonal (d-1, m).

    Laguerre's iteration on det(T - x I), whose roots are all real, rises
    monotonically to the smallest root from below; it starts at the
    Gershgorin lower bound.  The determinant is the product of the LDL^T
    pivots q_i = a_i - x - e_{i-1}^2 / q_{i-1}, which are all positive
    exactly below the smallest root; the logarithmic derivatives G and H come
    from the pivots' first two derivatives.  Each row is scaled by the power
    of two at or above its Gershgorin magnitude bound, which is exact, and is
    frozen once a pivot is not positive (it keeps the point where that
    happened) or once its step falls to eps of that scale (it keeps the
    stepped point).  A row still moving after the step cap raises
    RuntimeError rather than return an unconverged value.
    """
    d, m = diag.shape
    off = np.sqrt(off2)
    radius = np.zeros((d, m))
    radius[:-1] = off
    radius[1:] += off
    scale = np.ldexp(1.0, np.frexp((np.abs(diag) + radius).max(axis=0))[1])
    a = diag / scale
    e2 = off2 / (scale * scale)
    x = (a - radius / scale).min(axis=0)
    out = np.empty(m)
    rows = np.arange(m)
    for _ in range(_MAX_LAGUERRE_STEPS):
        # r = q'/q and s = q''/q of each pivot; G = sum r, H = sum (r^2 - s).
        # A pivot that is not positive becomes NaN, which quietly carries
        # through to the step, so the row stops where that happened.
        shifted = a - x
        q = np.where(shifted[0] > 0.0, shifted[0], np.nan)
        r = -1.0 / q
        rr = r * r
        s = 0.0
        g, h2 = r, rr
        for i in range(1, d):
            t = e2[i - 1] / q
            q = shifted[i] - t
            q = np.where(q > 0.0, q, np.nan)
            s = t * (s - 2.0 * rr) / q
            r = (t * r - 1.0) / q
            rr = r * r
            g = g + r
            h2 = h2 + (rr - s)
        step = -d / (g - np.sqrt(np.maximum((d - 1) * (d * h2 - g * g), 0.0)))
        stepped = x + step
        done = ~(step > _EPS)
        if done.any():
            out[rows[done]] = np.where(np.isnan(step), x, stepped)[done]
            keep = ~done
            rows = rows[keep]
            if rows.size == 0:
                return out * scale
            stepped = stepped[keep]
            a = a[:, keep]
            e2 = e2[:, keep]
        x = stepped
    raise RuntimeError(
        f"smallest eigenvalue of {rows.size} candidates did not converge "
        f"in {_MAX_LAGUERRE_STEPS} Laguerre steps"
    )


def _planar_min_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix given as (re/im, d, d, m) planes.

    A 1x1 matrix is its own smallest eigenvalue.  A 2x2
    [[a, b], [conj(b), c]] takes the closed form
    (a + c)/2 - hypot((a - c)/2, |b|), within 4 eps max(|a|, |c|, |b|) of the
    exact value (the trigonometric 3x3 form, by contrast, loses about
    sqrt(eps) when the two smallest eigenvalues coincide).  Larger matrices
    are reduced in place to real tridiagonal form by Householder reflections
    and take their smallest eigenvalue from Laguerre's iteration.  Every step
    acts on each matrix alone, so its value is bitwise the same in any batch.
    """
    if h.shape[1] == 1:
        return h[0, 0, 0]
    if h.shape[1] == 2:
        a, c = h[0, 0, 0], h[0, 1, 1]
        return (a + c) / 2.0 - np.hypot((a - c) / 2.0, np.abs(h[0, 0, 1] + 1j * h[1, 0, 1]))
    return _smallest_tridiagonal(*_tridiagonal(h))


def _min_eigenvalues(candidates: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each exactly Hermitian matrix in a (m, d, d) stack.

    The stack goes through :func:`_planar_min_eigenvalues` in chunks of
    ``_CHUNK // d`` matrices, each copied, as the kernel reduces it in place.
    """
    m, d, _ = candidates.shape
    planes = np.ascontiguousarray(candidates).view(float).reshape(m, d, d, 2).transpose(3, 1, 2, 0)
    chunk = _CHUNK // d
    out = np.empty(m)
    for i in range(0, m, chunk):
        out[i : i + chunk] = _planar_min_eigenvalues(planes[..., i : i + chunk].copy())
    return out


def _verdicts(chunks, tol: float, flags: np.ndarray, min_eigs: np.ndarray):
    """Write the verdicts of ``(rows, planes, inside)`` chunks into ``flags`` and ``min_eigs``.

    ``rows`` is the chunk's slice of the outputs and ``planes`` its
    candidates as (re/im, d, d, m) planes.  A row is flagged when its
    candidate passes the trace check, its smallest eigenvalue is >= -tol and
    ``inside`` (the chunk's simplex test, or True) holds.
    """
    for rows, h, inside in chunks:
        trace = sum(h[0, j, j] for j in range(h.shape[1]))  # the kernel then overwrites h
        min_eig = _planar_min_eigenvalues(h)
        min_eigs[rows] = min_eig
        flags[rows] = trace_ok(trace, tol) & (min_eig >= -tol) & inside


def _point_verdicts(points, ds: DirectionSet, tol: float, simplex: bool):
    """Flags and smallest eigenvalues of a batch of layout-ordered rows.

    The rows go through in the kernel's chunks, so only one chunk's
    candidates are held at a time.  With ``simplex`` a row with a coordinate
    below -tol is not flagged.
    """
    tol = _checked_tol(tol)
    points = _checked_rows(points, ds.n_dirs * ds.spin.dim)
    m = len(points)
    chunk = _CHUNK // ds.spin.dim
    chunks = (
        (
            slice(i, i + chunk),
            _candidate_planes(points[i : i + chunk], ds),
            (points[i : i + chunk] >= -tol).all(axis=1) if simplex else True,
        )
        for i in range(0, m, chunk)
    )
    flags, min_eigs = np.empty(m, dtype=bool), np.empty(m)
    _verdicts(chunks, tol, flags, min_eigs)
    return flags, min_eigs


def _values(p) -> np.ndarray:
    return p.values if isinstance(p, ProbVector) else np.asarray(p, dtype=float)


def candidate_operator(p, ds: DirectionSet) -> np.ndarray:
    """Hermitian candidate assembled from any layout-ordered simplex point."""
    points = _checked_rows(_values(p)[None], ds.n_dirs * ds.spin.dim)
    h = _candidate_planes(points, ds)[..., 0]
    return h[0] + 1j * h[1]


def is_quantum(p, ds: DirectionSet, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Eigenvalue test of the candidate operator.

    The verdict is quantum iff the smallest eigenvalue is >= -tol and the
    candidate has unit trace (within a matching tolerance).  It is the
    verdict :func:`classify_points` gives the same point, before the simplex
    test, under the module's contract: the smallest eigenvalues agree to
    1e-12 of max(1, |min_eig|), the flags wherever |min_eig + tol| > 1e-12.
    A non-finite coordinate raises DomainError, and a ``tol`` that is NaN,
    infinite, negative, a bool or not a real number ConfigError.
    """
    flags, min_eigs = _point_verdicts(_values(p)[None], ds, tol, simplex=False)
    min_eig = float(min_eigs[0])
    return RegionVerdict(
        is_quantum=bool(flags[0]),
        min_eigenvalue=min_eig,
        margin=min_eig + tol,
    )


def _qubit_point(p, ds: DirectionSet) -> np.ndarray:
    """The 6 finite entries of a spin-1/2 point; DomainError for any other spin or point."""
    if ds.spin.two_j != 1:
        raise DomainError("this criterion is specific to spin 1/2")
    return _checked_rows(_values(p)[None], 6)[0]


def qubit_ball_statistic(p, ds: DirectionSet) -> float:
    """Squared ball radius q = sum_k ((P(+1/2, n_k) - 1/6) / 2)^2.

    Only valid for an orthonormal triad, where q = (|r|/12)^2 with r the
    state's orientation vector, so quantum points satisfy q <= 1/144.
    """
    values = _qubit_point(p, ds)
    vectors = ds.unit_vectors()
    gram_defect = np.abs(vectors @ vectors.T - np.eye(3)).max()
    if gram_defect > 1e-10:
        raise DomainError(
            f"triad is not orthonormal (Gram defect {gram_defect:.2e}); "
            "the ball criterion does not apply"
        )
    plus = values[0::2]
    return float(np.sum(((plus - 1.0 / 6.0) / 2.0) ** 2))


def qubit_ball_test(p, ds: DirectionSet, tol: float = DEFAULT_TOL) -> bool:
    """Ball membership q <= 1/144 + tol for an orthonormal triad."""
    return qubit_ball_statistic(p, ds) <= 1.0 / 144.0 + _checked_tol(tol)


def qubit_region_inequalities(p, ds: DirectionSet) -> np.ndarray:
    """Residuals (rho_11, det rho, rho_22) of the qubit candidate operator.

    Computed from the closed form of the inverse map: with S the first-block
    sum, Delta_k the block differences, and l_k the dual vectors,
    rho = (3/2) S I + 3 sum_k Delta_k (J . l_k).  All three residuals
    nonnegative is equivalent to the eigenvalue verdict for points with unit
    candidate trace.
    """
    values = _qubit_point(p, ds)
    duals = dual_vectors(ds)
    block_sum = values[0] + values[1]
    deltas = values[0::2] - values[1::2]
    v = deltas @ duals
    half_trace = 1.5 * block_sum
    rho11 = half_trace + 1.5 * v[2]
    rho22 = half_trace - 1.5 * v[2]
    det = half_trace**2 - 2.25 * float(v @ v)
    return np.array([rho11, det, rho22])


@dataclass(frozen=True)
class SliceEntry:
    """One coordinate of a simplex slice: fixed, scanned, or balancing."""

    kind: str  # "const" | "free" | "balance"
    value: float = 0.0
    lo: float = 0.0
    hi: float = 0.0

    @staticmethod
    def const(value: float) -> "SliceEntry":
        return SliceEntry("const", value=float(value))

    @staticmethod
    def free(lo: float, hi: float) -> "SliceEntry":
        return SliceEntry("free", lo=float(lo), hi=float(hi))

    @staticmethod
    def balance() -> "SliceEntry":
        return SliceEntry("balance")


@dataclass(frozen=True)
class SliceSpec:
    """Slice of the simplex with at most three scanned coordinates.

    ``balance`` entries absorb whatever their rotation block needs to reach
    the equal-weight block sum 1/N_u (at most one per block), which is how
    hyperplane cuts such as "every block keeps its total" are expressed.
    """

    entries: tuple

    def __init__(self, entries: Iterable[SliceEntry]):
        object.__setattr__(self, "entries", tuple(entries))


def _slice_layout(spin: Spin, ds: DirectionSet, spec: SliceSpec):
    n_total = ds.n_dirs * spin.dim
    if len(spec.entries) != n_total:
        raise ConfigError(
            f"slice needs {n_total} entries for this set, got {len(spec.entries)}"
        )
    free_idx = [i for i, e in enumerate(spec.entries) if e.kind == "free"]
    if not (1 <= len(free_idx) <= 3):
        raise ConfigError(
            f"slice must leave between 1 and 3 free coordinates, got {len(free_idx)}"
        )
    for block in range(ds.n_dirs):
        entries = spec.entries[block * spin.dim : (block + 1) * spin.dim]
        if sum(1 for e in entries if e.kind == "balance") > 1:
            raise ConfigError(f"block {block} has more than one balance entry")
    unknown = [e.kind for e in spec.entries if e.kind not in ("const", "free", "balance")]
    if unknown:
        raise ConfigError(f"unknown slice entry kinds: {unknown}")
    if not np.isfinite([(e.value, e.lo, e.hi) for e in spec.entries]).all():
        raise DomainError("slice entries must have finite values and bounds")
    return free_idx


def _slice_parametrization(ds: DirectionSet, spec: SliceSpec, free_idx):
    """A slice as ``p0 + x @ e`` over its free coordinates x.

    ``p0`` (n,) holds the constants and each balance entry's 1/N_u minus its
    block's constants; row i of ``e`` (f, n) is +1 at free coordinate i and
    -1 at the balance entry of its block, if there is one.
    """
    n_u, d = ds.n_dirs, ds.spin.dim
    p0 = np.array([entry.value if entry.kind == "const" else 0.0 for entry in spec.entries])
    p0 = p0.reshape(n_u, d)
    balance = np.array([entry.kind == "balance" for entry in spec.entries]).reshape(n_u, d)
    e = np.zeros((len(free_idx), n_u * d))
    e[range(len(free_idx)), free_idx] = 1.0
    e = e.reshape(-1, n_u, d)
    # a block holds at most one balance entry, and it is still zero
    balanced = balance.any(axis=1)
    p0[balance] = 1.0 / n_u - p0.sum(axis=1)[balanced]
    e[:, balance] = -e.sum(axis=2)[:, balanced]
    return p0.ravel(), e.reshape(len(free_idx), n_u * d)


def _slice_chunks(maps: np.ndarray, axes: np.ndarray, d: int, tol: float, out: np.ndarray):
    """``(rows, planes, inside)`` chunks of a grid scan of an affine map.

    Row 0 of ``maps`` is the map's value at the origin and row k + 1 its
    slope along grid axis k; its first 2 d^2 columns are the candidate's
    (row, col, re/im) entries, the rest the coordinates the simplex test reads.
    The grid is row-major over ``axes`` (f, r), so it is r^(f-1) runs of the
    fastest axis.  A chunk is whole runs, or a piece of one run when a run
    is longer than the kernel's chunk: the partial sum over the slower axes
    is taken once per run, and each entry is that sum plus the fastest
    axis' term, so its bits depend on its grid point alone.  ``inside`` is
    False where a tested coordinate is below -tol.  Each chunk's grid
    coordinates are written into the first f columns of ``out``.
    """
    f, r = axes.shape
    n_planes = 2 * d * d
    cap = _CHUNK // d
    width, runs = min(r, cap), min(max(1, cap // r), r ** (f - 1))
    base, slopes = maps[0][:, None], maps[1:, :, None]
    # the fastest axis' term for as many runs as a chunk holds, so that each
    # chunk takes one contiguous add (numpy's broadcast adds are slower)
    fast = np.tile(slopes[-1] * axes[-1], runs)
    for first in range(0, r ** (f - 1), runs):
        ids = np.arange(first, min(first + runs, r ** (f - 1)))
        slow = []
        for _ in range(f - 1):
            ids, idx = np.divmod(ids, r)
            slow.insert(0, idx)
        partial = base
        for k, idx in enumerate(slow):
            partial = partial + slopes[k] * axes[k, idx]
        for col in range(0, r, width):
            count = min(width, r - col)
            block = np.repeat(partial, count, axis=1)
            m = block.shape[1]
            np.add(block, fast[:, col : col + m], out=block)
            chunk = slice(first * r + col, first * r + col + m)
            coords = out[chunk, :f].reshape(-1, count, f)
            for k, idx in enumerate(slow):
                coords[..., k] = axes[k, idx, None]
            coords[..., f - 1] = axes[f - 1, col : col + count]
            inside = block[n_planes:].min(axis=0, initial=np.inf) >= -tol
            yield chunk, block[:n_planes].reshape(d, d, 2, m).transpose(2, 0, 1, 3), inside


def sample_region(
    spin: Spin,
    ds: DirectionSet,
    spec: SliceSpec,
    resolution: int,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Grid scan of a simplex slice.

    Returns rows [coord_1, ..., coord_f, is_quantum, min_eigenvalue] in
    row-major grid order over the free coordinates.  Points leaving the
    simplex (any coordinate below -tol) are classified as not quantum.  A
    ``tol`` that is NaN, infinite, negative, a bool or not a real number
    raises ConfigError, and a grid or balance value that is not finite
    DomainError.

    The candidate of a slice point p0 + x @ e is H0 + sum_i x_i H_i, with
    H = [p0; e] @ the quantizer stack read as reals: each chunk's candidates
    are built from the grid's product structure, one add per entry, and
    reduced where they land; only the free and balance coordinates are tested
    against the simplex (the constants once), so no row of the points is ever
    assembled.  Each row's candidate depends on its grid point alone.
    The rows share :func:`is_quantum`'s kernel, trace check and verdict
    rule under the module's contract: ``min_eigenvalue`` agrees with
    ``is_quantum`` on the assembled point to 1e-12 of max(1, |min_eig|), and
    the flag wherever |min_eig + tol| > 1e-12.  The rows are bitwise the same
    whatever the kernel's chunk size.
    """
    if not is_integer(resolution):
        raise ConfigError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ConfigError("resolution must be at least 2")
    free_idx = _slice_layout(spin, ds, spec)
    tol = _checked_tol(tol)
    axes = np.array([
        np.linspace(spec.entries[i].lo, spec.entries[i].hi, resolution)
        for i in free_idx
    ])
    p0, e = _slice_parametrization(ds, spec, free_idx)
    if not (np.isfinite(axes).all() and np.isfinite(p0).all()):
        raise DomainError("slice points must have finite coordinates")
    # a free coordinate is tested on its grid axis once; constants after the scan
    low = {i for i, lowest in zip(free_idx, axes.min(axis=1)) if lowest < -tol}
    tested = [i for i, entry in enumerate(spec.entries) if entry.kind == "balance" or i in low]
    affine = np.vstack([p0, e])
    maps = np.hstack([affine @ _candidate_product(ds), affine[:, tested]])
    f = len(free_idx)
    rows = np.empty((resolution**f, f + 2))
    chunks = _slice_chunks(maps, axes, spin.dim, tol, rows)
    _verdicts(chunks, tol, rows[:, f], rows[:, f + 1])
    if any(entry.value < -tol for entry in spec.entries if entry.kind == "const"):
        rows[:, f] = 0.0
    return rows


def classify_points(points: np.ndarray, ds: DirectionSet, tol: float = DEFAULT_TOL):
    """Vectorized verdicts for a batch of layout-ordered simplex points.

    Returns (is_quantum bool array, min eigenvalue array); points leaving the
    simplex or breaking the candidate trace are never quantum.  On every row
    the eigenvalue agrees with the scalar :func:`is_quantum`'s, in this or
    any other batch, to 1e-12 of max(1, |min_eig|), and the rest of the
    verdict is the same wherever |min_eig + tol| > 1e-12.  A non-finite
    coordinate raises DomainError, and a ``tol`` that is NaN, infinite,
    negative, a bool or not a real number ConfigError.
    """
    return _point_verdicts(points, ds, tol, simplex=True)


def _distinct_text(values: np.ndarray, fmt) -> list:
    """``fmt`` of each value, called once per distinct bit pattern (-0.0 apart from 0.0)."""
    values = np.ascontiguousarray(values)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt(x) for x in bits.view(values.dtype).tolist()], dtype=object)
    return text[where].tolist()


def write_region_csv(rows: np.ndarray, fh):
    """CSV dump of :func:`sample_region` rows with 17-digit floats.

    Columns coord1[,coord2[,coord3]],is_quantum,min_eig: every column but the
    last two is a coordinate.  Blocks of ``_CSV_BLOCK`` rows are formatted and
    written in turn, and a grid axis holds few distinct values, so in a block
    the coordinate and flag columns format each distinct value once.
    """
    n_free = rows.shape[1] - 2
    header = [f"coord{i + 1}" for i in range(n_free)] + ["is_quantum", "min_eig"]
    fh.write(",".join(header) + "\n")
    for block in np.split(rows, range(_CSV_BLOCK, len(rows), _CSV_BLOCK)):
        columns = [_distinct_text(block[:, i], repr) for i in range(n_free)]
        columns.append(_distinct_text(block[:, n_free].astype(np.int64), str))
        columns.append([f"{e!r}\n" for e in block[:, n_free + 1].tolist()])
        fh.writelines(map(",".join, zip(*columns)))
