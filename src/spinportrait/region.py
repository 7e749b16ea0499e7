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
Every verdict takes a qubit candidate [[a, b], [conj(b), c]]'s smallest
eigenvalue from the closed form (a + c)/2 - hypot((a - c)/2, |b|).
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


def _candidates(points: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Candidate operators sum_I p_I Q_I of a batch of rows, shape (m, d, d).

    The points are real and the quantizers exactly Hermitian, so every
    candidate comes from a real product against the quantizers viewed as
    (re, im) pairs, and is exactly Hermitian.  Each row is its own
    vector-matrix product: a row's candidate does not depend on the batch it
    arrives in, so the scalar and batched verdicts agree bit for bit.
    """
    stack = quantizer_stack(ds)
    n, d, _ = stack.shape
    points = _checked_rows(points, n)
    pairs = stack.reshape(n, d * d).view(float)
    return np.matmul(points[:, None, :], pairs).view(complex).reshape(-1, d, d)


def _min_eigenvalues(candidates: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a (m, d, d) stack.

    A 2x2 [[a, b], [conj(b), c]] takes the closed form
    (a + c)/2 - hypot((a - c)/2, |b|), within 4 eps max(|a|, |c|, |b|) of the
    exact value.  Larger candidates go to LAPACK: the trigonometric 3x3 form
    loses about sqrt(eps) when the two smallest eigenvalues coincide.
    """
    if candidates.shape[-1] == 2:
        a = candidates[:, 0, 0].real
        c = candidates[:, 1, 1].real
        return (a + c) / 2.0 - np.hypot((a - c) / 2.0, np.abs(candidates[:, 0, 1]))
    return np.linalg.eigvalsh(candidates)[:, 0]


def _verdicts(points: np.ndarray, ds: DirectionSet, tol: float):
    """Trace-and-spectrum flags and smallest eigenvalues of a batch of rows."""
    candidates = _candidates(points, ds)
    min_eigs = _min_eigenvalues(candidates)
    traces = sum(candidates[:, i, i].real for i in range(candidates.shape[-1]))
    return trace_ok(traces, tol) & (min_eigs >= -tol), min_eigs


def _values(p) -> np.ndarray:
    return p.values if isinstance(p, ProbVector) else np.asarray(p, dtype=float)


def candidate_operator(p, ds: DirectionSet) -> np.ndarray:
    """Hermitian candidate assembled from any layout-ordered simplex point."""
    return _candidates(_values(p)[None], ds)[0]


def is_quantum(p, ds: DirectionSet, tol: float = DEFAULT_TOL) -> RegionVerdict:
    """Eigenvalue test of the candidate operator.

    The verdict is quantum iff the smallest eigenvalue is >= -tol and the
    candidate has unit trace (within a matching tolerance).  It is bitwise
    the verdict :func:`classify_points` gives the same point, before the
    simplex test; a non-finite coordinate raises DomainError.
    """
    flags, min_eigs = _verdicts(_values(p)[None], ds, tol)
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
    return qubit_ball_statistic(p, ds) <= 1.0 / 144.0 + tol


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


def _slice_points(ds: DirectionSet, spec: SliceSpec, free_idx, grid) -> np.ndarray:
    """Every simplex point of a slice at once, one row per grid point."""
    n_u = ds.n_dirs
    d = ds.spin.dim
    points = np.zeros((grid.shape[0], n_u * d))
    for i, entry in enumerate(spec.entries):
        if entry.kind == "const":
            points[:, i] = entry.value
    points[:, free_idx] = grid
    blocks = points.reshape(-1, n_u, d)
    ones = np.ones(d)
    for i, entry in enumerate(spec.entries):
        if entry.kind == "balance":
            # the balance column is still zero, so the block sum is the others' sum
            block, slot = divmod(i, d)
            blocks[:, block, slot] = 1.0 / n_u - blocks[:, block] @ ones
    return points


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
    simplex (any negative coordinate) are classified as not quantum.
    """
    if not is_integer(resolution):
        raise ConfigError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ConfigError("resolution must be at least 2")
    free_idx = _slice_layout(spin, ds, spec)
    axes = [
        np.linspace(spec.entries[i].lo, spec.entries[i].hi, resolution)
        for i in free_idx
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1)
    points = _slice_points(ds, spec, free_idx, flat)
    flags, min_eigs = classify_points(points, ds, tol)
    return np.column_stack([flat, flags.astype(float), min_eigs])


def classify_points(points: np.ndarray, ds: DirectionSet, tol: float = DEFAULT_TOL):
    """Vectorized verdicts for a batch of layout-ordered simplex points.

    Returns (is_quantum bool array, min eigenvalue array); points leaving the
    simplex or breaking the candidate trace are never quantum, and on every
    row the rest of the verdict and the eigenvalue are bitwise those of the
    scalar :func:`is_quantum`.  A non-finite coordinate raises DomainError.
    """
    points = np.asarray(points, dtype=float)
    flags, min_eigs = _verdicts(points, ds, tol)
    return flags & (points >= -tol).all(axis=1), min_eigs


def _distinct_text(values: np.ndarray, fmt) -> list:
    """``fmt`` of each value, called once per distinct bit pattern (-0.0 apart from 0.0)."""
    values = np.ascontiguousarray(values)
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([fmt(x) for x in bits.view(values.dtype).tolist()], dtype=object)
    return text[where].tolist()


def write_region_csv(rows: np.ndarray, fh):
    """CSV dump of :func:`sample_region` rows with 17-digit floats.

    Columns coord1[,coord2[,coord3]],is_quantum,min_eig: every column but the
    last two is a coordinate.  A grid axis holds few distinct values, so the
    coordinate and flag columns format each distinct value once and index the
    strings.
    """
    n_free = rows.shape[1] - 2
    header = [f"coord{i + 1}" for i in range(n_free)] + ["is_quantum", "min_eig"]
    fh.write(",".join(header) + "\n")
    columns = [_distinct_text(rows[:, i], repr) for i in range(n_free)]
    columns.append(_distinct_text(rows[:, n_free].astype(np.int64), str))
    columns.append([f"{e!r}\n" for e in rows[:, n_free + 1].tolist()])
    fh.writelines(map(",".join, zip(*columns)))
