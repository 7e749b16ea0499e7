"""Portraits of tomogram columns and the stacked joint probability vector.

A portrait coarse-grains one probability column over a partition of the
projections; stacking several portraits scaled by prior weights produces one
joint probability vector over (rotation, projection) pairs.  The layout is
rotation-major with projections descending inside each block:

    index(k, m) = k * (2j+1) + (j - m)          (k = 0..N_u-1).

Dividing each block by its sum recovers the per-frame tomogram columns, which
is also how a vector built with arbitrary priors is renormalized to the
equal-weight form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegeneratePriorError, DomainError, InvariantError
from .linalg import validate_weights
from .spin import Frame, Spin
from .tomography import tomogram_columns

VALUE_TOL = 1e-12
SUM_TOL = 1e-11


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of doubled projections covering the full range."""

    blocks: tuple

    def __init__(self, blocks: Sequence[Sequence[int]]):
        object.__setattr__(
            self, "blocks", tuple(tuple(int(m) for m in b) for b in blocks)
        )
        if any(len(b) == 0 for b in self.blocks):
            raise DomainError("partition contains an empty block")
        flat = [m for b in self.blocks for m in b]
        if len(flat) != len(set(flat)):
            raise DomainError("partition blocks overlap")

    def validate_for(self, spin: Spin):
        covered = {m for b in self.blocks for m in b}
        expected = set(spin.two_m_values())
        if covered != expected:
            raise DomainError(
                f"partition covers {sorted(covered)} but the projections are "
                f"{sorted(expected)}"
            )


def singleton_partition(spin: Spin) -> Partition:
    """The identity partition, one projection per block (descending)."""
    return Partition([(two_m,) for two_m in spin.two_m_values()])


def top_vs_rest_partition(spin: Spin) -> Partition:
    """Two blocks: the highest projection versus everything else."""
    rest = tuple(two_m for two_m in spin.two_m_values() if two_m != spin.two_j)
    return Partition([(spin.two_j,), rest])


def _layout_index(spin: Spin, n_rotations: int, k: int, two_m: int) -> int:
    """Position of (k, m) in the rotation-major layout, rejecting any k outside it."""
    if not (0 <= k < n_rotations):
        raise DomainError(f"rotation index {k} outside 0..{n_rotations - 1}")
    return k * spin.dim + spin.m_index(two_m)


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Joint probability vector over (rotation, projection) pairs."""

    spin: Spin
    n_rotations: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (self.n_rotations * self.spin.dim,):
            raise DomainError(
                f"expected {self.n_rotations * self.spin.dim} entries, "
                f"got shape {values.shape}"
            )
        if values.min(initial=0.0) < -VALUE_TOL:
            raise InvariantError(f"negative probability {values.min()}")
        if abs(values.sum() - 1.0) > SUM_TOL:
            raise InvariantError(f"probabilities sum to {values.sum()}, not 1")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def index(self, k: int, two_m: int) -> int:
        return _layout_index(self.spin, self.n_rotations, k, two_m)

    def value(self, k: int, two_m: int) -> float:
        return float(self.values[self.index(k, two_m)])

    def block(self, k: int) -> np.ndarray:
        start = self.index(k, self.spin.two_j)
        return self.values[start : start + self.spin.dim]

    def block_sums(self) -> np.ndarray:
        return self.values.reshape(self.n_rotations, self.spin.dim).sum(axis=1)


def portrait(w_column: Sequence[float], partition: Partition) -> np.ndarray:
    """Block sums of one probability column over a partition.

    The singleton partition is the identity map; a two-block partition gives
    the coarse two-outcome form whose first component already determines the
    second.
    """
    w = np.asarray(w_column, dtype=float)
    spin = Spin(len(w) - 1)
    partition.validate_for(spin)
    return np.array(
        [sum(w[spin.m_index(two_m)] for two_m in block) for block in partition.blocks]
    )


def stack(portraits: Sequence[Sequence[float]], weights) -> ProbVector:
    """Stack portraits scaled by prior weights into one probability vector."""
    arrays = [np.asarray(p, dtype=float) for p in portraits]
    if not arrays:
        raise DomainError("nothing to stack")
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise DomainError("portraits have mismatched lengths")
    w = validate_weights(weights, len(arrays))
    values = np.concatenate([wk * a for wk, a in zip(w, arrays)])
    return ProbVector(Spin(length - 1), len(arrays), values)


def prob_vector(
    spin: Spin, rho: np.ndarray, frames: Sequence[Frame], weights=None
) -> ProbVector:
    """Forward map of a state: blocks p_k * w(m, frame_k)."""
    if weights is None:
        weights = np.full(len(frames), 1.0 / len(frames))
    return stack(tomogram_columns(spin, rho, frames), weights)


def normalize_to_eq(p: ProbVector) -> ProbVector:
    """Erase the priors: recover each tomogram column and restack equally.

    Idempotent; composing with :func:`prob_vector` under any priors gives the
    equal-weight vector of the same state.
    """
    sums = p.block_sums()
    if sums.min() < 1e-15:
        raise DegeneratePriorError(
            f"rotation block {int(sums.argmin())} has nonpositive probability; "
            "prune it before renormalizing"
        )
    columns = p.values.reshape(p.n_rotations, p.spin.dim) / sums[:, None]
    return ProbVector(p.spin, p.n_rotations, columns.ravel() / p.n_rotations)
