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
from .linalg import INPUT_TOL, is_integer, validate_weights
from .spin import Frame, Spin
from .tomography import tomogram_columns

SUM_TOL = 1e-11


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of doubled projections covering the full range."""

    blocks: tuple

    def __init__(self, blocks: Sequence[Sequence[int]]):
        blocks = tuple(tuple(b) for b in blocks)
        bad = next((m for b in blocks for m in b if not is_integer(m)), None)
        if bad is not None:
            raise DomainError(f"partition entries must be integer doubled projections, got {bad!r}")
        object.__setattr__(self, "blocks", tuple(tuple(int(m) for m in b) for b in blocks))
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


def _check_probabilities(values: np.ndarray):
    """Refuse a negative or NaN entry and a total away from 1 (an infinite one too)."""
    if not values.min(initial=0.0) >= -INPUT_TOL:
        raise InvariantError(f"negative or NaN probability {values.min()}")
    if not abs(values.sum() - 1.0) <= SUM_TOL:
        raise InvariantError(f"probabilities sum to {values.sum()}, not 1")


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
        object.__setattr__(self, "values", np.array(self.values, dtype=float))
        self._freeze()

    @classmethod
    def _adopt(cls, spin: Spin, n_rotations: int, values: np.ndarray) -> "ProbVector":
        """A vector over ``values``, a fresh float array no caller holds: checked, not copied."""
        p = object.__new__(cls)
        object.__setattr__(p, "spin", spin)
        object.__setattr__(p, "n_rotations", n_rotations)
        object.__setattr__(p, "values", values)
        p._freeze()
        return p

    def _freeze(self):
        """Check the layout and the probabilities of ``values``, then make it read-only."""
        if self.values.shape != (self.n_rotations * self.spin.dim,):
            raise DomainError(
                f"expected {self.n_rotations * self.spin.dim} entries, "
                f"got shape {self.values.shape}"
            )
        _check_probabilities(self.values)
        self.values.flags.writeable = False

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


def stack(portraits: np.ndarray | Sequence[Sequence[float]], weights) -> ProbVector:
    """Stack portraits scaled by prior weights (None: equal) into one vector.

    ``portraits`` is an (N, L) array, one portrait per row, or anything
    ``np.asarray`` turns into one, such as a sequence of N portraits of one
    length L.
    """
    try:
        rows = np.asarray(portraits, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("portraits are not an (N, L) array of numbers") from None
    if rows.size == 0:
        raise DomainError("nothing to stack")
    if rows.ndim != 2:
        raise DomainError(f"expected an (N, L) stack of portraits, got shape {rows.shape}")
    w = validate_weights(weights, rows.shape[0])
    return ProbVector._adopt(Spin(rows.shape[1] - 1), rows.shape[0], (w[:, None] * rows).ravel())


def prob_vector(
    spin: Spin, rho: np.ndarray, frames: Sequence[Frame], weights=None
) -> ProbVector:
    """Forward map of a state: blocks p_k * w(m, frame_k), equal priors by default."""
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
    return ProbVector._adopt(p.spin, p.n_rotations, columns.ravel() / p.n_rotations)
