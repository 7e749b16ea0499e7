"""Finite SU(2) scheme: 4j+1 directions, Gram feasibility, and the inverse map.

A state of spin j is encoded in the (2j+1)(4j+1) probabilities obtained by
measuring all projections along 4j+1 directions.  The directions carry a
nested shell structure, the first 2L+1 of them serving the degree-L operator
subspace; direction k (0-based) therefore contributes to every shell with
L >= ceil(k/2).  Reconstruction inverts one Gram matrix per shell,

    M(L)_ik = Tr(S_L(n_i) S_L(n_k)) = P_L(n_i . n_k),

and the scheme is feasible exactly when every shell determinant is nonzero.
One Legendre recurrence builds every M(L), and one floor rule judges them for
every user: a set is refused at its first shell without det >= GRAM_DET_FLOOR.
The dual operators built from the Gram inverses assemble the quantizer, and

    rho = sum_{L, k <= 2L, m} P_eq(m, n_k) D_L(m, k)

recovers the state from the equal-weight probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError, FeasibilityError
from .orthopoly import (
    assoc_legendre,
    coeff_table,
    legendre_series,
    s_operator_stack,
    s_operator_stacks,
)
from .portrait import ProbVector, _layout_index
from .spin import Direction, Spin
from .tomography import forward_matrix

GRAM_DET_FLOOR = 1e-12


@dataclass(frozen=True)
class DirectionSet:
    """Ordered 4j+1 measurement directions with nested shell structure."""

    spin: Spin
    dirs: tuple

    def __init__(self, spin: Spin, dirs: Sequence[Direction]):
        object.__setattr__(self, "spin", spin)
        object.__setattr__(self, "dirs", tuple(dirs))
        expected = 2 * spin.two_j + 1
        if len(self.dirs) != expected:
            raise DomainError(
              f"need {expected} directions for two_j={spin.two_j}, got {len(self.dirs)}"
            )
        if not all(isinstance(d, Direction) for d in self.dirs):
            raise DomainError("directions must be Direction instances")

    @property
    def n_dirs(self) -> int:
        return len(self.dirs)

    def shell(self, L: int) -> tuple:
        """Directions of shell L, the first 2L+1 of the set."""
        if not (0 <= L <= self.spin.two_j):
            raise DomainError(f"L={L} outside 0..{self.spin.two_j}")
        return self.dirs[: 2 * L + 1]

    def unit_vectors(self) -> np.ndarray:
        return np.array([d.cartesian for d in self.dirs])


def _check_spin(spin: Spin, ds: DirectionSet):
    if spin != ds.spin:
        raise DomainError(f"{spin} does not match the direction set's {ds.spin}")


def _refused(det):
    """The one floor rule: True where a shell determinant is below the floor or NaN."""
    return np.logical_not(det >= GRAM_DET_FLOOR)


def _shell_grams(vectors: np.ndarray, checked: bool = False):
    """(M(L), det M(L)) for each L with 2L+1 <= N, lazily, from one recurrence.

    ``vectors`` is one set (N, 3) or a stack of sets (..., N, 3); M(L) is a
    view of the leading block of P_L(n_i . n_k) over all N x N dot products,
    and det M(L) has the stack's leading shape.  ``checked`` (one set only)
    raises at the first shell :func:`_refused` rejects.
    """
    dots = (vectors @ np.swapaxes(vectors, -1, -2)).clip(-1.0, 1.0)
    for L, p in enumerate(legendre_series((vectors.shape[-2] - 1) // 2, dots)):
        gram_l = p[..., : 2 * L + 1, : 2 * L + 1]
        det = np.linalg.det(gram_l) if L else 1.0
        if checked and _refused(det):
            raise FeasibilityError(
                f"shell L={L} Gram determinant {det:.3e} below {GRAM_DET_FLOOR:.0e}; "
                "the direction set cannot be inverted"
            )
        yield gram_l, det


def gram(spin: Spin, L: int, ds) -> np.ndarray:
    """Shell-L Gram matrix P_L(n_i . n_k), (2L+1) x (2L+1)."""
    if not (1 <= L <= spin.two_j):
        raise DomainError(f"L={L} outside 1..{spin.two_j}")
    if isinstance(ds, DirectionSet):
        _check_spin(spin, ds)
        ds = ds.dirs
    vectors = np.array([d.cartesian for d in ds])
    if len(vectors) < 2 * L + 1:
        raise DomainError(f"shell {L} needs {2 * L + 1} directions")
    return next(islice(_shell_grams(vectors), L, None))[0]


def shell_determinants(ds: DirectionSet) -> np.ndarray:
    """det M(L) for L = 1..2j."""
    return np.array([det for _, det in _shell_grams(ds.unit_vectors())][1:])


def feasibility(ds: DirectionSet) -> float:
    """Product of shell Gram determinants; nonzero iff the map is invertible.

    For j = 1/2 this is the squared triple product of the three directions.
    """
    return float(np.prod(shell_determinants(ds)))


def delta_q(dirs: Sequence[Direction], q: int) -> float:
    """Secondary feasibility determinant built from associated Legendre rows.

    Row per direction: [P_q^0(cos t), P_q^1(cos t) cos(phi), P_q^1 sin(phi),
    ..., P_q^q cos(q phi), P_q^q sin(q phi)] over the first 2q+1 directions.
    Sign conventions differ from the Gram form; only zero versus nonzero is
    meaningful.
    """
    dirs = tuple(dirs)[: 2 * q + 1]
    if len(dirs) < 2 * q + 1:
        raise DomainError(f"delta_{q} needs {2 * q + 1} directions")
    rows = []
    for d in dirs:
        c = np.cos(d.theta)
        row = [assoc_legendre(q, 0, c)]
        for m in range(1, q + 1):
            p = assoc_legendre(q, m, c)
            row.append(p * np.cos(m * d.phi))
            row.append(p * np.sin(m * d.phi))
        rows.append(row)
    return float(np.linalg.det(np.array(rows)))


def feasibility_delta(ds: DirectionSet) -> float:
    """Product of the delta_q determinants for q = 1..2j."""
    return float(np.prod([delta_q(ds.dirs, q) for q in range(1, ds.spin.two_j + 1)]))


# forward-map matrix for directions, row (k, m) = p_k * coords(U(m, n_k))
q_matrix = forward_matrix


def _shell_duals(gram_l: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Dual basis sum_k' [M(L)^-1]_kk' S_L(n_k') of the shell operators ops[k']."""
    n, d, _ = ops.shape
    return np.linalg.solve(gram_l, ops.reshape(n, d * d)).reshape(n, d, d)


def l_dequantizer(spin: Spin, L: int, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Shell-resolved dequantizer (4j+1)^-1 f_L(m) S_L(n_k)."""
    _check_spin(spin, ds)
    if not (0 <= k <= 2 * L):
        raise DomainError(f"direction {k} outside shell L={L}")
    f_lm = coeff_table(spin)[L, spin.m_index(two_m)]
    stack = s_operator_stack(spin, ds.dirs[k])
    return f_lm * stack[L] / (2 * spin.two_j + 1)


def l_quantizer(spin: Spin, L: int, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Shell-L dual operator.

    D_L(m, k) = (4j+1) f_L(m) sum_k' [M(L)^-1]_kk' S_L(n_k'), the dual basis of
    {S_L(n_k)} scaled by the coefficient table.  Paired with the shell-resolved
    dequantizer it is biorthogonal:

        Tr(U_L(m, n_k) D_L'(m', k')) = f_L(m) f_L(m') delta_LL' delta_kk'.
    """
    _check_spin(spin, ds)
    if not (0 <= k <= 2 * L):
        raise DomainError(f"direction {k} outside shell L={L}")
    ops = s_operator_stacks(spin, ds.shell(L))[:, L]
    gram_l, _ = next(islice(_shell_grams(ds.unit_vectors(), checked=True), L, None))
    f_lm = coeff_table(spin)[L, spin.m_index(two_m)]
    return (2 * spin.two_j + 1) * f_lm * _shell_duals(gram_l, ops)[k]


def quantizer(spin: Spin, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Full quantizer for direction k: the sum of its shell duals.

    Direction k belongs to the shells with 2L+1 > k, so the first direction
    contributes to every shell and later directions only to the higher ones.
    A read-only entry of :func:`quantizer_stack`.
    """
    _check_spin(spin, ds)
    return quantizer_stack(ds)[_layout_index(ds.spin, ds.n_dirs, k, two_m)]


@lru_cache(maxsize=16)
def quantizer_stack(ds: DirectionSet) -> np.ndarray:
    """All quantizers in probability-vector layout, shape (N_u * d, d, d).

    Assembled shell by shell from the Gram inverses; entry index(k, m) matches
    the ProbVector layout so reconstruction is a single contraction.  Every
    shell is checked before any operator is built, so a refused set costs
    only its Gram matrices up to the refused shell.  The result is memoized
    per direction set (read-only array, safe to share).
    """
    spin = ds.spin
    d = spin.dim
    n_u = ds.n_dirs
    grams = [g for g, _ in _shell_grams(ds.unit_vectors(), checked=True)]
    table = coeff_table(spin)
    shell_ops = s_operator_stacks(spin, ds.dirs)
    out = np.zeros((n_u, d, d, d), dtype=complex)
    for L, gram_l in enumerate(grams):
        n_shell = 2 * L + 1
        duals = _shell_duals(gram_l, shell_ops[:n_shell, L])
        out[:n_shell] += (n_u * table[L])[:, None, None] * duals[:, None]
    out = out.reshape(n_u * d, d, d)
    out.flags.writeable = False
    return out


def reconstruct(p_eq: ProbVector, ds: DirectionSet) -> np.ndarray:
    """Inverse map of the equal-weight probability vector.

    The input must be an equal-weight vector over this direction set; vectors
    built with other priors are rejected (renormalize them first).
    """
    spin = ds.spin
    if p_eq.spin != spin or p_eq.n_rotations != ds.n_dirs:
        raise DomainError("probability vector does not match the direction set")
    if np.abs(p_eq.block_sums() - 1.0 / ds.n_dirs).max() > 1e-8:
        raise DomainError(
            "probability vector is not equal-weight; renormalize it first"
        )
    return apply_quantizer(p_eq.values, ds)


def apply_quantizer(values: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Contract arbitrary layout-ordered coefficients with the quantizers.

    This is the raw linear inverse map; it does not require the coefficients
    to be a valid probability vector, and complex coefficients (symbols of
    non-Hermitian operators) keep their imaginary parts.
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
    gram_1, _ = next(islice(_shell_grams(ds.unit_vectors(), checked=True), 1, None))
    return np.linalg.solve(gram_1, ds.unit_vectors()[:3])
