"""Star-product and intertwining kernels of the discrete symbol calculus.

The symbol of an operator A over a direction set is
s(m, k) = (4j+1)^-1 Tr(A U(m, n_k)); for a density matrix it coincides with
the equal-weight probability vector.  Operator products induce the star
product on symbols through the three-point kernel

    K(m3,k3, m2,k2, m1,k1) = Tr[ D(m1,k1) D(m2,k2) Uhat(m3,k3) ],

with D the quantizers and Uhat(m,k) = (4j+1)^-1 U(m, n_k) the scaled
dequantizer.  All kernels are defined by their trace forms; the shell
expansions and the closed qubit forms serve as cross-checks.  The full kernel
table has ((2j+1)(4j+1))^3 entries, so it is contracted slice by slice and
never materialized.

Intertwining kernels connect the continuous tomogram representation with the
discrete symbols in both directions: integrating K_{w->P} against a tomogram
over the sphere yields the discrete symbol, and contracting K_{P->w} with the
symbol evaluates the tomogram at an arbitrary direction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .portrait import ProbVector
from .spin import Direction, Spin, frame_matrices
from .su2 import DirectionSet, quantizer, quantizer_stack
from .tomography import dequantizer, quantizer_continuous, sphere_quadrature


def _values(p) -> np.ndarray:
    if isinstance(p, ProbVector):
        return np.asarray(p.values)
    return np.asarray(p)


@lru_cache(maxsize=16)
def dequantizer_stack(ds: DirectionSet) -> np.ndarray:
    """Scaled dequantizers Uhat(m, k) in probability-vector layout.

    Memoized per direction set; the cached array is read-only.
    """
    d = ds.spin.dim
    kets = np.swapaxes(frame_matrices(ds.spin, ds.dirs), 1, 2)
    out = kets[:, :, :, None] * kets[:, :, None, :].conj() / ds.n_dirs
    out = out.reshape(-1, d, d)
    out.flags.writeable = False
    return out


def _trace_pairs(stack: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Tr(stack[I] @ op) for every I, as one matrix-vector product."""
    n, d, _ = stack.shape
    return stack.reshape(n, d * d) @ op.T.reshape(d * d)


def symbol(spin: Spin, op: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Discrete symbol (4j+1)^-1 Tr(op U(m, n_k)), flat (k, m) layout.

    Complex in general; real and equal to the equal-weight probability vector
    when ``op`` is a density matrix.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (spin.dim, spin.dim):
        raise DomainError(f"operator shape {op.shape} != dim {spin.dim}")
    return _trace_pairs(dequantizer_stack(ds), op)


def symbol_to_operator(p, ds: DirectionSet) -> np.ndarray:
    """Contract a symbol with the quantizers (linear inverse of ``symbol``)."""
    values = _values(p)
    stack = quantizer_stack(ds)
    if values.shape != (stack.shape[0],):
        raise DomainError(f"expected {stack.shape[0]} entries, got {values.shape}")
    return np.einsum("I,Iab->ab", values, stack)


def star_kernel(
    spin: Spin,
    ds: DirectionSet,
    two_m3: int, k3: int,
    two_m2: int, k2: int,
    two_m1: int, k1: int,
) -> complex:
    """Star-product kernel by its defining trace form."""
    d1 = quantizer(spin, k1, two_m1, ds)
    d2 = quantizer(spin, k2, two_m2, ds)
    u3 = dequantizer(spin, two_m3, ds.dirs[k3]) / ds.n_dirs
    return complex(np.trace(d1 @ d2 @ u3))


def star_kernel_expanded(
    spin: Spin,
    ds: DirectionSet,
    two_m3: int, k3: int,
    two_m2: int, k2: int,
    two_m1: int, k1: int,
) -> complex:
    """Star-product kernel through the shell expansion of both quantizers.

    (4j+1) sum over shells L1 >= ceil(k1/2), L2 >= ceil(k2/2), L3, of
    f_L1(m1) f_L2(m2) f_L3(m3) M(L1)^-1_{k1 k1'} M(L2)^-1_{k2 k2'}
    Tr[S_L1(n_k1') S_L2(n_k2') S_L3(n_k3)].  Cross-checks the trace form.
    """
    from .orthopoly import coeff_table, s_operator_stack
    from .su2 import _shell_inverse

    table = coeff_table(spin)
    stacks = [s_operator_stack(spin, n) for n in ds.dirs]
    i1, i2, i3 = (spin.m_index(m) for m in (two_m1, two_m2, two_m3))
    total = 0.0 + 0.0j
    for l1 in range((k1 + 1) // 2, spin.two_j + 1):
        minv1 = _shell_inverse(ds, l1)[k1] if l1 else np.array([1.0])
        for l2 in range((k2 + 1) // 2, spin.two_j + 1):
            minv2 = _shell_inverse(ds, l2)[k2] if l2 else np.array([1.0])
            for l3 in range(0, spin.two_j + 1):
                f123 = table[l1, i1] * table[l2, i2] * table[l3, i3]
                if f123 == 0.0:
                    continue
                acc = 0.0 + 0.0j
                for k1p in range(2 * l1 + 1):
                    for k2p in range(2 * l2 + 1):
                        acc += (
                            minv1[k1p]
                            * minv2[k2p]
                            * np.trace(stacks[k1p][l1] @ stacks[k2p][l2] @ stacks[k3][l3])
                        )
                total += f123 * acc
    return complex((2 * spin.two_j + 1) * total)


def star_apply(spin: Spin, p1, p2, ds: DirectionSet) -> np.ndarray:
    """Star product of two symbols, contracted against the kernel.

    Output entry (m3, k3) is sum K(m3,k3, m2,k2, m1,k1) p2(m2,k2) p1(m1,k1);
    the kernel slice for each output index is built on the fly from the
    quantizer and scaled-dequantizer stacks.
    """
    v1 = _values(p1)
    v2 = _values(p2)
    d_stack = quantizer_stack(ds)
    u_stack = dequantizer_stack(ds)
    n_total = d_stack.shape[0]
    if v1.shape != (n_total,) or v2.shape != (n_total,):
        raise DomainError("symbols do not match the direction set")
    out = np.empty(n_total, dtype=complex)
    for c in range(n_total):
        kernel_slice = np.einsum(
            "aij,bjk,ki->ab", d_stack, d_stack, u_stack[c], optimize=True
        )
        out[c] = v1 @ kernel_slice @ v2
    return out


def kernel_w_to_p(
    spin: Spin,
    ds: DirectionSet,
    two_m: int, k: int,
    two_m_prime: int,
    n_prime: Direction,
) -> float:
    """Tomogram-to-symbol kernel, (4j+1)^-1 Tr(D(m', n') U(m, n_k)).

    Equals (4j+1)^-1 sum_L (2L+1) f_L(m') f_L(m) P_L(n' . n_k); for spin 1/2
    it reduces to 1/6 + 2 m' m (n' . n_k).
    """
    d_cont = quantizer_continuous(spin, two_m_prime, n_prime)
    u_disc = dequantizer(spin, two_m, ds.dirs[k])
    return float(np.real(np.trace(d_cont @ u_disc))) / ds.n_dirs


def kernel_p_to_w(
    spin: Spin,
    ds: DirectionSet,
    two_m: int,
    n: Direction,
    two_m_prime: int,
    k_prime: int,
) -> float:
    """Symbol-to-tomogram kernel, Tr(D(m', k') U(m, n))."""
    d_disc = quantizer(spin, k_prime, two_m_prime, ds)
    u_cont = dequantizer(spin, two_m, n)
    return float(np.real(np.trace(d_disc @ u_cont)))


def w_to_p(
    spin: Spin,
    ds: DirectionSet,
    tomogram_fn,
    n_theta: int | None = None,
    n_phi: int | None = None,
) -> np.ndarray:
    """Discrete symbol from a tomogram via quadrature of the w->P kernel.

    Uses the exact sphere quadrature of the tomography module; for tomograms
    of valid states the result is the equal-weight probability vector.
    """
    from .orthopoly import coeff_table, s_operator_stack

    nodes, weights = sphere_quadrature(spin, n_theta, n_phi)
    u_stack = dequantizer_stack(ds)
    weighted_table = (2 * np.arange(spin.dim)[:, None] + 1) * coeff_table(spin)
    out = np.zeros(u_stack.shape[0])
    for n_prime, weight in zip(nodes, weights):
        w_col = np.array(
            [tomogram_fn(two_mp, n_prime) for two_mp in spin.two_m_values()]
        )
        # sum_m' w(m', n') D(m', n'), then one trace per (m, k) entry
        acc = np.tensordot(weighted_table @ w_col, s_operator_stack(spin, n_prime), axes=1)
        out += weight * np.real(_trace_pairs(u_stack, acc))
    return out


def p_to_w(spin: Spin, ds: DirectionSet, p_eq, two_m: int, n: Direction) -> float:
    """Tomogram value at an arbitrary direction from the discrete symbol."""
    values = _values(p_eq)
    total = 0.0
    for k_prime in range(ds.n_dirs):
        for idx, two_m_prime in enumerate(spin.two_m_values()):
            total += (
                kernel_p_to_w(spin, ds, two_m, n, two_m_prime, k_prime)
                * values[k_prime * spin.dim + idx]
            )
    return total
