"""Star-product and intertwining kernels of the discrete symbol calculus.

The symbol of an operator A over a direction set is
s(m, k) = (4j+1)^-1 Tr(A U(m, n_k)); for a density matrix it coincides with
the equal-weight probability vector, and contracting a symbol with the
quantizers D(m, k) gives its operator back.  Every derived operation is a
round trip through the operator over the two memoized stacks, the quantizers
(``su2.quantizer_stack``) and the scaled dequantizers
Uhat(m, k) = (4j+1)^-1 U(m, n_k) (``dequantizer_stack``):

    p1 * p2 = symbol(A1 A2),   w(m, n) = Re Tr(A U(m, n)),
    P = Re symbol(rho from the sphere inversion of w).

The star product is therefore the contraction of both symbols with the
three-point kernel

    K(m3,k3, m2,k2, m1,k1) = Tr[ D(m1,k1) D(m2,k2) Uhat(m3,k3) ],

whose ((2j+1)(4j+1))^3 entries are never materialized.  Intertwining kernels
connect the continuous tomogram representation with the discrete symbols in
both directions: integrating K_{w->P} against a tomogram over the sphere
yields the discrete symbol, and contracting K_{P->w} with the symbol
evaluates the tomogram at an arbitrary direction.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError
from .portrait import ProbVector, _layout_index
from .spin import Direction, Spin, frame_matrices
from .su2 import DirectionSet, apply_quantizer, quantizer
from .tomography import dequantizer, quantizer_continuous, reconstruct_from_sphere


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


def symbol(spin: Spin, op: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Discrete symbol (4j+1)^-1 Tr(op U(m, n_k)), flat (k, m) layout.

    Complex in general; real and equal to the equal-weight probability vector
    when ``op`` is a density matrix.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (spin.dim, spin.dim):
        raise DomainError(f"operator shape {op.shape} != dim {spin.dim}")
    stack = dequantizer_stack(ds)
    n, d, _ = stack.shape
    # Tr(Uhat op) for every entry, as one matrix-vector product
    return stack.reshape(n, d * d) @ op.T.reshape(d * d)


def symbol_to_operator(p, ds: DirectionSet) -> np.ndarray:
    """Contract a symbol with the quantizers (linear inverse of ``symbol``)."""
    return apply_quantizer(p.values if isinstance(p, ProbVector) else p, ds)


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
    u3 = dequantizer_stack(ds)[_layout_index(ds.spin, ds.n_dirs, k3, two_m3)]
    return complex(np.trace(d1 @ d2 @ u3))


def star_apply(spin: Spin, p1, p2, ds: DirectionSet) -> np.ndarray:
    """Star product of two symbols: the symbol of their operators' product.

    Equal to the kernel contraction, entry (m3, k3) being
    sum K(m3,k3, m2,k2, m1,k1) p2(m2,k2) p1(m1,k1).
    """
    product = symbol_to_operator(p1, ds) @ symbol_to_operator(p2, ds)
    return symbol(spin, product, ds)


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
    u_disc = dequantizer_stack(ds)[_layout_index(ds.spin, ds.n_dirs, k, two_m)]
    d_cont = quantizer_continuous(spin, two_m_prime, n_prime)
    return float(np.real(np.trace(d_cont @ u_disc)))


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

    The symbol of the state that the exact sphere quadrature recovers; for
    tomograms of valid states it is the equal-weight probability vector.
    """
    rho = reconstruct_from_sphere(spin, tomogram_fn, n_theta, n_phi)
    return np.real(symbol(spin, rho, ds))


def p_to_w(spin: Spin, ds: DirectionSet, p_eq, two_m: int, n: Direction) -> float:
    """Tomogram value at an arbitrary direction from the discrete symbol."""
    op = symbol_to_operator(p_eq, ds)
    return float(np.real(np.trace(op @ dequantizer(spin, two_m, n))))
