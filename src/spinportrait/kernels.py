"""Star-product and intertwining kernels of the discrete symbol calculus.

The symbol of an operator A over a direction set is
s(m, k) = (4j+1)^-1 Tr(A U(m, n_k)); for a density matrix it coincides with
the equal-weight probability vector, and contracting a symbol with the
quantizers D(m, k) gives its operator back.  Every derived operation is a
round trip through the operator: the memoized quantizers
(``su2.quantizer_stack``) make the operator, and one product of the set's
memoized forward rows (``tomography.forward_rows``) with the operator's
coordinates (``linalg.operator_coords``) reads its symbol or tomogram:

    symbol(A) = (rows @ z).view(complex) / N,   w(m, n) = Re Tr(A U(m, n)),
    p1 * p2 = symbol(A1 A2),   P = Re symbol(rho from the sphere inversion of w).

So the star-product kernel K(m3,k3, m2,k2, m1,k1), whose
((2j+1)(4j+1))^3 entries are never materialized, is entry (m3, k3) of
symbol(D(m1,k1) D(m2,k2)).  The intertwining kernels connect the continuous
tomogram with the discrete symbol: K_{w->P} is the symbol of a continuous
quantizer, and K_{P->w} the tomogram of a discrete one.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .linalg import operator_coords
from .portraits import ProbVector, _layout_index
from .spin import Direction, Spin
from .su2 import DirectionSet, _check_spin, apply_quantizer, quantizer
from .tomography import forward_rows, quantizer_continuous, reconstruct_from_sphere, tomogram


def symbol(spin: Spin, op: np.ndarray, ds: DirectionSet) -> np.ndarray:
    """Discrete symbol (4j+1)^-1 Tr(op U(m, n_k)), flat (k, m) layout.

    Complex in general; real and equal to the equal-weight probability vector
    when ``op`` is a density matrix.
    """
    _check_spin(spin, ds)
    op = np.asarray(op, dtype=complex)
    if op.shape != (spin.dim, spin.dim):
        raise DomainError(f"operator shape {op.shape} != dim {spin.dim}")
    return (forward_rows(spin, ds.dirs) @ operator_coords(op)).view(complex).ravel() / ds.n_dirs


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
    """Star-product kernel, entry (m3, k3) of the symbol of D(m1, k1) D(m2, k2)."""
    product = quantizer(spin, k1, two_m1, ds) @ quantizer(spin, k2, two_m2, ds)
    return complex(symbol(spin, product, ds)[_layout_index(ds.spin, ds.n_dirs, k3, two_m3)])


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
    d_cont = quantizer_continuous(spin, two_m_prime, n_prime)
    return float(symbol(spin, d_cont, ds)[_layout_index(ds.spin, ds.n_dirs, k, two_m)].real)


def kernel_p_to_w(
    spin: Spin,
    ds: DirectionSet,
    two_m: int,
    n: Direction,
    two_m_prime: int,
    k_prime: int,
) -> float:
    """Symbol-to-tomogram kernel, Tr(D(m', k') U(m, n))."""
    return tomogram(spin, quantizer(spin, k_prime, two_m_prime, ds), two_m, n)


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
    A spin other than the set's is refused before the callback is called.
    """
    _check_spin(spin, ds)
    rho = reconstruct_from_sphere(spin, tomogram_fn, n_theta, n_phi)
    return np.real(symbol(spin, rho, ds))


def p_to_w(spin: Spin, ds: DirectionSet, p_eq, two_m: int, n: Direction) -> float:
    """Tomogram value at an arbitrary direction from the discrete symbol."""
    _check_spin(spin, ds)
    return tomogram(spin, symbol_to_operator(p_eq, ds), two_m, n)
