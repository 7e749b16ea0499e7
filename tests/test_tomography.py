import math

import numpy as np
import pytest

from spinportrait import (
    ConfigError,
    Direction,
    DomainError,
    Spin,
    coeff_table,
    dequantizer,
    quantizer_continuous,
    random_density_matrix,
    reconstruct_from_sphere,
    rotation,
    sphere_quadrature,
    tomogram,
    tomogram_column,
)
from spinportrait.orthopoly import s_operator_stack
from spinportrait.tomography import tomogram_columns
from conftest import assert_relative, shell_sum_quantizer

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def sphere_nodes_by_loop(spin, n_theta=None, n_phi=None):
    """Quadrature nodes and weights from a double loop, polar nodes outermost."""
    n_theta = 2 * (spin.two_j + 1) if n_theta is None else n_theta
    n_phi = 2 * (2 * spin.two_j + 2) if n_phi is None else n_phi
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(nodes)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dirs = []
    weights = []
    for theta, gw in zip(thetas, gl_weights):
        for phi in phis:
            dirs.append(Direction(float(theta), float(phi)))
            weights.append(gw / (2.0 * n_phi))
    return dirs, np.array(weights)


def reconstruct_by_nodes(spin, tomogram_fn, n_theta=None, n_phi=None):
    """Sphere inversion node by node: one S_L stack and one shell sum per node."""
    dirs, weights = sphere_quadrature(spin, n_theta, n_phi)
    d = spin.dim
    weighted_table = (2 * np.arange(d)[:, None] + 1) * coeff_table(spin)
    rho = np.zeros((d, d), dtype=complex)
    for direction, weight in zip(dirs, weights):
        stack = s_operator_stack(spin, direction)
        w_col = np.array(
            [tomogram_fn(two_m, direction) for two_m in spin.two_m_values()]
        )
        rho += weight * np.tensordot(weighted_table @ w_col, stack, axes=1)
    return rho


# (n_theta, n_phi) per spin: the defaults, the exactness thresholds, and more
# nodes than the defaults with odd counts
QUADRATURES = {
    "default": lambda two_j: (None, None),
    "minimal": lambda two_j: (two_j + 1, 2 * two_j + 2),
    "oversized": lambda two_j: (2 * two_j + 5, 4 * two_j + 9),
}


def table_callback(spin, op, n_theta=None, n_phi=None):
    """w(m, n) = Re Tr(op U(m, n)) read from a table filled on the quadrature nodes."""
    dirs, _ = sphere_quadrature(spin, n_theta, n_phi)
    cols = tomogram_columns(spin, op, dirs)
    table = {(n.theta, n.phi): col for n, col in zip(dirs, cols)}
    return lambda two_m, n: float(table[(n.theta, n.phi)][spin.m_index(two_m)])


def random_operator(spin, kind, rng):
    if kind == "state":
        return random_density_matrix(spin, rng)
    g = rng.normal(size=(spin.dim, spin.dim)) + 1j * rng.normal(size=(spin.dim, spin.dim))
    return g + g.conj().T


def bloch_state(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return (
        np.eye(2) + r[0] * PAULI["x"] + r[1] * PAULI["y"] + r[2] * PAULI["z"]
    ) / 2.0


class TestDequantizer:
    def test_identity_frame_projector(self):
        spin = Spin(4)
        u = dequantizer(spin, spin.two_j, np.eye(spin.dim, dtype=complex))
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.abs(u - expected).max() < 1e-15

    def test_rank_one_trace(self):
        spin = Spin(3)
        for two_m in spin.two_m_values():
            u = dequantizer(spin, two_m, Direction(1.0, 2.0))
            assert np.trace(u).real == pytest.approx(1.0, abs=1e-13)
            assert np.abs(u @ u - u).max() < 1e-13

    def test_sum_rule(self):
        spin = Spin(5)
        n = Direction(2.2, 0.8)
        total = sum(dequantizer(spin, m, n) for m in spin.two_m_values())
        assert np.abs(total - np.eye(spin.dim)).max() < 1e-12

    def test_spin_half_x_conjugation_oracle(self):
        # explicit conjugation: R(x) projects |up> onto the +x eigenstate
        spin = Spin(1)
        u = dequantizer(spin, 1, Direction(math.pi / 2, 0.0))
        expected = (np.eye(2) + PAULI["x"]) / 2.0
        assert np.abs(u - expected).max() < 1e-14

    def test_invalid_projection(self):
        with pytest.raises(DomainError):
            dequantizer(Spin(2), 1, Direction(0.0, 0.0))


class TestTomogram:
    def test_maximally_mixed(self):
        spin = Spin(3)
        rho = np.eye(4) / 4.0
        for two_m in spin.two_m_values():
            assert tomogram(spin, rho, two_m, Direction(0.3, 5.1)) == pytest.approx(
                0.25, abs=1e-13
            )

    def test_spin_half_bloch_oracle(self):
        rng = np.random.default_rng(3)
        r = rng.normal(size=3)
        r = 0.9 * r / np.linalg.norm(r)
        rho = bloch_state(r)
        for theta, phi in [(0.2, 0.4), (1.2, 3.3), (2.8, 0.1)]:
            n = Direction(theta, phi)
            for two_m in (1, -1):
                expected = 0.5 + (two_m / 2.0) * float(r @ n.cartesian)
                assert tomogram(Spin(1), rho, two_m, n) == pytest.approx(
                    expected, abs=1e-13
                )

    def test_eigenstate_in_own_basis(self):
        spin = Spin(4)
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        column = tomogram_column(spin, rho, np.eye(5, dtype=complex))
        assert np.abs(column - np.array([1.0, 0, 0, 0, 0])).max() < 1e-14

    def test_column_normalization_and_positivity(self):
        spin = Spin(5)
        rng = np.random.default_rng(7)
        rho = random_density_matrix(spin, rng)
        for frame in [Direction(0.7, 1.0), rotation(spin, Direction(2.0, 2.0))]:
            col = tomogram_column(spin, rho, frame)
            assert col.sum() == pytest.approx(1.0, abs=1e-11)
            assert col.min() > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            tomogram(Spin(2), np.eye(2) / 2.0, 2, Direction(0.0, 0.0))


class TestQuantizerContinuous:
    def test_spin_half_hand_value(self):
        # two-term sum: D(+1/2, z) = I/2 + 3 Jz = diag(2, -1)
        d = quantizer_continuous(Spin(1), 1, Direction(0.0, 0.0))
        assert np.abs(d - np.diag([2.0, -1.0])).max() < 1e-13

    @pytest.mark.parametrize("two_j", [1, 2, 4, 8])
    def test_matches_shell_sum(self, two_j):
        spin = Spin(two_j)
        rng = np.random.default_rng(two_j)
        dirs = [Direction(0.0, 0.0), Direction(math.pi, 1.3)] + [
            Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            for _ in range(3)
        ]
        for n in dirs:
            for two_m in spin.two_m_values():
                assert_relative(
                    quantizer_continuous(spin, two_m, n),
                    shell_sum_quantizer(spin, two_m, n),
                )

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_unit_trace(self, two_j):
        spin = Spin(two_j)
        for two_m in spin.two_m_values():
            d = quantizer_continuous(spin, two_m, Direction(0.9, 2.7))
            assert np.trace(d).real == pytest.approx(1.0, abs=1e-12)
            assert abs(np.trace(d).imag) < 1e-13


class TestSphereQuadrature:
    def test_weights_sum_to_one(self):
        _, weights = sphere_quadrature(Spin(3))
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_below_threshold_rejected(self):
        with pytest.raises(ConfigError):
            sphere_quadrature(Spin(2), n_theta=2)
        with pytest.raises(ConfigError):
            sphere_quadrature(Spin(2), n_phi=5)

    def test_minimal_sizes_accepted(self):
        dirs, weights = sphere_quadrature(Spin(2), n_theta=3, n_phi=6)
        assert len(dirs) == 18 and weights.size == 18

    @pytest.mark.parametrize("size", sorted(QUADRATURES))
    @pytest.mark.parametrize("two_j", range(0, 17))
    def test_nodes_bitwise_equal_to_double_loop(self, two_j, size):
        spin = Spin(two_j)
        n_theta, n_phi = QUADRATURES[size](two_j)
        dirs, weights = sphere_quadrature(spin, n_theta, n_phi)
        ref_dirs, ref_weights = sphere_nodes_by_loop(spin, n_theta, n_phi)
        assert [(n.theta, n.phi) for n in dirs] == [(n.theta, n.phi) for n in ref_dirs]
        assert weights.dtype == ref_weights.dtype
        assert np.array_equal(weights, ref_weights)


class TestReconstructFromSphere:
    def test_uniform_tomogram(self):
        spin = Spin(2)
        rec = reconstruct_from_sphere(spin, lambda m, n: 1.0 / 3.0)
        assert np.abs(rec - np.eye(3) / 3.0).max() < 1e-12

    @pytest.mark.parametrize("two_j,seed", [(2, 0), (5, 1)])
    def test_round_trip(self, two_j, seed):
        spin = Spin(two_j)
        rho = random_density_matrix(spin, np.random.default_rng(seed))
        rec = reconstruct_from_sphere(
            spin, lambda m, n: tomogram(spin, rho, m, n)
        )
        assert np.abs(rec - rho).max() < 1e-10
        assert np.abs(rec - rec.conj().T).max() < 1e-11

    def test_round_trip_at_minimal_quadrature(self):
        spin = Spin(3)
        rho = random_density_matrix(spin, np.random.default_rng(5))
        rec = reconstruct_from_sphere(
            spin,
            lambda m, n: tomogram(spin, rho, m, n),
            n_theta=spin.two_j + 1,
            n_phi=2 * spin.two_j + 2,
        )
        assert np.abs(rec - rho).max() < 1e-10

    def test_biorthogonality_on_arbitrary_hermitian(self):
        # the pairing must reproduce any Hermitian operator, not only states
        spin = Spin(2)
        rng = np.random.default_rng(11)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = g + g.conj().T
        rec = reconstruct_from_sphere(
            spin,
            lambda m, n: float(
                np.real(np.trace(a @ dequantizer(spin, m, n)))
            ),
        )
        assert np.abs(rec - a).max() < 1e-10

    @pytest.mark.parametrize("kind", ["state", "hermitian"])
    @pytest.mark.parametrize("size", sorted(QUADRATURES))
    @pytest.mark.parametrize("two_j", [1, 2, 4, 8])
    def test_matches_node_by_node_oracle(self, two_j, size, kind):
        spin = Spin(two_j)
        n_theta, n_phi = QUADRATURES[size](two_j)
        op = random_operator(spin, kind, np.random.default_rng(two_j))
        fn = table_callback(spin, op, n_theta, n_phi)
        rec = reconstruct_from_sphere(spin, fn, n_theta, n_phi)
        assert_relative(rec, reconstruct_by_nodes(spin, fn, n_theta, n_phi))
        assert np.abs(rec - op).max() < 1e-10 * max(1.0, np.abs(op).max())

    def test_callback_order_is_theta_major_descending_m(self):
        spin = Spin(3)
        calls = []

        def fn(two_m, n):
            calls.append((two_m, n.theta, n.phi))
            return 0.25

        reconstruct_from_sphere(spin, fn, n_theta=4, n_phi=9)
        dirs, _ = sphere_nodes_by_loop(spin, 4, 9)
        assert calls == [
            (two_m, n.theta, n.phi) for n in dirs for two_m in spin.two_m_values()
        ]

    def test_repeated_calls_bitwise_equal(self):
        spin = Spin(4)
        fn = table_callback(spin, random_density_matrix(spin, np.random.default_rng(2)))
        assert np.array_equal(
            reconstruct_from_sphere(spin, fn), reconstruct_from_sphere(spin, fn)
        )
