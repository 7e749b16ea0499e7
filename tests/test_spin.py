import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinportrait import (
    Direction,
    UnitaryFrameSet,
    DomainError,
    InvariantError,
    Spin,
    angular_momentum,
    basis_ket,
    frame_matrix,
    random_density_matrix,
    rotation,
    validate_density_matrix,
)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def series_expm(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Taylor-series matrix exponential, the independent rotation oracle."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestSpin:
    def test_projections_descend(self):
        assert list(Spin(3).two_m_values()) == [3, 1, -1, -3]
        assert Spin(3).dim == 4

    def test_m_index(self):
        spin = Spin(4)
        assert [spin.m_index(m) for m in spin.two_m_values()] == [0, 1, 2, 3, 4]
        with pytest.raises(DomainError):
            spin.m_index(3)  # wrong parity
        with pytest.raises(DomainError):
            spin.m_index(6)

    def test_negative_two_j_rejected(self):
        with pytest.raises(DomainError):
            Spin(-1)

    @pytest.mark.parametrize("two_j", [True, False, 1.0, "1"])
    def test_non_integer_two_j_rejected(self, two_j):
        with pytest.raises(DomainError, match="two_j must be an integer"):
            Spin(two_j)


class TestAngularMomentum:
    def test_jz_spin_half(self):
        _, _, jz = angular_momentum(Spin(1))
        assert np.allclose(jz, np.diag([0.5, -0.5]))

    def test_spin_one_ladder_oracle(self):
        # <1,m'|Jx|1,m> from the ladder formula sqrt(j(j+1) - m(m+1)) / 2
        jx, _, jz = angular_momentum(Spin(2))
        assert np.allclose(jz, np.diag([1.0, 0.0, -1.0]))
        s = 1.0 / math.sqrt(2.0)
        expected = np.array([[0, s, 0], [s, 0, s], [0, s, 0]])
        assert np.abs(jx - expected).max() < 1e-15

    @pytest.mark.parametrize("two_j", range(0, 13))
    def test_commutators_and_casimir(self, two_j):
        spin = Spin(two_j)
        jx, jy, jz = angular_momentum(spin)
        j = two_j / 2.0
        eye = np.eye(spin.dim)
        assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12
        assert np.abs(jy @ jz - jz @ jy - 1j * jx).max() < 1e-12
        assert np.abs(jz @ jx - jx @ jz - 1j * jy).max() < 1e-12
        assert np.abs(jx @ jx + jy @ jy + jz @ jz - j * (j + 1) * eye).max() < 1e-12


class TestDirection:
    def test_cartesian(self):
        n = Direction(math.pi / 2, math.pi / 2)
        assert np.allclose(n.cartesian, [0.0, 1.0, 0.0])

    def test_phi_wraps(self):
        assert Direction(0.3, 2 * math.pi + 0.1).phi == pytest.approx(0.1)

    @pytest.mark.parametrize("phi", [-1e-17, -5e-324])
    def test_a_tiny_negative_phi_wraps_to_zero(self, phi):
        # phi % 2 pi rounds up to exactly 2 pi here, outside [0, 2 pi)
        n = Direction(1.0, phi)
        assert n.phi == 0.0
        assert n == Direction(1.0, 0.0) and hash(n) == hash(Direction(1.0, 0.0))

    def test_from_cartesian_just_below_the_x_axis(self):
        n = Direction.from_cartesian((1.0, -1e-20, 0.0))
        assert n.phi == 0.0 and n == Direction(math.pi / 2, 0.0)

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            Direction(3.5, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_unit_norm(self, theta, phi):
        assert abs(np.linalg.norm(Direction(theta, phi).cartesian) - 1.0) < 1e-14

    def test_from_cartesian_round_trip(self):
        n = Direction(0.7, 2.1)
        back = Direction.from_cartesian(n.cartesian)
        assert back.theta == pytest.approx(n.theta, abs=1e-14)
        assert back.phi == pytest.approx(n.phi, abs=1e-14)


class TestRotation:
    def test_zero_angle_is_identity(self):
        for two_j in (1, 2, 5):
            r = rotation(Spin(two_j), Direction(0.0, 1.234))
            assert np.abs(r - np.eye(two_j + 1)).max() < 1e-14

    def test_spin_half_x_axis_series_oracle(self):
        # rotation to +x: generator Jy = sigma_y / 2, angle pi/2
        r = rotation(Spin(1), Direction(math.pi / 2, 0.0))
        expected = math.cos(math.pi / 4) * np.eye(2) - 1j * math.sin(
            math.pi / 4
        ) * SIGMA_Y
        assert np.abs(r - expected).max() < 1e-14
        oracle = series_expm(-1j * (math.pi / 2) * (SIGMA_Y / 2.0))
        assert np.abs(r - oracle).max() < 1e-13

    @pytest.mark.parametrize("two_j", [1, 2, 3, 7])
    def test_series_oracle_general(self, two_j):
        spin = Spin(two_j)
        jx, jy, _ = angular_momentum(spin)
        n = Direction(1.1, 2.4)
        gen = -math.sin(n.phi) * jx + math.cos(n.phi) * jy
        oracle = series_expm(-1j * n.theta * gen)
        assert np.abs(rotation(spin, n) - oracle).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 4, 9])
    def test_defining_covariance(self, two_j):
        spin = Spin(two_j)
        jx, jy, jz = angular_momentum(spin)
        n = Direction(2.0, 5.0)
        r = rotation(spin, n)
        jn = np.tensordot(n.cartesian, [jx, jy, jz], axes=1)
        assert np.abs(jn - r @ jz @ r.conj().T).max() < 1e-12
        assert np.abs(r.conj().T @ r - np.eye(spin.dim)).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 3, 6])
    def test_highest_weight_expectation(self, two_j):
        spin = Spin(two_j)
        jx, jy, jz = angular_momentum(spin)
        n = Direction(0.9, 0.4)
        ket = rotation(spin, n) @ basis_ket(spin, two_j)
        jn = np.tensordot(n.cartesian, [jx, jy, jz], axes=1)
        assert abs(ket.conj() @ jn @ ket - two_j / 2.0) < 1e-10

    def test_deterministic(self):
        a = rotation(Spin(5), Direction(0.8, 1.9))
        b = rotation(Spin(5), Direction(0.8, 1.9))
        assert np.array_equal(a, b)

    def test_theta_pi_flips_z(self):
        spin = Spin(2)
        _, _, jz = angular_momentum(spin)
        for phi in (0.0, 1.0):
            r = rotation(spin, Direction(math.pi, phi))
            assert np.abs(r @ jz @ r.conj().T + jz).max() < 1e-12


class TestFrameMatrix:
    def test_direction_frame(self):
        n = Direction(0.4, 0.2)
        assert np.array_equal(frame_matrix(Spin(2), n), rotation(Spin(2), n))

    def test_unitary_passthrough_and_checks(self):
        u = np.eye(3, dtype=complex)
        assert np.array_equal(frame_matrix(Spin(2), u), u)
        with pytest.raises(DomainError):
            frame_matrix(Spin(4), u)
        with pytest.raises(InvariantError):
            frame_matrix(Spin(2), 2.0 * u)


class TestDensityMatrix:
    def test_random_states_are_valid(self):
        rng = np.random.default_rng(0)
        for two_j in (1, 2, 5):
            rho = random_density_matrix(Spin(two_j), rng)
            validate_density_matrix(Spin(two_j), rho)

    def test_trace_violation(self):
        with pytest.raises(InvariantError):
            validate_density_matrix(Spin(1), np.eye(2))

    def test_negativity_violation(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvariantError):
            validate_density_matrix(Spin(1), bad)

    def test_non_hermitian_violation(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvariantError):
            validate_density_matrix(Spin(1), bad)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1)])
    def test_nan_state_raises(self, entry):
        bad = np.eye(2, dtype=complex) / 2.0
        bad[entry] = math.nan
        with pytest.raises(InvariantError):
            validate_density_matrix(Spin(1), bad)


class TestNanFrames:
    def test_frame_matrix_raises(self):
        with pytest.raises(InvariantError):
            frame_matrix(Spin(1), np.array([[math.nan, 0.0], [0.0, 1.0]]))

    def test_unitary_frame_set_raises(self):
        frames = [np.eye(2), np.eye(2), np.array([[math.nan, 0.0], [0.0, 1.0]])]
        with pytest.raises(InvariantError, match="not unitary"):
            UnitaryFrameSet(Spin(1), frames)


class TestDirectionFinite:
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        with pytest.raises(DomainError, match="phi must be finite"):
            Direction(0.5, phi)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(DomainError, match="theta"):
            Direction(theta, 0.5)
