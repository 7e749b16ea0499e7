import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DomainError,
    Spin,
    angular_momentum,
    assoc_legendre,
    coeff_table,
    legendre,
    rotation,
    s_operator,
)
from spinportrait.orthopoly import MAX_TWO_J

SQRT2 = math.sqrt(2.0)
SQRT6 = math.sqrt(6.0)


def gram_schmidt_monic_rows(n: int):
    """Independent oracle: orthogonalize the monomials on {0, ..., n-1}.

    Projection-based Gram-Schmidt keeps each row monic, so norms can be
    checked against the closed-form normalization constants.
    """
    x = np.arange(n, dtype=float)
    rows = []
    for deg in range(n):
        p = x**deg
        for q in rows:
            p = p - (p @ q) / (q @ q) * q
        rows.append(p)
    return rows


class TestCoeffTable:
    def test_spin_half_closed_forms(self):
        table = coeff_table(Spin(1))
        m = np.array([0.5, -0.5])
        assert np.abs(table[0] - 1.0 / SQRT2).max() < 1e-15
        assert np.abs(table[1] - SQRT2 * m).max() < 1e-15

    def test_spin_one_closed_forms(self):
        table = coeff_table(Spin(2))
        m = np.array([1.0, 0.0, -1.0])
        assert np.abs(table[0] - 1.0 / math.sqrt(3.0)).max() < 1e-15
        assert np.abs(table[1] - m / SQRT2).max() < 1e-15
        assert np.abs(table[2] - (3.0 * m**2 - 2.0) / SQRT6).max() < 1e-15
        assert table[2][1] == pytest.approx(-2.0 / SQRT6, abs=1e-15)

    @pytest.mark.parametrize("two_j", range(1, 13))
    def test_first_degree_general_form(self, two_j):
        spin = Spin(two_j)
        j = two_j / 2.0
        expected = math.sqrt(3.0) * spin.m_values() / math.sqrt(
            j * (j + 1.0) * (2.0 * j + 1.0)
        )
        assert np.abs(coeff_table(spin)[1] - expected).max() < 1e-13

    @pytest.mark.parametrize("two_j", range(0, MAX_TWO_J + 1))
    def test_orthonormality(self, two_j):
        table = coeff_table(Spin(two_j))
        defect = np.abs(table @ table.T - np.eye(two_j + 1)).max()
        # the stated range is orthonormal to 1e-10; the low spins to 1e-11
        assert defect < (1e-11 if two_j <= 12 else 1e-10)

    def test_above_validated_range_raises(self):
        with pytest.raises(DomainError, match="orthonormal"):
            coeff_table(Spin(MAX_TWO_J + 1))
        with pytest.raises(DomainError):
            s_operator(Spin(MAX_TWO_J + 1), 0, Direction(0.0, 0.0))

    @pytest.mark.parametrize("two_j", range(1, 13))
    def test_constant_row_and_parity(self, two_j):
        table = coeff_table(Spin(two_j))
        assert np.abs(table[0] - 1.0 / math.sqrt(two_j + 1)).max() < 1e-13
        for L in range(two_j + 1):
            sign = (-1.0) ** L
            assert np.abs(table[L] - sign * table[L][::-1]).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4])
    def test_normalization_constants_oracle(self, two_j):
        # the unnormalized rows have norm d_L / binom(2L, 2j-dependent leading):
        # d_L = sqrt((2j+L+1)! / ((2L+1)(2j-L)!)) and the conventional
        # (non-monic) polynomials carry leading coefficient binom(2L, L)
        n = two_j + 1
        monic = gram_schmidt_monic_rows(n)
        table = coeff_table(Spin(two_j))
        for L in range(n):
            d_l = math.sqrt(
                math.factorial(two_j + L + 1)
                / ((2 * L + 1) * math.factorial(two_j - L))
            )
            expected_norm = d_l / math.comb(2 * L, L)
            assert np.linalg.norm(monic[L]) == pytest.approx(
                expected_norm, rel=1e-12
            )
            # direction check: normalized oracle row equals the table row
            unit = monic[L] / np.linalg.norm(monic[L])
            unit = unit[::-1]
            if unit[0] < 0:
                unit = -unit
            assert np.abs(unit - table[L]).max() < 1e-12


class TestSOperator:
    def test_l0_is_scaled_identity(self):
        for two_j in (1, 2, 4):
            spin = Spin(two_j)
            op = s_operator(spin, 0, Direction(1.0, 2.0))
            expected = np.eye(spin.dim) / math.sqrt(spin.dim)
            assert np.abs(op - expected).max() < 1e-13

    def test_spin_one_l2_closed_form(self):
        spin = Spin(2)
        n = Direction(0.8, 2.3)
        jx, jy, jz = angular_momentum(spin)
        jn = np.tensordot(n.cartesian, [jx, jy, jz], axes=1)
        expected = (3.0 * jn @ jn - 2.0 * np.eye(3)) / SQRT6
        assert np.abs(s_operator(spin, 2, n) - expected).max() < 1e-13

    def test_frame_covariance(self):
        spin = Spin(3)
        n = Direction(1.2, 0.7)
        r = rotation(spin, n)
        for L in range(4):
            rotated = r @ s_operator(spin, L, Direction(0.0, 0.0)) @ r.conj().T
            assert np.abs(s_operator(spin, L, n) - rotated).max() < 1e-12

    def test_two_frame_overlap_is_legendre(self):
        # independent oracle: explicit low-degree Legendre polynomials
        explicit = {
            1: lambda x: x,
            2: lambda x: (3 * x**2 - 1) / 2,
            3: lambda x: (5 * x**3 - 3 * x) / 2,
        }
        spin = Spin(3)
        n1 = Direction(0.9, 0.3)
        n2 = Direction(1.9, 4.0)
        cosang = float(n1.cartesian @ n2.cartesian)
        for L in (1, 2, 3):
            overlap = np.trace(
                s_operator(spin, L, n1) @ s_operator(spin, L, n2)
            ).real
            assert abs(overlap - explicit[L](cosang)) < 1e-11
        # cross terms vanish
        for L, Lp in ((0, 1), (1, 2), (2, 3)):
            cross = np.trace(
                s_operator(spin, L, n1) @ s_operator(spin, Lp, n2)
            ).real
            assert abs(cross) < 1e-12

    def test_same_frame_orthonormality(self):
        spin = Spin(4)
        u = rotation(spin, Direction(0.5, 0.5))
        for L in range(5):
            for Lp in range(5):
                value = np.trace(
                    s_operator(spin, L, u) @ s_operator(spin, Lp, u)
                ).real
                assert abs(value - (1.0 if L == Lp else 0.0)) < 1e-11

    def test_out_of_range_degree(self):
        with pytest.raises(DomainError):
            s_operator(Spin(2), 3, Direction(0.0, 0.0))
        with pytest.raises(DomainError):
            s_operator(Spin(2), -1, Direction(0.0, 0.0))


class TestLegendre:
    def test_against_explicit_forms(self):
        x = np.linspace(-1, 1, 11)
        assert np.abs(legendre(0, x) - 1.0).max() < 1e-15
        assert np.abs(legendre(1, x) - x).max() < 1e-15
        assert np.abs(legendre(2, x) - (3 * x**2 - 1) / 2).max() < 1e-14
        assert np.abs(legendre(4, x) - (35 * x**4 - 30 * x**2 + 3) / 8).max() < 1e-14

    def test_assoc_legendre_small_orders(self):
        x = np.linspace(-0.99, 0.99, 9)
        s = np.sqrt(1 - x**2)
        assert np.abs(assoc_legendre(1, 0, x) - x).max() < 1e-14
        assert np.abs(assoc_legendre(1, 1, x) - s).max() < 1e-14
        assert np.abs(assoc_legendre(2, 1, x) - 3 * x * s).max() < 1e-13
        assert np.abs(assoc_legendre(2, 2, x) - 3 * (1 - x**2)).max() < 1e-13

    def test_assoc_legendre_domain(self):
        with pytest.raises(DomainError):
            assoc_legendre(1, 2, 0.5)
