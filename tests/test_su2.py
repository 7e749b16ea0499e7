import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    DomainError,
    FeasibilityError,
    Spin,
    angular_momentum,
    apply_quantizer,
    condition_number,
    dual_vectors,
    feasibility,
    feasibility_delta,
    gram,
    hermitian_to_vec,
    l_dequantizer,
    l_quantizer,
    normalize_to_eq,
    numerical_rank,
    prob_vector,
    q_matrix,
    quantizer,
    random_density_matrix,
    reconstruct,
    s_operator,
    shell_determinants,
)
from conftest import random_direction_set


def coplanar_triad() -> DirectionSet:
    return DirectionSet(
        Spin(1),
        [Direction(math.pi / 2, 0.0), Direction(math.pi / 2, 1.0), Direction(math.pi / 2, 2.0)],
    )


def triple_product(ds: DirectionSet) -> float:
    v = ds.unit_vectors()
    return float(v[0] @ np.cross(v[1], v[2]))


class TestDirectionSet:
    def test_length_enforced(self):
        with pytest.raises(DomainError):
            DirectionSet(Spin(2), [Direction(0, 0)] * 3)

    def test_shells_nested(self, qutrit_set):
        assert qutrit_set.shell(0) == qutrit_set.dirs[:1]
        assert qutrit_set.shell(1) == qutrit_set.dirs[:3]
        assert qutrit_set.shell(2) == qutrit_set.dirs


class TestGram:
    def test_orthogonal_triad_identity(self, orthogonal_triad):
        assert np.abs(gram(Spin(1), 1, orthogonal_triad) - np.eye(3)).max() < 1e-14

    def test_l1_entries_and_determinant(self):
        rng = np.random.default_rng(8)
        ds = random_direction_set(Spin(1), rng)
        g = gram(Spin(1), 1, ds)
        v = ds.unit_vectors()
        assert np.abs(g - v @ v.T).max() < 1e-13
        assert np.linalg.det(g) == pytest.approx(triple_product(ds) ** 2, abs=1e-12)

    def test_l2_entries_closed_form(self, qutrit_set):
        g = gram(Spin(2), 2, qutrit_set)
        v = qutrit_set.unit_vectors()
        dots = v @ v.T
        assert np.abs(g - (3.0 * dots**2 - 1.0) / 2.0).max() < 1e-13

    def test_agrees_with_operator_overlaps(self, qutrit_set):
        spin = Spin(2)
        for L in (1, 2):
            g = gram(spin, L, qutrit_set)
            for i in range(2 * L + 1):
                for k in range(2 * L + 1):
                    overlap = np.trace(
                        s_operator(spin, L, qutrit_set.dirs[i])
                        @ s_operator(spin, L, qutrit_set.dirs[k])
                    ).real
                    assert abs(g[i, k] - overlap) < 1e-11


class TestFeasibility:
    def test_orthogonal_triad(self, orthogonal_triad):
        assert feasibility(orthogonal_triad) == pytest.approx(1.0, abs=1e-13)

    def test_coplanar_triad(self):
        assert abs(feasibility(coplanar_triad())) < 1e-12

    def test_qutrit_reference_set_positive(self, qutrit_set):
        gram_value = feasibility(qutrit_set)
        delta_value = feasibility_delta(qutrit_set)
        assert gram_value > 1e-6
        assert abs(delta_value) > 1e-6

    def test_delta_and_gram_verdicts_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            ds = random_direction_set(Spin(2), rng)
            g = feasibility(ds)
            d = feasibility_delta(ds)
            assert (abs(g) < 1e-10) == (abs(d) < 1e-10)
        # degenerate first shell: coplanar n1, n2, n3
        bad = DirectionSet(
            Spin(2),
            [
                Direction(math.pi / 2, 0.1),
                Direction(math.pi / 2, 1.1),
                Direction(math.pi / 2, 2.1),
                Direction(0.4, 0.0),
                Direction(1.1, 3.0),
            ],
        )
        assert abs(feasibility(bad)) < 1e-10
        assert abs(feasibility_delta(bad)) < 1e-10

    def test_delta_q1_is_triple_product(self):
        rng = np.random.default_rng(3)
        ds = random_direction_set(Spin(1), rng)
        from spinportrait.su2 import delta_q

        assert abs(delta_q(ds.dirs, 1)) == pytest.approx(
            abs(triple_product(ds)), abs=1e-12
        )


class TestQMatrix:
    def test_shape_and_mixed_state_column(self, orthogonal_triad):
        spin = Spin(1)
        q = q_matrix(spin, orthogonal_triad.dirs)
        assert q.shape == (6, 4)
        out = q @ hermitian_to_vec(np.eye(2) / 2.0)
        assert np.abs(out - 1.0 / 6.0).max() < 1e-14

    def test_reproduces_prob_vector(self, qutrit_set):
        spin = Spin(2)
        rho = random_density_matrix(spin, np.random.default_rng(0))
        weights = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        q = q_matrix(spin, qutrit_set.dirs, weights)
        direct = prob_vector(spin, rho, qutrit_set.dirs, weights)
        assert np.abs(q @ hermitian_to_vec(rho) - direct.values).max() < 1e-14

    def test_rank_noncoplanar_triad(self, orthogonal_triad):
        assert numerical_rank(q_matrix(Spin(1), orthogonal_triad.dirs)) == 4

    def test_rank_deficit_coplanar(self):
        assert numerical_rank(q_matrix(Spin(1), coplanar_triad().dirs)) < 4

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_minimality_counts(self, two_j):
        spin = Spin(two_j)
        rng = np.random.default_rng(100 + two_j)
        ds = random_direction_set(spin, rng)
        full = spin.dim**2
        assert numerical_rank(q_matrix(spin, ds.dirs)) == full
        dropped = ds.dirs[:-1]
        short_weights = np.full(len(dropped), 1.0 / len(dropped))
        assert numerical_rank(q_matrix(spin, dropped, short_weights)) < full


class TestLQuantizer:
    def test_l0_scalar_shell(self):
        for two_j in (1, 2, 4):
            spin = Spin(two_j)
            rng = np.random.default_rng(two_j)
            ds = random_direction_set(spin, rng)
            n_u = 2 * two_j + 1
            for two_m in spin.two_m_values():
                d0 = l_quantizer(spin, 0, 0, two_m, ds)
                expected = (n_u / spin.dim) * np.eye(spin.dim)
                assert np.abs(d0 - expected).max() < 1e-12

    def test_orthogonal_triad_closed_form(self, orthogonal_triad):
        spin = Spin(1)
        for k in range(3):
            for two_m in (1, -1):
                d1 = l_quantizer(spin, 1, k, two_m, orthogonal_triad)
                expected = (
                    3.0
                    * math.sqrt(2.0)
                    * (two_m / 2.0)
                    * s_operator(spin, 1, orthogonal_triad.dirs[k])
                )
                assert np.abs(d1 - expected).max() < 1e-12

    @pytest.mark.parametrize("two_j,seed", [(1, 0), (2, 1), (3, 2), (4, 3)])
    def test_biorthogonality(self, two_j, seed):
        spin = Spin(two_j)
        ds = random_direction_set(spin, np.random.default_rng(seed))
        from spinportrait import coeff_table

        table = coeff_table(spin)
        ms = list(spin.two_m_values())
        dequants = {
            (L, k, m): l_dequantizer(spin, L, k, m, ds)
            for L in range(two_j + 1)
            for k in range(2 * L + 1)
            for m in ms
        }
        quants = {
            key: l_quantizer(spin, *key[:2], key[2], ds) for key in dequants
        }
        worst = 0.0
        for (L, k, m), u_op in dequants.items():
            for (Lp, kp, mp), d_op in quants.items():
                lhs = np.trace(u_op @ d_op).real
                rhs = (
                    table[L, spin.m_index(m)] * table[L, spin.m_index(mp)]
                    if (L == Lp and k == kp)
                    else 0.0
                )
                worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_singular_gram_raises(self):
        with pytest.raises(FeasibilityError):
            l_quantizer(Spin(1), 1, 0, 1, coplanar_triad())


class TestQuantizer:
    def test_shell_membership(self, orthogonal_triad):
        spin = Spin(1)
        # k = 0 carries the L = 0 and L = 1 shells, k = 1, 2 only L = 1
        d_k0 = quantizer(spin, 0, 1, orthogonal_triad)
        parts = l_quantizer(spin, 0, 0, 1, orthogonal_triad) + l_quantizer(
            spin, 1, 0, 1, orthogonal_triad
        )
        assert np.abs(d_k0 - parts).max() < 1e-13
        for k in (1, 2):
            only_l1 = l_quantizer(spin, 1, k, 1, orthogonal_triad)
            assert np.abs(quantizer(spin, k, 1, orthogonal_triad) - only_l1).max() < 1e-13

    def test_trace_values_spin_half(self, orthogonal_triad):
        spin = Spin(1)
        for two_m in (1, -1):
            assert np.trace(quantizer(spin, 0, two_m, orthogonal_triad)).real == (
                pytest.approx(3.0, abs=1e-12)
            )
            for k in (1, 2):
                assert np.trace(
                    quantizer(spin, k, two_m, orthogonal_triad)
                ).real == pytest.approx(0.0, abs=1e-12)


class TestApplyQuantizer:
    def test_complex_coefficients_keep_their_imaginary_part(self, orthogonal_triad):
        from spinportrait import symbol

        spin = Spin(1)
        raising = np.array([[0.0, 1.0], [0.0, 0.0]])
        values = symbol(spin, raising, orthogonal_triad)
        assert np.abs(apply_quantizer(values, orthogonal_triad) - raising).max() < 1e-14

    def test_real_coefficients_take_the_same_product(self, qutrit_set):
        values = prob_vector(Spin(2), random_density_matrix(Spin(2), np.random.default_rng(9)), qutrit_set.dirs).values
        assert np.array_equal(
            apply_quantizer(values, qutrit_set), apply_quantizer(values.astype(complex), qutrit_set)
        )


class TestReconstruct:
    def test_uniform_gives_mixed(self, qutrit_set):
        spin = Spin(2)
        from spinportrait import ProbVector

        p = ProbVector(spin, 5, np.full(15, 1.0 / 15.0))
        assert np.abs(reconstruct(p, qutrit_set) - np.eye(3) / 3.0).max() < 1e-12

    def test_pure_z_state(self, orthogonal_triad):
        spin = Spin(1)
        rho = np.diag([1.0, 0.0]).astype(complex)
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        assert np.abs(reconstruct(p, orthogonal_triad) - rho).max() < 1e-12

    def test_qubit_closed_form_oracle(self):
        # rho = (3/2) S I + 3 sum_k [P(+, k) - P(-, k)] (J . l_k)
        spin = Spin(1)
        rng = np.random.default_rng(9)
        ds = random_direction_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        p = prob_vector(spin, rho, ds.dirs)
        jx, jy, jz = angular_momentum(spin)
        duals = dual_vectors(ds)
        block_sum = p.value(0, 1) + p.value(0, -1)
        closed = 1.5 * block_sum * np.eye(2, dtype=complex)
        for k in range(3):
            delta = p.value(k, 1) - p.value(k, -1)
            jl = np.tensordot(duals[k], [jx, jy, jz], axes=1)
            closed += 3.0 * delta * jl
        assert np.abs(closed - rho).max() < 1e-12
        assert np.abs(reconstruct(p, ds) - closed).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 5, 6])
    def test_round_trip_random_sets(self, two_j):
        # the determinant product shrinks combinatorially with j, so random
        # sets are filtered by conditioning rather than by the raw product
        spin = Spin(two_j)
        rng = np.random.default_rng(40 + two_j)
        ds = random_direction_set(spin, rng)
        while condition_number(q_matrix(spin, ds.dirs)) > 200.0:
            ds = random_direction_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        p = prob_vector(spin, rho, ds.dirs)
        rec = reconstruct(p, ds)
        assert np.abs(rec - rho).max() < 1e-9
        assert np.trace(rec).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_equal_weights(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(1))
        p = prob_vector(spin, rho, orthogonal_triad.dirs, [0.5, 0.3, 0.2])
        with pytest.raises(DomainError):
            reconstruct(p, orthogonal_triad)
        rec = reconstruct(normalize_to_eq(p), orthogonal_triad)
        assert np.abs(rec - rho).max() < 1e-11


class TestDualVectors:
    def test_duality_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            ds = random_direction_set(Spin(1), rng)
            if abs(triple_product(ds)) < 1e-2:
                continue
            duals = dual_vectors(ds)
            v = ds.unit_vectors()
            assert np.abs(duals @ v.T - np.eye(3)).max() < 1e-12

    def test_cross_product_closed_form(self):
        ds = random_direction_set(Spin(1), np.random.default_rng(23))
        v = ds.unit_vectors()
        trip = triple_product(ds)
        expected = np.array(
            [
                np.cross(v[1], v[2]) / trip,
                np.cross(v[2], v[0]) / trip,
                np.cross(v[0], v[1]) / trip,
            ]
        )
        assert np.abs(dual_vectors(ds) - expected).max() < 1e-12


class TestErrorAmplification:
    def test_monotone_in_condition_number(self):
        # squashing the triad toward a plane raises cond(Q) and amplification
        spin = Spin(1)
        rng = np.random.default_rng(31)
        noise = rng.normal(size=(20, 6))
        conds, amps = [], []
        for alpha in (math.pi / 2, 1.1, 0.7, 0.4, 0.2):
            ds = DirectionSet(
                spin,
                [
                    Direction(0.0, 0.0),
                    Direction(alpha, 0.0),
                    Direction(alpha, math.pi / 2),
                ],
            )
            q = q_matrix(spin, ds.dirs)
            conds.append(condition_number(q))
            worst = 0.0
            for delta in noise:
                # reconstruction is linear: response to the injected noise
                amp = np.linalg.norm(apply_quantizer(delta, ds)) / np.linalg.norm(delta)
                worst = max(worst, amp)
            amps.append(worst)
        assert all(a < b for a, b in zip(conds, conds[1:]))
        assert all(a < b for a, b in zip(amps, amps[1:]))

    def test_relative_amplification_bounded_by_condition_number(self):
        spin = Spin(1)
        rng = np.random.default_rng(33)
        for seed in range(5):
            ds = random_direction_set(spin, np.random.default_rng(seed))
            if abs(feasibility(ds)) < 1e-4:
                continue
            rho = random_density_matrix(spin, rng)
            p = prob_vector(spin, rho, ds.dirs)
            cond = condition_number(q_matrix(spin, ds.dirs))
            for _ in range(10):
                delta = 1e-6 * rng.normal(size=6)
                d_rho = apply_quantizer(delta, ds)
                rel_state = np.linalg.norm(d_rho) / np.linalg.norm(
                    hermitian_to_vec(rho)
                )
                rel_p = np.linalg.norm(delta) / np.linalg.norm(p.values)
                assert rel_state <= cond * rel_p * (1.0 + 1e-9)
