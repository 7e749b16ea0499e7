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
    legendre,
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
from spinportrait import orthopoly, su2
from spinportrait import spin as spin_module
from spinportrait.orthopoly import coeff_table
from spinportrait.spin import frame_matrices
from conftest import coplanar_triad, random_direction_set


def admitted_set(spin: Spin, seed: int) -> DirectionSet:
    """The first random set from the seed that the nested quantizers accept."""
    rng = np.random.default_rng((spin.two_j, seed))
    while True:
        ds = random_direction_set(spin, rng)
        try:
            su2.quantizer_stack(ds)
            return ds
        except FeasibilityError:
            pass


def operator_oracle(ds: DirectionSet):
    """(quantizer stack, max cond M(L)) from S_L operators and Legendre solves.

    D(m, k) = (4j+1) sum_L f_L(m) sum_k' [M(L)^-1]_kk' S_L(n_k'), each shell's
    duals from np.linalg.solve on its Gram block P_L(n_i . n_k).
    """
    spin, n, d = ds.spin, ds.n_dirs, ds.spin.dim
    table = coeff_table(spin)
    # ops[k, L] = S_L(n_k) = V f_L(Jz) V^dag, as complex matrices
    v = frame_matrices(spin, ds.dirs)[:, None]
    ops = (v * table[None, :, None, :]) @ np.swapaxes(v, -1, -2).conj()
    out = np.zeros((n, d, d, d), dtype=complex)
    cond = 1.0
    for L in range(d):
        size = 2 * L + 1
        block = gram(spin, L, ds) if L else np.ones((1, 1))
        cond = max(cond, np.linalg.cond(block))
        duals = np.linalg.solve(block, ops[:size, L].reshape(size, d * d)).reshape(size, d, d)
        out[:size] += (n * table[L])[:, None, None] * duals[:, None]
    return out.reshape(n * d, d, d), cond


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

    @pytest.mark.parametrize("two_j", [1, 2, 4, 8])
    def test_delta_product_squares_to_the_gram_product(self, two_j):
        ds = random_direction_set(Spin(two_j), np.random.default_rng(two_j))
        assert feasibility_delta(ds) ** 2 == pytest.approx(feasibility(ds), rel=1e-10)

    @pytest.mark.parametrize("two_j", range(1, 17))
    def test_delta_product_is_bitwise_the_product_of_each_delta_q(self, two_j):
        # feasibility_delta reads every delta_q from one factor call on the whole set
        ds = random_direction_set(Spin(two_j), np.random.default_rng(two_j))
        product = np.prod([su2.delta_q(ds.dirs, q) for q in range(1, two_j + 1)])
        assert feasibility_delta(ds) == float(product)

    def test_delta_q1_is_triple_product(self):
        rng = np.random.default_rng(3)
        ds = random_direction_set(Spin(1), rng)
        from spinportrait.su2 import delta_q

        assert abs(delta_q(ds.dirs, 1)) == pytest.approx(
            abs(triple_product(ds)), abs=1e-12
        )

    def test_negative_q_is_a_domain_error(self, orthogonal_triad):
        with pytest.raises(DomainError, match=r"^q=-1 is negative$"):
            su2.delta_q(orthogonal_triad.dirs, -1)


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

    @pytest.mark.parametrize("accessor", [l_dequantizer, l_quantizer])
    @pytest.mark.parametrize("L", [-1, 2])
    def test_shell_outside_the_spin_is_a_domain_error(self, orthogonal_triad, accessor, L):
        with pytest.raises(DomainError, match=rf"^L={L} outside 0..1$"):
            accessor(Spin(1), L, 0, 1, orthogonal_triad)


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

    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 16, orthopoly.MAX_TWO_J])
    def test_stack_matches_the_operator_oracle(self, two_j):
        for seed in range(4):
            ds = admitted_set(Spin(two_j), seed)
            oracle, cond = operator_oracle(ds)
            # both lose digits as eps * cond(M(L)); measured up to 12 eps * cond
            tol = 1e-13 * cond * np.abs(oracle).max()
            assert np.abs(su2.quantizer_stack(ds) - oracle).max() <= tol

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_l_quantizers_sum_to_the_quantizer(self, two_j):
        spin = Spin(two_j)
        ds = admitted_set(spin, 0)
        for k in range(ds.n_dirs):
            for two_m in spin.two_m_values():
                total = sum(
                    l_quantizer(spin, L, k, two_m, ds) for L in range((k + 1) // 2, two_j + 1)
                )
                full = quantizer(spin, k, two_m, ds)
                assert np.abs(total - full).max() <= 1e-12 * max(1.0, np.abs(full).max())

    @pytest.mark.parametrize("two_j", [1, 4, 16])
    def test_stack_is_exactly_hermitian(self, two_j):
        stack = su2.quantizer_stack(admitted_set(Spin(two_j), 1))
        assert np.array_equal(stack, np.conj(np.swapaxes(stack, 1, 2)))

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


class TestLeastSquares:
    @pytest.mark.parametrize("two_j", [1, 2, 4, 8, 12, 16, 24])
    def test_random_sets_round_trip_and_match_pinv(self, two_j):
        spin = Spin(two_j)
        for seed in range(2):
            rng = np.random.default_rng((two_j, seed))
            ds = random_direction_set(spin, rng)
            rho = random_density_matrix(spin, rng)
            assert np.abs(reconstruct(prob_vector(spin, rho, ds.dirs), ds) - rho).max() < 1e-9
            q = q_matrix(spin, ds.dirs)
            s, inverse = su2.least_squares(ds)
            pinv = np.linalg.pinv(q)
            assert np.abs(inverse - pinv).max() <= 4e-11 * np.abs(pinv).max()
            sv = np.linalg.svd(q, compute_uv=False)
            assert np.abs(s - sv).max() <= 1e-13 * sv[0]

    @pytest.mark.parametrize("two_j", [1, 4, 16])
    def test_cold_inverses_rotate_nothing(self, monkeypatch, two_j):
        # with the per-spin basis warm, both inverses of a direction set read
        # only its harmonic factors: no rotation, no operator, no forward-map row
        spin = Spin(two_j)
        ds = admitted_set(spin, 2)
        rho = random_density_matrix(spin, np.random.default_rng(two_j))
        p = prob_vector(spin, rho, ds.dirs)
        orthopoly.shell_basis(spin)

        def refuse(*args, **kwargs):
            raise AssertionError("a cold inverse rotated the directions or built operators")

        for module, name in [(spin_module, "frame_matrices"), (spin_module, "rotations"),
                             (orthopoly, "s_operator_coords"), (su2, "forward_matrix")]:
            monkeypatch.setattr(module, name, refuse)
        su2._solver.cache_clear()
        su2.quantizer_stack.cache_clear()
        assert np.abs(reconstruct(p, ds) - rho).max() < 1e-9
        assert np.abs(apply_quantizer(p.values, ds) - rho).max() < 1e-9

    def test_coplanar_triad_is_refused_with_the_rank_message(self):
        ds = coplanar_triad()
        p = prob_vector(ds.spin, np.eye(2) / 2.0, ds.dirs)
        with pytest.raises(FeasibilityError, match=r"^frame forward map has rank 3 < 4$"):
            reconstruct(p, ds)
        with pytest.raises(FeasibilityError, match=r"^frame forward map has rank 3 < 4$"):
            su2.least_squares(ds)

    @pytest.mark.parametrize("two_j", [0, 1, 4, 16, 24])
    def test_harmonic_factors_are_the_addition_theorem(self, two_j):
        vectors = random_direction_set(Spin(two_j), np.random.default_rng(two_j)).unit_vectors().copy()
        vectors[0] = [0.0, 0.0, 1.0]  # a pole, where phi is arbitrary
        factors = su2._harmonic_factors(vectors, two_j)
        dots = np.clip(vectors @ vectors.T, -1.0, 1.0)
        for L in range(two_j + 1):
            assert np.abs(factors[L] @ factors[L].T - legendre(L, dots)).max() < 1e-12
            assert not factors[L][:, 2 * L + 1 :].any()

    @pytest.mark.parametrize("two_j", range(17))
    def test_stacked_harmonic_factors_are_the_per_set_factors(self, two_j):
        vectors = np.random.default_rng(400 + two_j).normal(size=(2, 3, 2 * two_j + 1, 3))
        vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
        stacked = su2._harmonic_factors(vectors, two_j)
        assert stacked.shape == (2, 3, two_j + 1, 2 * two_j + 1, 2 * two_j + 1)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stacked[idx], su2._harmonic_factors(vectors[idx], two_j))

    @pytest.mark.parametrize("two_j", [2, 4])
    def test_least_error_among_the_two_inverses(self, two_j):
        # both maps invert Q exactly; the pseudo-inverse has the smaller
        # Frobenius norm, the expected squared error under white noise
        spin = Spin(two_j)
        for seed in range(5):
            ds = random_direction_set(spin, np.random.default_rng((two_j, seed)))
            q = q_matrix(spin, ds.dirs)
            _, inverse = su2.least_squares(ds)
            nested = np.array([hermitian_to_vec(d) for d in su2.quantizer_stack(ds)]).T
            assert np.abs(inverse @ q - np.eye(spin.dim**2)).max() < 1e-9
            assert np.abs(nested @ q - np.eye(spin.dim**2)).max() < 1e-9
            assert np.linalg.norm(inverse) <= np.linalg.norm(nested) * (1.0 + 1e-12)


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


class TestRefusedOnlyByTheShellsRead:
    """A singular shell-2 block refuses the readers of shell 2 alone.

    Both sets share their first three directions; the fifth direction of the
    singular set repeats its fourth, so two rows of its shell-2 factor agree.
    """

    @staticmethod
    def sets():
        rng = np.random.default_rng(30)
        good = admitted_set(Spin(2), 30)
        fourth = Direction(float(np.arccos(rng.uniform(-1.0, 1.0))), float(rng.uniform(0.0, 2.0 * np.pi)))
        return DirectionSet(Spin(2), [*good.dirs[:3], fourth, fourth]), good

    def test_lower_shells_read_the_same_bits(self):
        singular, good = self.sets()
        assert np.array_equal(dual_vectors(singular), dual_vectors(good))
        spin = Spin(2)
        for L in (0, 1):
            for k in range(2 * L + 1):
                for two_m in spin.two_m_values():
                    assert np.array_equal(
                        l_quantizer(spin, L, k, two_m, singular), l_quantizer(spin, L, k, two_m, good)
                    )

    def test_readers_of_shell_2_are_refused(self):
        singular, good = self.sets()
        with pytest.raises(FeasibilityError, match=r"^shell L=2 Gram eigenvalue ratio"):
            su2.quantizer_stack(singular)
        with pytest.raises(FeasibilityError, match=r"^shell L=2 Gram eigenvalue ratio"):
            l_quantizer(Spin(2), 2, 0, 2, singular)
        assert su2.quantizer_stack(good).shape == (5 * 3, 3, 3)


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
