import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinportrait import (
    DegeneratePriorError,
    Direction,
    DomainError,
    InvariantError,
    Partition,
    ProbVector,
    Spin,
    normalize_to_eq,
    portrait,
    prob_vector,
    random_density_matrix,
    singleton_partition,
    stack,
    top_vs_rest_partition,
)


class TestPartition:
    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            Partition([(1, -1), (1,)])

    def test_empty_block_rejected(self):
        with pytest.raises(DomainError):
            Partition([(1,), ()])

    @pytest.mark.parametrize("blocks", [[(1.7,), (-1.2,)], [(1.0,), (-1,)], [(True,), (-1,)]])
    def test_entries_that_are_not_integers_are_refused(self, blocks):
        # int() would truncate 1.7 to 1 and read True as 1, and the partition would pass
        with pytest.raises(DomainError, match="integer doubled projections"):
            Partition(blocks)

    def test_numpy_integer_entries_are_taken(self):
        assert Partition([(np.int64(1),), (np.int32(-1),)]).blocks == ((1,), (-1,))

    def test_cover_checked_against_spin(self):
        part = Partition([(1,)])
        with pytest.raises(DomainError):
            part.validate_for(Spin(1))


class TestPortrait:
    def test_singletons_identity(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        out = portrait(w, singleton_partition(Spin(3)))
        assert np.array_equal(out, w)

    def test_two_block_arithmetic(self):
        out = portrait([0.5, 0.3, 0.2], Partition([(2,), (0, -2)]))
        assert np.allclose(out, [0.5, 0.5])

    def test_top_vs_rest(self):
        spin = Spin(4)
        w = np.array([0.4, 0.3, 0.1, 0.15, 0.05])
        out = portrait(w, top_vs_rest_partition(spin))
        assert out[0] == pytest.approx(w[0])
        assert out[1] == pytest.approx(1.0 - w[0])

    def test_output_sums_to_input_sum(self):
        w = np.array([0.25, 0.25, 0.5])
        part = Partition([(2, -2), (0,)])
        assert portrait(w, part).sum() == pytest.approx(w.sum())

    def test_refinement_composition(self):
        # portraiting with a coarser partition equals portraiting the portrait
        w = np.array([0.4, 0.3, 0.2, 0.1])  # spin 3/2 column
        fine = Partition([(3,), (1, -1), (-3,)])  # three blocks -> pseudospin 1
        merged = Partition([(3, 1, -1), (-3,)])
        coarse_on_pseudo = Partition([(2, 0), (-2,)])
        direct = portrait(w, merged)
        composed = portrait(portrait(w, fine), coarse_on_pseudo)
        assert np.allclose(direct, composed)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=6))
    def test_random_partition_preserves_total(self, two_j, seed):
        rng = np.random.default_rng(seed)
        spin = Spin(two_j)
        w = rng.dirichlet(np.ones(spin.dim))
        projections = list(spin.two_m_values())
        rng.shuffle(projections)
        n_blocks = rng.integers(1, spin.dim + 1)
        cuts = sorted(rng.choice(range(1, spin.dim), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
        blocks, lo = [], 0
        for cut in [*cuts, spin.dim]:
            blocks.append(tuple(projections[lo:cut]))
            lo = cut
        out = portrait(w, Partition(blocks))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.min() >= 0.0


class TestStack:
    def test_single_portrait(self):
        p = stack([[0.6, 0.4]], [1.0])
        assert np.allclose(p.values, [0.6, 0.4])
        assert p.n_rotations == 1

    def test_equal_weights(self):
        p = stack([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
        assert np.allclose(p.values, [0.5, 0.0, 0.25, 0.25])

    def test_arbitrary_weights_arithmetic(self):
        weights = [0.5, 0.25, 0.25]
        cols = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        p = stack(cols, weights)
        expected = np.array([0.5, 0.0, 0.0, 0.25, 0.125, 0.125])
        assert np.allclose(p.values, expected)
        assert p.values.sum() == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            stack([[0.5, 0.5], [1.0, 0.0, 0.0]], [0.5, 0.5])

    def test_bad_weights(self):
        with pytest.raises(DomainError):
            stack([[1.0, 0.0]], [0.5])


class TestProbVector:
    def test_layout_index(self):
        spin = Spin(1)
        p = ProbVector(spin, 3, np.array([1 / 3, 0, 1 / 6, 1 / 6, 1 / 6, 1 / 6]))
        assert p.index(0, 1) == 0
        assert p.index(0, -1) == 1
        assert p.index(2, 1) == 4
        assert p.value(0, 1) == pytest.approx(1 / 3)
        assert np.allclose(p.block(1), [1 / 6, 1 / 6])

    def test_invariants_enforced(self):
        with pytest.raises(InvariantError):
            ProbVector(Spin(1), 1, np.array([0.9, 0.3]))
        with pytest.raises(InvariantError):
            ProbVector(Spin(1), 1, np.array([1.1, -0.1]))

    def test_values_frozen(self):
        p = ProbVector(Spin(1), 1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.values[0] = 0.9


class TestProbVectorForwardMap:
    def test_mixed_state_spin_half(self, orthogonal_triad):
        spin = Spin(1)
        p = prob_vector(spin, np.eye(2) / 2.0, orthogonal_triad.dirs)
        assert np.abs(p.values - 1.0 / 6.0).max() < 1e-13

    def test_mixed_state_spin_one(self):
        spin = Spin(2)
        dirs = [Direction(0.3 * k, 0.9 * k) for k in range(5)]
        p = prob_vector(spin, np.eye(3) / 3.0, dirs)
        assert np.abs(p.values - 1.0 / 15.0).max() < 1e-13

    def test_pure_z_state_on_triad(self, orthogonal_triad):
        spin = Spin(1)
        rho = np.diag([1.0, 0.0]).astype(complex)
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        expected = np.array([1 / 3, 0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6])
        assert np.abs(p.values - expected).max() < 1e-13

    def test_block_sums_equal_weights(self):
        spin = Spin(2)
        rng = np.random.default_rng(2)
        rho = random_density_matrix(spin, rng)
        dirs = [Direction(0.2 + 0.5 * k, 1.1 * k) for k in range(5)]
        weights = np.array([0.4, 0.3, 0.1, 0.1, 0.1])
        p = prob_vector(spin, rho, dirs, weights)
        assert np.abs(p.block_sums() - weights).max() < 1e-11


class TestNormalizeToEq:
    def test_idempotent_on_equal_weights(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(4))
        p = prob_vector(spin, rho, orthogonal_triad.dirs)
        q = normalize_to_eq(p)
        assert np.abs(q.values - p.values).max() < 1e-14

    def test_erases_weights(self, orthogonal_triad):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(5))
        weighted = prob_vector(
            spin, rho, orthogonal_triad.dirs, [0.5, 0.3, 0.2]
        )
        equal = prob_vector(spin, rho, orthogonal_triad.dirs)
        assert np.abs(normalize_to_eq(weighted).values - equal.values).max() < 1e-12

    def test_uniform_fixed_point(self):
        p = ProbVector(Spin(1), 3, np.full(6, 1.0 / 6.0))
        assert np.abs(normalize_to_eq(p).values - p.values).max() < 1e-15

    def test_degenerate_prior_rejected(self):
        values = np.array([0.5, 0.5, 0.0, 0.0])
        p = ProbVector(Spin(1), 2, values)
        with pytest.raises(DegeneratePriorError):
            normalize_to_eq(p)


class TestNonFiniteProbabilities:
    @pytest.mark.parametrize(
        "bad,message", [(math.nan, "NaN probability nan"), (math.inf, "sum to inf")]
    )
    def test_non_finite_entry_rejected(self, bad, message):
        with pytest.raises(InvariantError, match=message):
            ProbVector(Spin(1), 3, [1 / 6] * 4 + [bad, 1 / 6])
