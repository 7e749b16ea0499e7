"""The shell Gram builder and its one floor rule, pinned against a per-shell oracle.

The oracle is the rule every Gram user applied before they shared one
builder: each shell matrix rebuilt on its own as P_L(dots[:2L+1, :2L+1]) with
the Legendre recurrence rolled from degree 0, and the set refused at the first
shell with |det| < 1e-12.  Verdicts, refused shells and messages of the
library must match it, and so must the optimizer objective.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from spinportrait import (
    Direction,
    DirectionSet,
    FeasibilityError,
    OptimizerConfig,
    ProbVector,
    Spin,
    assoc_legendre,
    feasibility,
    gram,
    legendre,
    newton_young_directions,
    objective,
    optimize,
    reconstruct,
    shell_determinants,
)
from spinportrait import io as fileio
from spinportrait import su2
from spinportrait.cli import main
from spinportrait.optimize import INFEASIBLE
from spinportrait.orthopoly import legendre_series
from conftest import random_direction_set

ORACLE_FLOOR = 1e-12
SPINS = (1, 2, 4, 8, 12, 16)
N_SETS = 20


def oracle_legendre(L: int, x: np.ndarray) -> np.ndarray:
    p_prev = np.ones_like(x)
    if L == 0:
        return p_prev
    p = x.copy()
    for k in range(1, L):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p


def oracle_shells(ds: DirectionSet):
    """(first refused shell or None, the determinants of the shells tested)."""
    vectors = ds.unit_vectors()
    dots = np.clip(vectors @ vectors.T, -1.0, 1.0)
    dets = []
    for L in range(1, ds.spin.two_j + 1):
        n = 2 * L + 1
        dets.append(np.linalg.det(oracle_legendre(L, dots[:n, :n])))
        if abs(dets[-1]) < ORACLE_FLOOR:
            return L, dets
    return None, dets


def oracle_message(L: int, det: float) -> str:
    return (
        f"shell L={L} Gram determinant {det:.3e} below 1e-12; "
        "the direction set cannot be inverted"
    )


def oracle_log_product(dets) -> float:
    total = 0.0
    for det in dets:
        total += math.log(det)
    return total


def uniform_vector(ds: DirectionSet) -> ProbVector:
    """The equal-weight vector of the maximally mixed state, valid on any set."""
    n = ds.n_dirs * ds.spin.dim
    return ProbVector(ds.spin, ds.n_dirs, np.full(n, 1.0 / n))


def random_sets(two_j: int):
    spin = Spin(two_j)
    return [
        random_direction_set(spin, np.random.default_rng((two_j, i)))
        for i in range(N_SETS)
    ]


def nearly_coplanar_sets(two_j: int):
    """Random sets squashed toward the xy-plane, straddling the floor at low spin."""
    spin = Spin(two_j)
    out = []
    for i, squash in enumerate(np.logspace(-1, -9, N_SETS)):
        rng = np.random.default_rng((two_j, 100 + i))
        vectors = random_direction_set(spin, rng).unit_vectors() * [1.0, 1.0, squash]
        out.append(DirectionSet(spin, [Direction.from_cartesian(v) for v in vectors]))
    return out


def refusal(fn):
    """The FeasibilityError message of fn(), or None if it returns."""
    try:
        fn()
    except FeasibilityError as exc:
        return str(exc)
    return None


class TestLegendre:
    def test_matches_legval_up_to_degree_16(self):
        x = np.concatenate([np.linspace(-1.0, 1.0, 101), np.random.default_rng(0).uniform(-1, 1, 50)])
        for L in range(17):
            ref = npleg.legval(x, np.eye(17)[L])
            assert np.abs(legendre(L, x) - ref).max() < 1e-13
            assert legendre(L, 0.3) == pytest.approx(float(npleg.legval(0.3, np.eye(17)[L])), abs=1e-14)

    def test_series_entries_are_the_single_degrees(self):
        x = np.random.default_rng(1).uniform(-1, 1, (5, 5))
        series = list(legendre_series(16, x))
        assert len(series) == 17
        for L, p in enumerate(series):
            assert np.array_equal(p, legendre(L, x))
            assert np.array_equal(p, oracle_legendre(L, x))

    def test_associated_order_zero_is_legendre(self):
        x = np.linspace(-1.0, 1.0, 41)
        for L in range(12):
            assert np.array_equal(assoc_legendre(L, 0, x), legendre(L, x))

    def test_degree_one_does_not_alias_the_input(self):
        x = np.linspace(-1.0, 1.0, 5)
        p1 = legendre(1, x)
        p1[0] = 7.0
        assert x[0] == -1.0


class TestBuilder:
    @pytest.mark.parametrize("two_j", [1, 2, 4, 8])
    def test_gram_is_the_leading_block_of_the_all_direction_matrix(self, two_j):
        ds = random_sets(two_j)[0]
        vectors = ds.unit_vectors()
        dots = np.clip(vectors @ vectors.T, -1.0, 1.0)
        for L in range(1, two_j + 1):
            n = 2 * L + 1
            assert np.array_equal(gram(ds.spin, L, ds), oracle_legendre(L, dots)[:n, :n])

    def test_nan_determinant_is_refused(self):
        with np.errstate(invalid="ignore"), pytest.raises(
            FeasibilityError, match="shell L=1 Gram determinant nan"
        ):
            list(su2._shell_grams(np.full((3, 3), np.nan), checked=True))

    def test_two_j_zero_has_the_empty_product(self):
        ds = DirectionSet(Spin(0), [Direction(0.3, 1.0)])
        assert shell_determinants(ds).size == 0
        assert feasibility(ds) == 1.0
        assert objective(ds) == 0.0

    @pytest.mark.parametrize("kind", ["gram-product", "condition-number"])
    def test_optimize_at_two_j_zero_reports_the_objective(self, kind):
        ds, value = optimize(Spin(0), OptimizerConfig(objective=kind, restarts=1))
        assert ds.dirs == (Direction(0.0, 0.0),)
        assert value == objective(ds, kind)


@pytest.mark.parametrize(
    "two_j,sets",
    [(two_j, "random") for two_j in SPINS] + [(1, "coplanar"), (2, "coplanar")],
)
class TestAgainstOracle:
    def _sets(self, two_j, sets):
        return random_sets(two_j) if sets == "random" else nearly_coplanar_sets(two_j)

    def test_verdicts_shells_and_messages(self, two_j, sets):
        for ds in self._sets(two_j, sets):
            refused, dets = oracle_shells(ds)
            expected = None if refused is None else oracle_message(refused, dets[-1])
            su2.quantizer_stack.cache_clear()
            assert refusal(lambda: su2.quantizer_stack(ds)) == expected
            assert refusal(lambda: reconstruct(uniform_vector(ds), ds)) == expected
            assert np.allclose(shell_determinants(ds)[: len(dets)], dets, rtol=1e-12, atol=0.0)

    def test_objective_matches_the_log_product(self, two_j, sets):
        for ds in self._sets(two_j, sets):
            refused, dets = oracle_shells(ds)
            value = objective(ds, "gram-product")
            if refused is None:
                assert abs(value - oracle_log_product(dets)) <= 1e-12
            else:
                assert value == INFEASIBLE

    def test_cli_invert(self, two_j, sets, tmp_path, capsys):
        for i, ds in enumerate(self._sets(two_j, sets)):
            refused, dets = oracle_shells(ds)
            n = ds.n_dirs
            prob_path = str(tmp_path / f"prob{i}.json")
            fileio.save_prob(
                prob_path,
                fileio.ProbFile(ds.spin, "su2", list(ds.dirs), np.full(n, 1.0 / n), uniform_vector(ds).values),
            )
            su2.quantizer_stack.cache_clear()
            code = main(["invert", "--prob", prob_path, "--out", str(tmp_path / f"o{i}.json")])
            err = capsys.readouterr().err
            if refused is None:
                assert code != 4
            else:
                assert code == 4
                assert err.strip() == "infeasible: " + oracle_message(refused, dets[-1])


def test_sets_cover_both_verdicts():
    verdicts = {
        oracle_shells(ds)[0] is None
        for sets in (random_sets(12), nearly_coplanar_sets(1))
        for ds in sets
    }
    assert verdicts == {True, False}


@pytest.mark.parametrize("two_j,theta", [(2, 0.05), (4, 0.1), (8, 0.6)])
def test_newton_young_refuses_with_the_shell_message(two_j, theta):
    n_u = 2 * two_j + 1
    ds = DirectionSet(Spin(two_j), [Direction(theta, 2.0 * math.pi * k / n_u) for k in range(n_u)])
    refused, dets = oracle_shells(ds)
    assert refused is not None
    with pytest.raises(FeasibilityError) as info:
        newton_young_directions(Spin(two_j), theta)
    assert str(info.value) == oracle_message(refused, dets[-1])
