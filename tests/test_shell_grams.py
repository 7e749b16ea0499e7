"""The shell Gram builder and the relative rules, pinned against oracles.

The block oracle rebuilds each shell matrix on its own as
P_L(dots[:2L+1, :2L+1]) with the Legendre recurrence rolled from degree 0, and
refuses the nested quantizers at the first block with
lambda_min <= 1e-12 lambda_max.  The inverse oracle is one SVD of the
equal-weight forward map, refused below rank (2j+1)^2 at 1e-8 sigma_max.
Verdicts, refused shells and messages of the library and the exit codes of
``cli invert`` must match them; the eigenvalue ratio a block refusal prints
must match the oracle's to 1e-14, which is all eigvalsh resolves of a ratio
near 1e-12.  The gram-product objective keeps its own cut,
det M(L) < 1e-12, and must match the log product under that cut.
"""

import math
import re

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
    prob_vector,
    q_matrix,
    random_density_matrix,
    reconstruct,
    shell_determinants,
)
from spinportrait import io as fileio
from spinportrait import su2
from spinportrait.cli import main
from spinportrait import optimizer as opt
from spinportrait.optimizer import INFEASIBLE
from spinportrait.orthopoly import legendre_series
from conftest import random_direction_set

ORACLE_BLOCK_RTOL = 1e-12
ORACLE_LSQ_RTOL = 1e-8
ORACLE_DET_CUT = 1e-12  # the gram-product objective's own cut
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


def oracle_blocks(ds: DirectionSet):
    """(first refused shell L, its eigenvalue ratio) of the nested quantizers, or None."""
    vectors = ds.unit_vectors()
    dots = np.clip(vectors @ vectors.T, -1.0, 1.0)
    for L in range(1, ds.spin.two_j + 1):
        n = 2 * L + 1
        lam = np.linalg.eigvalsh(oracle_legendre(L, dots[:n, :n]))
        if lam[0] <= ORACLE_BLOCK_RTOL * lam[-1]:
            return L, lam[0] / lam[-1]
    return None


BLOCK_REFUSAL = re.compile(
    r"shell L=(\d+) Gram eigenvalue ratio (\S+) at or below 1e-12; "
    r"the direction set cannot be inverted"
)


def assert_block_refusal(message, expected):
    """A block refusal message (or None) names the oracle's shell and ratio."""
    if expected is None:
        assert message is None
        return
    match = BLOCK_REFUSAL.fullmatch(message)
    assert match is not None, message
    assert int(match[1]) == expected[0]
    assert abs(float(match[2]) - expected[1]) <= 1e-14


def oracle_inverse(ds: DirectionSet):
    """(the least-squares refusal message or None, the singular values of Q)."""
    s = np.linalg.svd(q_matrix(ds.spin, ds.dirs), compute_uv=False)
    rank = int(np.count_nonzero(s > ORACLE_LSQ_RTOL * s[0]))
    full = ds.spin.dim**2
    return (None if rank == full else f"frame forward map has rank {rank} < {full}"), s


def oracle_dets(ds: DirectionSet):
    """(True if the objective's cut refuses the set, the determinants tested)."""
    vectors = ds.unit_vectors()
    dots = np.clip(vectors @ vectors.T, -1.0, 1.0)
    dets = []
    for L in range(1, ds.spin.two_j + 1):
        n = 2 * L + 1
        dets.append(np.linalg.det(oracle_legendre(L, dots[:n, :n])))
        if not dets[-1] >= ORACLE_DET_CUT:
            return True, dets
    return False, dets


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
    """Random sets squashed toward the xy-plane, straddling every rule at low spin."""
    spin = Spin(two_j)
    out = []
    for i, squash in enumerate(np.logspace(-1, -9, N_SETS)):
        rng = np.random.default_rng((two_j, 100 + i))
        vectors = random_direction_set(spin, rng).unit_vectors() * [1.0, 1.0, squash]
        out.append(DirectionSet(spin, [Direction.from_cartesian(v) for v in vectors]))
    return out


def polar_cap_sets(two_j: int):
    """Random sets drawn from polar caps shrinking toward the pole, cond(Q) up to 1e8."""
    spin = Spin(two_j)
    n = 2 * two_j + 1
    out = []
    for i, cap in enumerate(np.logspace(-0.5, -3.5, N_SETS)):
        rng = np.random.default_rng((two_j, 200 + i))
        thetas = np.arccos(1.0 - cap * rng.uniform(0.0, 1.0, n))
        phis = rng.uniform(0.0, 2.0 * math.pi, n)
        out.append(DirectionSet(spin, [Direction(float(t), float(f)) for t, f in zip(thetas, phis)]))
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
        # the objective's cut is written to fail on NaN
        with np.errstate(invalid="ignore"):
            assert opt._log_dets(np.full((1, 3, 3), np.nan)) == [INFEASIBLE]

    def test_two_j_zero_has_the_empty_product(self):
        ds = DirectionSet(Spin(0), [Direction(0.3, 1.0)])
        assert shell_determinants(ds).size == 0
        assert feasibility(ds) == 1.0
        assert objective(ds) == 0.0

    @pytest.mark.parametrize("kind", opt.OBJECTIVES)
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
            su2.quantizer_stack.cache_clear()
            assert_block_refusal(refusal(lambda: su2.quantizer_stack(ds)), oracle_blocks(ds))
            expected, _ = oracle_inverse(ds)
            assert refusal(lambda: reconstruct(uniform_vector(ds), ds)) == expected
            _, dets = oracle_dets(ds)
            assert np.allclose(shell_determinants(ds)[: len(dets)], dets, rtol=1e-12, atol=0.0)

    def test_objective_matches_the_log_product(self, two_j, sets):
        for ds in self._sets(two_j, sets):
            refused, dets = oracle_dets(ds)
            value = objective(ds, "gram-product")
            if refused:
                assert value == INFEASIBLE
            else:
                assert abs(value - oracle_log_product(dets)) <= 1e-12

    def test_cli_invert(self, two_j, sets, tmp_path, capsys):
        for i, ds in enumerate(self._sets(two_j, sets)):
            refused, s = oracle_inverse(ds)
            n = ds.n_dirs
            prob_path = str(tmp_path / f"prob{i}.json")
            fileio.save_prob(
                prob_path,
                fileio.ProbFile(ds.spin, "su2", list(ds.dirs), np.full(n, 1.0 / n), uniform_vector(ds).values),
            )
            code = main(["invert", "--prob", prob_path, "--out", str(tmp_path / f"o{i}.json")])
            err = capsys.readouterr().err
            if refused is None:
                cond = s[0] / s[-1]
                assert code == 0
                # two SVDs of Q agree to rounding, eps * cond relative
                printed = float(err.splitlines()[0].removeprefix("condition number: "))
                assert abs(printed / cond - 1.0) <= 1e-6 + 1e-14 * cond
            else:
                assert code == 4
                assert err.strip() == "infeasible: " + refused


def pure_state(spin: Spin, rng) -> np.ndarray:
    ket = rng.normal(size=spin.dim) + 1j * rng.normal(size=spin.dim)
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def invert_then_load(ds: DirectionSet, rho: np.ndarray, tmp_path, name: str) -> int:
    """Exit code of ``cli invert`` on rho's equal-weight vector; an exit-0 output must load."""
    n = ds.n_dirs
    prob_path, out = str(tmp_path / f"{name}-prob.json"), str(tmp_path / f"{name}-state.json")
    values = prob_vector(ds.spin, rho, ds.dirs).values
    fileio.save_prob(prob_path, fileio.ProbFile(ds.spin, "su2", list(ds.dirs), np.full(n, 1.0 / n), values))
    code = main(["invert", "--prob", prob_path, "--out", out])
    if code == 0:
        spin, back = fileio.load_state(out)
        assert spin == ds.spin and np.abs(back - rho).max() <= 1e-6
    return code


@pytest.mark.parametrize("two_j", range(1, 17))
def test_every_state_invert_writes_loads(two_j, tmp_path, capsys):
    rng = np.random.default_rng(600 + two_j)
    ds = random_direction_set(Spin(two_j), rng)
    for i, rho in enumerate((pure_state(ds.spin, rng), random_density_matrix(ds.spin, rng))):
        assert invert_then_load(ds, rho, tmp_path, str(i)) == 0


def test_every_state_invert_writes_loads_near_cond_1e8(tmp_path, capsys):
    codes = []
    for i, ds in enumerate(nearly_coplanar_sets(1) + polar_cap_sets(1)):
        rng = np.random.default_rng(700 + i)
        for j, rho in enumerate((pure_state(ds.spin, rng), random_density_matrix(ds.spin, rng))):
            codes.append(invert_then_load(ds, rho, tmp_path, f"{i}-{j}"))
    assert set(codes) <= {0, 3, 4} and codes.count(0) >= 20


@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
@pytest.mark.parametrize("family", [nearly_coplanar_sets, polar_cap_sets])
def test_least_squares_error_grows_as_cond(two_j, family):
    # through the normal equations it grew as cond(Q)^2: 1.5e-2 at cond 6.7e7
    admitted = 0
    for i, ds in enumerate(family(two_j)):
        refused, s = oracle_inverse(ds)
        if refused is not None:
            continue
        admitted += 1
        rho = random_density_matrix(ds.spin, np.random.default_rng(i))
        back = reconstruct(prob_vector(ds.spin, rho, ds.dirs), ds)
        assert np.abs(back - rho).max() <= 1e-14 * s[0] / s[-1]
        # the diagonal shift leaves the trace at 1 to rounding, at any cond(Q)
        assert abs(np.trace(back).real - 1.0) <= 1e-15
    assert admitted >= 6


@pytest.mark.parametrize("two_j", [1, 2, 4, 8])
@pytest.mark.parametrize("family", [nearly_coplanar_sets, polar_cap_sets])
def test_nested_error_grows_as_cond(two_j, family):
    # through the inverse blocks M(L)^-1 it grew as cond(Y_s)^2: 3.5e-8 at cond 1e5
    admitted = 0
    for i, ds in enumerate(family(two_j)):
        if oracle_blocks(ds) is not None:
            continue
        admitted += 1
        vectors = ds.unit_vectors()
        dots = np.clip(vectors @ vectors.T, -1.0, 1.0)
        lam = [np.linalg.eigvalsh(oracle_legendre(L, dots[: 2 * L + 1, : 2 * L + 1]))
               for L in range(1, two_j + 1)]
        cond = max(math.sqrt(lam_l[-1] / lam_l[0]) for lam_l in lam)  # of the blocks Y_s
        rho = random_density_matrix(ds.spin, np.random.default_rng(i))
        back = su2.apply_quantizer(prob_vector(ds.spin, rho, ds.dirs).values, ds)
        assert np.abs(back - rho).max() <= 1e-14 * cond
    assert admitted >= 3


def test_sets_cover_both_verdicts():
    sets = random_sets(12) + nearly_coplanar_sets(1) + nearly_coplanar_sets(2)
    assert {oracle_blocks(ds) is None for ds in sets} == {True, False}
    assert {oracle_inverse(ds)[0] is None for ds in sets} == {True, False}
    assert {oracle_dets(ds)[0] for ds in sets} == {True, False}


def cone(two_j: int, theta: float) -> DirectionSet:
    n_u = 2 * two_j + 1
    return DirectionSet(Spin(two_j), [Direction(theta, 2.0 * math.pi * k / n_u) for k in range(n_u)])


@pytest.mark.parametrize("two_j,theta", [(2, 0.05), (4, 0.1), (8, 0.6)])
def test_newton_young_cones_the_floor_refused_round_trip(two_j, theta):
    # well posed (cond Q of 654, 1.9e4 and 218) although a det M(L) < 1e-12
    ds = cone(two_j, theta)
    assert oracle_dets(ds)[0] and oracle_blocks(ds) is None
    assert newton_young_directions(Spin(two_j), theta) == ds
    rho = random_density_matrix(ds.spin, np.random.default_rng(two_j))
    p = prob_vector(ds.spin, rho, ds.dirs)
    assert np.abs(reconstruct(p, ds) - rho).max() < 1e-9
    assert su2.quantizer_stack(ds).shape == (ds.n_dirs * ds.spin.dim,) + rho.shape


def test_newton_young_refuses_a_singular_cone():
    ds = cone(2, 1e-4)  # P_2^2(cos theta) = 3e-8 passes, the L=2 block is singular
    assert oracle_blocks(ds) is not None
    with pytest.raises(FeasibilityError) as info:
        newton_young_directions(Spin(2), 1e-4)
    assert_block_refusal(str(info.value), oracle_blocks(ds))
    expected, _ = oracle_inverse(ds)
    assert expected is not None
    assert refusal(lambda: reconstruct(uniform_vector(ds), ds)) == expected
