import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spinportrait import (
    Direction,
    DirectionSet,
    OptimizerConfig,
    Spin,
    coeff_table,
    gram,
    optimize,
    s_operator,
)
from spinportrait.orthopoly import s_operator_stack

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def orthogonal_triad() -> DirectionSet:
    return DirectionSet(
        Spin(1),
        [
            Direction(0.0, 0.0),
            Direction(math.pi / 2, 0.0),
            Direction(math.pi / 2, math.pi / 2),
        ],
    )


def coplanar_triad() -> DirectionSet:
    """Three directions in the xy-plane: the L=1 shell, and so Q, is singular."""
    return DirectionSet(
        Spin(1),
        [Direction(math.pi / 2, 0.0), Direction(math.pi / 2, 1.0), Direction(math.pi / 2, 2.0)],
    )


def make_qutrit_set() -> DirectionSet:
    """Five spin-1 directions with the pairwise overlaps 1/sqrt(3).

    n1 = z; n2, n3, n4 at polar angle arccos(1/sqrt(3)) with azimuths chosen
    so n2.n3 = n2.n4 = 1/sqrt(3); n5 at the same polar angle with
    n3.n5 = 1/sqrt(3).
    """
    alpha = math.acos(1.0 / math.sqrt(3.0))
    dphi = math.acos((math.sqrt(3.0) - 1.0) / 2.0)
    return DirectionSet(
        Spin(2),
        [
            Direction(0.0, 0.0),
            Direction(alpha, 0.0),
            Direction(alpha, dphi),
            Direction(alpha, -dphi),
            Direction(alpha, 2.0 * dphi),
        ],
    )


@pytest.fixture(scope="session")
def qutrit_set() -> DirectionSet:
    return make_qutrit_set()


@pytest.fixture(scope="session")
def optimized_sets():
    """Optimizer outputs shared across tests, keyed by two_j."""
    cache = {}

    def get(two_j: int) -> DirectionSet:
        if two_j not in cache:
            ds, _ = optimize(
                Spin(two_j),
                OptimizerConfig(restarts=2, max_iters=300, seed=2024 + two_j),
            )
            cache[two_j] = ds
        return cache[two_j]

    return get


def random_direction(rng: np.random.Generator) -> Direction:
    return Direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2 * math.pi))


def random_direction_set(spin: Spin, rng: np.random.Generator) -> DirectionSet:
    return DirectionSet(
        spin, [random_direction(rng) for _ in range(2 * spin.two_j + 1)]
    )


def assert_relative(value, reference, rtol=1e-12):
    value, reference = np.asarray(value), np.asarray(reference)
    assert np.abs(value - reference).max() <= rtol * max(1.0, np.abs(reference).max())


def loop_quantizer(spin: Spin, k: int, two_m: int, ds: DirectionSet) -> np.ndarray:
    """Quantizer of direction k summed shell by shell from explicit Gram inverses.

    D(m, k) = (4j+1) sum over L >= ceil(k/2) of f_L(m) sum_k' [M(L)^-1]_kk'
    S_L(n_k'), one single-frame S_L at a time: the reference for the cached
    quantizer stack and everything read from it.
    """
    table = coeff_table(spin)
    out = np.zeros((spin.dim, spin.dim), dtype=complex)
    for L in range((k + 1) // 2, spin.two_j + 1):
        minv = np.linalg.inv(gram(spin, L, ds)) if L else np.ones((1, 1))
        dual = sum(minv[k, kp] * s_operator(spin, L, n) for kp, n in enumerate(ds.shell(L)))
        out += ds.n_dirs * table[L, spin.m_index(two_m)] * dual
    return out


def shell_sum_quantizer(spin: Spin, two_m: int, n: Direction) -> np.ndarray:
    """Continuous quantizer D(m, n) = sum_L (2L+1) f_L(m) S_L(n) over one S_L stack.

    The shell expansion term by term: the reference for the frame-diagonal
    form V diag(K[m]) V^dag and for the sphere inversion built on it.
    """
    weights = (2 * np.arange(spin.dim) + 1) * coeff_table(spin)[:, spin.m_index(two_m)]
    return np.einsum("L,Lab->ab", weights, s_operator_stack(spin, n))
