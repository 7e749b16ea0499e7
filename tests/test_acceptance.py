"""Acceptance suite: the package's headline guarantees, one test each.

Every test pins its tolerance and runtime budget and prints one PASS line
(visible with ``pytest -s``); a failing guarantee fails its test.
"""

import math
import time

import numpy as np
import pytest

import spinportrait as sp
from conftest import make_qutrit_set, random_direction_set


def _report(n, text):
    print(f"criterion {n:02d}: PASS - {text}")


def _optimized(two_j, restarts=2, max_iters=300):
    ds, _ = sp.optimize(
        sp.Spin(two_j),
        sp.OptimizerConfig(restarts=restarts, max_iters=max_iters, seed=2024 + two_j),
    )
    return ds


def test_criterion_01_coeff_table_fidelity():
    start = time.perf_counter()
    table_half = sp.coeff_table(sp.Spin(1))
    m_half = np.array([0.5, -0.5])
    assert np.abs(table_half[0] - 1 / math.sqrt(2)).max() <= 1e-12
    assert np.abs(table_half[1] - math.sqrt(2) * m_half).max() <= 1e-12
    table_one = sp.coeff_table(sp.Spin(2))
    m_one = np.array([1.0, 0.0, -1.0])
    assert np.abs(table_one[0] - 1 / math.sqrt(3)).max() <= 1e-12
    assert np.abs(table_one[1] - m_one / math.sqrt(2)).max() <= 1e-12
    assert np.abs(table_one[2] - (3 * m_one**2 - 2) / math.sqrt(6)).max() <= 1e-12
    worst = 0.0
    for two_j in range(0, 13):
        table = sp.coeff_table(sp.Spin(two_j))
        worst = max(worst, np.abs(table @ table.T - np.eye(two_j + 1)).max())
    assert worst <= 1e-11
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"closed forms to 1e-12, orthonormality defect {worst:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_02_continuous_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for two_j in (1, 2, 3, 5):
        spin = sp.Spin(two_j)
        rho = sp.random_density_matrix(spin, np.random.default_rng(two_j))
        rec = sp.reconstruct_from_sphere(
            spin,
            lambda m, n: sp.tomogram(spin, rho, m, n),
            n_theta=two_j + 1,
            n_phi=2 * two_j + 2,
        )
        worst = max(worst, np.abs(rec - rho).max())
    assert worst < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"minimal-quadrature round trips, worst error {worst:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_03_su2_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for two_j in (1, 2, 3, 4, 5, 6):
        spin = sp.Spin(two_j)
        ds = _optimized(two_j)
        rng = np.random.default_rng(1000 + two_j)
        for _ in range(20):
            rho = sp.random_density_matrix(spin, rng)
            p = sp.prob_vector(spin, rho, ds.dirs)
            rec = sp.reconstruct(p, ds)
            worst = max(worst, np.abs(rec - rho).max())
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"120 optimizer-set round trips, worst error {worst:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_04_minimality_counts():
    for two_j in (1, 2, 3):
        spin = sp.Spin(two_j)
        full = spin.dim**2
        rng = np.random.default_rng(77 + two_j)
        ds = random_direction_set(spin, rng)
        assert sp.numerical_rank(sp.q_matrix(spin, ds.dirs), rtol=1e-8) == full
        dropped = ds.dirs[:-1]
        w = np.full(len(dropped), 1.0 / len(dropped))
        assert sp.numerical_rank(sp.q_matrix(spin, dropped, w), rtol=1e-8) < full
        frames = [sp.haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)]
        assert sp.numerical_rank(sp.r_matrix(spin, frames), rtol=1e-8) == full
        assert sp.numerical_rank(sp.r_matrix(spin, frames[:-1]), rtol=1e-8) < full
    _report(4, "rank (2j+1)^2 exactly at 4j+1 directions and 2j+2 frames")


def test_criterion_05_biorthogonality():
    worst = 0.0
    for two_j, seed in ((1, 0), (2, 1), (3, 2), (4, 3)):
        spin = sp.Spin(two_j)
        rng = np.random.default_rng(seed)
        ds = random_direction_set(spin, rng)
        while abs(sp.feasibility(ds)) < 1e-8:
            ds = random_direction_set(spin, rng)
        table = sp.coeff_table(spin)
        ms = list(spin.two_m_values())
        pairs = [
            (L, k, m)
            for L in range(two_j + 1)
            for k in range(2 * L + 1)
            for m in ms
        ]
        dequants = {key: sp.l_dequantizer(spin, *key[:2], key[2], ds) for key in pairs}
        quants = {key: sp.l_quantizer(spin, *key[:2], key[2], ds) for key in pairs}
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
    _report(5, f"L-dequantizer/L-quantizer pairing, worst defect {worst:.2e}")


def test_criterion_06_star_product():
    worst_product, worst_assoc, worst_neutral = 0.0, 0.0, 0.0
    for two_j, seed in ((1, 0), (2, 1)):
        spin = sp.Spin(two_j)
        rng = np.random.default_rng(seed)
        ds = random_direction_set(spin, rng)
        while sp.condition_number(sp.q_matrix(spin, ds.dirs)) > 50.0:
            ds = random_direction_set(spin, rng)
        rho1 = sp.random_density_matrix(spin, rng)
        rho2 = sp.random_density_matrix(spin, rng)
        rho3 = sp.random_density_matrix(spin, rng)
        s1, s2, s3 = (sp.symbol(spin, r, ds) for r in (rho1, rho2, rho3))
        worst_product = max(
            worst_product,
            np.abs(
                sp.star_apply(spin, s1, s2, ds) - sp.symbol(spin, rho1 @ rho2, ds)
            ).max(),
        )
        left = sp.star_apply(spin, sp.star_apply(spin, s1, s2, ds), s3, ds)
        right = sp.star_apply(spin, s1, sp.star_apply(spin, s2, s3, ds), ds)
        worst_assoc = max(worst_assoc, np.abs(left - right).max())
        eye_symbol = sp.symbol(spin, np.eye(spin.dim, dtype=complex), ds)
        worst_neutral = max(
            worst_neutral,
            np.abs(sp.star_apply(spin, s1, eye_symbol, ds) - s1).max(),
            np.abs(sp.star_apply(spin, eye_symbol, s1, ds) - s1).max(),
        )
    assert worst_product < 1e-10
    assert worst_assoc < 1e-9
    assert worst_neutral < 1e-11
    _report(6, f"product {worst_product:.2e}, associativity {worst_assoc:.2e}, "
               f"neutrality {worst_neutral:.2e}")


def test_criterion_07_intertwining_kernels():
    spin = sp.Spin(1)
    triad = sp.DirectionSet(
        spin,
        [
            sp.Direction(0.0, 0.0),
            sp.Direction(math.pi / 2, 0.0),
            sp.Direction(math.pi / 2, math.pi / 2),
        ],
    )
    worst_closed = 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        n_prime = sp.Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        for k in range(3):
            dot = float(n_prime.cartesian @ triad.dirs[k].cartesian)
            for two_m in (1, -1):
                for two_mp in (1, -1):
                    value = sp.kernel_w_to_p(spin, triad, two_m, k, two_mp, n_prime)
                    closed = 1 / 6 + 2 * (two_mp / 2) * (two_m / 2) * dot
                    worst_closed = max(worst_closed, abs(value - closed))
    assert worst_closed < 1e-12

    worst_round = 0.0
    for two_j, seed in ((1, 5), (2, 6)):
        spin = sp.Spin(two_j)
        rng = np.random.default_rng(seed)
        ds = random_direction_set(spin, rng)
        while sp.condition_number(sp.q_matrix(spin, ds.dirs)) > 50.0:
            ds = random_direction_set(spin, rng)
        rho = sp.random_density_matrix(spin, rng)
        p_vals = sp.w_to_p(spin, ds, lambda m, n: sp.tomogram(spin, rho, m, n))
        expected = sp.prob_vector(spin, rho, ds.dirs)
        worst_round = max(worst_round, np.abs(p_vals - expected.values).max())
        for _ in range(5):
            n = sp.Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            for two_m in spin.two_m_values():
                back = sp.p_to_w(spin, ds, p_vals, two_m, n)
                worst_round = max(
                    worst_round, abs(back - sp.tomogram(spin, rho, two_m, n))
                )
    assert worst_round < 1e-10
    _report(7, f"closed form {worst_closed:.2e}, round trips {worst_round:.2e}")


def test_criterion_08_grid_schemes():
    worst = 0.0
    for two_j, seed in ((2, 0), (6, 1)):
        spin = sp.Spin(two_j)
        dirs = sp.aw_directions(sp.default_aw_grid(spin))
        m_matrix = sp.aw_m_matrix(spin, dirs)
        assert sp.numerical_rank(m_matrix, rtol=1e-10) == spin.dim**2
        rho = sp.random_density_matrix(spin, np.random.default_rng(seed))
        w = sp.aw_forward(spin, rho, dirs)
        worst = max(worst, np.abs(sp.aw_reconstruct(spin, w, dirs) - rho).max())
        w_prime = sp.aw_normalized_forward(spin, rho, dirs)
        rec_norm = sp.aw_reconstruct(spin, w_prime, dirs, normalized=True)
        worst = max(worst, np.abs(rec_norm - rho).max())
    assert worst < 1e-9

    ds = sp.newton_young_directions(sp.Spin(2), 0.8)
    assert abs(sp.feasibility(ds)) > 0.0
    with pytest.raises(sp.FeasibilityError):
        sp.newton_young_directions(sp.Spin(1), math.pi / 2)
    _report(8, f"grid round trips to {worst:.2e}, cone admissibility enforced")


def test_criterion_09_optimizer():
    ds_half, _ = sp.optimize(
        sp.Spin(1), sp.OptimizerConfig(restarts=3, max_iters=400, seed=0)
    )
    v = ds_half.unit_vectors()
    triple = abs(v[0] @ np.cross(v[1], v[2]))
    assert triple >= 1.0 - 1e-6

    for two_j in (2, 3, 4):
        spin = sp.Spin(two_j)
        ds, value = sp.optimize(
            spin, sp.OptimizerConfig(restarts=2, max_iters=300, seed=2024 + two_j)
        )
        rng = np.random.default_rng(500 + two_j)
        baselines = []
        while len(baselines) < 50:
            cand = random_direction_set(spin, rng)
            val = sp.objective(cand, "gram-product")
            if val > -1e18:
                baselines.append(val)
        assert value >= max(baselines)

    checked = 0
    for two_j in (1, 2):
        for seed in range(50):
            ufs = sp.random_frame_set(
                sp.Spin(two_j), np.random.default_rng((two_j, seed))
            )
            gamma = sp.gamma_prime(ufs)
            mu = sp.condition_number(sp.sun_gram(ufs))
            assert mu <= sp.mu_bound(gamma) * (1.0 + 1e-9)
            checked += 1
    assert checked == 100
    _report(9, f"triple product {triple:.9f}, 150 baselines dominated, "
               f"bound held on {checked} frame sets")


def test_criterion_10_quantum_region():
    start = time.perf_counter()
    spin = sp.Spin(1)
    triad = sp.DirectionSet(
        spin,
        [
            sp.Direction(0.0, 0.0),
            sp.Direction(math.pi / 2, 0.0),
            sp.Direction(math.pi / 2, math.pi / 2),
        ],
    )

    # 101^3 grid over the up-probability cube, library verdicts versus ball
    axis = np.linspace(0.0, 1.0 / 3.0, 101)
    g1, g2, g3 = np.meshgrid(axis, axis, axis, indexing="ij")
    plus = np.stack([g.ravel() for g in (g1, g2, g3)], axis=1)
    points = np.empty((plus.shape[0], 6))
    points[:, 0::2] = plus
    points[:, 1::2] = 1.0 / 3.0 - plus
    flags, min_eigs = sp.classify_points(points, triad, tol=1e-10)
    ball = np.sum(((plus - 1.0 / 6.0) / 2.0) ** 2, axis=1) <= 1.0 / 144.0
    outside_band = np.abs(min_eigs) > 1e-8
    assert np.array_equal(flags[outside_band], ball[outside_band])

    # the vectorized path agrees bit for bit with the scalar API on a subsample
    rng = np.random.default_rng(0)
    sample = rng.integers(0, points.shape[0], size=300)
    for idx in sample:
        verdict = sp.is_quantum(points[idx], triad, tol=1e-10)
        assert verdict.is_quantum == bool(flags[idx])
        assert verdict.min_eigenvalue == min_eigs[idx]
        if outside_band[idx]:
            assert sp.qubit_ball_test(points[idx], triad) == bool(ball[idx])

    # pure states sit on the ball boundary
    worst_boundary = 0.0
    for seed in range(100):
        u = sp.haar_unitary(2, np.random.default_rng(seed))
        rho = np.outer(u[:, 0], u[:, 0].conj())
        p = sp.prob_vector(spin, rho, triad.dirs)
        q = sp.qubit_ball_statistic(p, triad)
        worst_boundary = max(worst_boundary, abs(q - 1.0 / 144.0))
    assert worst_boundary < 1e-10

    # ten thousand random qutrit states map inside the region
    qutrit = make_qutrit_set()
    spin_one = sp.Spin(2)
    rng = np.random.default_rng(7)
    states = np.empty((10_000, 3, 3), dtype=complex)
    for i in range(10_000):
        states[i] = sp.random_density_matrix(spin_one, rng)
    u_stack = np.array(
        [
            sp.dequantizer(spin_one, m, n)
            for n in qutrit.dirs
            for m in spin_one.two_m_values()
        ]
    )
    probs = np.real(np.einsum("Iab,nba->nI", u_stack, states, optimize=True)) / 5.0
    qflags, qmargins = sp.classify_points(probs, qutrit, tol=1e-10)
    assert bool(qflags.all())
    assert float(qmargins.min()) >= -1e-10

    # midpoint convexity of sampled quantum regions
    rows = points[flags]
    pick = rng.integers(0, rows.shape[0], size=(200, 2))
    mids = (rows[pick[:, 0]] + rows[pick[:, 1]]) / 2.0
    mid_flags, mid_eigs = sp.classify_points(mids, triad, tol=1e-10)
    assert bool(mid_flags.all())

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(10, f"grid agreement, boundary defect {worst_boundary:.2e}, "
                f"qutrit margin {qmargins.min():.2e}, {elapsed:.1f}s")
