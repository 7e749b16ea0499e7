import decimal
import io
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_direction_set
from spinportrait import region
from spinportrait import (
    ConfigError,
    Direction,
    DirectionSet,
    DomainError,
    ProbVector,
    SliceEntry,
    SliceSpec,
    Spin,
    classify_points,
    is_quantum,
    prob_vector,
    qubit_ball_statistic,
    qubit_ball_test,
    qubit_region_inequalities,
    random_density_matrix,
    sample_region,
    write_region_csv,
)
from spinportrait.region import (
    DEFAULT_TOL,
    _CHUNK,
    _candidate_planes,
    _min_eigenvalues,
    _slice_parametrization,
    candidate_operator,
    trace_ok,
)
from spinportrait.su2 import quantizer_stack

BALL_RADIUS_SQ = 1.0 / 144.0


def principal_minors_nonneg(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Sylvester test for positive semidefiniteness: every principal minor >= 0.

    Exponential in the dimension, so only suitable for small matrices; an
    independent cross-check of the eigenvalue test.
    """
    a = np.asarray(a)
    d = a.shape[0]
    for size in range(1, d + 1):
        for rows in combinations(range(d), size):
            idx = np.ix_(rows, rows)
            if np.linalg.det(a[idx]).real < -tol:
                return False
    return True


def is_quantum_sylvester(p, ds: DirectionSet, tol: float = DEFAULT_TOL) -> bool:
    """Verdict through principal minors; agrees with the eigenvalue test
    outside the tolerance band around the boundary."""
    rho = candidate_operator(p, ds)
    return bool(trace_ok(np.trace(rho).real, tol) and principal_minors_nonneg(rho, tol))


def cube_point(p1, p2, p3) -> np.ndarray:
    """Qubit slice point: up-probabilities free, block sums pinned to 1/3."""
    return np.array([p1, 1 / 3 - p1, p2, 1 / 3 - p2, p3, 1 / 3 - p3])


def qubit_cube_slice() -> SliceSpec:
    entries = []
    for _ in range(3):
        entries.append(SliceEntry.free(0.0, 1.0 / 3.0))
        entries.append(SliceEntry.balance())
    return SliceSpec(entries)


class TestIsQuantum:
    def test_uniform_point(self, orthogonal_triad):
        verdict = is_quantum(np.full(6, 1.0 / 6.0), orthogonal_triad)
        assert verdict.is_quantum
        assert verdict.min_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_supremal_bloch_point_rejected(self, orthogonal_triad):
        # all three up-probabilities maximal: orientation vector (1,1,1)
        point = cube_point(1 / 3, 1 / 3, 1 / 3)
        verdict = is_quantum(point, orthogonal_triad)
        assert not verdict.is_quantum
        assert verdict.min_eigenvalue == pytest.approx(
            (1.0 - math.sqrt(3.0)) / 2.0, abs=1e-12
        )

    @pytest.mark.parametrize("two_j", [1, 2, 3])
    def test_forward_map_lands_inside(self, two_j, optimized_sets):
        spin = Spin(two_j)
        ds = optimized_sets(two_j)
        rng = np.random.default_rng(two_j)
        for _ in range(25):
            rho = random_density_matrix(spin, rng)
            p = prob_vector(spin, rho, ds.dirs)
            verdict = is_quantum(p, ds)
            assert verdict.is_quantum
            assert verdict.min_eigenvalue >= -1e-10

    def test_wrong_trace_is_not_quantum(self, orthogonal_triad):
        # PSD candidate but first-block sum != 1/3, so the trace is not 1
        point = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        verdict = is_quantum(point, orthogonal_triad)
        assert not verdict.is_quantum

    def test_two_j_zero_candidate_is_its_own_eigenvalue(self):
        # d = 1: one direction, one probability, and the candidate is that number
        spin = Spin(0)
        ds = DirectionSet(spin, [Direction(0.0, 0.0)])
        coords = np.linspace(0.0, 1.0, 3)
        verdicts = [is_quantum(np.array([x]), ds) for x in coords]
        flags, min_eigs = classify_points(coords[:, None], ds)
        rows = sample_region(spin, ds, SliceSpec([SliceEntry.free(0.0, 1.0)]), 3)
        assert [v.is_quantum for v in verdicts] == flags.tolist() == [False, False, True]
        assert rows[:, 1].tolist() == [0.0, 0.0, 1.0]
        for got in ([v.min_eigenvalue for v in verdicts], min_eigs, rows[:, 2]):
            assert np.array_equal(got, coords)
        assert np.array_equal(rows[:, 0], coords)

    def test_sylvester_agrees_away_from_boundary(self, orthogonal_triad):
        rng = np.random.default_rng(8)
        for _ in range(200):
            point = cube_point(*rng.uniform(0.0, 1.0 / 3.0, size=3))
            eig = is_quantum(point, orthogonal_triad)
            if abs(eig.min_eigenvalue) < 1e-8:
                continue
            assert is_quantum_sylvester(point, orthogonal_triad) == eig.is_quantum


class TestQubitBall:
    def test_center_inside(self, orthogonal_triad):
        assert qubit_ball_test(np.full(6, 1.0 / 6.0), orthogonal_triad)
        assert qubit_ball_statistic(np.full(6, 1.0 / 6.0), orthogonal_triad) == 0.0

    def test_pure_state_on_boundary(self, orthogonal_triad):
        point = cube_point(1 / 3, 1 / 6, 1 / 6)
        q = qubit_ball_statistic(point, orthogonal_triad)
        assert q == pytest.approx(BALL_RADIUS_SQ, abs=1e-15)
        assert qubit_ball_test(point, orthogonal_triad)

    def test_far_corner_outside(self, orthogonal_triad):
        point = cube_point(1 / 3, 1 / 3, 1 / 3)
        assert not qubit_ball_test(point, orthogonal_triad)

    def test_statistic_equals_scaled_orientation_norm(self, orthogonal_triad):
        # q = (|r| / 12)^2 for the state with orientation vector r
        rng = np.random.default_rng(3)
        r = rng.normal(size=3)
        r *= 0.7 / np.linalg.norm(r)
        sigma = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        rho = (np.eye(2) + sum(ri * si for ri, si in zip(r, sigma))) / 2.0
        p = prob_vector(Spin(1), rho, orthogonal_triad.dirs)
        q = qubit_ball_statistic(p, orthogonal_triad)
        assert q == pytest.approx((0.7 / 12.0) ** 2, abs=1e-14)

    def test_requires_orthonormal_triad(self):
        skewed = DirectionSet(
            Spin(1),
            [Direction(0.0, 0.0), Direction(1.0, 0.0), Direction(1.0, 2.0)],
        )
        with pytest.raises(DomainError):
            qubit_ball_test(np.full(6, 1.0 / 6.0), skewed)

    def test_agrees_with_eigen_test(self, orthogonal_triad):
        rng = np.random.default_rng(10)
        for _ in range(500):
            point = cube_point(*rng.uniform(0.0, 1.0 / 3.0, size=3))
            verdict = is_quantum(point, orthogonal_triad)
            if abs(verdict.min_eigenvalue) < 1e-9:
                continue
            assert qubit_ball_test(point, orthogonal_triad) == verdict.is_quantum

    def test_boundary_quadric_along_rays(self, orthogonal_triad):
        # bisect the quantum boundary from the center along random rays;
        # the crossing must sit on the sphere q = 1/144
        rng = np.random.default_rng(21)
        center = np.array([1 / 6, 1 / 6, 1 / 6])
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            lo, hi = 0.0, 1.0 / 6.0
            for _ in range(60):
                mid = (lo + hi) / 2.0
                point = cube_point(*(center + mid * u))
                if is_quantum(point, orthogonal_triad, tol=0.0).min_eigenvalue >= 0:
                    lo = mid
                else:
                    hi = mid
            crossing = cube_point(*(center + lo * u))
            q = qubit_ball_statistic(crossing, orthogonal_triad)
            assert abs(q - BALL_RADIUS_SQ) < 1e-8


class TestQubitInequalities:
    def test_uniform_point_positive(self, orthogonal_triad):
        residuals = qubit_region_inequalities(np.full(6, 1.0 / 6.0), orthogonal_triad)
        assert residuals.min() > 0.0

    def test_pure_z_state_boundary(self, orthogonal_triad):
        point = cube_point(1 / 3, 1 / 6, 1 / 6)
        residuals = qubit_region_inequalities(point, orthogonal_triad)
        assert residuals[2] == pytest.approx(0.0, abs=1e-13)
        assert residuals[1] == pytest.approx(0.0, abs=1e-13)
        assert residuals[0] == pytest.approx(1.0, abs=1e-12)

    def test_residuals_are_candidate_minors(self, orthogonal_triad):
        from spinportrait.region import candidate_operator

        rng = np.random.default_rng(9)
        for _ in range(50):
            point = cube_point(*rng.uniform(0.0, 1.0 / 3.0, size=3))
            residuals = qubit_region_inequalities(point, orthogonal_triad)
            rho = candidate_operator(point, orthogonal_triad)
            assert residuals[0] == pytest.approx(rho[0, 0].real, abs=1e-12)
            assert residuals[2] == pytest.approx(rho[1, 1].real, abs=1e-12)
            assert residuals[1] == pytest.approx(
                np.linalg.det(rho).real, abs=1e-12
            )

    def test_agreement_with_eigen_test_random_points(self):
        # arbitrary feasible triad, ten thousand random slice points
        triad = DirectionSet(
            Spin(1),
            [Direction(0.2, 0.0), Direction(1.3, 0.4), Direction(2.0, 3.8)],
        )
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(10_000):
            point = cube_point(*rng.uniform(0.0, 1.0 / 3.0, size=3))
            verdict = is_quantum(point, triad)
            if abs(verdict.min_eigenvalue) < 1e-10:
                continue
            residuals = qubit_region_inequalities(point, triad)
            assert (residuals.min() >= -1e-10) == verdict.is_quantum
            checked += 1
        assert checked > 9_000


class TestQubitPointCheck:
    """The closed forms take the one point check the eigenvalue verdict takes."""

    @pytest.mark.parametrize(
        "point, match",
        [
            (np.full(4, 0.25), r"n_dirs\*dim = 6"),
            (np.full(7, 1.0 / 7.0), r"n_dirs\*dim = 6"),
            (np.full(6, math.nan), "finite"),
            (np.r_[np.full(5, 1.0 / 6.0), math.inf], "finite"),
            (np.r_[-math.inf, np.full(5, 1.0 / 6.0)], "finite"),
        ],
    )
    def test_bad_point_raises_everywhere(self, orthogonal_triad, point, match):
        for verdict in (qubit_ball_statistic, qubit_ball_test, qubit_region_inequalities, is_quantum):
            with pytest.raises(DomainError, match=match):
                verdict(point, orthogonal_triad)


class TestSampleRegion:
    def test_qubit_ball_grid_agreement(self, orthogonal_triad):
        spin = Spin(1)
        rows = sample_region(spin, orthogonal_triad, qubit_cube_slice(), 21)
        assert rows.shape == (21**3, 5)
        disagreements = 0
        for row in rows:
            coords, flag, min_eig = row[:3], bool(row[3]), row[4]
            if abs(min_eig) < 1e-9:
                continue
            ball = float(np.sum(((coords - 1 / 6) / 2) ** 2)) <= BALL_RADIUS_SQ
            disagreements += ball != flag
        assert disagreements == 0

    def test_region_shrinks_with_triple_product(self):
        # triads with triple products 1, 0.44, and 0.02: for n1 = z and n2, n3
        # at polar angle alpha with azimuths 0 and pi/2 the triple is sin^2(alpha)
        spin = Spin(1)
        counts = []
        for triple in (1.0, 0.44, 0.02):
            alpha = math.asin(math.sqrt(triple))
            ds = DirectionSet(
                spin,
                [
                    Direction(0.0, 0.0),
                    Direction(alpha, 0.0),
                    Direction(alpha, math.pi / 2),
                ],
            )
            v = ds.unit_vectors()
            assert abs(v[0] @ np.cross(v[1], v[2]) - triple) < 1e-12
            rows = sample_region(spin, ds, qubit_cube_slice(), 13)
            counts.append(int(rows[:, 3].sum()))
        assert counts[0] > counts[1] > counts[2] > 0

    def test_qutrit_slice_nonempty_and_convex(self, qutrit_set):
        spin = Spin(2)
        entries = []
        for k in range(5):
            if k < 3:
                entries.append(SliceEntry.free(0.0, 2.0 / 15.0))  # P(+1, n_k)
            else:
                entries.append(SliceEntry.const(1.0 / 15.0))
            entries.append(SliceEntry.balance())  # P(0, n_k)
            entries.append(SliceEntry.const(1.0 / 15.0))  # P(-1, n_k)
        spec = SliceSpec(entries)
        rows = sample_region(spin, qutrit_set, spec, 9)
        quantum = rows[rows[:, 3] == 1.0]
        assert quantum.shape[0] > 0
        # the mixed state sits inside
        center = np.array([1.0 / 15.0] * 3)
        distances = np.linalg.norm(rows[:, :3] - center, axis=1)
        assert rows[np.argmin(distances), 3] == 1.0
        # random midpoint convexity within the sampled quantum points
        rng = np.random.default_rng(5)
        values = {tuple(np.round(r[:3], 12)): bool(r[3]) for r in rows}
        qpts = quantum[:, :3]
        for _ in range(50):
            a, b = qpts[rng.integers(0, len(qpts), size=2)]
            mid = (a + b) / 2.0
            point = _qutrit_point(mid)
            verdict = is_quantum(point, qutrit_set)
            assert verdict.min_eigenvalue >= -1e-9

    def test_too_many_free_coordinates_rejected(self, orthogonal_triad):
        entries = [SliceEntry.free(0.0, 1.0 / 3.0)] * 4 + [
            SliceEntry.balance(),
            SliceEntry.const(0.1),
        ]
        with pytest.raises(ConfigError):
            sample_region(Spin(1), orthogonal_triad, SliceSpec(entries), 5)

    @pytest.mark.parametrize("resolution", [2.5, 5.0, True, "5"])
    def test_non_integer_resolution_rejected(self, orthogonal_triad, resolution):
        with pytest.raises(ConfigError, match="resolution must be an integer"):
            sample_region(Spin(1), orthogonal_triad, qubit_cube_slice(), resolution)

    def test_numpy_integer_resolution_is_taken(self, orthogonal_triad):
        rows = sample_region(Spin(1), orthogonal_triad, qubit_cube_slice(), np.int64(3))
        assert np.array_equal(rows, sample_region(Spin(1), orthogonal_triad, qubit_cube_slice(), 3))

    def test_wrong_entry_count_rejected(self, orthogonal_triad):
        with pytest.raises(ConfigError):
            sample_region(
                Spin(1),
                orthogonal_triad,
                SliceSpec([SliceEntry.free(0.0, 1.0)]),
                5,
            )

    def test_csv_output_format(self, orthogonal_triad):
        rows = sample_region(Spin(1), orthogonal_triad, qubit_cube_slice(), 3)
        buf = io.StringIO()
        write_region_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "coord1,coord2,coord3,is_quantum,min_eig"
        assert len(lines) == 1 + 27
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[3] in ("0", "1")

    @pytest.mark.parametrize("n_free", [1, 2, 3])
    def test_csv_bytes_match_per_row_writer(self, monkeypatch, orthogonal_triad, n_free):
        # the first axis starts at -1e-05, printed in exponent notation, and
        # the cube's corners have negative smallest eigenvalues
        entries = [SliceEntry.free(-1e-5, 1.0 / 3.0), SliceEntry.balance()]
        for block in range(1, 3):
            if block < n_free:
                entries += [SliceEntry.free(0.0, 1.0 / 3.0), SliceEntry.balance()]
            else:
                entries += [SliceEntry.const(1.0 / 6.0), SliceEntry.balance()]
        rows = sample_region(Spin(1), orthogonal_triad, SliceSpec(entries), 7)
        buf = io.StringIO()
        write_region_csv(rows, buf)
        expected = io.StringIO()
        _per_row_csv(rows, n_free, expected)
        assert buf.getvalue() == expected.getvalue()
        assert (rows[:, n_free + 1] < 0.0).any()
        assert "e-05," in buf.getvalue()
        # blocks of 5 rows cut the grid's runs, and each block indexes its own strings
        monkeypatch.setattr(region, "_CSV_BLOCK", 5)
        blocked = io.StringIO()
        write_region_csv(rows, blocked)
        assert blocked.getvalue() == expected.getvalue()

    def test_csv_keeps_negative_zero_apart(self, orthogonal_triad):
        # -0.0 == 0.0, so a writer that merged equal values would print one for both
        entries = [SliceEntry.free(0.0, 1.0 / 3.0), SliceEntry.balance()] * 2
        entries += [SliceEntry.const(1.0 / 6.0), SliceEntry.balance()]
        rows = sample_region(Spin(1), orthogonal_triad, SliceSpec(entries), 5)
        zeros = np.flatnonzero(rows[:, 1] == 0.0)
        rows[zeros[::2], 1] = -0.0
        rows[zeros[1::2], 0] = -0.0
        buf = io.StringIO()
        write_region_csv(rows, buf)
        expected = io.StringIO()
        _per_row_csv(rows, 2, expected)
        assert buf.getvalue() == expected.getvalue()
        lines = buf.getvalue().splitlines()[1:]
        assert sum(line.split(",")[1] == "-0.0" for line in lines) == len(zeros[::2])
        assert any(line.split(",")[1] == "0.0" for line in lines)


def _per_row_csv(rows: np.ndarray, n_free: int, fh):
    """Reference writer: one formatted line per row."""
    header = [f"coord{i + 1}" for i in range(n_free)] + ["is_quantum", "min_eig"]
    fh.write(",".join(header) + "\n")
    for row in rows:
        coords = [repr(float(c)) for c in row[:n_free]]
        flag = str(int(row[n_free]))
        fh.write(",".join(coords + [flag, repr(float(row[n_free + 1]))]) + "\n")


def _qutrit_point(free_vals) -> np.ndarray:
    values = []
    for k in range(5):
        plus = free_vals[k] if k < 3 else 1.0 / 15.0
        minus = 1.0 / 15.0
        values.extend([plus, 1.0 / 5.0 - plus - minus, minus])
    return np.array(values)


class TestMidpointConvexity:
    def test_random_quantum_pairs(self, orthogonal_triad):
        spin = Spin(1)
        rng = np.random.default_rng(14)
        quantum_points = []
        while len(quantum_points) < 20:
            point = cube_point(*rng.uniform(0.0, 1.0 / 3.0, size=3))
            if is_quantum(point, orthogonal_triad).is_quantum:
                quantum_points.append(point)
        for _ in range(40):
            i, k = rng.integers(0, 20, size=2)
            mid = (quantum_points[i] + quantum_points[k]) / 2.0
            assert is_quantum(mid, orthogonal_triad).min_eigenvalue >= -1e-10


def _loop_slice_point(spin: Spin, ds: DirectionSet, spec: SliceSpec, coords):
    """Per-point slice assembly, one Python pass over the entries per point."""
    values = np.empty(ds.n_dirs * spin.dim)
    it = iter(coords)
    for i, entry in enumerate(spec.entries):
        if entry.kind == "const":
            values[i] = entry.value
        elif entry.kind == "free":
            values[i] = next(it)
        else:
            values[i] = 0.0
    target = 1.0 / ds.n_dirs
    for block in range(ds.n_dirs):
        lo = block * spin.dim
        for i in range(lo, lo + spin.dim):
            if spec.entries[i].kind == "balance":
                others = sum(values[j] for j in range(lo, lo + spin.dim) if j != i)
                values[i] = target - others
    return values


def _pattern_spec(blocks, n_u, d) -> SliceSpec:
    """One string per block: f = free on [0, 2c], c = const c, b = balance,
    with c the maximally mixed entry 1 / (n_u d)."""
    c = 1.0 / (n_u * d)
    make = {
        "f": lambda: SliceEntry.free(0.0, 2.0 * c),
        "c": lambda: SliceEntry.const(c),
        "b": SliceEntry.balance,
    }
    return SliceSpec([make[kind]() for block in blocks for kind in block])


def _region_set(request, two_j: int) -> DirectionSet:
    """The orthonormal triad, the qutrit set, or a feasible random set."""
    if two_j == 1:
        return request.getfixturevalue("orthogonal_triad")
    if two_j == 2:
        return request.getfixturevalue("qutrit_set")
    return random_direction_set(Spin(two_j), np.random.default_rng(0))


# (two_j, one pattern per block, resolution): 1, 2 and 3 free coordinates;
# balance in the first, middle and last slot of a block; blocks without one
SLICE_CASES = [
    (1, ["fb", "cc", "bc"], 9),
    (1, ["bf", "fb", "cc"], 7),
    (1, ["fb", "bf", "fb"], 5),
    (2, ["fbc", "ccc", "bcc", "ccc", "ccb"], 9),
    (2, ["cbf", "fcb", "ccc", "bcc", "cbc"], 7),
    (2, ["fbc", "fbc", "fbc", "ccc", "ccc"], 5),
    (2, ["cfc", "ccc", "ccc", "ccc", "ccf"], 7),
    (4, ["fcbcc"] + ["ccccc"] * 4 + ["bcccc"] * 2 + ["ccccb"] * 2, 9),
    (4, ["bfccc", "ccbcf"] + ["ccccc"] * 7, 7),
    (4, ["fcbcc", "cfccb", "bcccf"] + ["ccccc"] * 3 + ["cbccc"] * 3, 5),
]


class TestSliceAssembly:
    @pytest.mark.parametrize("two_j, blocks, resolution", SLICE_CASES)
    def test_matches_per_point_loop(self, request, two_j, blocks, resolution):
        spin = Spin(two_j)
        ds = _region_set(request, two_j)
        spec = _pattern_spec(blocks, ds.n_dirs, spin.dim)
        free_idx = [i for i, e in enumerate(spec.entries) if e.kind == "free"]
        rows = sample_region(spin, ds, spec, resolution)

        axes = [
            np.linspace(spec.entries[i].lo, spec.entries[i].hi, resolution)
            for i in free_idx
        ]
        grid = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        loop = np.array([_loop_slice_point(spin, ds, spec, c) for c in grid])
        verdicts = [is_quantum(point, ds) for point in loop]
        ref_min = np.array([v.min_eigenvalue for v in verdicts])
        ref_flags = np.array([v.is_quantum for v in verdicts])
        ref_flags &= loop.min(axis=1) >= -DEFAULT_TOL

        n_free = len(free_idx)
        assert rows.shape == (resolution**n_free, n_free + 2)
        np.testing.assert_array_equal(rows[:, :n_free], grid)
        p0, e = _slice_parametrization(ds, spec, free_idx)
        np.testing.assert_allclose(p0 + grid @ e, loop, rtol=0.0, atol=1e-15)
        assert np.abs(rows[:, n_free + 1] - ref_min).max() <= 1e-12
        decided = np.abs(ref_min + DEFAULT_TOL) > 1e-12
        np.testing.assert_array_equal(
            rows[decided, n_free].astype(bool), ref_flags[decided]
        )

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_simplex_test_reads_free_axes_and_constants(self, request, two_j):
        # a free axis reaching below zero is tested point by point, a
        # constant below -tol refuses the whole slice
        spin = Spin(two_j)
        ds = _region_set(request, two_j)
        n = ds.n_dirs * spin.dim
        c = 1.0 / n
        entries = [SliceEntry.free(-c, 2.0 * c), SliceEntry.balance()]
        entries += [SliceEntry.const(c)] * (spin.dim - 2)
        entries += [SliceEntry.free(0.0, 2.0 * c), SliceEntry.balance()]
        entries += [SliceEntry.const(c)] * (n - 2 - spin.dim)
        for low in (False, True):
            if low:
                entries[-1] = SliceEntry.const(-2.0 * DEFAULT_TOL)
            spec = SliceSpec(entries)
            rows = sample_region(spin, ds, spec, 9)
            grid = rows[:, :2]
            loop = np.array([_loop_slice_point(spin, ds, spec, g) for g in grid])
            verdicts = [is_quantum(point, ds) for point in loop]
            ref_flags = np.array([v.is_quantum for v in verdicts])
            ref_flags &= loop.min(axis=1) >= -DEFAULT_TOL
            ref_min = np.array([v.min_eigenvalue for v in verdicts])
            decided = np.abs(ref_min + DEFAULT_TOL) > 1e-12
            np.testing.assert_array_equal(rows[decided, 2].astype(bool), ref_flags[decided])
            assert ref_flags.any() != low

    def test_overflowing_slice_raises(self, request):
        # finite entries whose grid axis or balance entry overflows: no row is built
        ds = _region_set(request, 2)
        c = 1.0 / 15.0
        rest = [SliceEntry.const(c)] * 9
        for spec in (
            SliceSpec([SliceEntry.free(-1e308, 1e308), SliceEntry.balance(), SliceEntry.const(c)] * 2 + rest),
            SliceSpec(
                [SliceEntry.free(0.0, 2.0 * c), SliceEntry.balance(), SliceEntry.const(c)]
                + [SliceEntry.const(1e308), SliceEntry.const(1e308), SliceEntry.balance()]
                + rest
            ),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DomainError, match="finite"):
                    sample_region(ds.spin, ds, spec, 3)


# a two_j = 8 slice, where the Householder loop runs 7 steps
CHUNK_CASES = SLICE_CASES + [(8, ["fcbcccccc", "cfccccccb", "bcccccccf"] + ["ccccccccc"] * 14, 7)]


class TestSliceChunks:
    @pytest.mark.parametrize("rows_per_chunk", [3, 16, 40])
    @pytest.mark.parametrize("two_j, blocks, resolution", CHUNK_CASES)
    def test_rows_do_not_depend_on_chunking(self, request, monkeypatch, two_j, blocks, resolution, rows_per_chunk):
        # 3 rows cut every run into pieces, 16 and 40 take whole runs (two
        # 7-point runs of a 7^3 grid, five 7-point runs of a 7^2 grid, ...) and
        # leave a partial last chunk: the rows are bitwise those of one chunk
        spin = Spin(two_j)
        ds = _region_set(request, two_j)
        spec = _pattern_spec(blocks, ds.n_dirs, spin.dim)
        whole = sample_region(spin, ds, spec, resolution)
        monkeypatch.setattr(region, "_CHUNK", rows_per_chunk * spin.dim)
        chunked = sample_region(spin, ds, spec, resolution)
        np.testing.assert_array_equal(chunked.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("two_j", [1, 2, 4])
    def test_peak_memory_is_within_three_times_the_rows(self, request, two_j):
        # no (m, n_u d) points array and no whole-scan temporaries: at 61^3
        # the scan used to peak at 3.8x, 5.6x and 11.6x the rows it returns
        spin = Spin(two_j)
        ds = _region_set(request, two_j)
        blocks = next(b for t, b, _ in SLICE_CASES if t == two_j and "".join(b).count("f") == 3)
        spec = _pattern_spec(blocks, ds.n_dirs, spin.dim)
        sample_region(spin, ds, spec, 3)  # the memoized products are not the scan's
        tracemalloc.start()
        try:
            rows = sample_region(spin, ds, spec, 61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (61**3, 5)
        assert peak <= 3 * rows.nbytes


def _random_rows(ds: DirectionSet, rng, n: int) -> dict:
    """Layout-ordered rows by kind: inside and outside the region on the
    simplex, off the simplex, and with a broken candidate trace."""
    n_u, d = ds.n_dirs, ds.spin.dim
    center = np.full((1, n_u * d), 1.0 / (n_u * d))
    simplex = rng.dirichlet(np.ones(d), size=(n, n_u)).reshape(n, n_u * d) / n_u
    near = center + rng.uniform(0.0, 1.0, size=(n, 1)) * (simplex - center)
    # moves the quantizers do not see: the candidate stays the maximally
    # mixed state while one entry drops to -1e-3
    stack = quantizer_stack(ds).reshape(n_u * d, d * d)
    u, sv, _ = np.linalg.svd(np.hstack([stack.real, stack.imag]))
    kernel = u[:, int((sv > 1e-10 * sv[0]).sum()) :]
    moves = rng.normal(size=(n, kernel.shape[1])) @ kernel.T
    peak = np.take_along_axis(moves, np.abs(moves).argmax(axis=1)[:, None], axis=1)
    return {
        "simplex": np.vstack([center, near]),
        "off_simplex": center - (center[0, 0] + 1e-3) * moves / peak,
        "broken_trace": near * 1.01,
        "trace_within_floor": center * (1.0 + 5e-10),
        "trace_beyond_floor": center * (1.0 + 2e-9),
    }


def _batch_length(two_j: int, length: str) -> int:
    """Rows per batch: 15, 16 or 17, or 3 past a chunk of candidates."""
    if length == "chunk":
        return _CHUNK // (two_j + 1) + 3
    return 16 + {"block-1": -1, "block": 0, "block+1": 1}[length]


def assert_same_verdicts(flags, min_eigs, ref_flags, ref_min_eigs):
    """The region contract at DEFAULT_TOL: smallest eigenvalues within 1e-12
    of max(1, |min_eig|), flags equal wherever |min_eig + tol| > 1e-12."""
    ref_min_eigs = np.asarray(ref_min_eigs)
    scale = np.maximum(1.0, np.abs(ref_min_eigs))
    assert (np.abs(np.asarray(min_eigs) - ref_min_eigs) <= 1e-12 * scale).all()
    decided = np.abs(ref_min_eigs + DEFAULT_TOL) > 1e-12
    np.testing.assert_array_equal(np.asarray(flags)[decided], np.asarray(ref_flags)[decided])


class TestClassifyPoints:
    @pytest.mark.parametrize("length", ["block-1", "block", "block+1", "chunk"])
    @pytest.mark.parametrize("two_j", [1, 2, 4, 8])
    def test_rows_match_scalar_verdict(self, request, two_j, length):
        # the batch repeats each kind's rows up to its length, so every
        # row is checked against its scalar verdict at several offsets
        ds = _region_set(request, two_j)
        rng = np.random.default_rng(40 + two_j)
        n = _batch_length(two_j, length)
        kinds = _random_rows(ds, rng, 60)
        seen, verdicts = {}, {}
        for kind, rows in kinds.items():
            verdicts[kind] = [is_quantum(row, ds) for row in rows]
            points = np.resize(rows, (n, rows.shape[1]))
            flags, min_eigs = classify_points(points, ds)
            scalar = [verdicts[kind][i % len(rows)] for i in range(n)]
            on_simplex = points.min(axis=1) >= -DEFAULT_TOL
            assert_same_verdicts(
                flags,
                min_eigs,
                np.array([v.is_quantum for v in scalar]) & on_simplex,
                [v.min_eigenvalue for v in scalar],
            )
            seen[kind] = flags
        assert seen["simplex"].any() and not seen["simplex"].all()
        assert not seen["off_simplex"].any()
        assert not seen["broken_trace"].any()
        assert seen["trace_within_floor"].all()
        assert not seen["trace_beyond_floor"].any()
        # the simplex rule alone rejects these: their candidates are states
        assert all(v.is_quantum for v in verdicts["off_simplex"])

    @pytest.mark.parametrize("two_j", [1, 4])
    def test_candidates_read_the_quantizer_stack(self, request, two_j):
        # the GEMM multiplies by the memoized stack read as reals, not a copy of it
        ds = _region_set(request, two_j)
        assert np.shares_memory(region._candidate_product(ds), quantizer_stack(ds))

    def test_trace_is_read_before_the_reduction(self, request, monkeypatch):
        # the kernel reduces the candidates in place, overwriting the diagonal
        ds = _region_set(request, 4)
        rows = _random_rows(ds, np.random.default_rng(4), 40)["simplex"]
        traces, check = [], region.trace_ok

        def recording(trace, tol):
            traces.append(trace)
            return check(trace, tol)

        planes = _candidate_planes(rows, ds)
        expected = sum(planes[0, j, j] for j in range(planes.shape[1]))
        monkeypatch.setattr(region, "trace_ok", recording)
        classify_points(rows, ds)
        np.testing.assert_array_equal(np.concatenate(traces), expected)

    @pytest.mark.parametrize("two_j", [12, 16, 24])
    def test_scalar_and_batched_verdicts_agree_at_high_spin(self, two_j):
        # a wide product is where a BLAS may round a row differently with the
        # batch around it or the thread count: the contract still holds
        ds = random_direction_set(Spin(two_j), np.random.default_rng(0))
        n_u, d = ds.n_dirs, ds.spin.dim
        rng = np.random.default_rng(two_j)
        m = 35
        rows = rng.dirichlet(np.ones(d), size=(m, n_u)).reshape(m, n_u * d) / n_u
        flags, min_eigs = classify_points(rows, ds)
        scalar = [is_quantum(row, ds) for row in rows]
        assert_same_verdicts(
            flags, min_eigs, [v.is_quantum for v in scalar], [v.min_eigenvalue for v in scalar]
        )

    @pytest.mark.parametrize(
        "points", [np.full(6, 1.0 / 6.0), np.full((4, 5), 0.2), np.zeros((2, 6, 1))]
    )
    def test_wrong_shape_rejected(self, orthogonal_triad, points):
        with pytest.raises(DomainError, match=r"n_dirs\*dim = 6"):
            classify_points(points, orthogonal_triad)

    @pytest.mark.parametrize("two_j", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_raises(self, request, two_j, bad):
        ds = _region_set(request, two_j)
        n_u, d = ds.n_dirs, ds.spin.dim
        points = np.full((4, n_u * d), 1.0 / (n_u * d))
        points[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            classify_points(points, ds)
        with pytest.raises(DomainError, match="finite"):
            is_quantum(points[2], ds)
        entries = [SliceEntry.free(0.0, 2.0 / (n_u * d)), SliceEntry.balance()]
        entries += [SliceEntry.const(1.0 / (n_u * d))] * (n_u * d - 2)
        for broken in (SliceEntry.const(bad), SliceEntry.free(0.0, bad)):
            spec = SliceSpec(entries[:-1] + [broken])
            with pytest.raises(DomainError, match="finite"):
                sample_region(ds.spin, ds, spec, 3)

    def test_boundary_row_keeps_its_verdict(self, orthogonal_triad):
        # rows whose candidate's smallest eigenvalue is -tol to 1e-15: each
        # entry point's flag is its own eigenvalue's verdict, and the two
        # eigenvalues agree to the contract's 1e-12
        rng = np.random.default_rng(12)
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        # at up-probabilities 1/6 + r u the smallest eigenvalue is 1/2 - 3 r
        r = (1.0 + 2.0 * DEFAULT_TOL) / 6.0
        rows = np.vstack([cube_point(*(1.0 / 6.0 + r * v)) for v in u])
        flags, min_eigs = classify_points(rows, orthogonal_triad)
        assert np.abs(min_eigs + DEFAULT_TOL).max() < 1e-15
        assert flags.any() and not flags.all()
        np.testing.assert_array_equal(flags, min_eigs >= -DEFAULT_TOL)
        for row, min_eig in zip(rows, min_eigs):
            verdict = is_quantum(row, orthogonal_triad)
            assert verdict.is_quantum == (verdict.min_eigenvalue >= -DEFAULT_TOL)
            assert abs(verdict.min_eigenvalue - min_eig) <= 1e-12


class TestTolerance:
    @pytest.mark.parametrize(
        "tol", [math.nan, math.inf, -math.inf, -1e-10, True, "1e-10", None, 1e-10 + 0j]
    )
    def test_bad_tol_raises_everywhere(self, request, orthogonal_triad, tol):
        # before: NaN called every point non-quantum with margin NaN, and inf
        # called every point quantum, off-simplex ones included
        ds = _region_set(request, 2)
        n = ds.n_dirs * ds.spin.dim
        point = np.full(n, 1.0 / n)
        entries = [SliceEntry.free(0.0, 2.0 / n), SliceEntry.balance()]
        entries += [SliceEntry.const(1.0 / n)] * (n - 2)
        calls = [
            lambda: is_quantum(point, ds, tol),
            lambda: classify_points(point[None], ds, tol),
            lambda: sample_region(ds.spin, ds, SliceSpec(entries), 3, tol),
            lambda: qubit_ball_test(cube_point(1 / 6, 1 / 6, 1 / 6), orthogonal_triad, tol),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match="tol must be finite and nonnegative"):
                call()

    def test_zero_tol_is_taken(self, orthogonal_triad):
        assert is_quantum(cube_point(1 / 6, 1 / 6, 1 / 6), orthogonal_triad, 0.0).is_quantum


_EPS = np.finfo(float).eps
_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _hermitian_2x2(a, c, b) -> np.ndarray:
    return np.array([[[a, b], [np.conj(b), c]]], dtype=complex)


def _exact_min_eig(a: float, c: float, b: complex) -> float:
    """Smallest eigenvalue of the stored entries, in 50-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, c, br, bi = (decimal.Decimal(float(v)) for v in (a, c, b.real, b.imag))
        return float((a + c) / 2 - (((a - c) / 2) ** 2 + br * br + bi * bi).sqrt())


def _check_closed_form(m: np.ndarray):
    """The qubit closed form against the exact eigenvalue and against LAPACK.

    The closed form stays within 4 eps max(|a|, |c|, |b|) of the exact value
    (2.4 at worst over 3e5 random draws); eigvalsh itself strays up to 5.6,
    so the two are held to the sum of both.
    """
    a, c, b = m[0, 0, 0].real, m[0, 1, 1].real, m[0, 0, 1]
    scale = max(abs(a), abs(c), abs(b))
    got = _min_eigenvalues(m)[0]
    assert abs(got - _exact_min_eig(a, c, b)) <= 4.0 * _EPS * scale
    assert abs(got - np.linalg.eigvalsh(m)[0, 0]) <= 10.0 * _EPS * scale


class TestQubitClosedForm:
    @settings(max_examples=300)
    @given(_FINITE, _FINITE, _FINITE, _FINITE)
    def test_random_hermitian(self, a, c, re_b, im_b):
        _check_closed_form(_hermitian_2x2(a, c, complex(re_b, im_b)))

    @given(st.floats(1e-6, 1e6))
    def test_maximally_mixed(self, trace):
        m = _hermitian_2x2(trace / 2.0, trace / 2.0, 0.0)
        assert _min_eigenvalues(m)[0] == trace / 2.0
        _check_closed_form(m)

    @given(
        st.floats(0.0, math.pi),
        st.floats(0.0, 2.0 * math.pi),
        st.floats(1e-6, 1e6),
    )
    def test_pure_states_on_the_ball(self, theta, phi, trace):
        # trace * |psi><psi|: eigenvalues 0 and trace, so lambda_min ~ 0
        psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        m = trace * np.outer(psi, psi.conj())[None]
        _check_closed_form(m)
        assert abs(_min_eigenvalues(m)[0]) <= 8.0 * _EPS * trace

    @given(_FINITE, _FINITE)
    def test_diagonal_either_order(self, a, c):
        _check_closed_form(_hermitian_2x2(a, c, 0.0))
        _check_closed_form(_hermitian_2x2(c, a, 0.0))
