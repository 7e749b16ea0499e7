import json
import math

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DomainError,
    InvariantError,
    Spin,
    aw_m_matrix,
    condition_number,
    prob_vector,
    q_matrix,
    r_matrix,
    random_density_matrix,
)
from spinportrait import io as fileio
from spinportrait.cli import main
from spinportrait.schemes import aw_directions, default_aw_grid, haar_unitary

TRIAD = [
    {"theta": 0.0, "phi": 0.0},
    {"theta": math.pi / 2, "phi": 0.0},
    {"theta": math.pi / 2, "phi": math.pi / 2},
]


def write_json(path, payload):
    path.write_text(json.dumps(payload))


def write_triad(tmp_path, name="dirs.json"):
    path = tmp_path / name
    write_json(path, TRIAD)
    return str(path)


def write_state(tmp_path, spin, rho, name="state.json"):
    path = tmp_path / name
    fileio.save_state(str(path), spin, rho)
    return str(path)


class TestFileRoundTrips:
    def test_state_file_lossless(self, tmp_path):
        spin = Spin(3)
        rho = random_density_matrix(spin, np.random.default_rng(0))
        path = tmp_path / "state.json"
        fileio.save_state(str(path), spin, rho)
        spin2, rho2 = fileio.load_state(str(path))
        assert spin2 == spin
        assert np.array_equal(rho, rho2)

    def test_directions_file_lossless(self, tmp_path):
        dirs = aw_directions(default_aw_grid(Spin(2)))
        path = tmp_path / "dirs.json"
        fileio.save_directions(str(path), dirs)
        loaded = fileio.load_directions(str(path))
        assert loaded == dirs

    def test_prob_file_lossless(self, tmp_path):
        spin = Spin(1)
        dirs = [Direction(**rec) for rec in TRIAD]
        prob = fileio.ProbFile(
            spin,
            "su2",
            dirs,
            np.array([1 / 3, 1 / 3, 1 / 3]),
            np.array([1 / 3, 0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6]),
        )
        path = tmp_path / "prob.json"
        fileio.save_prob(str(path), prob)
        loaded = fileio.load_prob(str(path))
        assert loaded.scheme == "su2"
        assert loaded.frames == dirs
        assert np.array_equal(loaded.values, prob.values)
        assert np.array_equal(loaded.weights, prob.weights)

    def test_unitary_frames_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = [haar_unitary(3, rng) for _ in range(4)]
        path = tmp_path / "frames.json"
        fileio.save_unitary_frames(str(path), frames)
        loaded = fileio.load_unitary_frames(str(path), 3)
        for a, b in zip(frames, loaded):
            assert np.array_equal(a, b)

    def test_non_unitary_frames_rejected_or_warned(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [haar_unitary(2, rng) for _ in range(3)]
        frames[1] = 1.01 * frames[1]
        path = tmp_path / "frames.json"
        fileio.save_unitary_frames(str(path), frames)
        with pytest.raises(InvariantError, match="frame 1 is not unitary"):
            fileio.load_unitary_frames(str(path), 2)
        with pytest.warns(UserWarning, match="frame 1 is not unitary"):
            loaded = fileio.load_unitary_frames(str(path), 2, validate=False)
        assert all(np.array_equal(a, b) for a, b in zip(frames, loaded))

    def test_non_unitary_prob_file_frames_rejected_or_warned(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = [haar_unitary(2, rng) for _ in range(3)]
        frames[2] = 1.01 * frames[2]
        prob = fileio.ProbFile(Spin(1), "sun", frames, np.full(3, 1 / 3), np.full(6, 1 / 6))
        path = str(tmp_path / "prob.json")
        fileio.save_prob(path, prob)
        with pytest.raises(InvariantError, match="frame 2 is not unitary"):
            fileio.load_prob(path)
        with pytest.warns(UserWarning, match="frame 2 is not unitary"):
            loaded = fileio.load_prob(path, validate=False)
        assert all(np.array_equal(a, b) for a, b in zip(frames, loaded.frames))

    def test_invalid_state_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        write_json(
            path,
            {"two_j": 1, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4},
        )
        with pytest.raises(Exception):
            fileio.load_state(str(path))
        with pytest.warns(UserWarning, match="failed validation"):
            fileio.load_state(str(path), validate=False)


class TestForwardInvert:
    def test_mixed_state_triad(self, tmp_path):
        spin = Spin(1)
        state = write_state(tmp_path, spin, np.eye(2, dtype=complex) / 2.0)
        dirs = write_triad(tmp_path)
        out = str(tmp_path / "prob.json")
        assert main(["forward", "--state", state, "--frames", dirs, "--out", out]) == 0
        prob = fileio.load_prob(out)
        assert np.abs(prob.values - 1.0 / 6.0).max() < 1e-13

    def test_pure_z_state_values(self, tmp_path):
        spin = Spin(1)
        state = write_state(tmp_path, spin, np.diag([1.0, 0.0]).astype(complex))
        dirs = write_triad(tmp_path)
        out = str(tmp_path / "prob.json")
        assert main(["forward", "--state", state, "--frames", dirs, "--out", out]) == 0
        prob = fileio.load_prob(out)
        expected = [1 / 3, 0.0, 1 / 6, 1 / 6, 1 / 6, 1 / 6]
        assert np.abs(prob.values - expected).max() < 1e-13

    def test_su2_round_trip(self, tmp_path, capsys):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(5))
        state = write_state(tmp_path, spin, rho)
        dirs = write_triad(tmp_path)
        prob_path = str(tmp_path / "prob.json")
        back_path = str(tmp_path / "back.json")
        assert main(["forward", "--state", state, "--frames", dirs, "--out", prob_path]) == 0
        assert main(["invert", "--prob", prob_path, "--out", back_path]) == 0
        assert "condition number" in capsys.readouterr().err
        _, rho2 = fileio.load_state(back_path)
        assert np.abs(rho2 - rho).max() < 1e-9

    def test_aw_round_trip(self, tmp_path):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(6))
        state = write_state(tmp_path, spin, rho)
        grid_path = str(tmp_path / "grid.json")
        assert main(["aw-grid", "--two-j", "1", "--out", grid_path]) == 0
        assert len(fileio.load_directions(grid_path)) == 4
        prob_path = str(tmp_path / "prob.json")
        assert main(
            ["forward", "--state", state, "--frames", grid_path, "--scheme", "aw",
             "--out", prob_path]
        ) == 0
        prob = fileio.load_prob(prob_path)
        assert prob.values.size == 4  # only the highest projection per direction
        back_path = str(tmp_path / "back.json")
        assert main(["invert", "--prob", prob_path, "--out", back_path]) == 0
        _, rho2 = fileio.load_state(back_path)
        assert np.abs(rho2 - rho).max() < 1e-9

    def test_sun_round_trip(self, tmp_path):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(7))
        state = write_state(tmp_path, spin, rho)
        rng = np.random.default_rng(8)
        frames_path = str(tmp_path / "frames.json")
        fileio.save_unitary_frames(
            frames_path, [haar_unitary(2, rng) for _ in range(3)]
        )
        prob_path = str(tmp_path / "prob.json")
        back_path = str(tmp_path / "back.json")
        assert main(
            ["forward", "--state", state, "--frames", frames_path, "--scheme", "sun",
             "--out", prob_path]
        ) == 0
        assert main(["invert", "--prob", prob_path, "--out", back_path]) == 0
        _, rho2 = fileio.load_state(back_path)
        assert np.abs(rho2 - rho).max() < 1e-9

    def test_uniform_prob_gives_mixed_state(self, tmp_path):
        dirs = [Direction(**rec) for rec in TRIAD]
        prob = fileio.ProbFile(
            Spin(1), "su2", dirs, np.full(3, 1 / 3), np.full(6, 1 / 6)
        )
        prob_path = str(tmp_path / "prob.json")
        fileio.save_prob(prob_path, prob)
        back = str(tmp_path / "state.json")
        assert main(["invert", "--prob", prob_path, "--out", back]) == 0
        _, rho = fileio.load_state(back)
        assert np.abs(rho - np.eye(2) / 2.0).max() < 1e-12

    def test_non_equal_weights_normalized_with_notice(self, tmp_path, capsys):
        spin = Spin(1)
        rho = random_density_matrix(spin, np.random.default_rng(9))
        state = write_state(tmp_path, spin, rho)
        dirs = write_triad(tmp_path)
        prob_path = str(tmp_path / "prob.json")
        back_path = str(tmp_path / "back.json")
        assert main(
            ["forward", "--state", state, "--frames", dirs,
             "--weights", "0.5,0.3,0.2", "--out", prob_path]
        ) == 0
        assert main(["invert", "--prob", prob_path, "--out", back_path]) == 0
        assert "renormalizing" in capsys.readouterr().err
        _, rho2 = fileio.load_state(back_path)
        assert np.abs(rho2 - rho).max() < 1e-9


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = str(tmp_path / "out.json")
        assert main(["forward", "--state", str(bad), "--frames", str(bad), "--out", out]) == 2

    def test_missing_file_is_2(self, tmp_path):
        out = str(tmp_path / "out.json")
        assert main(["forward", "--state", "nope.json", "--frames", "nope.json", "--out", out]) == 2

    def test_invariant_violation_is_3(self, tmp_path):
        path = tmp_path / "bad_state.json"
        write_json(path, {"two_j": 1, "re": [1.0, 0, 0, 1.0], "im": [0.0] * 4})
        dirs = write_triad(tmp_path)
        out = str(tmp_path / "out.json")
        assert main(["forward", "--state", str(path), "--frames", dirs, "--out", out]) == 3

    def test_infeasible_frames_are_4(self, tmp_path, capsys):
        coplanar = [
            {"theta": math.pi / 2, "phi": 0.0},
            {"theta": math.pi / 2, "phi": 1.0},
            {"theta": math.pi / 2, "phi": 2.0},
        ]
        dirs_path = tmp_path / "coplanar.json"
        write_json(dirs_path, coplanar)
        prob = fileio.ProbFile(
            Spin(1),
            "su2",
            fileio.load_directions(str(dirs_path)),
            np.full(3, 1 / 3),
            np.full(6, 1 / 6),
        )
        prob_path = str(tmp_path / "prob.json")
        fileio.save_prob(prob_path, prob)
        assert main(["invert", "--prob", prob_path, "--out", str(tmp_path / "o.json")]) == 4
        assert "shell L=1 Gram determinant" in capsys.readouterr().err

    def test_degenerate_slice_is_2(self, tmp_path, orthogonal_triad):
        dirs = write_triad(tmp_path)
        slice_path = tmp_path / "slice.json"
        write_json(
            slice_path,
            {"entries": [{"kind": "free", "lo": 0.0, "hi": 0.3}] * 4
             + [{"kind": "balance"}, {"kind": "const", "value": 0.1}]},
        )
        assert main(
            ["region", "--two-j", "1", "--frames", dirs, "--slice", str(slice_path),
             "--resolution", "5"]
        ) == 2


class TestOptimizeDirs:
    def test_spin_half_optimum_and_reproducibility(self, tmp_path, capsys):
        out1 = str(tmp_path / "d1.json")
        out2 = str(tmp_path / "d2.json")
        args = ["optimize-dirs", "--two-j", "1", "--restarts", "2",
                "--max-iters", "200", "--seed", "3"]
        assert main(args + ["--out", out1]) == 0
        err = capsys.readouterr().err
        assert "objective" in err and "condition number" in err
        assert main(args + ["--out", out2]) == 0
        d1 = fileio.load_directions(out1)
        d2 = fileio.load_directions(out2)
        assert d1 == d2
        v = np.array([d.cartesian for d in d1])
        assert abs(v[0] @ np.cross(v[1], v[2])) >= 1.0 - 1e-6

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--tol", "nan", "tolerance must be positive and finite, got nan"),
            ("--tol", "inf", "tolerance must be positive and finite, got inf"),
            ("--tol", "0", "tolerance must be positive and finite, got 0.0"),
            ("--max-iters", "-3", "max_iters must be >= 0, got -3"),
        ],
    )
    def test_bad_budget_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "d.json"
        code = main(["optimize-dirs", "--two-j", "1", flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: " + message
        assert not out.exists()


class TestRegionCommand:
    def test_ball_csv(self, tmp_path, capsys):
        dirs = write_triad(tmp_path)
        entries = []
        for _ in range(3):
            entries.append({"kind": "free", "lo": 0.0, "hi": 1.0 / 3.0})
            entries.append({"kind": "balance"})
        slice_path = tmp_path / "slice.json"
        write_json(slice_path, {"entries": entries})
        out_csv = str(tmp_path / "region.csv")
        assert main(
            ["region", "--two-j", "1", "--frames", dirs, "--slice", str(slice_path),
             "--resolution", "7", "--out", out_csv]
        ) == 0
        lines = open(out_csv).read().strip().split("\n")
        assert lines[0] == "coord1,coord2,coord3,is_quantum,min_eig"
        assert len(lines) == 1 + 7**3
        flags = [int(line.split(",")[3]) for line in lines[1:]]
        assert 0 < sum(flags) < len(flags)

    def test_stdout_default(self, tmp_path, capsys):
        dirs = write_triad(tmp_path)
        entries = [{"kind": "free", "lo": 0.0, "hi": 1.0 / 3.0}, {"kind": "balance"}]
        entries += [{"kind": "const", "value": 1.0 / 6.0}, {"kind": "balance"}] * 2
        slice_path = tmp_path / "slice.json"
        write_json(slice_path, {"entries": entries})
        assert main(
            ["region", "--two-j", "1", "--frames", dirs, "--slice", str(slice_path),
             "--resolution", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("coord1,is_quantum,min_eig")


class TestKernelEval:
    def test_star_kernel_matches_library(self, tmp_path):
        from spinportrait import DirectionSet, star_kernel

        dirs_path = write_triad(tmp_path)
        args = [
            "kernel-eval", "--two-j", "1", "--frames", dirs_path, "--kind", "star",
            "--two-m3", "1", "--k3", "0", "--two-m2", "-1", "--k2", "1",
            "--two-m1", "1", "--k1", "2",
        ]
        import io as _io
        import contextlib

        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(args) == 0
        payload = json.loads(buf.getvalue())
        ds = DirectionSet(Spin(1), fileio.load_directions(dirs_path))
        expected = star_kernel(Spin(1), ds, 1, 0, -1, 1, 1, 2)
        assert payload["re"] == pytest.approx(expected.real, abs=1e-13)
        assert payload["im"] == pytest.approx(expected.imag, abs=1e-13)

    def test_w_to_p_kind(self, tmp_path):
        dirs_path = write_triad(tmp_path)
        args = [
            "kernel-eval", "--two-j", "1", "--frames", dirs_path, "--kind", "w-to-p",
            "--two-m", "1", "--k", "0", "--two-m-prime", "1",
            "--theta", "0.0", "--phi", "0.0",
        ]
        import io as _io
        import contextlib

        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(args) == 0
        payload = json.loads(buf.getvalue())
        assert payload["re"] == pytest.approx(1 / 6 + 2 * 0.25, abs=1e-13)

    @pytest.mark.parametrize("k", ["-1", "3"])
    @pytest.mark.parametrize(
        "kind,flag", [("star", "--k1"), ("star", "--k3"), ("w-to-p", "--k"), ("p-to-w", "--k")]
    )
    def test_direction_index_outside_the_set_is_2(self, tmp_path, capsys, kind, flag, k):
        dirs_path = write_triad(tmp_path)
        args = [
            "kernel-eval", "--two-j", "1", "--frames", dirs_path, "--kind", kind,
            "--two-m1", "1", "--two-m2", "1", "--two-m3", "1", "--two-m", "1",
            "--two-m-prime", "1", flag, k,
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rotation index" in captured.err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_forward_with_non_finite_phi_is_2(self, tmp_path, capsys, phi):
        state = write_state(tmp_path, Spin(1), np.eye(2, dtype=complex) / 2.0)
        dirs_path = tmp_path / "dirs.json"
        dirs_path.write_text(json.dumps([dict(TRIAD[0]), dict(TRIAD[1]), {"theta": 0.5, "phi": phi}]))
        out = str(tmp_path / "prob.json")
        assert main(["forward", "--state", state, "--frames", str(dirs_path), "--out", out]) == 2
        assert "phi must be finite" in capsys.readouterr().err

    def _prob_with_nan(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps({
            "two_j": 1, "scheme": "su2", "frames": TRIAD, "weights": [1 / 3] * 3,
            "values": [1 / 6] * 4 + [math.nan, 1 / 6],
        }))
        return str(path)

    def test_load_prob_rejects_or_warns_on_nan(self, tmp_path):
        path = self._prob_with_nan(tmp_path)
        with pytest.raises(InvariantError, match="NaN probability"):
            fileio.load_prob(path)
        with pytest.warns(UserWarning, match="NaN probability"):
            fileio.load_prob(path, validate=False)

    def test_invert_nan_probabilities_is_3(self, tmp_path, capsys):
        path = self._prob_with_nan(tmp_path)
        assert main(["invert", "--prob", path, "--out", str(tmp_path / "o.json")]) == 3
        assert "NaN probability" in capsys.readouterr().err


def write_sun_frames(tmp_path, spin, seed, name="frames.json"):
    rng = np.random.default_rng(seed)
    path = str(tmp_path / name)
    fileio.save_unitary_frames(path, [haar_unitary(spin.dim, rng) for _ in range(spin.two_j + 2)])
    return path


class TestForwardMatchesLibrary:
    @pytest.mark.parametrize("weights", [None, "0.4,0.1,0.3,0.2"])
    def test_sun_writes_prob_vector(self, tmp_path, weights):
        spin = Spin(2)
        rho = random_density_matrix(spin, np.random.default_rng(20))
        state = write_state(tmp_path, spin, rho)
        frames_path = write_sun_frames(tmp_path, spin, 21)
        out = str(tmp_path / "prob.json")
        args = ["forward", "--state", state, "--frames", frames_path, "--scheme", "sun"]
        if weights is not None:
            args += ["--weights", weights]
        assert main(args + ["--out", out]) == 0
        frames = fileio.load_unitary_frames(frames_path, spin.dim)
        w = None if weights is None else [float(x) for x in weights.split(",")]
        expected = prob_vector(spin, rho, frames, w).values
        prob = fileio.load_prob(out)
        assert np.abs(prob.values - expected).max() <= 1e-15
        assert np.array_equal(prob.weights, np.full(4, 0.25) if w is None else w)

    def test_sun_invalid_state_without_validation_is_3(self, tmp_path, capsys):
        path = tmp_path / "bad_state.json"
        write_json(path, {"two_j": 1, "re": [1.0, 0, 0, 1.0], "im": [0.0] * 4})
        frames_path = write_sun_frames(tmp_path, Spin(1), 22)
        out = tmp_path / "prob.json"
        with pytest.warns(UserWarning, match="failed validation"):
            code = main(["forward", "--state", str(path), "--frames", frames_path,
                         "--scheme", "sun", "--no-validate", "--out", str(out)])
        assert code == 3
        assert "probabilities sum to" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["su2", "sun", "aw"])
    def test_invert_prints_the_condition_number_once(self, tmp_path, capsys, scheme):
        spin = Spin(1)
        state = write_state(tmp_path, spin, random_density_matrix(spin, np.random.default_rng(23)))
        if scheme == "sun":
            frames_path = write_sun_frames(tmp_path, spin, 24)
        elif scheme == "aw":
            frames_path = str(tmp_path / "grid.json")
            assert main(["aw-grid", "--two-j", "1", "--out", frames_path]) == 0
        else:
            frames_path = write_triad(tmp_path)
        prob_path = str(tmp_path / "prob.json")
        assert main(["forward", "--state", state, "--frames", frames_path, "--scheme", scheme,
                     "--out", prob_path]) == 0
        capsys.readouterr()
        assert main(["invert", "--prob", prob_path, "--out", str(tmp_path / "back.json")]) == 0
        prob = fileio.load_prob(prob_path)
        forward = {
            "su2": lambda: q_matrix(spin, prob.frames),
            "sun": lambda: r_matrix(spin, prob.frames, prob.weights),
            "aw": lambda: aw_m_matrix(spin, prob.frames),
        }[scheme]()
        lines = [line for line in capsys.readouterr().err.splitlines() if "condition number" in line]
        assert lines == [f"condition number: {condition_number(forward):.6e}"]


class TestMalformedInput:
    def test_non_numeric_weight_is_2(self, tmp_path, capsys):
        state = write_state(tmp_path, Spin(1), np.eye(2, dtype=complex) / 2.0)
        out = str(tmp_path / "prob.json")
        args = ["forward", "--state", state, "--frames", write_triad(tmp_path),
                "--weights", "a,b,c", "--out", out]
        assert main(args) == 2
        assert capsys.readouterr().err.strip() == "error: --weights entry 'a' is not a number"

    def test_weights_with_aw_scheme_is_2(self, tmp_path, capsys):
        state = write_state(tmp_path, Spin(1), np.eye(2, dtype=complex) / 2.0)
        grid = str(tmp_path / "grid.json")
        assert main(["aw-grid", "--two-j", "1", "--out", grid]) == 0
        out = tmp_path / "prob.json"
        args = ["forward", "--state", state, "--frames", grid, "--scheme", "aw",
                "--weights", "0.7,0.1,0.1,0.1", "--out", str(out)]
        assert main(args) == 2
        assert "--weights applies to the su2 and sun schemes only" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_theta_is_2(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["aw-grid", "--two-j", "1", "--thetas", "x,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == "error: --thetas entry 'x' is not a number"
        assert not out.exists()

    def test_zero_delta_with_thetas_is_2(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        args = ["aw-grid", "--two-j", "1", "--thetas", "1.0,2.0", "--delta", "0", "--out", str(out)]
        assert main(args) == 2
        assert "twist delta must lie in (0, 1/2], got 0.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("record", [{"theta": "x", "phi": 0.0}, 1.5, [0.1, 0.2]])
    def test_bad_direction_record_is_2(self, tmp_path, capsys, record):
        state = write_state(tmp_path, Spin(1), np.eye(2, dtype=complex) / 2.0)
        dirs_path = tmp_path / "dirs.json"
        write_json(dirs_path, [TRIAD[0], record, TRIAD[2]])
        out = str(tmp_path / "prob.json")
        assert main(["forward", "--state", state, "--frames", str(dirs_path), "--out", out]) == 2
        assert "directions file record 1 is not a theta/phi pair" in capsys.readouterr().err

    def test_bad_direction_record_in_prob_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "prob.json"
        write_json(path, {
            "two_j": 1, "scheme": "su2", "frames": [TRIAD[0], TRIAD[1], 7],
            "weights": [1 / 3] * 3, "values": [1 / 6] * 6,
        })
        assert main(["invert", "--prob", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "frames record 2 is not a theta/phi pair" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "frames, message",
        [
            ([1.5, 2.5, 3.5], "frame 0 is not an re/im record"),
            ([[1, 2], [3, 4]], "frame 0 is not an re/im record"),
            ([{"re": [1.0, 0.0, 0.0, 1.0]}], "frame 0 is not an re/im record"),
            ([{"re": ["x", 0, 0, 1], "im": [0] * 4}], "frame 0 re/im entries are not lists of numbers"),
            ([{"re": [1, 0, 0, None], "im": [0] * 4}], "frame 0 has a non-finite or null re/im entry"),
            ({"re": [1, 0, 0, 1], "im": [0] * 4}, "frames must be a JSON list"),
        ],
    )
    def test_bad_unitary_frame_record_is_2(self, tmp_path, capsys, frames, message):
        state = write_state(tmp_path, Spin(1), np.eye(2, dtype=complex) / 2.0)
        frames_path = tmp_path / "frames.json"
        write_json(frames_path, frames)
        out = tmp_path / "prob.json"
        args = ["forward", "--state", state, "--frames", str(frames_path), "--scheme", "sun",
                "--out", str(out)]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_frame_record_in_sun_prob_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "prob.json"
        identity = {"re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
        write_json(path, {
            "two_j": 1, "scheme": "sun", "frames": [identity, identity, "u"],
            "weights": [1 / 3] * 3, "values": [1 / 6] * 6,
        })
        assert main(["invert", "--prob", str(path), "--out", str(tmp_path / "o.json")]) == 2
        assert "probability file frame 2 is not an re/im record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "re, message",
        [
            (["x", 0.0, 0.0, 0.5], "state file re/im entries are not lists of numbers"),
            ([[0.5, 0.0], [0.0]], "state file re/im entries are not lists of numbers"),
            ([0.5, 0.0, 0.0, None], "state file has a non-finite or null re/im entry"),
        ],
    )
    def test_bad_state_entries_are_2(self, tmp_path, capsys, re, message):
        state_path = tmp_path / "state.json"
        write_json(state_path, {"two_j": 1, "re": re, "im": [0.0] * 4})
        with pytest.raises(DomainError, match=message):
            fileio.load_state(str(state_path))
        out = tmp_path / "prob.json"
        args = ["forward", "--state", str(state_path), "--frames", write_triad(tmp_path),
                "--out", str(out)]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def _aw_prob_with_weights(self, tmp_path, weights):
        state = write_state(tmp_path, Spin(1), random_density_matrix(Spin(1), np.random.default_rng(4)))
        grid = str(tmp_path / "grid.json")
        assert main(["aw-grid", "--two-j", "1", "--out", grid]) == 0
        path = tmp_path / "prob.json"
        assert main(["forward", "--state", state, "--frames", grid, "--scheme", "aw",
                     "--out", str(path)]) == 0
        raw = json.loads(path.read_text())
        raw["weights"] = weights
        write_json(path, raw)
        return str(path)

    def test_aw_prob_file_with_unequal_weights_is_2(self, tmp_path, capsys):
        path = self._aw_prob_with_weights(tmp_path, [0.7, 0.1, 0.1, 0.1])
        with pytest.raises(DomainError, match="equal priors"):
            fileio.load_prob(path)
        out = tmp_path / "back.json"
        assert main(["invert", "--prob", path, "--out", str(out)]) == 2
        assert "aw probability files carry the equal priors 1/n only" in capsys.readouterr().err
        assert not out.exists()

    def test_aw_prob_file_with_unequal_weights_warns_without_validation(self, tmp_path):
        path = self._aw_prob_with_weights(tmp_path, [0.7, 0.1, 0.1, 0.1])
        out = tmp_path / "back.json"
        with pytest.warns(UserWarning, match="equal priors"):
            code = main(["invert", "--prob", path, "--no-validate", "--out", str(out)])
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("two_j", [1.7, True, 1.0, "1"])
    def test_non_integer_two_j_is_refused(self, tmp_path, capsys, two_j):
        state_path = tmp_path / "state.json"
        write_json(state_path, {"two_j": two_j, "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4})
        with pytest.raises(DomainError, match="two_j must be a JSON integer"):
            fileio.load_state(str(state_path))
        out = str(tmp_path / "prob.json")
        args = ["forward", "--state", str(state_path), "--frames", write_triad(tmp_path), "--out", out]
        assert main(args) == 2
        assert "two_j must be a JSON integer" in capsys.readouterr().err

        prob_path = tmp_path / "bad_prob.json"
        write_json(prob_path, {
            "two_j": two_j, "scheme": "su2", "frames": TRIAD,
            "weights": [1 / 3] * 3, "values": [1 / 6] * 6,
        })
        with pytest.raises(DomainError, match="two_j must be a JSON integer"):
            fileio.load_prob(str(prob_path))
        assert main(["invert", "--prob", str(prob_path), "--out", str(tmp_path / "o.json")]) == 2
