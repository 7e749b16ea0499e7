import json
import math

import numpy as np
import pytest

from spinportrait import Direction, InvariantError, Spin, random_density_matrix
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
