"""The warm per-state path: batched frame validation, array stacking, one-gather unpacking.

Each whole-array check is held to the per-frame or per-block loop it replaced,
kept here as the oracle, and the outputs of the path to the bits of those
loops.
"""

import hashlib
import math
import re
import zlib

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    DomainError,
    FeasibilityError,
    InvariantError,
    ProbVector,
    Spin,
    UnitaryFrameSet,
    aw_directions,
    aw_normalized_forward,
    aw_reconstruct,
    default_aw_grid,
    haar_unitary,
    normalize_to_eq,
    prob_vector,
    random_density_matrix,
    random_frame_set,
    reconstruct,
    reconstruct_pinv,
    rotation,
    stack,
    vec_to_hermitian,
)
from spinportrait import linalg, schemes, su2
from spinportrait.linalg import SQRT2
from spinportrait.spin import frame_matrices
from spinportrait.tomography import tomogram_columns

from conftest import random_direction_set


def unitarity_defect(u) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def loop_frame_matrices(spin, frames):
    """The per-frame loop: every frame in order, shape then unitarity."""
    out = np.empty((len(frames), spin.dim, spin.dim), dtype=complex)
    for k, frame in enumerate(frames):
        if isinstance(frame, Direction):
            out[k] = rotation(spin, frame)
            continue
        u = np.asarray(frame, dtype=complex)
        if u.shape != (spin.dim, spin.dim):
            raise DomainError(f"frame shape {u.shape}")
        if not unitarity_defect(u) <= 1e-12:
            raise InvariantError(f"frame {k} is not unitary")
        out[k] = u
    return out


def loop_vec_to_hermitian(v, dim):
    """Zero matrix filled by three index assignments: diagonal, upper, lower."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (dim, dim), dtype=complex)
    diag = np.arange(dim)
    out[..., diag, diag] = v[..., :dim]
    rows, cols = np.triu_indices(dim, k=1)
    n_off = rows.size
    upper = (v[..., dim : dim + n_off] + 1j * v[..., dim + n_off :]) / SQRT2
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper.conj()
    return out


def trace_one(y, dim):
    """The diagonal coordinates shifted one at a time by (1 - trace) / dim, the trace summed in order."""
    y = y.copy()
    trace = 0.0
    for i in range(dim):
        trace += float(y[i])
    for i in range(dim):
        y[i] += (1.0 - trace) / dim
    return y


def concatenated_stack(portraits, weights):
    """Values of one scaled array per block, concatenated."""
    w = np.full(len(portraits), 1.0 / len(portraits)) if weights is None else weights
    return np.concatenate([wk * np.asarray(a, dtype=float) for wk, a in zip(w, portraits)])


def spoil(frame, kind):
    if kind == "scaled":
        return frame * (1.0 + 1e-11)
    if kind == "nan":
        bad = frame.copy()
        bad[1, 0] = np.nan
        return bad
    return frame[:-1]  # "shape"


ERROR = {"scaled": InvariantError, "nan": InvariantError, "shape": DomainError}


def assert_refused(spin, frames, error, match=None):
    """frame_matrices and prob_vector on the raw sequence raise one error with one message."""
    with pytest.raises(error, match=match) as refused:
        frame_matrices(spin, frames)
    with pytest.raises(error, match=re.escape(str(refused.value))):
        prob_vector(spin, np.eye(spin.dim) / spin.dim, frames)


@pytest.fixture(scope="module")
def frames16():
    rng = np.random.default_rng(1618)
    return [haar_unitary(17, rng) for _ in range(18)]


class TestFrameValidation:
    @pytest.mark.parametrize("kind", ["scaled", "nan", "shape"])
    def test_one_bad_frame_at_each_position(self, frames16, kind):
        spin = Spin(16)
        for k in range(len(frames16)):
            frames = list(frames16)
            frames[k] = spoil(frames[k], kind)
            assert_refused(spin, frames, ERROR[kind])
            with pytest.raises(ERROR[kind]):
                UnitaryFrameSet(spin, frames[: spin.two_j + 2])

    def test_valid_frames_are_stacked_unchanged(self, frames16):
        out = frame_matrices(Spin(16), frames16)
        assert out.tobytes() == np.stack(frames16).tobytes()
        assert out.flags.writeable and out.flags.c_contiguous

    def test_a_defect_of_1e_11_in_one_entry_fails(self, frames16):
        # one entry off: the batched test is entrywise, like the per-frame max
        frames = list(frames16)
        frames[9] = frames[9].copy()
        frames[9][4, 4] += 1e-11
        assert_refused(Spin(16), frames, InvariantError, "not unitary to 1e-12")

    @pytest.mark.parametrize(
        "first, second",
        [("shape", "scaled"), ("scaled", "shape"), ("nan", "shape"), ("shape", "nan"),
         ("scaled", "nan")],
    )
    def test_first_bad_frame_in_order_decides(self, frames16, first, second):
        spin = Spin(16)
        for i, j in [(0, 17), (3, 4), (8, 12)]:
            frames = list(frames16)
            frames[i], frames[j] = spoil(frames[i], first), spoil(frames[j], second)
            assert_refused(spin, frames, ERROR[first])

    def test_matches_the_per_frame_loop_on_mixed_sequences(self, frames16):
        spin = Spin(16)
        rng = np.random.default_rng(7)
        for _ in range(60):
            frames = [
                Direction(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
                if rng.random() < 0.4 else frames16[int(rng.integers(18))]
                for _ in range(int(rng.integers(1, 12)))
            ]
            for k in rng.choice(len(frames), size=min(len(frames), int(rng.integers(0, 3))), replace=False):
                if not isinstance(frames[k], Direction):
                    frames[k] = spoil(frames[k], rng.choice(list(ERROR)))
            try:
                expected = loop_frame_matrices(spin, frames)
            except (DomainError, InvariantError) as exc:
                assert_refused(spin, frames, type(exc), re.escape(str(exc)))
            else:
                got = frame_matrices(spin, frames)
                assert np.abs(got - expected).max() <= 1e-12
                arrays = [k for k, f in enumerate(frames) if not isinstance(f, Direction)]
                assert got[arrays].tobytes() == expected[arrays].tobytes()

    def test_directions_mixed_with_arrays(self):
        spin = Spin(2)
        rng = np.random.default_rng(3)
        dirs = [Direction(0.4, 1.1), Direction(2.0, 5.0), Direction(1.3, 0.2)]
        arrays = [haar_unitary(3, rng) for _ in range(3)]
        frames = [dirs[0], arrays[0], arrays[1], dirs[1], arrays[2], dirs[2]]
        out = frame_matrices(spin, frames)
        assert out[[1, 2, 4]].tobytes() == np.stack(arrays).tobytes()
        assert out[[0, 3, 5]].tobytes() == frame_matrices(spin, dirs).tobytes()
        frames[4] = 2.0 * arrays[2]
        assert_refused(spin, frames, InvariantError, "frame 4 is not unitary")
        frames[2] = arrays[1][:2]
        assert_refused(spin, frames, DomainError, r"frame shape \(2, 3\)")

    def test_empty_sequence(self):
        assert frame_matrices(Spin(1), []).shape == (0, 2, 2)


class TestStack:
    @pytest.mark.parametrize("two_j, n", [(1, 3), (4, 9), (16, 18)])
    def test_array_and_list_inputs_are_bitwise_equal(self, two_j, n):
        rng = np.random.default_rng(two_j)
        cols = rng.dirichlet(np.ones(two_j + 1), size=n)
        w = rng.uniform(0.5, 1.5, n)
        for weights in (None, w / w.sum()):
            from_array = stack(cols, weights).values
            assert from_array.tobytes() == stack(list(cols), weights).values.tobytes()
            assert from_array.tobytes() == concatenated_stack(list(cols), weights).tobytes()
            assert not from_array.flags.writeable

    def test_refusals(self):
        with pytest.raises(DomainError, match="nothing to stack"):
            stack([], None)
        with pytest.raises(DomainError, match=r"not an \(N, L\) array of numbers"):
            stack([[0.5, 0.5], [1.0, 0.0, 0.0]], [0.5, 0.5])
        with pytest.raises(DomainError):
            stack(np.full(4, 0.25), None)  # not one portrait per row
        with pytest.raises(DomainError):
            stack(np.empty((0, 2)), None)
        with pytest.raises(DomainError):
            stack(np.full((2, 2), 0.5), [0.5, 0.6])
        with pytest.raises(InvariantError):
            stack(np.array([[0.5, 0.5], [0.5, np.nan]]), None)

    def test_the_input_array_is_not_held(self):
        cols = np.array([[0.25, 0.75], [0.5, 0.5]])
        p = stack(cols, None)
        cols[0, 0] = 9.0
        assert p.values[0] == 0.125

    def test_the_constructor_still_copies(self):
        values = np.full(4, 0.25)
        p = ProbVector(Spin(1), 2, values)
        values[0] = 9.0
        assert p.values[0] == 0.25 and not p.values.flags.writeable


class TestVecToHermitian:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9, 17])
    def test_bitwise_the_loop_on_vectors_and_stacks(self, dim):
        rng = np.random.default_rng(dim)
        for shape in [(dim * dim,), (7, dim * dim), (2, 3, dim * dim)]:
            v = rng.normal(size=shape)
            v.reshape(-1)[::5] = 0.0
            v.reshape(-1)[2::7] = -0.0
            got = vec_to_hermitian(v, dim)
            assert got.tobytes() == loop_vec_to_hermitian(v, dim).tobytes()
            assert got.flags.c_contiguous and got.shape == shape[:-1] + (dim, dim)

    @pytest.mark.parametrize("dim", [2, 5, 17])
    def test_transposed_stack_gives_a_contiguous_result(self, dim):
        v = np.random.default_rng(dim).normal(size=(dim * dim, 4 * dim)).T
        assert not v.flags.c_contiguous
        got = vec_to_hermitian(v, dim)
        assert got.tobytes() == loop_vec_to_hermitian(v, dim).tobytes()
        assert got.flags.c_contiguous
        got.reshape(len(v), dim * dim).view(float)  # what the region scan does

    def test_quantizer_stack_is_contiguous(self):
        ds = random_direction_set(Spin(4), np.random.default_rng(44))
        stack_ = su2.quantizer_stack(ds)
        assert stack_.flags.c_contiguous and not stack_.flags.writeable

    def test_index_map_is_memoized_and_read_only(self):
        index = linalg._coord_layout(4).index
        assert index is linalg._coord_layout(4).index
        assert not index.flags.writeable
        assert sorted(index) == list(range(16))  # a permutation of the packed row

    def test_wrong_length_is_refused(self):
        with pytest.raises(ValueError):
            vec_to_hermitian(np.zeros(5), 2)


class TestReconstructChecks:
    def test_nan_block_sum_is_refused(self, monkeypatch):
        spin = Spin(2)
        rng = np.random.default_rng(5)
        ds = random_direction_set(spin, rng)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        for p, frame_set in [(prob_vector(spin, rho, ds.dirs), ds),
                             (prob_vector(spin, rho, ufs.frames), ufs)]:
            sums = p.block_sums()
            sums[-1] = np.nan
            monkeypatch.setattr(ProbVector, "block_sums", lambda self, s=sums: s)
            before = su2._solver.cache_info()
            with pytest.raises(DomainError, match="block sums are not the priors"):
                reconstruct(p, frame_set)
            assert su2._solver.cache_info() == before
            monkeypatch.undo()

    def test_off_prior_sums_are_refused_without_a_memo_entry(self):
        spin = Spin(4)
        rng = np.random.default_rng(6)
        ds = random_direction_set(spin, rng)
        ufs = random_frame_set(spin, rng)
        rho = random_density_matrix(spin, rng)
        w = rng.uniform(0.5, 1.5, ds.n_dirs)
        skewed = prob_vector(spin, rho, ds.dirs, w / w.sum())
        w = rng.uniform(0.5, 1.5, len(ufs.frames))
        weighted = prob_vector(spin, rho, ufs.frames, w / w.sum())
        before = su2._solver.cache_info()
        for p, frame_set in [(skewed, ds), (weighted, ufs)]:
            with pytest.raises(DomainError, match="block sums are not the priors"):
                reconstruct(p, frame_set)
        assert su2._solver.cache_info() == before
        assert np.abs(reconstruct(normalize_to_eq(skewed), ds) - rho).max() < 1e-9
        assert np.abs(reconstruct_pinv(normalize_to_eq(weighted), ufs) - rho).max() < 1e-9


# The seed-3 inputs of the benchmark's roundtrip workload, drawn the same way.
ROUNDTRIP_STATES = {1: 64, 2: 64, 4: 32, 8: 16, 16: 4}


def _rng(tag):
    return np.random.default_rng([3, zlib.crc32(tag.encode())])


def _state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _haar(rng, d, n):
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    out = np.empty_like(g)
    for k in range(n):
        q, r = np.linalg.qr(g[k])
        out[k] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return out


# Hashes are of bits, and the bits of a BLAS product depend on the CPU's kernels
# and the BLAS thread count.  So the outputs' hashes (first 16 hex digits of
# sha256 over su2 p, pe, rho; sun p, rho; aw w, rho or "refused") are pinned
# under a fingerprint: the hash of the BLAS-made inputs of the code under test
# (tomogram columns and inverse-times-vector products).  The sun and aw hashes
# were captured before the batched checks, array stacking and one-gather
# unpacking went in.  The su2 hash was captured again once the least-squares
# inverse applied G_L in factored form, which changed its bits, the su2
# and sun hashes once reconstruct shifted the diagonal to a trace of exactly 1,
# and the su2 hash and both fingerprints once the least-squares inverse was
# built from the per-spin operator basis and Y_L^+.  The last two entries were
# added once every forward map became one product of memoized projector rows
# with the state's coordinates, which moved the forward probabilities by up
# to 2.2e-16 and so changed both fingerprints and all three hashes.
# All on numpy 2.4.6, OpenBLAS, 2-core Xeon, with 1 and with 2 BLAS threads.
PINNED = {
    "5638676481ced773": ("e98344d543de7ef7", "27b5cd417cfa2682", "b9bd32f9a63996f6"),
    "f1d51352a644b6ce": ("e98344d543de7ef7", "8f3fad3afee340a9", "b9bd32f9a63996f6"),
    "0804232625d07f7f": ("996ee14057a80231", "7750ae944218c00d", "7d57266b220d3d12"),
    "67f9f141a72866ca": ("996ee14057a80231", "1f8e8b94f993a8df", "7d57266b220d3d12"),
}


@pytest.fixture(scope="module")
def roundtrip_digests():
    """(outputs, loop oracles fed the same BLAS products, fingerprint) digests."""
    got = {k: hashlib.sha256() for k in ("su2", "sun", "aw")}
    oracle = {k: hashlib.sha256() for k in ("su2", "sun", "aw")}
    mids = hashlib.sha256()
    for two_j, count in ROUNDTRIP_STATES.items():
        spin, n_u = Spin(two_j), 2 * two_j + 1
        rng = _rng(f"roundtrip.dirs.{two_j}")
        thetas, phis = np.arccos(rng.uniform(-1.0, 1.0, n_u)), rng.uniform(0.0, 2 * math.pi, n_u)
        w = _rng(f"roundtrip.priors.{two_j}").uniform(0.5, 1.5, n_u)
        priors = w / w.sum()
        frames = _haar(_rng(f"roundtrip.frames.{two_j}"), two_j + 1, two_j + 2)
        ds = DirectionSet(spin, [Direction(float(t), float(p)) for t, p in zip(thetas, phis)])
        ufs = UnitaryFrameSet(spin, list(frames))
        aw = aw_directions(default_aw_grid(spin))
        for i in range(count):
            rho = _state(_rng(f"roundtrip.states.{two_j}.{i}"), two_j + 1)

            p = prob_vector(spin, rho, ds.dirs, priors)
            pe = normalize_to_eq(p)
            for a in (p.values, pe.values, reconstruct(pe, ds)):
                got["su2"].update(a.tobytes())
            cols = tomogram_columns(spin, rho, ds.dirs)
            product = su2.least_squares(ds)[1] @ pe.values
            mids.update(cols.tobytes())
            mids.update(product.tobytes())
            for a in (concatenated_stack(list(cols), priors), pe.values,
                      loop_vec_to_hermitian(trace_one(product, spin.dim), spin.dim)):
                oracle["su2"].update(a.tobytes())

            q = prob_vector(spin, rho, ufs.frames)
            for a in (q.values, reconstruct_pinv(q, ufs)):
                got["sun"].update(a.tobytes())
            cols = tomogram_columns(spin, rho, list(frames))
            product = su2.least_squares(ufs)[1] @ q.values
            mids.update(cols.tobytes())
            mids.update(product.tobytes())
            for a in (concatenated_stack(list(cols), None),
                      loop_vec_to_hermitian(trace_one(product, spin.dim), spin.dim)):
                oracle["sun"].update(a.tobytes())

            v = aw_normalized_forward(spin, rho, aw)
            got["aw"].update(v.tobytes())
            oracle["aw"].update(v.tobytes())
            try:
                got["aw"].update(aw_reconstruct(spin, v, aw, normalized=True).tobytes())
            except FeasibilityError:
                got["aw"].update(b"refused")
                oracle["aw"].update(b"refused")
            else:
                product = schemes._aw_solver(spin, tuple(aw))[1] @ v
                mids.update(product.tobytes())
                out = loop_vec_to_hermitian(product, spin.dim)
                oracle["aw"].update((out / float(np.trace(out).real)).tobytes())
    digests = tuple(got[k].hexdigest()[:16] for k in ("su2", "sun", "aw"))
    return digests, tuple(oracle[k].hexdigest()[:16] for k in ("su2", "sun", "aw")), mids.hexdigest()[:16]


def test_roundtrip_outputs_are_the_loop_implementations_bits(roundtrip_digests):
    """On any machine the outputs equal the loop oracles fed the same BLAS products."""
    digests, oracle, _ = roundtrip_digests
    assert digests == oracle


def test_roundtrip_outputs_hash_to_the_pinned_digests(roundtrip_digests):
    """Where the BLAS fingerprint is pinned, the outputs hash to the values
    captured from the loop implementations; elsewhere the test says it skipped."""
    digests, _, fingerprint = roundtrip_digests
    if fingerprint not in PINNED:
        pytest.skip(f"BLAS fingerprint {fingerprint} is not pinned")
    assert digests == PINNED[fingerprint]
