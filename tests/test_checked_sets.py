"""Frame and direction sets checked once: the warm maps reuse what their constructors checked.

A ``UnitaryFrameSet``'s frames carry the read-only stack that ``frame_matrices``
validated, so the maps take it without a second unitarity test; a raw
sequence is validated on every call.  A ``DirectionSet``'s directions are a
``Directions`` tuple, checked and hashed once, that shares memo entries with
the equal plain tuple.
"""

import copy
import pickle

import numpy as np
import pytest

from spinportrait import (
    Direction,
    DirectionSet,
    DomainError,
    Spin,
    aw_directions,
    aw_forward,
    aw_m_matrix,
    aw_normalized_forward,
    aw_reconstruct,
    default_aw_grid,
    gamma_prime,
    gram,
    prob_vector,
    r_matrix,
    random_density_matrix,
    random_frame_set,
    reconstruct,
    reconstruct_pinv,
)
from spinportrait import orthopoly, spin as spin_module, su2, tomography
from spinportrait.spin import Directions, frame_matrices

from conftest import random_direction_set


class RawFrameSet:
    """A frame set as the inverse reads one (``spin``, ``frames``), its frames a plain list."""

    def __init__(self, spin, frames):
        self.spin, self.frames = spin, frames


@pytest.fixture
def unitaries_calls(monkeypatch):
    """Count the calls of the one array-frame validator."""
    calls = []
    validate = spin_module._unitaries

    def counted(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(spin_module, "_unitaries", counted)
    return calls


@pytest.mark.parametrize("two_j", [1, 4, 16])
def test_a_frame_sets_frames_are_validated_only_by_its_constructor(two_j, unitaries_calls):
    spin = Spin(two_j)
    rng = np.random.default_rng(two_j)
    ufs = random_frame_set(spin, rng)
    assert len(unitaries_calls) == 1
    su2._solver.cache_clear()  # the cold inverse builds the forward matrix from the frames too
    for _ in range(3):
        rho = random_density_matrix(spin, rng)
        assert np.abs(reconstruct_pinv(prob_vector(spin, rho, ufs.frames), ufs) - rho).max() < 1e-10
        gamma_prime(ufs)
    assert len(unitaries_calls) == 1


def test_a_raw_frame_list_is_validated_on_every_call(unitaries_calls):
    spin = Spin(4)
    rng = np.random.default_rng(40)
    ufs = random_frame_set(spin, rng)
    raw = RawFrameSet(spin, list(ufs.frames))
    rho = random_density_matrix(spin, rng)
    before = len(unitaries_calls)
    p = prob_vector(spin, rho, raw.frames)
    assert len(unitaries_calls) == before + 1
    assert p.values.tobytes() == prob_vector(spin, rho, ufs.frames).values.tobytes()
    gamma_prime(raw)
    assert len(unitaries_calls) == before + 2
    su2._solver.cache_clear()
    assert np.abs(reconstruct_pinv(p, raw) - rho).max() < 1e-10  # cold: one forward matrix
    assert len(unitaries_calls) == before + 3


def test_a_frame_set_used_with_another_spin_is_refused():
    ufs = random_frame_set(Spin(2), np.random.default_rng(2))
    spin = Spin(3)
    rho = random_density_matrix(spin, np.random.default_rng(3))
    message = r"frame shape \(3, 3\) does not match dim 4"
    for call in (
        lambda: frame_matrices(spin, ufs.frames),
        lambda: prob_vector(spin, rho, ufs.frames),
        lambda: r_matrix(spin, ufs.frames),
        lambda: orthopoly.s_operator_coords(spin, ufs.frames),
        lambda: tomography.forward_rows(spin, ufs.frames),
    ):
        with pytest.raises(DomainError, match=message):
            call()


def test_the_stack_behind_a_frame_set_is_read_only():
    spin = Spin(2)
    ufs = random_frame_set(spin, np.random.default_rng(5))
    stack = frame_matrices(spin, ufs.frames)
    assert stack is frame_matrices(spin, ufs.frames)
    for arr in (stack, *ufs.frames, tomography.forward_rows(spin, ufs.frames)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    assert frame_matrices(spin, list(ufs.frames)).flags.writeable  # a raw list gets a fresh stack


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copies_of_a_frame_set_stay_checked_and_usable(clone, unitaries_calls):
    spin = Spin(3)
    rng = np.random.default_rng(6)
    ufs = random_frame_set(spin, rng)
    other = clone(ufs)
    assert type(other.frames) is type(ufs.frames)
    assert np.stack(other.frames).tobytes() == np.stack(ufs.frames).tobytes()
    assert not frame_matrices(spin, other.frames).flags.writeable
    before = len(unitaries_calls)
    rho = random_density_matrix(spin, rng)
    assert np.abs(reconstruct_pinv(prob_vector(spin, rho, other.frames), other) - rho).max() < 1e-10
    assert len(unitaries_calls) == before


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copies_of_a_direction_set_stay_equal_and_usable(clone):
    spin = Spin(2)
    rng = np.random.default_rng(7)
    ds = random_direction_set(spin, rng)
    other = clone(ds)
    assert other == ds and hash(other) == hash(ds)
    assert type(other.dirs) is Directions
    assert other.dirs == ds.dirs and hash(other.dirs) == hash(ds.dirs)
    assert all(hash(a) == hash(Direction(a.theta, a.phi)) for a in other.dirs)
    rho = random_density_matrix(spin, rng)
    assert np.abs(reconstruct(prob_vector(spin, rho, other.dirs), other) - rho).max() < 1e-10


def test_checked_directions_compare_and_hash_as_the_plain_tuple():
    spin = Spin(4)
    ds = random_direction_set(spin, np.random.default_rng(8))
    plain = tuple(ds.dirs)
    assert type(plain) is tuple
    assert ds.dirs == plain and plain == ds.dirs
    assert hash(ds.dirs) == hash(plain)
    assert Directions(ds.dirs) is ds.dirs
    assert Directions(plain) == plain and Directions(list(plain)) == plain


def test_a_direction_set_and_an_equal_list_share_one_rows_entry():
    spin = Spin(4)
    ds = random_direction_set(spin, np.random.default_rng(9))
    tomography._frame_rows.cache_clear()
    rows = tomography.forward_rows(spin, ds.dirs)
    for dirs in (list(ds.dirs), [Direction(n.theta, n.phi) for n in ds.dirs]):
        assert tomography.forward_rows(spin, dirs) is rows
    info = tomography._frame_rows.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)


def test_aw_and_shell_helpers_refuse_entries_that_are_not_directions():
    spin = Spin(1)
    rho = random_density_matrix(spin, np.random.default_rng(10))
    good = list(aw_directions(default_aw_grid(spin)))
    message = "directions must be Direction instances"
    for dirs in ([np.eye(2)] * 4, good[:3] + [np.eye(2)], good[:3] + [(1.0, 0.5)]):
        for call in (
            lambda: aw_forward(spin, rho, dirs),
            lambda: aw_normalized_forward(spin, rho, dirs),
            lambda: aw_m_matrix(spin, dirs),
            lambda: aw_reconstruct(spin, np.full(4, 0.25), dirs),
            lambda: gram(spin, 1, dirs[1:]),
            lambda: su2.delta_q(dirs[1:], 1),
        ):
            with pytest.raises(DomainError, match=message):
                call()

