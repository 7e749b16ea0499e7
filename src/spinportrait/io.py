"""JSON file schemas for states, directions, and probability vectors.

All files are JSON with floats serialized by Python's shortest round-trip
representation, so write-then-read is lossless at full binary precision.
Writes go through a temporary file and an atomic rename.

State file:      {"two_j": int, "re": [...], "im": [...]}, row-major entries.
Directions file: [{"theta": t, "phi": p}, ...].
Probability file: {"two_j": int, "scheme": "su2"|"sun"|"aw",
                   "frames": [...], "weights": [...], "values": [...]}
with direction records for su2/aw frames and {"re": [...], "im": [...]}
row-major unitary records for sun frames.  Values follow the rotation-major,
descending-m layout, each su2 or sun block summing to its weight to
``linalg.PRIOR_TOL``; for the aw scheme they are the unit-sum variant of the
highest-projection probabilities, one per direction.
Slice file:      {"entries": [{"kind": "const", "value": v} |
                              {"kind": "free", "lo": a, "hi": b} |
                              {"kind": "balance"}, ...]}, one per coordinate.

A malformed file raises DomainError, or KeyError for a missing top-level key
of a state or probability file (the CLI exits 2 on both), never a bare
TypeError or ValueError.  Every number of a file must be a JSON number: a
bool or a numeric string is refused, not coerced.
"""

from __future__ import annotations

import json
import os
import secrets
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError
from .linalg import PRIOR_TOL, is_integer
from .portraits import _check_probabilities, validate_weights
from .region import SliceEntry, SliceSpec
from .spin import Direction, Spin, _unitaries, validate_density_matrix

SCHEMES = ("su2", "sun", "aw")


@contextmanager
def _atomic_write_text(path: str):
    """A text handle on a temporary file beside ``path``, renamed into place on success.

    The temporary file is created exclusively, under a random name, with mode
    0o666 less the umask, as ``open(path, "w")`` would create ``path``.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(path: str, payload):
    with _atomic_write_text(path) as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _matrix_from_parts(re, im, dim: int, what: str) -> np.ndarray:
    re = _numbers(re, f"{what} re/im entries")
    im = _numbers(im, f"{what} re/im entries")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DomainError(f"{what} has a non-finite or null re/im entry")
    if re.size != dim * dim or im.size != dim * dim:
        raise DomainError(
            f"{what} needs {dim * dim} re/im entries, got {re.size}/{im.size}"
        )
    return (re + 1j * im).reshape(dim, dim)


def _read_spin(raw) -> Spin:
    """The spin of a state or probability file; two_j must be a JSON integer."""
    if not isinstance(raw, dict):
        raise DomainError("state and probability files must be JSON objects")
    two_j = raw["two_j"]
    if not is_integer(two_j):
        raise DomainError(f"two_j must be a JSON integer, got {two_j!r}")
    return Spin(two_j)


def save_state(path: str, spin: Spin, rho: np.ndarray):
    rho = np.asarray(rho, dtype=complex)
    _dump_json(
        path,
        {
            "two_j": spin.two_j,
            "re": [float(x) for x in rho.real.ravel()],
            "im": [float(x) for x in rho.imag.ravel()],
        },
    )


def load_state(path: str, validate: bool = True):
    raw = _load_json(path)
    spin = _read_spin(raw)
    rho = _matrix_from_parts(raw["re"], raw["im"], spin.dim, "state file")
    try:
        validate_density_matrix(spin, rho)
    except (InvariantError, DomainError) as exc:
        if validate:
            raise
        warnings.warn(f"state file failed validation: {exc}")
    return spin, rho


def _direction_records(dirs) -> list:
    """{"theta", "phi"} records of directions."""
    return [{"theta": float(d.theta), "phi": float(d.phi)} for d in dirs]


def _number(value) -> float:
    """A JSON number (an int or a float, not a bool) as a float; ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a JSON number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"JSON integer out of float range: {value}") from None


def _numbers(entries, what: str) -> np.ndarray:
    """A JSON list of numbers as a float array, null as NaN; DomainError for anything else."""
    try:
        if isinstance(entries, list):
            return np.array([np.nan if x is None else _number(x) for x in entries], dtype=float)
    except ValueError:
        pass
    raise DomainError(f"{what} are not lists of numbers")


def _read_directions(records, what: str) -> list:
    """Directions from {"theta", "phi"} records of JSON numbers; a malformed one raises DomainError."""
    if not isinstance(records, list):
        raise DomainError(f"{what} must be a JSON list")
    dirs = []
    for i, rec in enumerate(records):
        try:
            theta, phi = _number(rec["theta"]), _number(rec["phi"])
        except (KeyError, TypeError, ValueError):
            raise DomainError(
                f"{what} record {i} is not a theta/phi pair of numbers: {rec!r}"
            ) from None
        dirs.append(Direction(theta, phi))
    return dirs


def save_directions(path: str, dirs):
    _dump_json(path, _direction_records(dirs))


def load_directions(path: str):
    return _read_directions(_load_json(path), "directions file")


def _frame_records(frames) -> list:
    """Row-major {"re", "im"} records of unitary frames."""
    return [
        {
            "re": [float(x) for x in np.asarray(u).real.ravel()],
            "im": [float(x) for x in np.asarray(u).imag.ravel()],
        }
        for u in frames
    ]


def _read_frames(records, dim: int, validate: bool, what: str) -> list:
    """Unitary frames from row-major {"re", "im"} records.

    A malformed record raises DomainError; :func:`spin._unitaries` judges
    unitarity, and its InvariantError only warns when ``validate`` is false.
    """
    if not isinstance(records, list):
        raise DomainError(f"{what}s must be a JSON list")
    frames = []
    for i, rec in enumerate(records):
        try:
            re, im = rec["re"], rec["im"]
        except (TypeError, KeyError):
            raise DomainError(f"{what} {i} is not an re/im record: {rec!r}") from None
        frames.append(_matrix_from_parts(re, im, dim, f"{what} {i}"))
    try:
        _unitaries(dim, frames)
    except InvariantError as exc:
        if validate:
            raise
        warnings.warn(f"{what}s failed validation: {exc}")
    return frames


def save_unitary_frames(path: str, frames):
    _dump_json(path, _frame_records(frames))


def load_unitary_frames(path: str, dim: int, validate: bool = True):
    return _read_frames(_load_json(path), dim, validate, "frame")


@dataclass
class ProbFile:
    spin: Spin
    scheme: str
    frames: list
    weights: np.ndarray
    values: np.ndarray


def save_prob(path: str, prob: ProbFile):
    if prob.scheme not in SCHEMES:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {prob.scheme!r}")
    records = _frame_records if prob.scheme == "sun" else _direction_records
    _dump_json(
        path,
        {
            "two_j": prob.spin.two_j,
            "scheme": prob.scheme,
            "frames": records(prob.frames),
            "weights": [float(w) for w in prob.weights],
            "values": [float(v) for v in prob.values],
        },
    )


def load_prob(path: str, validate: bool = True) -> ProbFile:
    raw = _load_json(path)
    spin = _read_spin(raw)
    scheme = raw["scheme"]
    if scheme not in SCHEMES:
        raise DomainError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme == "sun":
        frames = _read_frames(raw["frames"], spin.dim, validate, "probability file frame")
    else:
        frames = _read_directions(raw["frames"], "probability file frames")
    weights = _numbers(raw["weights"], "probability file weights/values")
    values = _numbers(raw["values"], "probability file weights/values")
    try:
        validate_weights(weights, len(frames))
        equal = validate_weights(None, len(frames))
        if scheme == "aw" and not np.array_equal(weights, equal):
            raise DomainError("aw probability files carry the equal priors 1/n only")
        expected = len(frames) if scheme == "aw" else len(frames) * spin.dim
        if values.size != expected:
            raise InvariantError(
                f"probability file has {values.size} values, expected {expected}"
            )
        _check_probabilities(values)
        if scheme != "aw":
            sums = values.reshape(len(frames), spin.dim).sum(axis=1)
            if not np.abs(sums - weights).max() <= PRIOR_TOL:  # a NaN max fails too
                raise DomainError(f"probability file's block sums miss its weights by more than {PRIOR_TOL:g}")
    except (InvariantError, DomainError) as exc:
        if validate:
            raise
        warnings.warn(f"probability file failed validation: {exc}")
    return ProbFile(spin, scheme, frames, weights, values)


def load_slice(path: str) -> SliceSpec:
    """The slice of a slice file; values and bounds must be JSON numbers (DomainError otherwise)."""
    raw = _load_json(path)
    records = raw.get("entries") if isinstance(raw, dict) else None
    if not isinstance(records, list):
        raise DomainError('slice file must be an object with an "entries" list')
    entries = []
    for i, rec in enumerate(records):
        try:
            kind = rec["kind"]
            if kind == "const":
                entries.append(SliceEntry.const(_number(rec["value"])))
            elif kind == "free":
                entries.append(SliceEntry.free(_number(rec["lo"]), _number(rec["hi"])))
            else:  # sample_region refuses a kind other than "balance"
                entries.append(SliceEntry(kind))
        except (KeyError, TypeError, ValueError):
            raise DomainError(f"slice file entry {i} is not a slice record: {rec!r}") from None
    return SliceSpec(entries)
