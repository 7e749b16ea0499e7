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
descending-m layout; for the aw scheme they are the unit-sum variant of the
highest-projection probabilities, one per direction.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError
from .portrait import _check_probabilities, validate_weights
from .spin import Direction, Spin, unitarity_defect, validate_density_matrix

SCHEMES = ("su2", "sun", "aw")


def _atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(path: str, payload):
    _atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _matrix_from_parts(re, im, dim: int, what: str) -> np.ndarray:
    try:
        re = np.asarray(re, dtype=float)
        im = np.asarray(im, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} re/im entries are not lists of numbers") from None
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DomainError(f"{what} has a non-finite or null re/im entry")
    if re.size != dim * dim or im.size != dim * dim:
        raise DomainError(
            f"{what} needs {dim * dim} re/im entries, got {re.size}/{im.size}"
        )
    return (re + 1j * im).reshape(dim, dim)


def _read_spin(raw) -> Spin:
    """The spin of a state or probability file; two_j must be a JSON integer."""
    two_j = raw["two_j"]
    if isinstance(two_j, bool) or not isinstance(two_j, int):
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


def _read_directions(records, what: str) -> list:
    """Directions from {"theta", "phi"} records; a malformed one raises DomainError."""
    if not isinstance(records, list):
        raise DomainError(f"{what} must be a JSON list")
    dirs = []
    for i, rec in enumerate(records):
        try:
            theta, phi = float(rec["theta"]), float(rec["phi"])
        except (TypeError, ValueError):
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

    A malformed record raises DomainError; a frame that is not unitary to
    1e-12 raises InvariantError, or only warns when ``validate`` is false.
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
    bad = [i for i, u in enumerate(frames) if unitarity_defect(u) > 1e-12]
    if bad:
        message = f"{what} {bad[0]} is not unitary to 1e-12"
        if validate:
            raise InvariantError(message)
        warnings.warn(message)
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
    weights = np.asarray(raw["weights"], dtype=float)
    values = np.asarray(raw["values"], dtype=float)
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
    except (InvariantError, DomainError) as exc:
        if validate:
            raise
        warnings.warn(f"probability file failed validation: {exc}")
    return ProbFile(spin, scheme, frames, weights, values)
