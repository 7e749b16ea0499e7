"""Calibration kernel: a fixed numpy workload that does not touch spinportrait.

Wall time on a shared two-core machine drifts by tens of percent between
processes, and CPU time drifts with it.  The benchmark therefore reports
every timing in calibrated seconds, ``raw_s * CALIB_REF_S / calib_s``, where
``calib_s`` is this kernel's time measured in the same process next to the
timed work.  The kernel mixes what the library's hot paths do: many small
LAPACK calls (``eigvalsh`` of 6x6 Hermitian matrices), small ufunc and matmul
dispatches, and plain interpreter work.

``CALIB_REF_S`` is the kernel's median time measured on the reference
machine (2-vCPU x86_64 virtual machine, Python 3.11.7, numpy 2.4.6 with
scipy-openblas 0.3.31, one BLAS thread).  It only fixes the unit; any
constant would give the same ratios between runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CALIB_REF_S = 0.0045
REPS = 200
SAMPLES = 3

_rng = np.random.default_rng(20100101)
_G = _rng.normal(size=(8, 6, 6)) + 1j * _rng.normal(size=(8, 6, 6))
_H = _G + np.conj(np.swapaxes(_G, 1, 2))
_V = _rng.normal(size=(6, 6))


def calib_once() -> float:
    """Seconds for one pass of the fixed kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(REPS):
        acc += float(np.linalg.eigvalsh(_H[i & 7])[0])
        acc += float(np.exp(_V * 1e-3).sum() + (_V @ _V)[0, 0])
        for k in range(24):
            acc += k * 1e-9
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def calib_s() -> float:
    """Median of a few kernel passes, the unit the next timings are scaled by."""
    return statistics.median(calib_once() for _ in range(SAMPLES))
