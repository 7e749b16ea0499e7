"""Tests of the benchmark itself (not of the library).

    PYTHONPATH=src python -m pytest -q perfbench/tests

The end-to-end tests start ``run.py`` with one-second runs, so the module
takes about a minute.
"""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import spinportrait as sp  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    spec = bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_metric_names_use_allowed_characters():
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert NAME.match(name), name


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = bench_json()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    _, result = run_bench("calculus", 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_traced_self_times_never_exceed_their_span():
    run_bench("calculus", 4, 1)
    with open(os.path.join(ROOT, ".perfbench-out", "spans-calculus-seed4-trace1.json")) as fh:
        data = json.load(fh)
    spans = data["spans"]
    assert data["fields"] == list(tracing.FIELDS) and spans
    for rec, self_s in zip(spans, tracing.self_times(spans)):
        duration = rec[tracing.END] - rec[tracing.START]
        assert -1e-12 <= self_s <= duration + 1e-12, rec
        if rec[tracing.PARENT] >= 0:
            parent = spans[rec[tracing.PARENT]]
            assert parent[tracing.START] <= rec[tracing.START] <= rec[tracing.END] <= parent[tracing.END]


def test_self_times_subtract_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0, False, None],
        ["a", 1.0, 4.0, 0, 0, 0, False, None],
        ["b", 5.0, 6.0, 0, 0, 0, False, None],
        ["c", 2.0, 3.0, 1, 0, 0, False, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_seeds_give_same_op_counts_and_refusal_causes():
    seen = []
    for seed in (5, 6):
        lines, result = run_bench("roundtrip", seed, 0)
        refusals = sorted(line.split(": ", 1)[1] for line in lines if line.startswith("  excused"))
        per_round = next(line for line in lines if line.startswith("rounds="))
        seen.append((re.search(r"items_per_round=(\d+)", per_round).group(1), refusals))
        assert result["failed"] == 0
    assert seen[0] == seen[1]
    assert seen[0][1] == ["aw two_j=16: FeasibilityError", "su2 two_j=16: FeasibilityError"]


def test_inputs_do_not_use_library_random_helpers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("library random helper used for benchmark inputs")

    for name in ("random_density_matrix", "random_frame_set", "haar_unitary"):
        monkeypatch.setattr(sp, name, forbidden)
    for cls in workloads.WORKLOADS.values():
        wl = cls(0)
        wl.build(sp)
        assert wl.ops


def run_op(op):
    out, exc = {}, None
    if op.reset is not None:
        op.reset()
    try:
        op.run(tracing.NullTracer(), out)
    except sp.SpinPortraitError as err:
        exc = err
    return out, exc


def assert_perturbation_fails(op, ref, index=0):
    """The op passes its check, then fails once ``ref`` moves by 1e-6."""
    out, exc = run_op(op)
    assert op.check(out, exc)[0] == 0
    flat = ref.reshape(-1)
    flat[index] += 1e-6
    try:
        assert op.check(out, exc)[0] > 0
    finally:
        flat[index] -= 1e-6


def test_roundtrip_checks_can_fail():
    wl = workloads.Roundtrip(0)
    wl.build(sp)
    wl.references()
    su2, sun, aw = wl.ops[:3]
    inp = wl.inputs[1]
    assert_perturbation_fails(su2, inp["refs"][0]["p"])
    assert_perturbation_fails(su2, inp["refs"][0]["pe"], 3)
    assert_perturbation_fails(su2, inp["states"][0])
    assert_perturbation_fails(sun, inp["refs"][0]["sun"])
    assert_perturbation_fails(aw, inp["refs"][0]["aw"])
    assert_perturbation_fails(aw, inp["states"][0], 1)


def test_design_checks_can_fail():
    wl = workloads.Design(0)
    wl.build(sp)
    wl.references()
    survey, frames = wl.ops[:2]
    assert_perturbation_fails(survey, wl.sets[0]["rho"])
    out, exc = run_op(frames)
    assert frames.check(out, exc)[0] == 0
    wl.sets[0]["log_gamma"] += 1e-6
    assert frames.check(out, exc)[0] == 1


def test_calculus_checks_can_fail():
    wl = workloads.Calculus(0)
    wl.build(sp)
    wl.references()
    blk = wl.blocks[0]
    symbol, star, p_to_w, w_to_p, sphere = wl.ops[:5]
    assert_perturbation_fails(symbol, blk["products"][0].view(float))
    assert_perturbation_fails(star, blk["products"][0].view(float), 2)
    w_at = np.array(blk["w_at"])
    blk["w_at"] = w_at
    assert_perturbation_fails(p_to_w, w_at)
    assert_perturbation_fails(w_to_p, blk["symbols"][0])
    assert_perturbation_fails(sphere, blk["states"][0])


class SmallRegion(workloads.Region):
    SCANS = ((1, 9, 1), (2, 7, 1), (4, 5, 1))


def test_region_checks_can_fail():
    wl = SmallRegion(0)
    wl.build(sp)
    wl.references()
    for op, scan in zip(wl.ops, wl.scans):
        assert_perturbation_fails(op, scan["min_eig"], 4)
        flags = scan["flags"]
        out, exc = run_op(op)
        k = int(np.flatnonzero(scan["checked"])[0])
        flags[k] = not flags[k]
        try:
            assert op.check(out, exc)[0] == 1
        finally:
            flags[k] = not flags[k]


def test_qubit_region_reference_matches_library_on_a_random_state():
    wl = SmallRegion(1)
    wl.build(sp)
    scan = wl.scans[0]
    rot = refs.rotations(1, scan["thetas"], scan["phis"])
    rho = workloads.random_state(np.random.default_rng(0), 2)
    p = refs.symbol(rho, rot).real
    q = np.sum(((p[0::2] - 1.0 / 6.0) / 2.0) ** 2)
    ds = sp.DirectionSet(sp.Spin(1), workloads.directions(sp, scan["thetas"], scan["phis"]))
    assert abs(sp.is_quantum(p, ds).min_eigenvalue - (0.5 - 6.0 * math.sqrt(q))) < 1e-12
