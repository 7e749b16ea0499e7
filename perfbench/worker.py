"""One measured process of the spinportrait benchmark (started by run.py).

    python3 perfbench/worker.py --role setup|solve --workload NAME --seed N
                                [--seconds S] [--trace 0|1]

Both roles time the set-up: ``import spinportrait`` from the checkout's
``src``, building the library objects from the generated inputs, and the
warm-up ops.  Input generation and reference values are not timed.  The
``solve`` role then runs rounds of the workload's fixed op list until the
time budget is spent, checks every output of every round, and, with
``--trace 1``, alternates untraced rounds with traced rounds that record
spans and probes.  The last stdout line is one JSON object for run.py.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

# The benchmark's own modules import numpy (and refs imports scipy), so they
# are imported inside functions, after the timed ``import spinportrait``.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CALIB_EVERY_S = 0.05


def import_library():
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import spinportrait

    elapsed = time.perf_counter() - start
    origin = os.path.dirname(os.path.abspath(spinportrait.__file__))
    if origin != os.path.join(SRC, "spinportrait"):
        raise SystemExit(f"spinportrait was imported from {origin}, not from {SRC}")
    return spinportrait, elapsed


def run_round(ops, tracer, caches, calib=None, check=True):
    """One pass over ``ops``: raw op times, calibration samples, check results.

    With the ``calib`` module a calibration sample is taken at the start, after
    every op that ends a chunk of at least CALIB_EVERY_S, and at the end, so
    that each op is scaled by the samples on either side of its chunk.
    """
    res = dict(op_s=[], chunk=[], calib=[], items=0, failed=0, excused=0,
               reasons=[], causes={}, lookups={name: [0, 0] for name in caches})
    if calib is not None:
        res["calib"].append(calib.calib_once())
    last = time.perf_counter()
    for idx, op in enumerate(ops):
        if op.reset is not None:
            op.reset()
        tracer.op = idx
        before = [fn.cache_info() for fn in caches.values()]
        out, exc = {}, None
        start = time.perf_counter()
        try:
            with tracer.root("op." + op.kind):
                op.run(tracer, out)
        except Exception as err:  # every outcome of an op is checked and counted
            exc = err
        elapsed = time.perf_counter() - start
        for (name, fn), info in zip(caches.items(), before):
            after = fn.cache_info()
            res["lookups"][name][0] += after.hits - info.hits
            res["lookups"][name][1] += after.misses - info.misses
        if tracer.traced and op.probe is not None:
            with tracer.root("probe", probe=True):
                op.probe(tracer)
        res["op_s"].append(elapsed)
        res["chunk"].append(len(res["calib"]) - 1)
        if calib is not None and (
            time.perf_counter() - last >= CALIB_EVERY_S or idx == len(ops) - 1
        ):
            res["calib"].append(calib.calib_once())
            last = time.perf_counter()
        if not check:
            continue
        failed, excused, note = op.check(out, exc)
        res["items"] += op.items
        res["failed"] += failed
        res["excused"] += excused
        if excused:
            key = f"{op.kind} two_j={op.two_j}: {note}"
            res["causes"][key] = res["causes"].get(key, 0) + excused
        elif failed and len(res["reasons"]) < 5:
            res["reasons"].append(f"{op.kind} two_j={op.two_j}: {note}")
    if calib is not None:
        res["op_cal"] = [
            t * calib.CALIB_REF_S * 2.0 / (res["calib"][c] + res["calib"][c + 1])
            for t, c in zip(res["op_s"], res["chunk"])
        ]
    return res


def solve(sp, wl, seconds, trace):
    import calib
    import tracing
    from metrics import CACHES

    null = tracing.NullTracer()
    tracer = tracing.Tracer() if trace else None
    caches = {}
    for name in CACHES:
        module, func = name.split(".")
        fn = getattr(getattr(sp, module), func, None)
        if hasattr(fn, "cache_info"):
            caches[name] = fn
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
        res = run_round(wl.ops, tracer if traced else null, caches if traced else {}, calib)
        res["traced"] = traced
        rounds.append(res)
        elapsed = time.perf_counter() - begin
        n_traced = sum(r["traced"] for r in rounds)
        enough = len(rounds) >= MIN_ROUNDS and (not trace or n_traced >= MIN_TRACED_ROUNDS)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{wl.name}-seed{wl.seed}-trace{int(trace)}"
    with open(os.path.join(OUT_DIR, f"rounds-{stem}.json"), "w") as fh:
        json.dump({"two_j": [op.two_j for op in wl.ops], "calib_ref_s": calib.CALIB_REF_S,
                   "rounds": [{k: r[k] for k in ("traced", "op_s", "chunk", "calib")}
                              for r in rounds]}, fh)
    out = summarize(rounds, wl.ops)
    if trace:
        out["per_layer"] = layer_metrics(tracer, rounds, wl)
        path = os.path.join(OUT_DIR, f"spans-{stem}.json")
        tracer.write(path, {"workload": wl.name, "seed": wl.seed})
        out["spans_file"] = os.path.relpath(path, ROOT)
    return out


def op_medians(rounds, key):
    """Median over rounds of each op's time (robust to a burst in one round)."""
    return [statistics.median(col) for col in zip(*(r[key] for r in rounds))]


def summarize(rounds, ops):
    from workloads import LOW_SPIN_MAX

    plain = [r for r in rounds if not r["traced"]]
    low = [op.two_j <= LOW_SPIN_MAX for op in ops]
    out = dict(rounds=len(rounds), timed_rounds=len(plain),
               calib_s=statistics.median(c for r in plain for c in r["calib"]), raw={})
    for key, dest in (("op_cal", out), ("op_s", out["raw"])):
        per_op = op_medians(plain, key)
        dest["solve_s"] = sum(per_op)
        dest["low_spin_s"] = sum(t for t, is_low in zip(per_op, low) if is_low)
        dest["high_spin_s"] = sum(t for t, is_low in zip(per_op, low) if not is_low)
    causes = {}
    for r in rounds:
        for key, n in r["causes"].items():
            causes[key] = causes.get(key, 0) + n
    out.update(
        attempted=sum(r["items"] for r in rounds),
        failed=sum(r["failed"] for r in rounds),
        excused=sum(r["excused"] for r in rounds),
        items_per_round=rounds[0]["items"],
        causes=causes,
        reasons=[x for r in rounds for x in r["reasons"]][:5],
    )
    return out


def layer_metrics(tracer, rounds, wl):
    import tracing
    from calib import CALIB_REF_S
    from metrics import CACHES, PER_LAYER

    traced = [i for i, r in enumerate(rounds) if r["traced"]]
    scale = {i: CALIB_REF_S / statistics.median(rounds[i]["calib"]) for i in traced}
    per_round = {i: {} for i in traced}
    for rec, self_s in zip(tracer.spans, tracing.self_times(tracer.spans)):
        i = rec[tracing.ROUND]
        stats = per_round[i].setdefault(rec[tracing.NAME], [0, 0.0, 0, 0])
        stats[0] += 1
        stats[1] += self_s * scale[i]
        stats[2] += rec[tracing.ERROR] is not None
        stats[3] += rec[tracing.ERROR] == "FeasibilityError" and not rec[tracing.PROBE]

    def med(name, field):
        return statistics.median(per_round[i].get(name, [0, 0.0, 0, 0])[field] for i in traced)

    out = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if stat in ("calls", "busy_s", "failed"):
            out[metric] = med(name, ("calls", "busy_s", "failed").index(stat))
    out["su2.infeasible"] = statistics.median(
        sum(s[3] for name, s in per_round[i].items() if name.startswith("su2.")) for i in traced
    )
    for name in CACHES:
        hits = sum(rounds[i]["lookups"].get(name, [0, 0])[0] for i in traced)
        misses = sum(rounds[i]["lookups"].get(name, [0, 0])[1] for i in traced)
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["region.points"] = sum(op.items for op in wl.ops if op.kind == "scan")
    out["region.slice_assembly_s"] = (
        out["region.sample_region.busy_s"] - out["region.classify_points.busy_s"]
    )
    out["ops.excused"] = statistics.median(rounds[i]["excused"] for i in traced)
    out["trace.overhead_s"] = (
        sum(op_medians([rounds[i] for i in traced], "op_cal"))
        - sum(op_medians([r for r in rounds if not r["traced"]], "op_cal"))
    )
    return out


def environment(np):
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except Exception:  # only the report line depends on it
        pass
    return dict(
        python=sys.version.split()[0], numpy=np.__version__, blas=blas,
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "solve"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sp, import_s = import_library()
    import numpy as np

    import calib
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.name, wl.seed = args.workload, args.seed
    start = time.perf_counter()
    wl.build(sp)
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    run_round(wl.warmup, tracing.NullTracer(), {}, check=False)
    warmup_s = time.perf_counter() - start
    setup_raw = import_s + build_s + warmup_s
    setup_calib = calib.calib_s()
    result = dict(
        setup=dict(raw_s=setup_raw, calib_s=setup_calib,
                   cal_s=setup_raw * calib.CALIB_REF_S / setup_calib,
                   import_s=import_s, build_s=build_s, warmup_s=warmup_s),
        env=environment(np),
    )
    if args.role == "solve":
        wl.references()
        result.update(solve(sp, wl, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
