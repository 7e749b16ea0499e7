"""spinportrait benchmark: time-to-solution of fixed batches of library calls.

    python3 perfbench/run.py --workload {roundtrip,design,region,calculus}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
Every measured process runs with one BLAS thread.  The set-up is timed in
SETUP_PROCS fresh processes plus the solving one and reported as the median;
the solving process runs rounds of the workload's op list for S seconds and
checks every output.  With ``--trace 0`` the last line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (spans are
written under ``.perfbench-out/``).  Lines before it give raw seconds, the
calibration time, failures, excused ops and the machine.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("roundtrip", "design", "region", "calculus")
SETUP_PROCS = 4
SETUP_TIMEOUT_S = 60
SOLVE_GRACE_S = 100

sys.path.insert(0, HERE)
from metrics import END_TO_END, PER_LAYER  # noqa: E402


def child(args, role, timeout):
    cmd = [sys.executable, WORKER, "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinportrait", "__init__.py")):
        raise SystemExit(f"no spinportrait sources under {os.path.join(ROOT, 'src')}")

    setups = [child(args, "setup", SETUP_TIMEOUT_S) for _ in range(SETUP_PROCS)]
    res = child(args, "solve", args.seconds + SOLVE_GRACE_S)
    setups.append(res)
    setup = [s["setup"] for s in setups]
    env = res["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"nproc={env['nproc']} affinity={env['affinity']} blas_threads={env['blas_threads']}")
    print(f"rounds={res['rounds']} (untraced {res['timed_rounds']}) "
          f"items_per_round={res['items_per_round']} attempted={res['attempted']} "
          f"failed={res['failed']} fail_ratio={res['failed'] / res['attempted']:.6g} "
          f"excused={res['excused']} excused_ratio={res['excused'] / res['attempted']:.6g}")
    for cause, n in sorted(res["causes"].items()):
        print(f"  excused {n}: {cause}")
    for reason in res["reasons"]:
        print(f"  FAILED {reason}")
    metrics = {
        "setup_s": statistics.median(s["cal_s"] for s in setup),
        "solve_s": res["solve_s"],
        "low_spin_s": res["low_spin_s"],
        "high_spin_s": res["high_spin_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = dict(res["raw"], setup_s=statistics.median(s["raw_s"] for s in setup))
    for name, value in metrics.items():
        extra = (f"  raw {raw[name]:.6g} s, calib_s {res['calib_s']:.6g}"
                 if name in raw else "")
        print(f"{name} = {value:.6g} {END_TO_END[name]}{extra}")
    print(f"setup parts (median raw s): import {statistics.median(s['import_s'] for s in setup):.4g}, "
          f"build {statistics.median(s['build_s'] for s in setup):.4g}, "
          f"warm-up {statistics.median(s['warmup_s'] for s in setup):.4g}")
    if args.trace:
        layer = res["per_layer"]
        print(f"spans written to {res['spans_file']}; tracing overhead "
              f"{layer['trace.overhead_s']:.6g} s per round (traced minus untraced solve_s)")
        for name, value in layer.items():
            print(f"{name} = {value:.6g} {PER_LAYER[name]}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
