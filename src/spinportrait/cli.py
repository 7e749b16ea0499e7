"""Command-line surface for the forward and inverse maps.

Subcommands: forward, invert, optimize-dirs, region, kernel-eval, aw-grid.
Exit codes: 0 success, 2 parse/configuration, 3 invariant violation,
4 infeasible frames.  All randomness flows through --seed; diagnostics and
notices go to stderr so stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import json
import sys
from io import StringIO

import numpy as np

from . import io as fileio
from .errors import (
    ConfigError,
    DomainError,
    FeasibilityError,
    InvariantError,
    OptimizationError,
)
from .kernels import kernel_p_to_w, kernel_w_to_p, star_kernel
from .linalg import condition_number, hermitian_to_vec
from .optimize import OptimizerConfig, optimize
from .portrait import ProbVector, normalize_to_eq, prob_vector
from .region import SliceEntry, SliceSpec, sample_region, write_region_csv
from .schemes import (
    AWGrid,
    UnitaryFrameSet,
    aw_directions,
    aw_m_matrix,
    aw_normalized_forward,
    aw_reconstruct,
    default_aw_grid,
    r_matrix,
    reconstruct_pinv,
)
from .spin import Direction, Spin, validate_density_matrix
from .su2 import DirectionSet, q_matrix, quantizer_stack, reconstruct


def _parse_weights(arg: str | None, n: int) -> np.ndarray:
    if arg is None:
        return np.full(n, 1.0 / n)
    weights = np.array([float(x) for x in arg.split(",")])
    if weights.size != n:
        raise ConfigError(f"got {weights.size} weights for {n} frames")
    return weights


def cmd_forward(args) -> int:
    spin, rho = fileio.load_state(args.state, validate=not args.no_validate)
    if args.scheme == "sun":
        frames = fileio.load_unitary_frames(
            args.frames, spin.dim, validate=not args.no_validate
        )
        weights = _parse_weights(args.weights, len(frames))
        vec = r_matrix(spin, frames, weights) @ hermitian_to_vec(rho)
        out = fileio.ProbFile(spin, "sun", frames, weights, vec)
    else:
        dirs = fileio.load_directions(args.frames)
        if args.scheme == "aw":
            values = aw_normalized_forward(spin, rho, dirs)
            weights = np.full(len(dirs), 1.0 / len(dirs))
            out = fileio.ProbFile(spin, "aw", dirs, weights, values)
        else:
            weights = _parse_weights(args.weights, len(dirs))
            p = prob_vector(spin, rho, dirs, weights)
            out = fileio.ProbFile(spin, "su2", dirs, weights, p.values)
    fileio.save_prob(args.out, out)
    return 0


def cmd_invert(args) -> int:
    prob = fileio.load_prob(args.prob, validate=not args.no_validate)
    spin = prob.spin
    if prob.scheme == "aw":
        rho = aw_reconstruct(spin, prob.values, prob.frames, normalized=True)
        print(
            f"condition number: {condition_number(aw_m_matrix(spin, prob.frames)):.6e}",
            file=sys.stderr,
        )
    elif prob.scheme == "sun":
        ufs = UnitaryFrameSet(spin, prob.frames)
        p = ProbVector(spin, len(prob.frames), prob.values)
        rho = reconstruct_pinv(p, ufs, prob.weights)
        print(
            f"condition number: {condition_number(r_matrix(spin, prob.frames, prob.weights)):.6e}",
            file=sys.stderr,
        )
    else:
        ds = DirectionSet(spin, prob.frames)
        quantizer_stack(ds)  # refuses an infeasible set before the prior checks
        p = ProbVector(spin, len(prob.frames), prob.values)
        if np.abs(p.block_sums() - 1.0 / len(prob.frames)).max() > 1e-12:
            print(
                "notice: probabilities carry non-equal priors; renormalizing "
                "to the equal-weight form",
                file=sys.stderr,
            )
            p = normalize_to_eq(p)
        rho = reconstruct(p, ds)
        print(
            f"condition number: {condition_number(q_matrix(spin, prob.frames)):.6e}",
            file=sys.stderr,
        )
    if not args.no_validate:
        validate_density_matrix(spin, rho, trace_tol=1e-9, eig_tol=1e-8)
    fileio.save_state(args.out, spin, rho)
    return 0


def cmd_optimize(args) -> int:
    spin = Spin(args.two_j)
    config = OptimizerConfig(
        objective=args.objective,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        tolerance=args.tol,
    )
    ds, value = optimize(spin, config)
    cond = condition_number(q_matrix(spin, ds.dirs))
    print(f"objective: {value:.12g}", file=sys.stderr)
    print(f"condition number: {cond:.6e}", file=sys.stderr)
    fileio.save_directions(args.out, ds.dirs)
    return 0


def _load_slice(path: str) -> SliceSpec:
    with open(path) as fh:
        raw = json.load(fh)
    entries = []
    for rec in raw["entries"]:
        kind = rec["kind"]
        if kind == "const":
            entries.append(SliceEntry.const(rec["value"]))
        elif kind == "free":
            entries.append(SliceEntry.free(rec["lo"], rec["hi"]))
        elif kind == "balance":
            entries.append(SliceEntry.balance())
        else:
            raise ConfigError(f"unknown slice entry kind {kind!r}")
    return SliceSpec(entries)


def cmd_region(args) -> int:
    spin = Spin(args.two_j)
    dirs = fileio.load_directions(args.frames)
    ds = DirectionSet(spin, dirs)
    spec = _load_slice(args.slice)
    rows = sample_region(spin, ds, spec, args.resolution, tol=args.tol)
    n_free = rows.shape[1] - 2
    if args.out:
        buf = StringIO()
        write_region_csv(rows, n_free, buf)
        fileio._atomic_write_text(args.out, buf.getvalue())
    else:
        write_region_csv(rows, n_free, sys.stdout)
    return 0


def cmd_kernel_eval(args) -> int:
    spin = Spin(args.two_j)
    dirs = fileio.load_directions(args.frames)
    ds = DirectionSet(spin, dirs)
    if args.kind == "star":
        value = star_kernel(
            spin, ds, args.two_m3, args.k3, args.two_m2, args.k2, args.two_m1, args.k1
        )
    elif args.kind == "w-to-p":
        value = complex(
            kernel_w_to_p(
                spin, ds, args.two_m, args.k,
                args.two_m_prime, Direction(args.theta, args.phi),
            )
        )
    elif args.kind == "p-to-w":
        value = complex(
            kernel_p_to_w(
                spin, ds, args.two_m, Direction(args.theta, args.phi),
                args.two_m_prime, args.k,
            )
        )
    else:
        raise ConfigError(f"unknown kernel kind {args.kind!r}")
    print(json.dumps({"re": value.real, "im": value.imag}))
    return 0


def cmd_aw_grid(args) -> int:
    spin = Spin(args.two_j)
    if args.thetas:
        thetas = [float(x) for x in args.thetas.split(",")]
        grid = AWGrid(spin, thetas, args.delta if args.delta else 1.0 / spin.dim)
    else:
        grid = default_aw_grid(spin, args.delta)
    fileio.save_directions(args.out, aw_directions(grid))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinportrait",
        description="Probability-vector maps of spin states and their inverses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="state file -> probability file")
    p.add_argument("--state", required=True)
    p.add_argument("--frames", required=True,
                   help="directions file (su2/aw) or unitary frames file (sun)")
    p.add_argument("--scheme", choices=fileio.SCHEMES, default="su2")
    p.add_argument("--weights", default=None, help="comma-separated priors")
    p.add_argument("--out", required=True)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="probability file -> state file")
    p.add_argument("--prob", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("optimize-dirs", help="search for well-conditioned directions")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--max-iters", type=int, default=400, dest="max_iters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--objective", choices=("gram-product", "condition-number"),
                   default="gram-product")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("region", help="grid-scan a simplex slice to CSV")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--frames", required=True)
    p.add_argument("--slice", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("kernel-eval", help="evaluate one kernel entry")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--frames", required=True)
    p.add_argument("--kind", choices=("star", "w-to-p", "p-to-w"), required=True)
    p.add_argument("--two-m1", type=int, default=0)
    p.add_argument("--k1", type=int, default=0)
    p.add_argument("--two-m2", type=int, default=0)
    p.add_argument("--k2", type=int, default=0)
    p.add_argument("--two-m3", type=int, default=0)
    p.add_argument("--k3", type=int, default=0)
    p.add_argument("--two-m", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--two-m-prime", type=int, default=0, dest="two_m_prime")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.set_defaults(func=cmd_kernel_eval)

    p = sub.add_parser("aw-grid", help="write a nested-cone direction grid")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--thetas", default=None, help="comma-separated polar angles")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_aw_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, KeyError, ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (FeasibilityError, OptimizationError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
