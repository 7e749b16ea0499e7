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
from .linalg import INPUT_TOL, validate_weights
from .optimizer import OBJECTIVES, OptimizerConfig, optimize
from .portraits import ProbVector, normalize_to_eq, prob_vector
from .region import DEFAULT_TOL, sample_region, write_region_csv
from .schemes import (
    AWGrid,
    UnitaryFrameSet,
    _aw_solver,
    aw_directions,
    aw_normalized_forward,
    aw_reconstruct,
    default_aw_grid,
)
from .spin import Direction, Spin, validate_density_matrix
from .su2 import DirectionSet, _spectrum, least_squares, reconstruct


def _parse_weights(arg: str | None, n: int) -> np.ndarray:
    if arg is None:
        return validate_weights(None, n)
    weights = np.array([_parse_float(x, "--weights") for x in arg.split(",")])
    if weights.size != n:
        raise ConfigError(f"got {weights.size} weights for {n} frames")
    return weights


def _parse_float(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{flag} entry {text!r} is not a number") from None


def cmd_forward(args) -> int:
    if args.scheme == "aw" and args.weights is not None:
        raise ConfigError("--weights applies to the su2 and sun schemes only")
    spin, rho = fileio.load_state(args.state, validate=not args.no_validate)
    if args.scheme == "sun":
        frames = fileio.load_unitary_frames(
            args.frames, spin.dim, validate=not args.no_validate
        )
    else:
        frames = fileio.load_directions(args.frames)
    weights = _parse_weights(args.weights, len(frames))
    if args.scheme == "aw":
        values = aw_normalized_forward(spin, rho, frames)
    else:
        values = prob_vector(spin, rho, frames, weights).values
    fileio.save_prob(args.out, fileio.ProbFile(spin, args.scheme, frames, weights, values))
    return 0


def cmd_invert(args) -> int:
    prob = fileio.load_prob(args.prob, validate=not args.no_validate)
    spin, frames = prob.spin, prob.frames
    if prob.scheme == "aw":
        rho = aw_reconstruct(spin, prob.values, frames, normalized=True)
        s, _ = _aw_solver(spin, tuple(frames))
    else:
        frame_set = (UnitaryFrameSet if prob.scheme == "sun" else DirectionSet)(spin, frames)
        p = ProbVector(spin, len(frames), prob.values)
        if not np.abs(p.block_sums() - 1.0 / len(frames)).max() <= INPUT_TOL:
            print("notice: probabilities carry non-equal priors; renormalizing "
                  "to the equal-weight form", file=sys.stderr)
            p = normalize_to_eq(p)
        rho = reconstruct(p, frame_set)
        s, _ = least_squares(frame_set)
    # the conditioning of the inverse just applied, from its memoized singular values
    print(f"condition number: {s[0] / s[-1]:.6e}", file=sys.stderr)
    if not args.no_validate:  # the checks io.load_state applies, so every state written loads
        validate_density_matrix(spin, rho)
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
    s = _spectrum(ds.unit_vectors())  # of the least-squares inverse, as cmd_invert prints
    print(f"objective: {value:.12g}", file=sys.stderr)
    print(f"condition number: {s[0] / s[-1]:.6e}", file=sys.stderr)
    fileio.save_directions(args.out, ds.dirs)
    return 0


def cmd_region(args) -> int:
    spin = Spin(args.two_j)
    dirs = fileio.load_directions(args.frames)
    ds = DirectionSet(spin, dirs)
    spec = fileio.load_slice(args.slice)
    rows = sample_region(spin, ds, spec, args.resolution, tol=args.tol)
    if args.out:
        with fileio._atomic_write_text(args.out) as fh:
            write_region_csv(rows, fh)
    else:
        write_region_csv(rows, sys.stdout)
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
        thetas = [_parse_float(x, "--thetas") for x in args.thetas.split(",")]
        delta = args.delta if args.delta is not None else 1.0 / spin.dim
        grid = AWGrid(spin, thetas, delta)
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
    p.add_argument("--weights", default=None, help="comma-separated priors (su2, sun)")
    p.add_argument("--out", required=True)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", help="probability file -> state file")
    p.add_argument("--prob", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-validate", action="store_true")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("optimize-dirs", help="search for well-conditioned directions")
    config = OptimizerConfig()  # the library's defaults
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--restarts", type=int, default=config.restarts)
    p.add_argument("--max-iters", type=int, default=config.max_iters, dest="max_iters",
                   help="accepted BFGS steps per restart, at most")
    p.add_argument("--seed", type=int, default=config.seed)
    p.add_argument("--tol", type=float, default=config.tolerance,
                   help="a restart stops once its accepted or backtracked step is shorter "
                        "than this in max-norm (radians)")
    p.add_argument("--objective", choices=OBJECTIVES, default=config.objective)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("region", help="grid-scan a simplex slice to CSV")
    p.add_argument("--two-j", type=int, required=True, dest="two_j")
    p.add_argument("--frames", required=True)
    p.add_argument("--slice", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
