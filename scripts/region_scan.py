"""Map out the quantum region of the probability simplex.

Scans the qubit up-probability cube for triads of decreasing triple product
(the region shrinks from the inscribed ball toward a sliver) and one qutrit
slice with three free coordinates, writing CSV point clouds.

Usage: python scripts/region_scan.py [--resolution 41] [--out-dir region_out]
"""

import argparse
import math
import os
import sys

import numpy as np

from spinportrait import (
    Direction,
    DirectionSet,
    SliceEntry,
    SliceSpec,
    Spin,
    sample_region,
    write_region_csv,
)


def qubit_triad(triple: float) -> DirectionSet:
    alpha = math.asin(math.sqrt(triple))
    return DirectionSet(
        Spin(1),
        [Direction(0.0, 0.0), Direction(alpha, 0.0), Direction(alpha, math.pi / 2)],
    )


def qubit_slice() -> SliceSpec:
    entries = []
    for _ in range(3):
        entries.append(SliceEntry.free(0.0, 1.0 / 3.0))
        entries.append(SliceEntry.balance())
    return SliceSpec(entries)


def qutrit_slice() -> SliceSpec:
    entries = []
    for k in range(5):
        if k < 3:
            entries.append(SliceEntry.free(0.0, 2.0 / 15.0))
        else:
            entries.append(SliceEntry.const(1.0 / 15.0))
        entries.append(SliceEntry.balance())
        entries.append(SliceEntry.const(1.0 / 15.0))
    return SliceSpec(entries)


def qutrit_reference_set() -> DirectionSet:
    alpha = math.acos(1.0 / math.sqrt(3.0))
    dphi = math.acos((math.sqrt(3.0) - 1.0) / 2.0)
    return DirectionSet(
        Spin(2),
        [
            Direction(0.0, 0.0),
            Direction(alpha, 0.0),
            Direction(alpha, dphi),
            Direction(alpha, -dphi),
            Direction(alpha, 2.0 * dphi),
        ],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=41)
    parser.add_argument("--out-dir", default="region_out")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    for triple in (1.0, 0.44, 0.02):
        ds = qubit_triad(triple)
        rows = sample_region(Spin(1), ds, qubit_slice(), args.resolution)
        path = os.path.join(args.out_dir, f"qubit_triple_{triple:.2f}.csv")
        with open(path, "w") as fh:
            write_region_csv(rows, fh)
        fraction = rows[:, 3].mean()
        print(f"qubit triple={triple:.2f}: quantum fraction {fraction:.4f} -> {path}")

    ds = qutrit_reference_set()
    rows = sample_region(Spin(2), ds, qutrit_slice(), max(args.resolution // 2, 9))
    path = os.path.join(args.out_dir, "qutrit_slice.csv")
    with open(path, "w") as fh:
        write_region_csv(rows, fh)
    print(f"qutrit slice: quantum fraction {rows[:, 3].mean():.4f} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
