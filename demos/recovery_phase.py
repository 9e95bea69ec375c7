#!/usr/bin/env python3
"""Map the exact-recovery phase transition of l1 deconvolution.

For each (separation, grid spacing) cell, a handful of seeded trials place
25 spikes with Gaussian amplitudes on a discretized candidate grid and ask
whether l1 minimization returns them exactly from noiseless samples.  A
trial is decided by the rank of the measurement matrix or by a dual
certificate, not by running a solver.  On the full sample grid recovery
holds far below the certified region: at separations of 1-2.5 kernel
widths, where the proof currently needs 4+.

Usage: recovery_phase.py [--kernel gaussian|microscopy|airy] [--trials N]
"""

import argparse

from deconv2d.experiments import phase_diagram

DELTAS = [1.0, 1.5, 2.0, 2.5]
ZETAS = [0.4, 0.7, 1.0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kernel", default="gaussian",
                    choices=["gaussian", "microscopy", "airy"])
    ap.add_argument("--trials", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"kernel: {args.kernel}, {args.trials} trials per cell "
          f"(units of the kernel's natural width)\n")
    rows = phase_diagram(args.kernel, DELTAS, ZETAS, args.trials, args.seed)
    rate = {(r[0], r[1]): r[6] for r in rows}
    undecided = sum(r[7] for r in rows)

    header = "delta \\ zeta " + "".join(f"{z:>7.2f}" for z in ZETAS)
    print(header)
    print("-" * len(header))
    for d in DELTAS:
        cells = "".join(f"{rate[(d, z)]:>7.2f}" for z in ZETAS)
        print(f"{d:>11.2f}  {cells}")
    print("\n1.00 = in every trial the 25 true spikes are the unique l1 "
          "minimizer")
    print(f"undecided trials (counted as not recovered): {undecided}")


if __name__ == "__main__":
    main()
