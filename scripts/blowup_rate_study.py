#!/usr/bin/env python3
"""Trace the origin-density blowup rate as the collapse time is approached.

Samples rho(s, 0) * (S - s)^{1/3} over a geometric ladder of distances to S
and compares the tail against the sharp constant alpha / (2 theta)^{1/6}.
Writes a plottable CSV (s, S_minus_s, product) when --out is given.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ch2exact import (Classification, EmdenParams, SolutionCase, Tolerances, analyze,
                      blowup_rate, classify)
from ch2exact.serialize import write_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi", type=float, default=-3.0,
                        help="coupling; the orbit must collapse with theta > 0")
    parser.add_argument("--alpha", type=float, default=1.0, help="profile amplitude")
    parser.add_argument("--a0", type=float, default=1.0, help="initial scale")
    parser.add_argument("--a1", type=float, default=0.0, help="initial slope")
    parser.add_argument("--decades", type=int, default=5,
                        help="how many decades of S - s to cover (default 5)")
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    params = EmdenParams(xi=args.xi, a0=args.a0, a1=args.a1)
    if classify(params) is not Classification.COLLAPSE or params.theta == 0.0:
        print("blowup at rate (S - s)^{-1/3} needs a collapse orbit (xi < 0, or xi > 0 "
              "with sign(a0) a1 < 0) with theta > 0", file=sys.stderr)
        return 1

    # The admissible family of these signs (the sign table of the README).
    sigma = 1 if (args.xi > 0) == (args.a0 > 0) else -1
    case = SolutionCase(sigma=sigma, alpha=args.alpha, emden=params)
    traj, report = analyze(case.emden)
    S = report.s_collapse_quadrature
    expected = case.alpha / (2.0 * report.theta) ** (1.0 / 6.0)

    deltas = np.geomspace(1e-1, 10.0 ** (-args.decades), 4 * args.decades + 1) * S
    samples = blowup_rate(case, traj, report, S - deltas)

    print(f"case {case.case_id}: S = {S:.12f}, theta = {report.theta:.12f}")
    print(f"expected limit alpha/(2 theta)^(1/6) = {expected:.12f}\n")
    print(f"{'S - s':>12} {'product':>16} {'rel err':>10}")
    for (s, prod), delta in zip(samples, deltas):
        rel = abs(prod - expected) / expected
        print(f"{delta:12.3e} {prod:16.12f} {rel:10.2e}")

    tail_rel = abs(samples[-1][1] - expected) / expected
    print(f"\ntail relative error: {tail_rel:.2e}")

    if args.out:
        s_arr, products = np.array(samples).T
        write_csv(Path(args.out), ["s", "S_minus_s", "product"], [s_arr, S - s_arr, products])
        print(f"wrote {args.out}")

    # The battery's blowup_rate check takes the same bound.
    return 0 if tail_rel <= Tolerances().rate_rtol else 1


if __name__ == "__main__":
    sys.exit(main())
