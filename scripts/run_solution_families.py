#!/usr/bin/env python3
"""Run the four solution families end to end and print a summary table.

For each family: classification, energy constant, collapse time (if any),
mass (if finite), and the residual convergence orders on a conservative
interior grid.  The verdicts come from the verification battery
(``run_battery``) with its default tolerances; exits nonzero if any check
of any family fails.
"""

import argparse
import sys

import numpy as np

from ch2exact import (
    Classification,
    EmdenParams,
    SolutionCase,
    SpaceTimeGrid,
    Tolerances,
    analyze,
    classify,
    run_battery,
)

FAMILIES = {
    "1a": SolutionCase(sigma=-1, alpha=1.0, emden=EmdenParams(xi=-1.0, a0=1.0, a1=0.0)),
    "1b": SolutionCase(sigma=-1, alpha=1.0, emden=EmdenParams(xi=1.0, a0=-1.0, a1=0.0)),
    "2a": SolutionCase(sigma=+1, alpha=1.0, emden=EmdenParams(xi=1.0, a0=1.0, a1=0.0)),
    "2b": SolutionCase(sigma=+1, alpha=1.0, emden=EmdenParams(xi=-3.0, a0=-1.0, a1=0.0)),
}


def interior_grid(case, traj, report, n):
    if report.s_collapse_quadrature is not None:
        t1 = 0.25 * report.s_collapse_quadrature / 3.0
    else:
        t1 = 0.5
    if case.compact:
        a_min = min(traj.eval(0.0).a, traj.eval(3.0 * t1).a)
        x1 = 0.5 * float(np.cbrt(a_min)) * case.eta_boundary
    else:
        x1 = 1.0
    return SpaceTimeGrid(0.0, t1, n, -x1, x1, n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base-n", type=int, default=41,
                        help="base grid points per axis (default 41)")
    parser.add_argument("--levels", type=int, default=3,
                        help="refinement levels for the order estimate (default 3)")
    args = parser.parse_args()
    tols = Tolerances(levels=args.levels)

    header = f"{'case':4} {'class':9} {'theta':>8} {'S':>10} {'mass':>10} " \
             f"{'ord(mass)':>9} {'ord(mom)':>9}"
    print(header)
    print("-" * len(header))

    failures = []
    for case_id, case in FAMILIES.items():
        # Global orbits run to the battery's last origin-decay time.
        s_end = None if classify(case.emden) is Classification.COLLAPSE else 3.0 * tols.decay_t_max
        traj, report = analyze(case.emden, s_end=s_end)
        grid = interior_grid(case, traj, report, args.base_n)
        records = run_battery(case, traj, report, grid, tols)
        failures += [f"{case_id} {name}" for name, rec in records.items()
                     if rec.get("pass") is False]

        s_cell = "-"
        if report.s_collapse_quadrature is not None:
            s_cell = f"{report.s_collapse_quadrature:.6f}"
        m_cell = "div" if records["mass"]["divergent"] else f"{records['mass']['value']:.6f}"
        print(f"{case_id:4} {report.classification.value:9} {report.theta:8.4f} "
              f"{s_cell:>10} {m_cell:>10} "
              f"{records['residual_mass']['estimated_order']:9.3f} "
              f"{records['residual_momentum']['estimated_order']:9.3f}")

    if failures:
        print(f"\n{len(failures)} check(s) outside tolerance: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("\nall families match their expected values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
