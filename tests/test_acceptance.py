"""Acceptance battery: the headline numerical claims at their stated tolerances.

Each criterion prints one `[criterion NN] PASS/FAIL` line (run with -s to see
them on success) and asserts, so the battery doubles as a pytest module.
Everything here runs at desk scale; the whole module stays under a minute.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from ch2exact import (
    DEFAULT_TOL,
    EmdenParams,
    SolutionCase,
    SpaceTimeGrid,
    Tolerances,
    analyze,
    collapse_time_quadrature,
    detect_collapse,
    integrate_many,
    mass,
    node_energies,
    run_battery,
)
import ch2exact.verify as verify
from ch2exact.cli import main

SQRT3_PI_OVER_4 = 1.3603495231756633
RATE_LIMIT = 0.8326831776556043  # 1 / 3^{1/6}


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_mass_exactness(case_2a):
    """Compact-case masses reproduce alpha^2 pi / (2 sqrt(xi)) to 1e-6."""
    case, traj, _ = case_2a
    (m1,) = mass(case, traj, [0.0])
    err1 = abs(m1 - math.pi / 2.0) / (math.pi / 2.0)

    case2 = SolutionCase(sigma=1, alpha=2.0, emden=EmdenParams(xi=4.0, a0=1.0, a1=0.0))
    traj2 = integrate_many([case2.emden], [1.0], [DEFAULT_TOL])[0]
    (m2,) = mass(case2, traj2, [0.0])
    err2 = abs(m2 - math.pi) / math.pi

    ok = err1 <= 1e-6 and err2 <= 1e-6
    _report(1, "mass exactness: pi/2 and pi", ok,
            f"rel errors {err1:.2e}, {err2:.2e}")


def test_criterion_02_orbit_integral_self_test():
    """Closed-form half-orbit 6 theta pi / 4 matches DOP853 for theta in {0.5, 1.5, 7}."""
    exact_errs, ode_gaps = [], []
    for theta in (0.5, 1.5, 7.0):
        # xi = -1 from rest at |a0| = (2 theta)^{3/2}: one full half-orbit.
        params = EmdenParams(xi=-1.0, a0=(2.0 * theta) ** 1.5, a1=0.0)
        exact = 6.0 * theta * math.pi / 4.0
        s_closed = collapse_time_quadrature(params)
        s_num = detect_collapse(integrate_many([params], [1.25 * exact], [DEFAULT_TOL])[0])
        exact_errs.append(abs(s_closed - exact) / exact)
        ode_gaps.append(abs(s_num - s_closed) / s_closed)
    ok = max(exact_errs) <= 1e-13 and max(ode_gaps) <= 1e-9
    _report(2, "closed-form half-orbit against DOP853", ok,
            f"max rel error {max(exact_errs):.2e}, DOP853 gap {max(ode_gaps):.2e}")


def test_criterion_03_collapse_time():
    """Both collapse-time routes hit sqrt(3)pi/4 and an independent oracle."""
    params = EmdenParams(xi=-3.0, a0=1.0, a1=0.0)
    s_quad = collapse_time_quadrature(params)
    s_num = detect_collapse(integrate_many([params], [2.0], [DEFAULT_TOL])[0])
    oracle, _ = quad(lambda a: 1.0 / math.sqrt(3.0 - 3.0 * a ** (2.0 / 3.0)),
                     0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    ok = (
        abs(s_num - s_quad) <= 1e-6
        and abs(s_quad - oracle) <= 1e-6
        and abs(s_num - oracle) <= 1e-6
        and abs(s_quad - SQRT3_PI_OVER_4) <= 1e-9
    )
    _report(3, "collapse time sqrt(3)pi/4, both routes", ok,
            f"quad {s_quad:.9f}, ode {s_num:.9f}, oracle {oracle:.9f}")


def test_criterion_04_dichotomy():
    """100 random orbits: xi<0 all collapse; xi>0 all exceed 1e3|a0| by s=1e4.

    The xi>0 slope is drawn energy-admissibly (outward, or inward with
    theta < 0): an inward slope with theta > 0 drives a to zero in finite
    time despite xi > 0, so it belongs to neither branch of the dichotomy.
    """
    rng = np.random.default_rng(20260815)
    collapse_ok = 0
    for _ in range(50):
        xi = -float(rng.uniform(0.25, 4.0))
        a0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        a1 = float(rng.uniform(-2.0, 2.0))
        _, report = analyze(EmdenParams(xi=xi, a0=a0, a1=a1))
        if report.s_collapse_numeric is not None and math.isfinite(report.s_collapse_numeric):
            collapse_ok += 1

    growth_ok = 0
    for _ in range(50):
        xi = float(rng.uniform(0.25, 4.0))
        a0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        if rng.random() < 0.5:
            b1 = float(rng.uniform(0.0, 2.0))  # outward
        else:
            # inward but below escape energy: |b1| < sqrt(xi) |a0|^{1/3}
            b1 = -float(rng.uniform(0.0, 0.99)) * math.sqrt(xi) * abs(a0) ** (1.0 / 3.0)
        a1 = b1 if a0 > 0 else -b1
        # Integrated over the whole horizon s = 1e4: no collapse on the
        # way, and |a| has grown 1000-fold by the end.
        traj = integrate_many([EmdenParams(xi=xi, a0=a0, a1=a1)], [1e4], [DEFAULT_TOL])[0]
        if not traj.collapsed and traj.s_max == 1e4 and abs(traj.a[-1]) >= 1e3 * abs(a0):
            growth_ok += 1

    ok = collapse_ok == 50 and growth_ok == 50
    _report(4, "dichotomy over 100 random orbits", ok,
            f"collapse {collapse_ok}/50, growth {growth_ok}/50")


def test_criterion_05_first_integral(case_1a, case_1b, case_2a, case_2b):
    """Energy drift <= 1e-8 relative along every accepted trajectory."""
    trajectories = [c[1] for c in (case_1a, case_1b, case_2a, case_2b)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        xi = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 4.0))
        a0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        a1 = float(rng.uniform(-2.0, 2.0))
        trajectories += integrate_many([EmdenParams(xi=xi, a0=a0, a1=a1)], [3.0], [DEFAULT_TOL])

    worst = 0.0
    for traj in trajectories:
        e0 = traj.params.theta
        scale = 1.0 + abs(e0)
        worst = max(worst, float(np.max(np.abs(node_energies(traj) - e0))) / scale)
    ok = worst <= 1e-8
    _report(5, "first-integral drift on 24 trajectories", ok, f"worst {worst:.2e}")


def test_criterion_06_residual_convergence(case_1a, case_1b, case_2a, case_2b):
    """Orders 2.0 +/- 0.2 for both equations, all four families; momentum
    residual independent of the dispersion scale to 1e-10."""
    details = []
    orders_ok = True
    disp_ok = True
    for case, traj, report in (case_1a, case_1b, case_2a, case_2b):
        if report.s_collapse_quadrature is not None:
            t1 = 0.25 * report.s_collapse_quadrature / 3.0
        else:
            t1 = 0.5
        if case.compact:
            a_min = traj.eval_many([3.0 * t1, 0.0])[0].min()
            x1 = 0.5 * float(np.cbrt(a_min)) * case.eta_boundary
        else:
            x1 = 1.0
        grid = SpaceTimeGrid(0.0, t1, 41, -x1, x1, 41)
        rec = run_battery(case, traj, report, grid, Tolerances(levels=3))
        rm, rp = rec["residual_mass"], rec["residual_momentum"]
        for rep in (rm, rp):
            if not (abs(rep["estimated_order"] - 2.0) <= 0.2):
                orders_ok = False
        details.append(f"{case.case_id}: {rm['estimated_order']:.2f}/"
                       f"{rp['estimated_order']:.2f}")

        # The battery compares alpha_d = 0, 1, 10 on a 17 x 17 copy of the grid.
        disp = rec["dispersion_independence"]
        assert disp["alpha_d_values"] == [0.0, 1.0, 10.0]
        assert disp["grid"] == {"nt": 17, "nx": 17}
        maxes = disp["interior_max_residuals"]
        if max(maxes) - min(maxes) > 1e-10:
            disp_ok = False

    ok = orders_ok and disp_ok
    _report(6, "residual orders 2.0+/-0.2 and dispersion independence", ok,
            "; ".join(details))


def test_criterion_07_mass_conservation(case_1a, case_2a):
    """Relative mass drift <= 1e-8 over 4+ times spanning [0, 0.9 T]."""
    case_a, traj_a, report_a = case_1a
    T_a = report_a.s_collapse_quadrature / 3.0
    m_a = mass(case_a, traj_a, [f * 0.9 * T_a for f in (0.0, 1/3, 2/3, 1.0)])

    case_b, traj_b, _ = case_2a
    T_b = 2.0
    m_b = mass(case_b, traj_b, [f * 0.9 * T_b for f in (0.0, 1/3, 2/3, 1.0)])

    # The largest |m(t) - m(0)| relative to m(0), as the battery's record has it.
    drift_a, drift_b = (float(np.max(np.abs(m - m[0]))) / abs(m[0]) for m in (m_a, m_b))
    ok = drift_a <= 1e-8 and drift_b <= 1e-8
    _report(7, "mass conservation across [0, 0.9T]", ok,
            f"drifts {drift_a:.2e}, {drift_b:.2e}")


def test_criterion_08_blowup_rate(case_2b):
    """rho(s,0)(S-s)^{1/3} -> 1/3^{1/6} within 1%, never below 1e-2 of it."""
    # The battery's blowup_rate record, over S - s = 1e-2 .. 1e-6 S: the a0 > 0 branch ...
    case = SolutionCase(sigma=-1, alpha=1.0, emden=EmdenParams(xi=-3.0, a0=1.0, a1=0.0))
    traj, report = analyze(case.emden)
    products = [p for _, p in verify._blowup_rate_record(case, traj, report, 0.01)["samples"]]
    err = max(abs(p - RATE_LIMIT) / RATE_LIMIT for p in products)
    floor = min(products) / RATE_LIMIT

    # ... and the mirrored a0 < 0 branch of the same orbit
    case_m, traj_m, report_m = case_2b
    products_m = [p for _, p in verify._blowup_rate_record(case_m, traj_m, report_m,
                                                           0.01)["samples"]]
    err_m = max(abs(p - RATE_LIMIT) / RATE_LIMIT for p in products_m)

    ok = err <= 0.01 and err_m <= 0.01 and floor >= 1e-2
    _report(8, "blowup rate limit 1/3^{1/6}", ok,
            f"max rel err {err:.2e}, mirrored {err_m:.2e}, floor ratio {floor:.3f}")


def test_criterion_09_growth_asymptote():
    """a(s)/s^{3/2} within 1% of 1.0 at s = 1e4 for xi = 9/4."""
    traj = integrate_many([EmdenParams(xi=2.25, a0=1.0, a1=0.0)], [1e4], [DEFAULT_TOL])[0]
    k = traj.a[-1] / traj.s[-1] ** 1.5
    ok = abs(k - 1.0) <= 0.01
    _report(9, "growth asymptote k = (4 xi / 9)^{3/4}", ok, f"k = {k:.6f}")


def test_criterion_10_negative_branch_symmetry():
    """Mirrored initial data negate the trajectory pointwise to 1e-10."""
    worst = 0.0
    for params in (EmdenParams(xi=-3.0, a0=1.0, a1=0.5),
                   EmdenParams(xi=1.0, a0=1.0, a1=-0.3)):
        t1 = integrate_many([params], [2.0], [DEFAULT_TOL])[0]
        mirror = EmdenParams(params.xi, -params.a0, -params.a1)
        t2 = integrate_many([mirror], [2.0], [DEFAULT_TOL])[0]
        ss = np.linspace(0.0, 0.95 * min(t1.s_max, t2.s_max), 41)
        a1_, ad1 = t1.eval_many(ss)
        a2_, ad2 = t2.eval_many(ss)
        worst = max(worst, float(np.max(np.abs(a1_ + a2_))),
                    float(np.max(np.abs(ad1 + ad2))))
    ok = worst <= 1e-10
    _report(10, "negative-branch symmetry", ok, f"max |a + a_mirror| {worst:.2e}")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    """Byte-identical reruns; corrupted velocity exits 3 with momentum flagged."""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "sigma = 1\nxi = 1\nalpha = 1\na0 = 1\na1 = 0\n"
        "nt = 41\nnx = 41\nlevels = 3\n",
        encoding="utf-8",
    )
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["verify", "--config", str(cfg), "--out", str(d1)])
    rc2 = main(["verify", "--config", str(cfg), "--out", str(d2)])
    identical = (d1 / "verify.json").read_bytes() == (d2 / "verify.json").read_bytes()

    d3 = tmp_path / "bad"
    rc3 = main(["verify", "--config", str(cfg), "--out", str(d3),
                "--seed-corrupt", "u=1.01"])
    doc = json.loads((d3 / "verify.json").read_text())
    flagged = doc["reports"]["residual_momentum"]["pass"] is False

    ok = rc1 == 0 and rc2 == 0 and identical and rc3 == 3 and flagged
    _report(11, "CLI determinism and exit-code contract", ok,
            f"rc {rc1}/{rc2}/{rc3}, identical {identical}, momentum flagged {flagged}")
