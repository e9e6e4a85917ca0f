"""Residual kernels, mass quadrature, conservation, blowup rate, origin decay.

Masses are cross-checked against a plain quadrature of the density over the
support (no substitution), independent of the sin-transformed integral used
by the library.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ch2exact import (
    EmdenParams,
    GridError,
    SolutionCase,
    SpaceTimeGrid,
    Tolerances,
    analyze,
    blowup_rate,
    density,
    integrate,
    mass,
    mass_conservation,
    mass_residual_field,
    momentum_residual_field,
    origin_decay,
    residual_mass_eq,
    residual_momentum_eq,
    run_battery,
    support,
)
from ch2exact._quadrature import gauss_kronrod21
from ch2exact.emden import Trajectory
from ch2exact.verify import (
    _dispersion_record,
    _fields_on_grid,
    analytic_mass,
    mass_error,
    min_support_radius,
)


def direct_mass(case, traj, t):
    """Oracle: integrate rho over the support with no substitution."""
    lo, hi = support(case, traj, t)
    val, _ = quad(lambda x: density(case, traj, t, x), lo, hi,
                  epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(GridError):
        SpaceTimeGrid(0.0, 1.0, 4, -1.0, 1.0, 9)
    with pytest.raises(GridError):
        SpaceTimeGrid(0.0, 1.0, 9, -1.0, 1.0, 3)
    with pytest.raises(GridError):
        SpaceTimeGrid(1.0, 1.0, 9, -1.0, 1.0, 9)
    with pytest.raises(GridError):
        SpaceTimeGrid(0.0, 1.0, 9, 1.0, -1.0, 9)


def test_grid_spacing_and_refinement():
    g = SpaceTimeGrid(0.0, 1.0, 11, -2.0, 2.0, 21)
    assert g.dt == pytest.approx(0.1)
    assert g.dx == pytest.approx(0.2)
    r = g.refined()
    assert (r.nt, r.nx) == (21, 41)
    assert r.dt == pytest.approx(g.dt / 2.0)
    assert r.ts()[0] == g.ts()[0] and r.ts()[-1] == g.ts()[-1]


# ----------------------------------------------------------------------
# difference-kernel self-tests (fields injected directly, no solution)
# ----------------------------------------------------------------------

def test_mass_kernel_zero_on_constants():
    rho = np.ones((7, 9))
    u = np.zeros((7, 9))
    r = mass_residual_field(rho, u, dt=0.1, dx=0.1)
    assert r.shape == (5, 7)
    assert np.all(r == 0.0)


def test_momentum_kernel_zero_on_constants():
    rho = np.full((7, 9), 2.0)
    u = np.zeros((7, 9))
    r = momentum_residual_field(rho, u, dt=0.1, dx=0.1, sigma=1)
    assert r.shape == (5, 5)
    assert np.all(r == 0.0)


def test_momentum_kernel_picks_up_time_derivative():
    # u = t, constant in x: m = u, residual = D_t m = 1 exactly.
    t = np.linspace(0.0, 1.0, 7)
    u = np.tile(t[:, None], (1, 9))
    rho = np.zeros((7, 9))
    r = momentum_residual_field(rho, u, dt=t[1] - t[0], dx=0.1, sigma=1, alpha_d=3.0)
    assert np.allclose(r, 1.0, atol=1e-13)


def test_mass_kernel_zero_for_zero_density_case():
    # alpha = 0 compact family: rho vanishes identically, residual is exact 0.
    case = SolutionCase(sigma=1, alpha=0.0, emden=EmdenParams(xi=1.0, a0=1.0, a1=0.0))
    traj = integrate(case.emden, s_end=3.0)
    grid = SpaceTimeGrid(0.0, 0.5, 9, -0.5, 0.5, 9)
    rho, u, _ = _fields_on_grid(case, traj, grid.ts(), grid.xs())
    assert np.all(rho == 0.0)
    r = mass_residual_field(rho, u, grid.dt, grid.dx)
    assert np.all(r == 0.0)


# ----------------------------------------------------------------------
# residuals on exact solutions
# ----------------------------------------------------------------------

def test_mass_residual_converges_2a(case_2a):
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 21, -0.6, 0.6, 21)
    rep = residual_mass_eq(case, traj, grid, levels=2)
    assert rep.eq_label == "mass"
    assert 1.7 <= rep.estimated_order <= 2.3
    assert rep.residuals[1] < rep.residuals[0] < 1e-2


def test_momentum_residual_converges_2a(case_2a):
    # The momentum stencil needs a finer base grid than the mass one to
    # reach its asymptotic O(h^2) range.
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 41, -0.6, 0.6, 41)
    rep = residual_momentum_eq(case, traj, grid, levels=2)
    assert 1.7 <= rep.estimated_order <= 2.3


def test_residuals_converge_noncompact(case_2b):
    # 2b lives on the whole line; no support margin applies.
    case, traj, report = case_2b
    t1 = 0.25 * report.s_collapse_quadrature / 3.0
    grid = SpaceTimeGrid(0.0, t1, 21, -1.0, 1.0, 21)
    for rep in (
        residual_mass_eq(case, traj, grid, levels=2),
        residual_momentum_eq(case, traj, grid, levels=2),
    ):
        assert 1.7 <= rep.estimated_order <= 2.3


def test_single_level_reports_no_order(case_2a):
    case, traj, _ = case_2a
    rep = residual_mass_eq(case, traj, SpaceTimeGrid(0.0, 0.5, 11, -0.5, 0.5, 11))
    assert rep.estimated_order is None
    assert rep.interior_max_residual >= 0.0
    assert rep.interior_l2_residual <= rep.interior_max_residual


def test_dispersion_independence(case_2a):
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 17, -0.6, 0.6, 17)
    maxes = [
        residual_momentum_eq(case, traj, grid, alpha_d=ad).interior_max_residual
        for ad in (0.0, 1.0, 10.0)
    ]
    assert max(maxes) - min(maxes) <= 1e-10


def test_dispersion_bound_trips_on_a_nonlinear_velocity(case_2a):
    # A velocity linear in x leaves only roundoff across alpha_d; a cubic
    # term of 1e-6 max|u| gives alpha_d^2 D_xx u a real value, far above
    # the bound.  No scaling of u can trip this check.
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 17, -0.6, 0.6, 17)
    rho, u, _ = _fields_on_grid(case, traj, grid.ts(), grid.xs())
    clean = _dispersion_record(case, [(grid, rho, u)], Tolerances())
    bad_u = u + 1e-6 * np.max(np.abs(u)) * (grid.xs() / grid.x1) ** 3
    bad = _dispersion_record(case, [(grid, rho, bad_u)], Tolerances())
    assert clean["pass"] is True and clean["max_abs_difference"] <= clean["bound"]
    assert bad["pass"] is False and bad["max_abs_difference"] > 100.0 * bad["bound"]
    scaled = _dispersion_record(case, [(grid, rho, 1.01 * u)], Tolerances())
    assert scaled["pass"] is True


def test_corrupted_velocity_breaks_convergence(case_2a):
    """A 1% velocity error leaves an O(1) residual that refinement cannot kill."""
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 41, -0.6, 0.6, 41)
    clean = residual_momentum_eq(case, traj, grid, levels=2)
    bad = residual_momentum_eq(case, traj, grid, levels=2, u_scale=1.01)
    assert bad.estimated_order < 1.0
    # on the finest level the O(1) defect dwarfs the shrinking truncation error
    assert bad.residuals[-1] > 10.0 * clean.residuals[-1]


def test_grid_preconditions(case_1a, case_2a):
    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    # reaching past the collapse margin
    with pytest.raises(GridError, match="collapse"):
        residual_mass_eq(case, traj, SpaceTimeGrid(0.0, 0.95 * S / 3.0, 9, -0.1, 0.1, 9))
    # negative start time
    with pytest.raises(GridError, match="t = 0"):
        residual_mass_eq(case, traj, SpaceTimeGrid(-0.1, 0.1, 9, -0.1, 0.1, 9))
    # beyond the support margin
    case2, traj2, _ = case_2a
    with pytest.raises(GridError, match="support"):
        residual_mass_eq(case2, traj2, SpaceTimeGrid(0.0, 0.5, 9, -0.95, 0.95, 9))
    # past the integrated horizon
    short = integrate(case2.emden, s_end=0.5)
    with pytest.raises(GridError, match="trajectory ends"):
        residual_mass_eq(case2, short, SpaceTimeGrid(0.0, 1.0, 9, -0.3, 0.3, 9))


# ----------------------------------------------------------------------
# mass
# ----------------------------------------------------------------------

def test_mass_2a_pi_over_2(case_2a):
    case, traj, _ = case_2a
    m = mass(case, traj, 0.0)
    assert m == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert m == pytest.approx(direct_mass(case, traj, 0.0), rel=1e-7)


def test_mass_2a_scaled():
    # alpha^2 pi / (2 sqrt(xi)) = 4 pi / 4 = pi for xi=4, alpha=2
    case = SolutionCase(sigma=1, alpha=2.0, emden=EmdenParams(xi=4.0, a0=1.0, a1=0.0))
    traj = integrate(case.emden, s_end=2.0)
    assert mass(case, traj, 0.0) == pytest.approx(math.pi, rel=1e-6)


def test_mass_1a_pi_over_2(case_1a):
    case, traj, _ = case_1a
    m = mass(case, traj, 0.0)
    assert m == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert m == pytest.approx(direct_mass(case, traj, 0.0), rel=1e-7)


def test_mass_divergent_on_full_line(case_1b, case_2b):
    for case, traj, _ in (case_1b, case_2b):
        assert mass(case, traj, 0.0) == math.inf


def test_mass_zero_amplitude():
    case = SolutionCase(sigma=1, alpha=0.0, emden=EmdenParams(xi=1.0, a0=1.0))
    traj = integrate(case.emden, s_end=1.0)
    assert mass(case, traj, 0.0) == 0.0


def test_mass_evaluates_the_scale_factor_once(case_2a, monkeypatch):
    case, traj, _ = case_2a
    t = 0.3
    _, xb = support(case, traj, t)
    # The same rule over rho(t, x) point by point, one a(3t) per node.
    per_point = gauss_kronrod21(
        lambda phi: density(case, traj, t, xb * math.sin(phi)) * xb * math.cos(phi),
        -math.pi / 2.0, math.pi / 2.0,
    )
    calls = []
    real_eval = Trajectory.eval
    monkeypatch.setattr(Trajectory, "eval", lambda self, s: calls.append(s) or real_eval(self, s))
    assert mass(case, traj, t) == per_point
    assert len(calls) == 1


def test_mass_error_relative_and_zero_amplitude(case_2a):
    case, _, _ = case_2a
    assert analytic_mass(case) == math.pi / 2.0
    analytic, err, ok = mass_error(case, math.pi / 2.0 * (1.0 + 2e-6), 1e-6)
    assert analytic == math.pi / 2.0 and err == pytest.approx(2e-6) and not ok
    zero = SolutionCase(sigma=1, alpha=0.0, emden=EmdenParams(xi=1.0, a0=1.0))
    assert mass_error(zero, 0.0, 1e-6) == (0.0, 0.0, True)
    assert mass_error(zero, 1e-9, 1.0)[2] is False  # absolute floor, not rtol


def test_analytic_mass_divergent_on_full_line(case_2b):
    assert analytic_mass(case_2b[0]) == math.inf


def test_mass_conservation_2a(case_2a):
    case, traj, _ = case_2a
    rep = mass_conservation(case, traj, [0.0, 0.2, 0.5, 1.0])
    assert not rep.divergent
    assert rep.analytic_mass == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert rep.max_relative_drift <= 1e-8
    for m in rep.masses:
        assert m == pytest.approx(math.pi / 2.0, rel=1e-6)


def test_mass_conservation_1a_near_collapse(case_1a):
    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    times = [f * S / 3.0 for f in (0.0, 0.3, 0.6, 0.85)]
    rep = mass_conservation(case, traj, times)
    assert rep.max_relative_drift <= 1e-8


def test_mass_conservation_divergent_report(case_2b):
    case, traj, _ = case_2b
    rep = mass_conservation(case, traj, [0.0, 0.1])
    assert rep.divergent
    assert rep.masses == []
    assert rep.max_relative_drift is None


def test_mass_conservation_needs_times(case_2a):
    case, traj, _ = case_2a
    with pytest.raises(ValueError):
        mass_conservation(case, traj, [])


# ----------------------------------------------------------------------
# blowup rate
# ----------------------------------------------------------------------

RATE_LIMIT = 0.8326831776556043  # 1 / 3^{1/6} = alpha / (2 theta)^{1/6} at theta = 3/2


def rate_case(alpha=1.0):
    case = SolutionCase(sigma=-1, alpha=alpha, emden=EmdenParams(xi=-3.0, a0=1.0, a1=0.0))
    traj, report = analyze(case.emden)
    return case, traj, report


def test_blowup_rate_limit():
    case, traj, report = rate_case()
    S = report.s_collapse_quadrature
    samples = blowup_rate(case, traj, report, S * (1.0 - np.geomspace(1e-2, 1e-6, 9)))
    # last-decade products: within 1% of the limit and never below half of it
    for _, prod in samples:
        assert prod == pytest.approx(RATE_LIMIT, rel=1e-2)
        assert prod >= 0.5 * RATE_LIMIT


def test_blowup_rate_mirrored_family(case_2b):
    # same xi and theta reached through the a0 < 0 branch
    case, traj, report = case_2b
    S = report.s_collapse_quadrature
    samples = blowup_rate(case, traj, report, [S * (1.0 - 1e-5)])
    assert samples[0][1] == pytest.approx(RATE_LIMIT, rel=1e-2)


def test_blowup_rate_linear_in_alpha():
    case, traj, report = rate_case(alpha=2.0)
    S = report.s_collapse_quadrature
    (_, prod), = blowup_rate(case, traj, report, [S * (1.0 - 1e-5)])
    assert prod == pytest.approx(2.0 * RATE_LIMIT, rel=1e-2)


def test_blowup_rate_preconditions(case_2a):
    case, traj, report = case_2a
    with pytest.raises(ValueError, match="collapse"):
        blowup_rate(case, traj, report, [0.1])
    c2, t2, r2 = rate_case()
    # S itself always lies just past the halted trajectory, so either range
    # guard may fire; both name the offending sample.
    with pytest.raises(ValueError, match="sample s ="):
        blowup_rate(c2, t2, r2, [r2.s_collapse_quadrature])
    c3 = SolutionCase(sigma=-1, alpha=0.0, emden=EmdenParams(xi=-3.0, a0=1.0, a1=0.0))
    with pytest.raises(ValueError, match="alpha"):
        blowup_rate(c3, t2, r2, [0.1])


# ----------------------------------------------------------------------
# origin decay
# ----------------------------------------------------------------------

def test_origin_decay_rate():
    # xi = 9/4 makes k = 1; rho(t,0) sqrt(t) -> alpha / sqrt(3)
    case = SolutionCase(sigma=1, alpha=1.0, emden=EmdenParams(xi=2.25, a0=1.0, a1=0.0))
    traj = integrate(case.emden, s_end=1000.0)
    times = np.geomspace(1.0, 300.0, 8)
    vals = origin_decay(case, traj, times)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] * math.sqrt(times[-1]) == pytest.approx(1.0 / math.sqrt(3.0), rel=0.05)


def test_origin_decay_zero_amplitude(case_2a):
    _, traj, _ = case_2a
    case = SolutionCase(sigma=1, alpha=0.0, emden=EmdenParams(xi=1.0, a0=1.0, a1=0.0))
    vals = origin_decay(case, traj, [0.5, 1.0, 2.0])
    assert vals == [0.0, 0.0, 0.0]


def test_origin_decay_rejects_collapse(case_1a):
    case, traj, _ = case_1a
    with pytest.raises(ValueError, match="global"):
        origin_decay(case, traj, [0.1])


# ----------------------------------------------------------------------
# support radius and the battery
# ----------------------------------------------------------------------

def test_min_support_radius_finds_an_interior_minimum():
    # Inward slope with theta < 0: a(s) turns around inside [0, 1.5].
    case = SolutionCase(sigma=1, alpha=0.1693826188803053, emden=EmdenParams(
        xi=10.714819842391346, a0=2.5803653358177017, a1=-4.479915811840134))
    traj = integrate(case.emden, s_end=2.0)
    ts = np.linspace(0.0, 0.5, 81)
    r_min = min_support_radius(case, traj, ts)
    ends = min_support_radius(case, traj, ts[[0, -1]])
    assert r_min < 0.75 * ends
    a, _ = traj.eval_many(3.0 * ts)
    assert r_min == float(np.min(np.cbrt(a) * case.eta_boundary))


def test_tolerances_defaults_and_levels():
    tols = Tolerances()
    assert tols.margin == 0.8 and tols.alpha_d == (0.0, 1.0, 10.0)
    assert Tolerances(levels=1).residual_levels == 2
    assert Tolerances(levels=4).residual_levels == 4


def test_run_battery_records_in_report_order(case_1a, case_2a):
    case, traj, report = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 41, -0.6, 0.6, 41)
    rec = run_battery(case, traj, report, grid, Tolerances(levels=3))
    assert list(rec) == ["residual_mass", "residual_momentum", "dispersion_independence",
                         "mass", "mass_conservation", "origin_decay"]
    assert all(r["pass"] is True for r in rec.values())
    assert len(rec["residual_mass"]["residuals"]) == 3

    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    grid = SpaceTimeGrid(0.0, 0.25 * S / 3.0, 41, -0.5, 0.5, 41)
    rec = run_battery(case, traj, report, grid, Tolerances(levels=3))
    assert list(rec)[-1] == "blowup_rate"
    assert all(r["pass"] is True for r in rec.values())


def test_run_battery_skips_mass_on_full_line(case_2b):
    case, traj, report = case_2b
    grid = SpaceTimeGrid(0.0, 0.1, 21, -1.0, 1.0, 21)
    rec = run_battery(case, traj, report, grid)
    assert rec["mass"]["skipped"] and "pass" not in rec["mass"]
    assert rec["mass_conservation"]["skipped"] and "pass" not in rec["mass_conservation"]


def test_run_battery_each_tolerance_can_fail(case_2a):
    case, traj, report = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 41, -0.6, 0.6, 41)
    rec = run_battery(case, traj, report, grid, Tolerances(order_band=0.0, decay_rtol=0.0,
                                                           dispersion_tol=-1.0))
    assert rec["residual_mass"]["pass"] is False
    assert rec["residual_momentum"]["pass"] is False
    assert rec["dispersion_independence"]["pass"] is False
    assert rec["origin_decay"]["pass"] is False
    bad = run_battery(case, traj, report, grid, u_scale=1.01)
    assert bad["residual_momentum"]["pass"] is False
