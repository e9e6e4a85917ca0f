"""Residual kernels, mass quadrature, conservation, blowup rate, origin decay.

Masses are cross-checked against a plain quadrature of the density over the
support (no substitution), independent of the sin-transformed integral used
by the library.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ch2exact import (
    Classification,
    EmdenParams,
    GridError,
    IntegrationFailure,
    SolutionCase,
    SpaceTimeGrid,
    Tolerances,
    analyze,
    blowup_rate,
    integrate,
    mass,
    mass_residual_field,
    momentum_residual_field,
    origin_decay,
    profile,
    run_battery,
)
import ch2exact.verify as verify
from ch2exact._quadrature import gauss_kronrod21_array
from ch2exact.emden import Trajectory
from ch2exact.verify import (
    _check_grid,
    _decay_window_end,
    _dispersion_record,
    _residual_report,
    _sampled_levels,
    _t_max,
    analytic_mass,
    battery_t_needed,
    fields_on_grid,
    horizon,
    mass_error,
    min_support_radius,
    sampling_grid,
)


def support_radius(case, traj, t):
    """x_b(t) = a(3t)^{1/3} eta_b, from the trajectory directly."""
    (a,), _ = traj.eval_many([3.0 * t])
    return float(np.cbrt(a)) * case.eta_boundary


def density(case, traj, t, x):
    """Reference rho(t, x) = f(x / a^{1/3}) / a^{1/3}, with a(3t) from the trajectory."""
    (a,), _ = traj.eval_many([3.0 * t])
    cb = float(np.cbrt(a))
    return profile(case, x / cb) / cb


def direct_mass(case, traj, t):
    """Oracle: integrate rho over the support with no substitution."""
    xb = support_radius(case, traj, t)
    val, _ = quad(lambda x: density(case, traj, t, x), -xb, xb,
                  epsabs=1e-12, epsrel=1e-10, limit=200)
    return val


def per_node_mass(case, traj, t):
    """The library's rule over rho(t, x_b sin phi) x_b cos phi, one node at a time."""
    xb = support_radius(case, traj, t)
    return gauss_kronrod21_array(
        lambda phi: [density(case, traj, t, xb * math.sin(p)) * xb * math.cos(p)
                     for p in phi.tolist()], -math.pi / 2.0, math.pi / 2.0)


def relative_drift(masses):
    """Largest |m(t) - m(t_0)| relative to m(t_0), as the mass_conservation record has it."""
    return float(np.max(np.abs(masses - masses[0]))) / abs(masses[0])


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_grid_validation(case_2a):
    # Any lattice has >= 2 points per axis and increasing bounds ...
    for bad in ((0.0, 1.0, 1, -1.0, 1.0, 9), (0.0, 1.0, 9, -1.0, 1.0, 1),
                (1.0, 1.0, 9, -1.0, 1.0, 9), (0.0, 1.0, 9, 1.0, -1.0, 9)):
        with pytest.raises(GridError):
            SpaceTimeGrid(*bad)
    # ... and the residual stencils need >= 5, which the battery checks.
    case, traj, report = case_2a
    for nt, nx in ((4, 9), (9, 3)):
        grid = SpaceTimeGrid(0.0, 0.5, nt, -0.5, 0.5, nx)
        with pytest.raises(GridError, match="nt >= 5 and nx >= 5"):
            run_battery(case, traj, report, grid)


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
    rho, u, _ = fields_on_grid(case, traj, grid.ts(), grid.xs())
    assert np.all(rho == 0.0)
    r = mass_residual_field(rho, u, grid.dt, grid.dx)
    assert np.all(r == 0.0)


# ----------------------------------------------------------------------
# residuals on exact solutions
# ----------------------------------------------------------------------

def test_mass_residual_converges_2a(case_2a):
    case, traj, report = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 21, -0.6, 0.6, 21)
    rep = run_battery(case, traj, report, grid, Tolerances(levels=2))["residual_mass"]
    assert rep["eq"] == "mass"
    assert 1.7 <= rep["estimated_order"] <= 2.3
    assert rep["residuals"][1] < rep["residuals"][0] < 1e-2


def test_momentum_residual_converges_2a(case_2a):
    # The momentum stencil needs a finer base grid than the mass one to
    # reach its asymptotic O(h^2) range.
    case, traj, report = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 41, -0.6, 0.6, 41)
    rep = run_battery(case, traj, report, grid, Tolerances(levels=2))["residual_momentum"]
    assert 1.7 <= rep["estimated_order"] <= 2.3


def test_residuals_converge_noncompact(case_2b):
    # 2b lives on the whole line; no support margin applies.
    case, traj, report = case_2b
    t1 = 0.25 * report.s_collapse_quadrature / 3.0
    grid = SpaceTimeGrid(0.0, t1, 21, -1.0, 1.0, 21)
    rec = run_battery(case, traj, report, grid, Tolerances(levels=2))
    for rep in (rec["residual_mass"], rec["residual_momentum"]):
        assert 1.7 <= rep["estimated_order"] <= 2.3


def test_single_level_reports_no_order(case_2a):
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 11, -0.5, 0.5, 11)
    sampled = _sampled_levels(case, traj, grid, 1, Tolerances.margin, 1.0, None)
    rep = _residual_report(case, sampled, "mass", 0.0, Tolerances.order_band)
    assert rep["estimated_order"] is None
    assert rep["interior_max_residual"] >= 0.0
    assert rep["interior_l2_residual"] <= rep["interior_max_residual"]


@pytest.mark.parametrize("which", ["mass", "momentum"])
def test_order_estimate_reads_the_coarse_interior_nodes(monkeypatch, which):
    # A stand-in residual of 2 + x at each interior node, on a grid and its
    # refinement.  The fine level's interior reaches closer to the x edge
    # than the coarse one's; at the coarse interior nodes both levels peak
    # at the same x, so the ratio is 1 and the order 0.
    monkeypatch.setattr(verify, "mass_residual_field",
                        lambda rho, u, dt, dx: 2.0 + rho[1:-1, 1:-1])
    monkeypatch.setattr(verify, "momentum_residual_field",
                        lambda rho, u, dt, dx, sigma, alpha_d: 2.0 + rho[1:-1, 2:-2])
    case = SolutionCase(sigma=1, alpha=1.0, emden=EmdenParams(xi=1.0, a0=1.0, a1=0.0))
    grid = SpaceTimeGrid(0.0, 1.0, 9, -1.0, 1.0, 9)
    sampled = []
    for g in (grid, grid.refined()):
        x = np.broadcast_to(g.xs(), (g.nt, g.nx))
        sampled.append((g, x, x))
    rep = _residual_report(case, sampled, which, 0.0, Tolerances.order_band)
    assert rep["estimated_order"] == 0.0
    # Each level's residual is the maximum over its own interior.
    edge = 1 if which == "mass" else 2  # interior nodes lost at each x edge
    assert rep["residuals"] == [2.0 + 1.0 - edge * grid.dx, 2.0 + 1.0 - edge * grid.dx / 2.0]


def test_dispersion_independence(case_2a):
    case, traj, report = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 17, -0.6, 0.6, 17)
    rec = run_battery(case, traj, report, grid)["dispersion_independence"]
    assert rec["alpha_d_values"] == [0.0, 1.0, 10.0]
    maxes = rec["interior_max_residuals"]
    assert max(maxes) - min(maxes) <= 1e-10


def test_dispersion_bound_trips_on_a_nonlinear_velocity(case_2a):
    # A velocity linear in x leaves only roundoff across alpha_d; a cubic
    # term of 1e-6 max|u| gives alpha_d^2 D_xx u a real value, far above
    # the bound.  No scaling of u can trip this check.
    case, traj, _ = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 17, -0.6, 0.6, 17)
    rho, u, _ = fields_on_grid(case, traj, grid.ts(), grid.xs())
    clean = _dispersion_record(case, [(grid, rho, u)], Tolerances())
    bad_u = u + 1e-6 * np.max(np.abs(u)) * (grid.xs() / grid.x1) ** 3
    bad = _dispersion_record(case, [(grid, rho, bad_u)], Tolerances())
    assert clean["pass"] is True and clean["max_abs_difference"] <= clean["bound"]
    assert bad["pass"] is False and bad["max_abs_difference"] > 100.0 * bad["bound"]
    scaled = _dispersion_record(case, [(grid, rho, 1.01 * u)], Tolerances())
    assert scaled["pass"] is True


def test_corrupted_velocity_breaks_convergence(case_2a):
    """A 1% velocity error leaves an O(1) residual that refinement cannot kill."""
    case, traj, report = case_2a
    grid = SpaceTimeGrid(0.0, 0.5, 41, -0.6, 0.6, 41)
    clean = run_battery(case, traj, report, grid, Tolerances(levels=2))["residual_momentum"]
    bad = run_battery(case, traj, report, grid, Tolerances(levels=2),
                      u_scale=1.01)["residual_momentum"]
    assert bad["estimated_order"] < 1.0
    # on the finest level the O(1) defect dwarfs the shrinking truncation error
    assert bad["residuals"][-1] > 10.0 * clean["residuals"][-1]


@pytest.mark.parametrize("family", ["case_2a", "case_2b"])
def test_residual_floor_is_relative_to_roundoff(family, request):
    # With alpha scaled by 1e-12, the compact family's window and fields
    # shrink with alpha, and the 1% velocity fault leaves residuals of about
    # 3e-15, which an absolute 1e-12 floor passed.  The floor follows the
    # fields' own size, so the fault fails both equations on either family
    # and the clean twin passes them.
    case, traj, report = request.getfixturevalue(family)
    small = SolutionCase(sigma=case.sigma, alpha=1e-12 * case.alpha, emden=case.emden)
    grid = sampling_grid(small, traj, report, {})
    clean = run_battery(small, traj, report, grid)
    bad = run_battery(small, traj, report, grid, u_scale=1.01)
    for which in ("residual_mass", "residual_momentum"):
        assert clean[which]["pass"] is True
        assert bad[which]["pass"] is False


def test_grid_preconditions(case_1a, case_2a):
    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    # reaching past the collapse margin
    with pytest.raises(GridError, match="collapse"):
        run_battery(case, traj, report, SpaceTimeGrid(0.0, 0.95 * S / 3.0, 9, -0.1, 0.1, 9))
    # negative start time
    with pytest.raises(GridError, match="t = 0"):
        run_battery(case, traj, report, SpaceTimeGrid(-0.1, 0.1, 9, -0.1, 0.1, 9))
    # beyond the support margin
    case2, traj2, report2 = case_2a
    with pytest.raises(GridError, match="support"):
        run_battery(case2, traj2, report2, SpaceTimeGrid(0.0, 0.5, 9, -0.95, 0.95, 9))
    # past the integrated horizon
    short = integrate(case2.emden, s_end=0.5)
    with pytest.raises(GridError, match="trajectory ends"):
        run_battery(case2, short, report2, SpaceTimeGrid(0.0, 1.0, 9, -0.3, 0.3, 9))


# ----------------------------------------------------------------------
# mass
# ----------------------------------------------------------------------

def test_mass_2a_pi_over_2(case_2a):
    case, traj, _ = case_2a
    (m,) = mass(case, traj, [0.0])
    assert m == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert m == pytest.approx(direct_mass(case, traj, 0.0), rel=1e-7)


def test_mass_2a_scaled():
    # alpha^2 pi / (2 sqrt(xi)) = 4 pi / 4 = pi for xi=4, alpha=2
    case = SolutionCase(sigma=1, alpha=2.0, emden=EmdenParams(xi=4.0, a0=1.0, a1=0.0))
    traj = integrate(case.emden, s_end=2.0)
    assert mass(case, traj, [0.0])[0] == pytest.approx(math.pi, rel=1e-6)


def test_mass_1a_pi_over_2(case_1a):
    case, traj, _ = case_1a
    (m,) = mass(case, traj, [0.0])
    assert m == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert m == pytest.approx(direct_mass(case, traj, 0.0), rel=1e-7)


def test_mass_divergent_on_full_line(case_1b, case_2b):
    for case, traj, _ in (case_1b, case_2b):
        assert mass(case, traj, [0.0, 0.1]).tolist() == [math.inf, math.inf]


def test_mass_zero_amplitude():
    case = SolutionCase(sigma=1, alpha=0.0, emden=EmdenParams(xi=1.0, a0=1.0))
    traj = integrate(case.emden, s_end=1.0)
    assert mass(case, traj, [0.0, 0.3]).tolist() == [0.0, 0.0]


def test_mass_evaluates_the_scale_factor_once(case_2a, monkeypatch):
    case, traj, _ = case_2a
    ts = [0.3, 0.0, 0.45]
    # The same rule over rho(t, x) point by point, one a(3t) per node.
    per_point = [per_node_mass(case, traj, t) for t in ts]
    # The support radius and the sampler each read a(3t) once, at all the
    # times together, not once per node or per time.
    calls = []
    real_eval_many = Trajectory.eval_many
    monkeypatch.setattr(Trajectory, "eval_many",
                        lambda self, s: calls.append(list(s)) or real_eval_many(self, s))
    assert mass(case, traj, ts).tolist() == per_point
    assert calls == [[3.0 * t for t in ts]] * 2


@pytest.mark.parametrize("family", ["case_1a", "case_2b"])
@pytest.mark.parametrize("times", [0.123, np.array(0.0), [[0.1, 0.2]]],
                         ids=["scalar", "0-d", "2-D"])
def test_times_that_are_not_1d_are_rejected_by_name(family, times, request):
    # A compact family and a full-line one: mass checks ts itself, because
    # its full-line branch returns before it reads the orbit.
    case, traj, _ = request.getfixturevalue(family)
    ts = np.asarray(times)
    with pytest.raises(ValueError, match="^s_values must be a 1-D sequence of times"):
        traj.eval_many(3.0 * ts)
    with pytest.raises(ValueError, match="^s_values must be a 1-D sequence of times"):
        fields_on_grid(case, traj, times, np.zeros(1))
    with pytest.raises(ValueError, match="^s_values must be a 1-D sequence of times"):
        min_support_radius(case, traj, times)
    with pytest.raises(ValueError, match="^ts must be a 1-D sequence of times"):
        mass(case, traj, times)


@pytest.mark.parametrize("family", ["case_1a", "case_2b"])
def test_fields_on_grid_takes_a_list_of_times(family, request):
    case, traj, _ = request.getfixturevalue(family)
    xs = np.linspace(-0.5, 0.5, 7)
    got = fields_on_grid(case, traj, [0.1, 0.2], xs)
    want = fields_on_grid(case, traj, np.array([0.1, 0.2]), xs)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


# (sigma, sign xi) of families 1a, 1b, 2a and 2b; sign a0 = sigma sign xi.
FAMILY_SIGNS = [(-1, -1.0), (-1, 1.0), (1, 1.0), (1, -1.0)]


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILY_SIGNS), xi_dec=st.floats(-3.0, 3.0),
       a0_dec=st.floats(-3.0, 3.0), alpha=st.floats(0.1, 10.0), u=st.floats(-2.0, 2.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_mass_of_many_times_is_each_time_alone(family, xi_dec, a0_dec, alpha, u, fracs):
    # One lattice of all the times gives each time the bits of a call of its
    # own, and those of the rule summed one node at a time.
    sigma, xi_sign = family
    xi, a0 = xi_sign * 10.0 ** xi_dec, sigma * xi_sign * 10.0 ** a0_dec
    params = EmdenParams(xi=xi, a0=a0, a1=u * math.sqrt(abs(xi)) * abs(a0) ** (1.0 / 3.0))
    case = SolutionCase(sigma=sigma, alpha=alpha, emden=params)
    try:
        traj, _ = analyze(params)
    except IntegrationFailure:
        return  # the theta ~ 0 separatrix (test_emden's stop-event case)
    ts = [f * _t_max(traj) for f in fracs]
    masses = mass(case, traj, ts)
    assert masses.shape == (len(ts),)
    for t, m in zip(ts, masses.tolist()):
        assert mass(case, traj, [t])[0] == m
        assert m == (per_node_mass(case, traj, t) if case.compact else math.inf)


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
    masses = mass(case, traj, [0.0, 0.2, 0.5, 1.0])
    assert analytic_mass(case) == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert relative_drift(masses) <= 1e-8
    for m in masses:
        assert m == pytest.approx(math.pi / 2.0, rel=1e-6)


def test_mass_conservation_1a_near_collapse(case_1a):
    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    times = [f * S / 3.0 for f in (0.0, 0.3, 0.6, 0.85)]
    assert relative_drift(mass(case, traj, times)) <= 1e-8


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


@pytest.mark.parametrize("decay_t_max", [5e-4, 1e-3, 2e-3, 300.0])
def test_origin_decay_times_increase(decay_t_max):
    # The 12 sample times end at decay_t_max and span two decades below it,
    # cut at 1e-3 where decay_t_max exceeds that: then they are unchanged.
    case = SolutionCase(sigma=1, alpha=1.0, emden=EmdenParams(xi=1.0, a0=1.0, a1=0.5))
    tols = Tolerances(decay_t_max=decay_t_max)
    traj, _ = analyze(case.emden, horizon(0.0, battery_t_needed(case, tols, {})))
    record = verify._origin_decay_record(case, traj, tols)
    times = record["times"]
    assert len(times) == 12 and times[-1] == pytest.approx(decay_t_max, rel=1e-15)
    assert all(b > a for a, b in zip(times, times[1:]))
    assert record["strictly_decreasing"] is True
    if decay_t_max > 1e-3:
        assert times == np.geomspace(max(decay_t_max / 100.0, 1e-3), decay_t_max, 12).tolist()


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


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILY_SIGNS), xi_dec=st.floats(-6.0, 6.0),
       a0_dec=st.floats(-6.0, 6.0), alpha_dec=st.floats(-3.0, 3.0), u=st.floats(-2.0, 2.0))
def test_default_verify_windows_pass_their_own_checks(family, xi_dec, a0_dec, alpha_dec, u):
    # |xi| and |a0| over twelve decades, alpha over six, slopes on both
    # sides of theta = 0: the orbit a verify run integrates covers the decay
    # window, and the default lattice on it passes the battery's grid check.
    sigma, xi_sign = family
    xi, a0 = xi_sign * 10.0 ** xi_dec, sigma * xi_sign * 10.0 ** a0_dec
    params = EmdenParams(xi=xi, a0=a0, a1=u * math.sqrt(abs(xi)) * abs(a0) ** (1.0 / 3.0))
    case = SolutionCase(sigma=sigma, alpha=10.0 ** alpha_dec, emden=params)
    tols = Tolerances()
    try:
        traj, report = analyze(params, horizon(0.0, battery_t_needed(case, tols, {})))
    except IntegrationFailure:
        return  # the theta ~ 0 separatrix (test_emden's stop-event case)
    grid = sampling_grid(case, traj, report, {}, tols.margin)
    _check_grid(case, traj, grid, tols.margin, report.s_collapse_quadrature)
    if report.classification is Classification.GLOBAL:
        assert 3.0 * _decay_window_end(tols, case) <= traj.s_max


@pytest.mark.parametrize("xi,a0,mu", [(100.0, 1.0, 0.1), (0.01, 1.0, 10.0), (1.0, 8.0, 4.0)])
def test_global_windows_are_measured_in_mu(xi, a0, mu):
    # mu = |a0|^(2/3) / sqrt|xi|: a global orbit's default t1 is
    # min(0.5, mu, t_max), and its decay window decay_t_max max(1, mu).
    case = SolutionCase(sigma=1, alpha=1.0, emden=EmdenParams(xi=xi, a0=a0, a1=0.0))
    tols = Tolerances()
    assert verify._time_unit(case) == pytest.approx(mu, rel=1e-15)
    assert _decay_window_end(tols, case) == pytest.approx(300.0 * max(1.0, mu), rel=1e-15)
    traj, report = analyze(case.emden, horizon(0.0, battery_t_needed(case, tols, {})))
    assert sampling_grid(case, traj, report, {}).t1 == pytest.approx(min(0.5, mu), rel=1e-15)
    assert verify._origin_decay_record(case, traj, tols)["times"][-1] == pytest.approx(
        _decay_window_end(tols, case), rel=1e-15)


@pytest.mark.parametrize("xi,a0,mu", [(1e-300, 1e300, "inf"), (1e300, 1e-300, "0.0")])
def test_time_unit_out_of_range_is_named(xi, a0, mu):
    # Named before anything is integrated, not an infinite or zero window.
    case = SolutionCase(sigma=1, alpha=1.0, emden=EmdenParams(xi=xi, a0=a0, a1=0.0))
    message = f"time unit mu = |a0|^(2/3) / sqrt|xi| = {mu} is out of range"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        battery_t_needed(case, Tolerances(), {})


def test_tolerances_defaults_and_levels():
    tols = Tolerances()
    assert tols.margin == 0.8 and tols.alpha_d == (0.0, 1.0, 10.0)
    assert tols.levels == 2 and Tolerances(levels=4).levels == 4
    # An order estimate needs two levels: fewer is an error, not the default.
    for levels in (1, 0, -5):
        with pytest.raises(ValueError, match=f"^levels must be >= 2, got {levels}$"):
            Tolerances(levels=levels)


@pytest.mark.parametrize("name,value,rule", [
    ("order_band", -1.0, ">= 0"),
    ("dispersion_tol", -1e-300, ">= 0"),
    ("mass_rtol", -1.0, ">= 0"),
    ("drift_tol", -1.0, ">= 0"),
    ("rate_rtol", -0.5, ">= 0"),
    ("decay_rtol", -0.05, ">= 0"),
    ("margin", 0.0, "> 0"),
    ("margin", -0.8, "> 0"),
    ("decay_t_max", 0.0, "> 0"),
    ("decay_t_max", -1.0, "> 0"),
    # Inputs that break or empty a battery check: range() in the level
    # ladder, no dispersion run, a NaN run that max() drops from the spread,
    # an infinite spread bound.
    ("levels", 2.5, "an int"),
    ("levels", True, "an int"),
    ("alpha_d", (), "a non-empty tuple of finite reals"),
    ("alpha_d", (0.0, 1.0, math.nan), "a non-empty tuple of finite reals"),
    ("alpha_d", (0.0, math.inf), "a non-empty tuple of finite reals"),
    ("alpha_d", [0.0, 1.0], "a non-empty tuple of finite reals"),
])
def test_tolerances_reject_out_of_range_values(name, value, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {value}')}$"):
        Tolerances(**{name: value})
    # A zero tolerance demands exact agreement, which is valid.
    if rule == ">= 0":
        assert getattr(Tolerances(**{name: 0.0}), name) == 0.0


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
                                                           dispersion_tol=0.0))
    assert rec["residual_mass"]["pass"] is False
    assert rec["residual_momentum"]["pass"] is False
    assert rec["dispersion_independence"]["pass"] is False
    assert rec["dispersion_independence"]["max_abs_difference"] > 0.0
    assert rec["origin_decay"]["pass"] is False
    bad = run_battery(case, traj, report, grid, u_scale=1.01)
    assert bad["residual_momentum"]["pass"] is False


@pytest.mark.parametrize("family,rate_check,rate_tol", [
    ("case_1a", "blowup_rate", "rate_rtol"),
    ("case_2a", "origin_decay", "decay_rtol"),
])
def test_every_density_check_reads_the_one_sampler(family, rate_check, rate_tol, request,
                                                   monkeypatch):
    # A fault injected into verify.fields_on_grid reaches every check that
    # reads rho.  rho (1 + 1e-3) trips the mass value at its default
    # tolerance, and the rate check at a tolerance equal to its clean error.
    case, traj, report = request.getfixturevalue(family)
    grid = sampling_grid(case, traj, report, {})
    clean = run_battery(case, traj, report, grid)
    tols = Tolerances(**{rate_tol: clean[rate_check]["relative_error"]})
    assert run_battery(case, traj, report, grid, tols)[rate_check]["pass"] is True

    sampler = verify.fields_on_grid

    def scaled(*args, **kwargs):
        rho, u, eta = sampler(*args, **kwargs)
        return rho * (1.0 + 1e-3), u, eta

    monkeypatch.setattr(verify, "fields_on_grid", scaled)
    faulty = run_battery(case, traj, report, grid, tols)
    assert faulty["mass"]["pass"] is False
    assert faulty[rate_check]["pass"] is False


@pytest.mark.parametrize("family", ["case_1a", "case_2a"])
def test_a_time_dependent_density_fault_fails_mass_conservation(family, request,
                                                                monkeypatch):
    # rho (1 + 1e-3 t / t1) leaves the mass at t0 = 0 alone and moves the
    # later masses of the one lattice by up to 1e-3, far past drift_tol.
    case, traj, report = request.getfixturevalue(family)
    grid = sampling_grid(case, traj, report, {})
    assert grid.t0 == 0.0
    assert run_battery(case, traj, report, grid)["mass_conservation"]["pass"] is True

    sampler = verify.fields_on_grid

    def drifting(case, traj, ts, xs, *args):
        rho, u, eta = sampler(case, traj, ts, xs, *args)
        return rho * (1.0 + 1e-3 * np.asarray(ts)[:, None] / grid.t1), u, eta

    monkeypatch.setattr(verify, "fields_on_grid", drifting)
    faulty = run_battery(case, traj, report, grid)
    assert faulty["mass"]["pass"] is True
    rec = faulty["mass_conservation"]
    assert rec["pass"] is False and rec["max_relative_drift"] > 1e3 * rec["tolerance"]
