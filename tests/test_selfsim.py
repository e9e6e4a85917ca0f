"""Profile, density, velocity, and support geometry of the four families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ch2exact import (
    EmdenParams,
    FieldSample,
    SolutionCase,
    SupportBoundaryError,
    TimeOutOfRange,
    density,
    integrate,
    profile,
    profile_derivative,
    sample,
    support,
    velocity,
)


def make_case(case_id: str, alpha: float = 1.0, xi_mag: float = 1.0,
              a0_mag: float = 1.0, a1: float = 0.0) -> SolutionCase:
    sigma, xi_sign, a0_sign = {
        "1a": (-1, -1, +1),
        "1b": (-1, +1, -1),
        "2a": (+1, +1, +1),
        "2b": (+1, -1, -1),
    }[case_id]
    return SolutionCase(
        sigma=sigma,
        alpha=alpha,
        emden=EmdenParams(xi=xi_sign * xi_mag, a0=a0_sign * a0_mag, a1=a1),
    )


# ----------------------------------------------------------------------
# SolutionCase sign table
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "sigma,xi,a0,case_id",
    [
        (-1, -1.0, 1.0, "1a"),
        (-1, 1.0, -1.0, "1b"),
        (+1, 1.0, 1.0, "2a"),
        (+1, -1.0, -1.0, "2b"),
    ],
)
def test_admissible_patterns(sigma, xi, a0, case_id):
    case = SolutionCase(sigma=sigma, alpha=1.0, emden=EmdenParams(xi=xi, a0=a0))
    assert case.case_id == case_id
    assert case.compact == (sigma * xi > 0)
    assert case.compact == (a0 > 0)


@pytest.mark.parametrize(
    "sigma,xi,a0",
    [(-1, -1.0, -1.0), (-1, 1.0, 1.0), (+1, 1.0, -1.0), (+1, -1.0, 1.0)],
)
def test_inadmissible_patterns_rejected(sigma, xi, a0):
    with pytest.raises(ValueError, match="admissible sign patterns"):
        SolutionCase(sigma=sigma, alpha=1.0, emden=EmdenParams(xi=xi, a0=a0))


def test_case_validation():
    with pytest.raises(ValueError, match="sigma"):
        SolutionCase(sigma=2, alpha=1.0, emden=EmdenParams(xi=1.0, a0=1.0))
    with pytest.raises(ValueError, match="alpha"):
        SolutionCase(sigma=1, alpha=-0.5, emden=EmdenParams(xi=1.0, a0=1.0))


def test_case_rejects_bool():
    emden = EmdenParams(xi=1.0, a0=1.0)
    with pytest.raises(ValueError, match="alpha must be a finite real, got True"):
        SolutionCase(sigma=1, alpha=True, emden=emden)
    with pytest.raises(ValueError, match="sigma must be"):
        SolutionCase(sigma=True, alpha=1.0, emden=emden)


def test_eta_boundary():
    assert make_case("2a", alpha=1.0, xi_mag=1.0).eta_boundary == pytest.approx(1.0)
    assert make_case("1a", alpha=2.0, xi_mag=4.0).eta_boundary == pytest.approx(1.0)
    assert make_case("1b").eta_boundary is None


# ----------------------------------------------------------------------
# profile
# ----------------------------------------------------------------------

def test_profile_center_and_boundary_2a():
    case = make_case("2a", alpha=1.0, xi_mag=1.0)
    assert profile(case, 0.0) == pytest.approx(1.0)
    assert profile(case, 1.0) == 0.0
    assert profile(case, -1.0) == 0.0
    assert profile(case, 2.0) == 0.0  # clamp outside the support


def test_profile_1b_alpha_zero_is_abs():
    # radicand reduces to eta^2 and the (xi/sigma) = -1 prefactor gives -|eta|
    case = make_case("1b", alpha=0.0)
    for eta in (-2.0, -0.5, 0.5, 2.0):
        assert profile(case, eta) == pytest.approx(-abs(eta), rel=1e-15)


def test_profile_1a_center():
    case = make_case("1a", alpha=1.5, xi_mag=2.0)
    assert profile(case, 0.0) == pytest.approx(1.5)


def test_profile_array_input():
    case = make_case("2a")
    etas = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    f = profile(case, etas)
    assert f.shape == etas.shape
    assert f[2] == pytest.approx(1.0)
    assert f[0] == f[4] == 0.0


def test_profile_continuous_at_boundary():
    # C^0 match: f -> 0 from inside as eta -> eta_b.
    case = make_case("2a")
    approach = [profile(case, 1.0 - 10.0 ** (-k)) for k in range(3, 9)]
    assert all(b < a for a, b in zip(approach, approach[1:]))
    assert approach[-1] < 1e-3


def test_profile_derivative_values():
    case = make_case("2a")
    assert profile_derivative(case, 0.0) == 0.0
    eta = 0.5
    f = profile(case, eta)
    assert profile_derivative(case, eta) == pytest.approx(-eta / f)


def test_profile_derivative_blows_up_near_boundary():
    case = make_case("2a")
    slopes = [abs(profile_derivative(case, 1.0 - 10.0 ** (-k))) for k in (3, 5, 7)]
    assert slopes[0] < slopes[1] < slopes[2]
    assert slopes[2] > 1e3


def test_profile_derivative_boundary_error():
    case = make_case("2a")
    with pytest.raises(SupportBoundaryError):
        profile_derivative(case, 1.0)
    with pytest.raises(SupportBoundaryError):
        profile_derivative(case, 1.5)


# ----------------------------------------------------------------------
# fields along a trajectory
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def traj_2a():
    return integrate(EmdenParams(xi=1.0, a0=1.0, a1=0.0), s_end=10.0)


def test_density_center_2a(case_2a):
    case, traj, _ = case_2a
    assert density(case, traj, 0.0, 0.0) == pytest.approx(1.0)


def test_density_sign_cancellation_1b(case_1b):
    # f(0) = -alpha and cbrt(a0) = -1: the double negation gives +alpha.
    case, traj, _ = case_1b
    assert density(case, traj, 0.0, 0.0) == pytest.approx(case.alpha)


def test_density_zero_outside_support(case_2a):
    case, traj, _ = case_2a
    assert density(case, traj, 0.0, 1.5) == 0.0
    assert density(case, traj, 0.0, -2.0) == 0.0


def test_density_time_range_checked(case_2a):
    case, traj, _ = case_2a
    with pytest.raises(TimeOutOfRange):
        density(case, traj, traj.s_max, 0.0)  # t = s_max maps to s = 3 s_max
    with pytest.raises(TimeOutOfRange):
        density(case, traj, -0.1, 0.0)


def test_velocity_linear_and_odd(case_2a):
    case, traj, _ = case_2a
    t = 0.4
    assert velocity(case, traj, t, 0.0) == 0.0
    u1 = velocity(case, traj, t, 0.7)
    assert velocity(case, traj, t, 1.4) == pytest.approx(2.0 * u1, rel=1e-14)
    assert velocity(case, traj, t, -0.7) == pytest.approx(-u1, rel=1e-14)


def test_velocity_zero_at_t0_when_a1_zero(case_2a):
    case, traj, _ = case_2a
    assert velocity(case, traj, 0.0, 5.0) == 0.0


def test_velocity_slope_diverges_toward_collapse(case_1a):
    # u/x = a'/a -> -infinity as 3t -> S^-
    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    c1 = velocity(case, traj, 0.90 * S / 3.0, 1.0)
    c2 = velocity(case, traj, 0.999 * S / 3.0, 1.0)
    assert c2 < c1 < 0.0
    assert c2 < -50.0


def test_support_2a_initial(case_2a):
    case, traj, _ = case_2a
    lo, hi = support(case, traj, 0.0)
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(1.0)


def test_support_spreads_for_growth(case_2a):
    case, traj, _ = case_2a
    radii = [support(case, traj, t)[1] for t in (0.0, 0.5, 1.5, 3.0)]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_support_shrinks_toward_collapse(case_1a):
    case, traj, report = case_1a
    S = report.s_collapse_quadrature
    radii = [support(case, traj, f * S / 3.0)[1] for f in (0.0, 0.5, 0.85)]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_support_none_on_full_line(case_1b, case_2b):
    for case, traj, _ in (case_1b, case_2b):
        assert support(case, traj, 0.1) is None


def test_sample_bundles_fields(case_2a):
    case, traj, _ = case_2a
    fs = sample(case, traj, 0.3, 0.2)
    assert fs.rho == pytest.approx(density(case, traj, 0.3, 0.2))
    assert fs.u == pytest.approx(velocity(case, traj, 0.3, 0.2))


def test_field_sample_rejects_negative_density():
    with pytest.raises(ValueError, match="nonnegative"):
        FieldSample(t=0.0, x=0.0, rho=-1e-3, u=0.0)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

CASE_IDS = ("1a", "1b", "2a", "2b")


@settings(max_examples=40, deadline=None)
@given(
    case_id=st.sampled_from(CASE_IDS),
    alpha=st.floats(0.0, 3.0),
    xi_mag=st.floats(0.3, 4.0),
    eta=st.floats(-5.0, 5.0),
)
def test_profile_even(case_id, alpha, xi_mag, eta):
    case = make_case(case_id, alpha=alpha, xi_mag=xi_mag)
    assert profile(case, eta) == profile(case, -eta)


@settings(max_examples=40, deadline=None)
@given(
    case_id=st.sampled_from(CASE_IDS),
    alpha=st.floats(0.1, 3.0),
    xi_mag=st.floats(0.3, 4.0),
    frac=st.floats(-0.999, 0.999),
)
def test_profile_ode_residual(case_id, alpha, xi_mag, frac):
    """(xi/sigma) eta + f f' = 0 strictly inside the support."""
    case = make_case(case_id, alpha=alpha, xi_mag=xi_mag)
    eta_b = case.eta_boundary if case.compact else 5.0
    eta = frac * eta_b
    if eta == 0.0:
        return
    f = profile(case, eta)
    fp = profile_derivative(case, eta)
    resid = (case.emden.xi / case.sigma) * eta + f * fp
    assert abs(resid) <= 1e-12 * max(1.0, profile(case, 0.0) ** 2)


@settings(max_examples=30, deadline=None)
@given(
    case_id=st.sampled_from(CASE_IDS),
    alpha=st.floats(0.0, 2.0),
    x=st.floats(-3.0, 3.0),
    t_frac=st.floats(0.0, 0.8),
)
def test_density_nonnegative(case_id, alpha, x, t_frac, all_trajectories):
    traj, report = all_trajectories[case_id]
    case = make_case(case_id, alpha=alpha, xi_mag=abs(traj.params.xi))
    if report.s_collapse_quadrature is not None:
        t = t_frac * report.s_collapse_quadrature / 3.0
    else:
        t = t_frac
    assert density(case, traj, t, x) >= 0.0


@settings(max_examples=20, deadline=None)
@given(
    case_id=st.sampled_from(CASE_IDS),
    eta=st.floats(-0.9, 0.9),
    f1=st.floats(0.0, 0.8),
    f2=st.floats(0.0, 0.8),
)
def test_self_similarity_invariance(case_id, eta, f1, f2, all_trajectories):
    """a^{1/3} rho at fixed eta is the same number at every time."""
    traj, report = all_trajectories[case_id]
    case = make_case(case_id, xi_mag=abs(traj.params.xi))
    if report.s_collapse_quadrature is not None:
        horizon = report.s_collapse_quadrature / 3.0
    else:
        horizon = traj.s_max / 3.0
    vals = []
    for f in (f1, f2):
        t = f * horizon
        a = traj.eval(3.0 * t).a
        cb = float(np.cbrt(a))
        vals.append(density(case, traj, t, eta * cb) * cb)
    assert vals[0] == pytest.approx(vals[1], rel=1e-9, abs=1e-12)
