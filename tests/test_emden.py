"""Scale-factor ODE: right-hand side, energy, collapse times, classification.

Collapse times are cross-checked against an oracle that integrates
ds = da / sqrt(2 theta + xi a^{2/3}) directly in the original variable,
with no substitution -- a route fully independent of both the event
detector and the closed form used by the library.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from ch2exact import (
    BlowupReport,
    Classification,
    CollapseSingularity,
    EmdenParams,
    EmdenState,
    IntegrationFailure,
    analyze,
    classify,
    collapse_time_quadrature,
    detect_collapse,
    energy,
    growth_asymptote,
    integrate,
    rhs,
)
from ch2exact.emden import _fall_time

# Frozen expected values.
SQRT3_PI_OVER_4 = 1.3603495231756633  # sqrt(3) * pi / 4
RATE_LIMIT_XI_M3 = 0.8326831776556043  # 3^(-1/6) = 1/(2 theta)^{1/6} at theta = 3/2


def direct_collapse_time(xi: float, a0: float, a1: float) -> float:
    """Oracle: collapse time by quadrature in the original variable a.

    Uses the first integral a'^2 = 2 theta + xi |a|^{2/3} and sums the
    monotone legs of |a|(s).  The 1/sqrt endpoint singularities are left
    to the adaptive quadrature (accurate enough for 1e-8 comparisons).
    """
    b0 = abs(a0)
    b1 = a1 if a0 > 0 else -a1
    theta = 0.5 * b1 * b1 - 0.5 * xi * b0 ** (2.0 / 3.0)

    def speed(b):
        return math.sqrt(max(2.0 * theta + xi * b ** (2.0 / 3.0), 0.0))

    def leg(lo, hi):
        val, _ = quad(lambda b: 1.0 / speed(b), lo, hi,
                      epsabs=1e-12, epsrel=1e-10, limit=200)
        return val

    if b1 <= 0.0:
        return leg(0.0, b0)
    b_turn = (-2.0 * theta / xi) ** 1.5
    return leg(b0, b_turn) + leg(0.0, b_turn)


# ----------------------------------------------------------------------
# rhs / energy
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "xi,a,expected",
    [(3.0, 1.0, 1.0), (3.0, -1.0, -1.0), (-3.0, 8.0, -0.5)],
)
def test_rhs_values(xi, a, expected):
    p = EmdenParams(xi=xi, a0=1.0 if a > 0 else -1.0, a1=0.0)
    assert rhs(p, EmdenState(0.0, a, 0.0)) == pytest.approx(expected, abs=1e-15)


def test_rhs_singular_at_zero():
    p = EmdenParams(xi=3.0, a0=1.0)
    with pytest.raises(CollapseSingularity):
        rhs(p, EmdenState(1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "xi,a,a_dot,expected",
    [(-3.0, 1.0, 0.0, 1.5), (2.0, 1.0, 2.0, 1.0)],
)
def test_energy_values(xi, a, a_dot, expected):
    p = EmdenParams(xi=xi, a0=a, a1=a_dot)
    assert energy(p, EmdenState(0.0, a, a_dot)) == pytest.approx(expected, abs=1e-15)
    assert p.theta == pytest.approx(expected, abs=1e-15)


def test_energy_even_in_a():
    p = EmdenParams(xi=-3.0, a0=1.0)
    s1 = EmdenState(0.0, 0.7, 0.3)
    s2 = EmdenState(0.0, -0.7, 0.3)
    assert energy(p, s1) == energy(p, s2)


def test_params_validation():
    with pytest.raises(ValueError, match="xi != 0"):
        EmdenParams(xi=0.0, a0=1.0)
    with pytest.raises(ValueError, match="a0 != 0"):
        EmdenParams(xi=1.0, a0=0.0)
    with pytest.raises(ValueError):
        EmdenParams(xi=float("nan"), a0=1.0)


@pytest.mark.parametrize("field", ["xi", "a0", "a1"])
def test_params_reject_bool(field):
    # bool is an int subclass, so True would otherwise pass as the number 1.
    values = {"xi": 1.0, "a0": 1.0, "a1": 0.0, field: True}
    with pytest.raises(ValueError, match=f"{field} must be a finite real, got True"):
        EmdenParams(**values)


# ----------------------------------------------------------------------
# integrate
# ----------------------------------------------------------------------

def test_growth_monotone():
    # xi > 0, a1 = 0: acceleration is positive, so a increases for s > 0.
    traj = integrate(EmdenParams(xi=1.0, a0=1.0, a1=0.0), s_end=5.0)
    a_vals = traj.a.tolist()
    assert all(b > a for a, b in zip(a_vals, a_vals[1:]))
    assert not traj.collapsed


def test_collapse_halts_near_exact_time():
    traj = integrate(EmdenParams(xi=-3.0, a0=1.0, a1=0.0), s_end=2.0)
    assert traj.collapsed
    assert abs(traj.a[-1]) <= 1e-10 * 1.0 + 1e-12
    assert traj.s_max == pytest.approx(SQRT3_PI_OVER_4, abs=1e-6)


def test_integrate_argument_validation():
    p = EmdenParams(xi=1.0, a0=1.0)
    with pytest.raises(ValueError):
        integrate(p, s_end=0.0)
    with pytest.raises(ValueError):
        integrate(p, s_end=1.0, tol=-1e-10)


def test_integration_failure_carries_state():
    err = IntegrationFailure("boom", EmdenState(1.0, 0.5, -0.1))
    assert err.last_state.a == 0.5


def test_interpolant_reproduces_nodes_exactly():
    traj = integrate(EmdenParams(xi=-3.0, a0=1.0, a1=0.5), s_end=2.0)
    for node in map(traj.state, range(len(traj.s))):
        got = traj.eval(node.s)
        assert got.a == node.a and got.a_dot == node.a_dot


def test_interpolant_accuracy_between_nodes():
    # Coarse-tolerance dense output vs a tight reference run at midpoints.
    p = EmdenParams(xi=-3.0, a0=1.0, a1=0.0)
    coarse = integrate(p, s_end=1.2, tol=1e-8)
    ref = integrate(p, s_end=1.2, tol=1e-13)
    nodes = coarse.s.tolist()
    mids = [(lo + hi) / 2.0 for lo, hi in zip(nodes, nodes[1:]) if hi <= ref.s_max]
    for s in mids[:-1]:
        assert coarse.eval(s).a == pytest.approx(ref.eval(s).a, abs=1e-6)


def test_eval_range_checked():
    traj = integrate(EmdenParams(xi=1.0, a0=1.0), s_end=1.0)
    with pytest.raises(ValueError):
        traj.eval(-0.5)
    with pytest.raises(ValueError):
        traj.eval(traj.s_max * 1.01)
    with pytest.raises(ValueError):
        traj.eval_many([0.0, traj.s_max + 1.0])


def test_growth_event_stops_integration():
    traj = integrate(EmdenParams(xi=4.0, a0=1.0, a1=0.0), s_end=1e4, stop_abs_a=50.0)
    assert traj.a[-1] == pytest.approx(50.0, rel=1e-9)
    assert traj.s_max < 1e4


# ----------------------------------------------------------------------
# classification and collapse times
# ----------------------------------------------------------------------

def test_classify_sign_table():
    assert classify(EmdenParams(xi=-1.0, a0=1.0, a1=5.0)) is Classification.COLLAPSE
    assert classify(EmdenParams(xi=1.0, a0=-1.0, a1=0.0)) is Classification.GLOBAL
    # xi > 0 with an inward slope collapses when theta >= 0 and turns when theta < 0.
    assert classify(EmdenParams(xi=1.0, a0=1.0, a1=-10.0)) is Classification.COLLAPSE
    assert classify(EmdenParams(xi=1.0, a0=-1.0, a1=1.0)) is Classification.COLLAPSE
    assert classify(EmdenParams(xi=1.0, a0=1.0, a1=-0.5)) is Classification.GLOBAL
    assert classify(EmdenParams(xi=1.0, a0=1.0, a1=10.0)) is Classification.GLOBAL


def test_collapse_time_monotone_case():
    s = collapse_time_quadrature(EmdenParams(xi=-3.0, a0=1.0, a1=0.0))
    assert s == pytest.approx(SQRT3_PI_OVER_4, rel=1e-9)
    oracle = direct_collapse_time(-3.0, 1.0, 0.0)
    assert s == pytest.approx(oracle, rel=1e-8)


def test_collapse_time_mirrored_case():
    s_pos = collapse_time_quadrature(EmdenParams(xi=-3.0, a0=1.0, a1=0.0))
    s_neg = collapse_time_quadrature(EmdenParams(xi=-3.0, a0=-1.0, a1=0.0))
    assert s_neg == s_pos


def test_collapse_time_split_orbit():
    # Outward start: leg to the turning point plus a full half-orbit down.
    p = EmdenParams(xi=-3.0, a0=1.0, a1=1.0)
    s = collapse_time_quadrature(p)
    oracle = direct_collapse_time(-3.0, 1.0, 1.0)
    assert s == pytest.approx(oracle, rel=1e-8)
    assert s > collapse_time_quadrature(EmdenParams(xi=-3.0, a0=1.0, a1=0.0))


def test_collapse_time_requires_negative_xi():
    with pytest.raises(ValueError):
        collapse_time_quadrature(EmdenParams(xi=1.0, a0=1.0))
    # An inward xi > 0 orbit needs theta >= 0 to collapse.
    with pytest.raises(ValueError):
        collapse_time_quadrature(EmdenParams(xi=1.0, a0=1.0, a1=-0.5))


@pytest.mark.parametrize("xi,a0,a1", [
    (3.0, 1.0, -5.0),         # theta = 11, psi = 0.36 (the series branch)
    (2.0, -1.0, 1.5),         # theta = 0.125, psi = 1.76, a0 < 0
    (0.5, 8.0, -20.0),        # theta = 199 against xi |a0|^{2/3} = 2: psi = 0.07
    (40.0, 0.01, -3.0),       # psi = 0.49, just below the series threshold
])
def test_inward_xi_positive_orbit_collapses(xi, a0, a1):
    # An inward slope with theta >= 0 drives |a| to zero although xi > 0;
    # both routes give its S, and the closed form matches the plain-variable
    # oracle.
    p = EmdenParams(xi=xi, a0=a0, a1=a1)
    assert classify(p) is Classification.COLLAPSE
    traj, report = analyze(p)
    assert traj.collapsed and report.classification is Classification.COLLAPSE
    s_quad = report.s_collapse_quadrature
    assert s_quad == pytest.approx(direct_collapse_time(xi, a0, a1), rel=1e-7)
    assert abs(report.s_collapse_numeric - s_quad) <= 1e-9 * s_quad
    assert report.a_turning is None


def test_zero_energy_inward_orbit_collapses_at_1_5():
    # theta = 0: a^{2/3} = 1 - (2/3) s, so S = 1.5, and a' tends to zero at
    # collapse, where the linear remainder |a| / sqrt(2 theta) is undefined.
    p = EmdenParams(xi=1.0, a0=1.0, a1=-1.0)
    assert p.theta == 0.0 and classify(p) is Classification.COLLAPSE
    assert collapse_time_quadrature(p) == 1.5
    traj, report = analyze(p)
    assert report.s_collapse_quadrature == 1.5
    assert report.s_collapse_numeric == pytest.approx(1.5, rel=1e-9)
    last = traj.state(-1)
    remainder = detect_collapse(traj) - last.s
    assert remainder == pytest.approx(1.5 * abs(last.a) ** (2.0 / 3.0), rel=1e-6)


def test_inward_time_series_and_closed_form_agree():
    # The closed forms switch to the shared Taylor series at an angle of 0.5;
    # both sides of the switch, for both signs of xi, match a direct
    # quadrature of the reduced integral.
    b = 1.0
    for xi, angle in itertools.product((2.0, -2.0), (1e-6, 0.1, 0.499, 0.501, 1.2)):
        g = math.sqrt(abs(xi) / 2.0) * b
        if xi > 0:
            theta = (g / math.sinh(angle)) ** 2
            v = math.sqrt(2.0 * (theta + g * g))
        else:
            theta = (g / math.sin(angle)) ** 2
            v = math.sqrt(2.0) * g / math.tan(angle)
        direct, _ = quad(lambda G: G * G / math.sqrt(theta + math.copysign(G * G, xi)), 0.0, g,
                         epsabs=0.0, epsrel=1e-13)
        assert _fall_time(xi, b, v) == pytest.approx(6.0 / abs(xi) ** 1.5 * direct, rel=1e-13)


def test_global_orbit_reaching_the_stop_event_is_an_error():
    # theta = -1.1e-16: the orbit turns at |a| ~ 3e-24, below the stop
    # level 1e-10 |a0|, so the integrator stops although the orbit is global.
    p = EmdenParams(xi=1.0, a0=1.0, a1=-math.nextafter(1.0, 0.0))
    assert p.theta < 0.0 and classify(p) is Classification.GLOBAL
    with pytest.raises(IntegrationFailure, match="global orbit reached the collapse stop event"):
        analyze(p)


@settings(max_examples=60, deadline=None)
@given(xi_sign=st.sampled_from([-1.0, 1.0]), xi_dec=st.floats(-6.0, 6.0),
       a0_sign=st.sampled_from([-1.0, 1.0]), a0_dec=st.floats(-6.0, 6.0),
       u=st.floats(-2.0, 2.0))
def test_analyze_label_matches_the_trajectory(xi_sign, xi_dec, a0_sign, a0_dec, u):
    # |xi| and |a0| over twelve decades, slopes on both sides of theta = 0:
    # a returned report is Collapse exactly when its trajectory stopped at
    # a = 0, and then both routes give S.
    xi, a0 = xi_sign * 10.0 ** xi_dec, a0_sign * 10.0 ** a0_dec
    p = EmdenParams(xi=xi, a0=a0, a1=u * math.sqrt(abs(xi)) * abs(a0) ** (1.0 / 3.0))
    try:
        traj, report = analyze(p)
    except IntegrationFailure:
        return
    assert report.classification is classify(p)
    assert traj.collapsed == (report.classification is Classification.COLLAPSE)
    if traj.collapsed:
        assert report.s_collapse_quadrature > 0.0
        assert report.s_collapse_numeric == pytest.approx(report.s_collapse_quadrature,
                                                          rel=1e-6)


def test_detect_collapse_matches_quadrature():
    p = EmdenParams(xi=-3.0, a0=1.0, a1=0.0)
    traj = integrate(p, s_end=2.0)
    s_num = detect_collapse(traj)
    assert s_num is not None
    assert abs(s_num - SQRT3_PI_OVER_4) <= 1e-6


def test_detect_collapse_split_orbit():
    p = EmdenParams(xi=-3.0, a0=1.0, a1=1.0)
    traj = integrate(p, s_end=5.0)
    s_num = detect_collapse(traj)
    assert abs(s_num - collapse_time_quadrature(p)) <= 1e-6


def test_detect_collapse_none_for_global():
    traj = integrate(EmdenParams(xi=1.0, a0=1.0, a1=0.0), s_end=5.0)
    assert detect_collapse(traj) is None


def test_growth_asymptote_unit_constant():
    # k = (4 xi / 9)^{3/4} = 1 at xi = 9/4.
    traj = integrate(EmdenParams(xi=2.25, a0=1.0, a1=0.0), s_end=1e3)
    assert growth_asymptote(traj) == pytest.approx(1.0, rel=1e-2)


def test_growth_asymptote_sign_follows_a0():
    traj = integrate(EmdenParams(xi=2.25, a0=-1.0, a1=0.0), s_end=1e3)
    assert growth_asymptote(traj) == pytest.approx(-1.0, rel=1e-2)


def test_growth_asymptote_requires_positive_xi():
    traj = integrate(EmdenParams(xi=-3.0, a0=1.0), s_end=1.0)
    with pytest.raises(ValueError):
        growth_asymptote(traj)


# ----------------------------------------------------------------------
# analyze / BlowupReport
# ----------------------------------------------------------------------

def test_analyze_collapse_report():
    traj, report = analyze(EmdenParams(xi=-3.0, a0=1.0, a1=0.0))
    assert report.classification is Classification.COLLAPSE
    assert report.theta == pytest.approx(1.5)
    assert report.s_collapse_quadrature == pytest.approx(SQRT3_PI_OVER_4, rel=1e-9)
    assert abs(report.s_collapse_numeric - report.s_collapse_quadrature) <= 1e-6
    assert report.a_turning is None  # monotone approach, no interior extremum
    assert report.rate_limit_estimate == pytest.approx(RATE_LIMIT_XI_M3, rel=1e-2)


def test_analyze_global_report():
    traj, report = analyze(EmdenParams(xi=1.0, a0=1.0, a1=0.0), s_end=10.0)
    assert report.classification is Classification.GLOBAL
    assert report.s_collapse_numeric is None
    assert report.s_collapse_quadrature is None
    assert report.rate_limit_estimate is None


def test_analyze_reports_turning_point():
    # a1 > 0 with xi < 0: |a| rises to (-2 theta / xi)^{3/2} before falling.
    p = EmdenParams(xi=-3.0, a0=1.0, a1=1.0)
    traj, report = analyze(p)
    expected = (-2.0 * p.theta / p.xi) ** 1.5
    assert report.a_turning == pytest.approx(expected, rel=1e-12)
    a_vals, _ = traj.eval_many(np.linspace(0.0, traj.s_max, 4001))
    assert float(np.max(a_vals)) == pytest.approx(expected, rel=1e-5)


def test_blowup_report_field_consistency():
    with pytest.raises(ValueError):
        BlowupReport(classification=Classification.COLLAPSE, theta=1.0)
    with pytest.raises(ValueError):
        BlowupReport(
            classification=Classification.GLOBAL,
            theta=1.0,
            s_collapse_numeric=1.0,
            s_collapse_quadrature=1.0,
        )
    with pytest.raises(IntegrationFailure):
        BlowupReport(
            classification=Classification.COLLAPSE,
            theta=1.0,
            s_collapse_numeric=1.0,
            s_collapse_quadrature=1.0 + 1e-3,
        )


def test_long_orbit_passes_the_relative_s_agreement():
    # S = 54.35 on an orbit that starts at rest.  An absolute 1e-6 bound
    # rejected it when S came from a quadrature whose asin start lost 1.5e-6
    # of it; the closed form and DOP853 agree to well within 1e-9 of S.
    _, report = analyze(EmdenParams(xi=-0.0404969088912777, a0=10.0, a1=0.0))
    s_quad = report.s_collapse_quadrature
    gap = abs(report.s_collapse_numeric - s_quad)
    assert s_quad == pytest.approx(54.3459, rel=1e-5)
    assert gap <= 1e-9 * s_quad


def test_orbit_at_rest_collapses_after_a_quarter_cycloid():
    # a1 = 0 puts the start at the top of the cycloid, phi = pi / 2, so
    # S = c theta pi / 4 = 0.75 pi |a0|^{2/3} / sqrt|xi| exactly.  An asin
    # start at 1 - O(eps) lost up to 2.7e-8 of S on such orbits.
    rng = np.random.default_rng(20261018)
    for xi_dec, a0_dec, a0_sign in zip(rng.uniform(-6.0, 6.0, 300), rng.uniform(-6.0, 6.0, 300),
                                       rng.choice([-1.0, 1.0], 300)):
        xi, a0 = -(10.0 ** xi_dec), a0_sign * 10.0 ** a0_dec
        expected = 0.75 * math.pi * abs(a0) ** (2.0 / 3.0) / math.sqrt(-xi)
        s = collapse_time_quadrature(EmdenParams(xi=xi, a0=a0, a1=0.0))
        assert s == pytest.approx(expected, rel=1e-13, abs=0.0)


@settings(max_examples=300, deadline=None)
@given(xi_sign=st.sampled_from([-1.0, 1.0]), xi_dec=st.floats(-6.0, 6.0),
       a0_sign=st.sampled_from([-1.0, 1.0]), a0_dec=st.floats(-6.0, 6.0),
       u=st.one_of(st.just(0.0), st.just(-1.0), st.floats(-3.0, 3.0)),
       k=st.integers(-6, 6), m=st.integers(-20, 20))
@example(xi_sign=1.0, xi_dec=0.0, a0_sign=1.0, a0_dec=0.0, u=-1.0, k=1, m=1)  # theta = 0
def test_collapse_time_scales_exactly(xi_sign, xi_dec, a0_sign, a0_dec, u, k, m):
    # a -> lam a(s / mu) maps orbits to orbits when xi -> xi lam^{4/3} / mu^2,
    # so S -> mu S.  lam = 8^k and mu = 2^m make the scaled data exact.
    # u is the slope in units of sqrt|xi| |a0|^{1/3}, positive outward;
    # u = -1 is the theta = 0 boundary of the xi > 0 collapse orbits.
    xi, a0 = xi_sign * 10.0 ** xi_dec, a0_sign * 10.0 ** a0_dec
    p = EmdenParams(xi=xi, a0=a0, a1=a0_sign * u * math.sqrt(abs(xi)) * abs(a0) ** (1.0 / 3.0))
    lam, mu = 8.0 ** k, 2.0 ** m
    scaled = EmdenParams(xi=xi * 16.0 ** k / mu ** 2, a0=lam * p.a0, a1=lam * p.a1 / mu)
    assume(classify(p) is Classification.COLLAPSE)
    assert classify(scaled) is Classification.COLLAPSE
    s = collapse_time_quadrature(p)
    assert collapse_time_quadrature(scaled) == pytest.approx(mu * s, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s_quad", [1e-3, 1.0, 54.35, 1e4])
def test_s_agreement_is_relative_to_s(s_quad):
    def report(gap):
        return BlowupReport(classification=Classification.COLLAPSE, theta=1.0,
                            s_collapse_numeric=s_quad * (1.0 + gap),
                            s_collapse_quadrature=s_quad)

    report(0.5e-6)
    with pytest.raises(IntegrationFailure, match="disagree by 2.000e-06 of S"):
        report(2e-6)


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------

signs = st.sampled_from([-1.0, 1.0])
magnitudes = st.floats(0.3, 3.0)
slopes = st.floats(-2.0, 2.0)


@settings(max_examples=25, deadline=None)
@given(xi_mag=st.floats(0.3, 4.0), xi_sign=signs, a0_mag=magnitudes, a0_sign=signs, a1=slopes)
def test_energy_conserved_along_trajectory(xi_mag, xi_sign, a0_mag, a0_sign, a1):
    p = EmdenParams(xi=xi_sign * xi_mag, a0=a0_sign * a0_mag, a1=a1)
    traj = integrate(p, s_end=2.0)
    e0 = p.theta
    bound = 10.0 * 1e-10 * (1.0 + abs(e0))
    for state in map(traj.state, range(len(traj.s))):
        assert abs(energy(p, state) - e0) <= bound


@settings(max_examples=25, deadline=None)
@given(xi_mag=st.floats(0.3, 4.0), xi_sign=signs, a0_mag=magnitudes, a0_sign=signs, a1=slopes)
def test_sign_of_a_never_flips(xi_mag, xi_sign, a0_mag, a0_sign, a1):
    """Integration halts at the stop level before any zero crossing."""
    p = EmdenParams(xi=xi_sign * xi_mag, a0=a0_sign * a0_mag, a1=a1)
    traj = integrate(p, s_end=3.0)
    assert np.all(traj.a * p.a0 > 0.0)


@settings(max_examples=20, deadline=None)
@given(xi_mag=st.floats(0.3, 4.0), a0_mag=magnitudes, a1=slopes)
def test_odd_symmetry(xi_mag, a0_mag, a1):
    p = EmdenParams(xi=-xi_mag, a0=a0_mag, a1=a1)
    t1 = integrate(p, s_end=2.0)
    t2 = integrate(p.mirrored(), s_end=2.0)
    s_hi = min(t1.s_max, t2.s_max)
    for s in np.linspace(0.0, s_hi, 9):
        u, v = t1.eval(s), t2.eval(s)
        assert abs(u.a + v.a) <= 1e-12 * max(1.0, abs(u.a))
        assert abs(u.a_dot + v.a_dot) <= 1e-12 * max(1.0, abs(u.a_dot))


@settings(max_examples=20, deadline=None)
@given(xi_mag=st.floats(0.3, 4.0), a0_mag=magnitudes, a0_sign=signs, a1=slopes)
def test_dichotomy_collapse_branch(xi_mag, a0_mag, a0_sign, a1):
    """Every xi < 0 orbit reaches a = 0 in finite time, any initial slope."""
    p = EmdenParams(xi=-xi_mag, a0=a0_sign * a0_mag, a1=a1)
    traj, report = analyze(p)
    assert traj.collapsed
    assert report.s_collapse_numeric is not None
    assert math.isfinite(report.s_collapse_numeric)


@settings(max_examples=15, deadline=None)
@given(
    xi_mag=st.floats(0.5, 4.0),
    a0_mag=magnitudes,
    a0_sign=signs,
    a1_out=st.floats(0.0, 2.0),
)
def test_dichotomy_global_branch(xi_mag, a0_mag, a0_sign, a1_out):
    # xi > 0 with outward (or zero) slope: |a| grows without bound.
    b1 = a1_out if a0_sign > 0 else -a1_out
    p = EmdenParams(xi=xi_mag, a0=a0_sign * a0_mag, a1=b1)
    target = 1e3 * abs(p.a0)
    traj = integrate(p, s_end=1e4, stop_abs_a=target)
    assert abs(traj.a[-1]) >= target * (1.0 - 1e-9)


@pytest.mark.parametrize("xi", [-0.5, -3.0])
@pytest.mark.parametrize("a0", [1.0, -2.0])
@pytest.mark.parametrize("a1", [-1.0, 0.0, 2.0])
def test_quadrature_ode_agreement_grid(xi, a0, a1):
    """Both collapse-time routes agree to 1e-6 across a parameter grid."""
    p = EmdenParams(xi=xi, a0=a0, a1=a1)
    s_quad = collapse_time_quadrature(p)
    traj = integrate(p, s_end=1.25 * s_quad)
    s_num = detect_collapse(traj)
    assert abs(s_num - s_quad) <= 1e-6
    # The plain-variable oracle carries ~1e-8 error of its own at the
    # inverse-square-root endpoint, so compare a notch looser.
    assert s_quad == pytest.approx(direct_collapse_time(xi, a0, a1), rel=1e-7)
