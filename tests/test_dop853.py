"""The in-tree DOP853 and Gauss-Kronrod rule against scipy, bit for bit.

``ch2exact`` does not import scipy at run time: the scale-factor ODE goes
through ``ch2exact._dop853`` and both quadratures through
``ch2exact._quadrature``.  These tests keep scipy as the oracle.  On orbits
drawn over many decades of ``|xi|`` and ``|a0|``, every slope and every
tolerance, the port must return the same doubles as
``scipy.integrate.solve_ivp(method="DOP853")``: nodes, states, status,
event times, dense output and warnings.  The port steps a batch of orbits
in lockstep, and every orbit of a batch must get what solve_ivp gives it
alone.  The rule must equal ``scipy.integrate.quad`` on the package's two
integrands, which ``quad`` settles with one 21-point evaluation.
"""

import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq as scipy_brentq

from ch2exact import EmdenParams, EmdenState, IntegrationFailure, SolutionCase, analyze, integrate
from ch2exact import _dop853
from ch2exact._quadrature import gauss_kronrod21
from ch2exact.emden import REL_STOP, analyze_many, integrate_many, orbit_time_integral
from ch2exact.selfsim import density, support
from ch2exact.verify import mass

EPS = np.finfo(float).eps

signs = st.sampled_from([-1.0, 1.0])
decades = st.floats(-6.0, 6.0)
slopes = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
tols = st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12, 1e-15])
horizons = st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)
growth_stops = st.one_of(st.none(), st.floats(0.01, 3.0))


def orbit(xi_sign, xi_dec, a0_sign, a0_dec, u):
    """EmdenParams with slope a1 = u sqrt|xi| |a0|^{1/3} (u = 0: at rest)."""
    xi = xi_sign * 10.0 ** xi_dec
    a0 = a0_sign * 10.0 ** a0_dec
    return EmdenParams(xi, a0, u * math.sqrt(abs(xi)) * abs(a0) ** (1.0 / 3.0))


def problem(params, stop_abs_a):
    """Right-hand side and (event, direction) pairs, as emden.integrate built them for scipy."""
    xi, a0 = params.xi, params.a0
    sgn = 1.0 if a0 > 0 else -1.0
    stop_level = REL_STOP * abs(a0)

    def f(s, y):
        return np.array((y[1], xi / (3.0 * np.cbrt(y[0]))))

    events = [(lambda s, y: sgn * y[0] - stop_level, -1.0)]
    if stop_abs_a is not None:
        events.append((lambda s, y: sgn * y[0] - stop_abs_a, 1.0))
    return f, events


def batch_problem(params, stops):
    """The same orbits as one batch for _dop853.solve; a missing growth stop is unreachable."""
    xi = np.array([p.xi for p in params])
    sgn = np.array([1.0 if p.a0 > 0 else -1.0 for p in params])
    stop_level = np.array([REL_STOP * abs(p.a0) for p in params])

    def f(s, y, i, out):
        out[:] = np.stack((y[:, 1], xi[i] / (3.0 * np.cbrt(y[:, 0]))), axis=1)

    events = [(lambda s, y, i: sgn[i] * y[:, 0] - stop_level[i], -1.0)]
    if any(stop is not None for stop in stops):
        growth = np.array([math.inf if stop is None else stop for stop in stops])
        events.append((lambda s, y, i: sgn[i] * y[:, 0] - growth[i], 1.0))
    return f, events


def tolerances(params, tol):
    """(rtol, atol) as emden.integrate derives them."""
    return tol, tol * 1e-4 * max(abs(params.a0), abs(params.a1), 1.0)


def scipy_events(events):
    out = []
    for g, direction in events:
        def event(s, y, g=g):
            return g(s, y)
        event.terminal = True
        event.direction = direction
        out.append(event)
    return out


def outcome(call):
    """(result, exception text or None, warning messages) of call()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = call(), None
        except Exception as exc:  # compared verbatim between the two sides
            result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, [str(w.message) for w in caught]


def probe_points(ts, count=17):
    """Nodes, both endpoints and points strictly between nodes."""
    inner = np.linspace(ts[0], ts[-1], count)
    mids = 0.5 * (ts[:-1] + ts[1:])
    return np.concatenate([ts, inner, mids, [ts[0], ts[-1]]])


def scipy_outcome(params, s_end, tol, stop_abs_a):
    """(result, exception text, warnings) of solve_ivp on one orbit."""
    f, events = problem(params, stop_abs_a)
    rtol, atol = tolerances(params, tol)
    return outcome(lambda: solve_ivp(
        f, (0.0, s_end), [params.a0, params.a1], method="DOP853", rtol=rtol, atol=atol,
        dense_output=True, events=scipy_events(events)))


def assert_matches_scipy(res, ref):
    """One orbit's OdeResult equals solve_ivp's on everything both report."""
    assert res.status == ref.status
    if ref.status == -1:
        assert res.message == ref.message
    assert np.array_equal(res.t, ref.t)
    assert np.array_equal(res.y, ref.y)
    # A batch with a growth stop gives every orbit that event; it never
    # fires where the orbit has none.
    assert len(res.t_events) >= len(ref.t_events)
    for mine, theirs in zip(res.t_events, ref.t_events):
        assert np.array_equal(mine, theirs)
    assert all(te.size == 0 for te in res.t_events[len(ref.t_events):])
    # scipy builds every step's interpolant (3 extra stages each); the
    # port builds only the event step's during integration.
    assert ref.nfev == res.nfev + 3 * (res.n_accepted - (res.status == 1))

    pts = probe_points(ref.t)
    assert np.array_equal(res.sol(pts), ref.sol(pts))
    assert np.array_equal(res.sol(pts[::-1]), ref.sol(pts[::-1]))
    for s in pts[::5]:
        assert np.array_equal(res.sol(float(s)), ref.sol(float(s)))


@settings(max_examples=60, deadline=None)
@given(xi_sign=signs, xi_dec=decades, a0_sign=signs, a0_dec=decades, u=slopes,
       tol=tols, s_end=horizons, growth=growth_stops)
def test_solver_matches_solve_ivp(xi_sign, xi_dec, a0_sign, a0_dec, u, tol, s_end, growth):
    params = orbit(xi_sign, xi_dec, a0_sign, a0_dec, u)
    stop_abs_a = None if growth is None else abs(params.a0) * 10.0 ** growth
    f, events = batch_problem([params], [stop_abs_a])
    rtol, atol = tolerances(params, tol)

    ref, ref_err, ref_warn = scipy_outcome(params, s_end, tol, stop_abs_a)
    res, err, warn = outcome(lambda: _dop853.solve(
        f, 0.0, s_end, [[params.a0, params.a1]], rtol=rtol, atol=atol, events=events)[0])

    assert err == ref_err
    assert warn == ref_warn
    if tol < 100 * EPS:
        assert any("`rtol` is too small" in w for w in warn)
    if ref is not None:
        assert_matches_scipy(res, ref)


orbits = st.tuples(signs, decades, signs, decades, slopes, tols, horizons, growth_stops)


@settings(max_examples=40, deadline=None)
@given(draws=st.lists(orbits, min_size=1, max_size=12))
def test_batch_matches_solve_ivp_per_orbit(draws):
    params = [orbit(*d[:5]) for d in draws]
    tol = [d[5] for d in draws]
    s_end = [d[6] for d in draws]
    stops = [None if d[7] is None else abs(p.a0) * 10.0 ** d[7] for p, d in zip(params, draws)]
    f, events = batch_problem(params, stops)
    rtol, atol = zip(*map(tolerances, params, tol))

    results, err, warn = outcome(lambda: _dop853.solve(
        f, 0.0, s_end, [[p.a0, p.a1] for p in params], rtol=rtol, atol=atol, events=events))
    assert err is None
    refs = [scipy_outcome(*args) for args in zip(params, s_end, tol, stops)]
    # One clamp warning per orbit, in batch order, as scipy warns each alone.
    assert warn == [w for _, _, ref_warn in refs for w in ref_warn]
    for res, (ref, ref_err, _) in zip(results, refs):
        if ref is None:
            assert f"{type(res).__name__}: {res}" == ref_err
        else:
            assert_matches_scipy(res, ref)


def test_step_size_underflow_matches_solve_ivp():
    # y' = y^2 blows up at t = 1; the step size collapses before t_bound = 2.
    def f(t, y):
        return np.array((y[0] * y[0],))

    ref = solve_ivp(f, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-8, atol=1e-12,
                    dense_output=True)
    def f_batch(t, y, i, out):
        out[:] = y * y

    res = _dop853.solve(f_batch, 0.0, 2.0, [[1.0]], rtol=1e-8, atol=1e-12)[0]
    assert ref.status == res.status == -1
    assert res.message == ref.message == _dop853.TOO_SMALL_STEP
    assert np.array_equal(res.t, ref.t)
    assert np.array_equal(res.y, ref.y)


def test_step_size_underflow_in_a_batch():
    # y' = c y^2 from y(0) = 1 blows up at t = 1/c: inside [0, 2] only for
    # c = 1.  That orbit fails alone; the others run to t_bound as they
    # would alone, and all three match scipy.
    c = np.array([0.1, 1.0, -1.0])

    def solve(rows):
        def f(t, y, i, out):
            out[:] = c[rows[i], None] * y * y

        return _dop853.solve(f, 0.0, 2.0, [[1.0]] * len(rows), rtol=1e-8, atol=1e-12)

    batch = solve(np.arange(3))
    assert [res.status for res in batch] == [0, -1, 0]
    assert [res.message for res in batch] == [None, _dop853.TOO_SMALL_STEP, None]
    for k, res in enumerate(batch):
        alone = solve(np.array([k]))[0]
        ref = solve_ivp(lambda t, y, k=k: np.array((c[k] * y[0] * y[0],)), (0.0, 2.0), [1.0],
                        method="DOP853", rtol=1e-8, atol=1e-12, dense_output=True)
        assert res.status == alone.status == ref.status
        for mine in (res, alone):
            assert np.array_equal(mine.t, ref.t)
            assert np.array_equal(mine.y, ref.y)
        assert (res.nfev, res.n_accepted, res.n_rejected) == \
            (alone.nfev, alone.n_accepted, alone.n_rejected)
        if res.status == 0:
            pts = probe_points(ref.t)
            assert np.array_equal(res.sol(pts), ref.sol(pts))
            assert np.array_equal(res.sol(pts), alone.sol(pts))


def assert_same_trajectory(traj, ref):
    assert np.array_equal(np.stack([traj.s, traj.a, traj.a_dot]),
                          np.stack([ref.s, ref.a, ref.a_dot]))
    assert (traj.s_max, traj.collapsed) == (ref.s_max, ref.collapsed)
    assert (traj.nfev, traj.n_accepted, traj.n_rejected) == \
        (ref.nfev, ref.n_accepted, ref.n_rejected)
    pts = np.linspace(0.0, traj.s_max, 41)
    assert np.array_equal(np.stack(traj.eval_many(pts)), np.stack(ref.eval_many(pts)))


def test_integrate_many_matches_integrate():
    params = [EmdenParams(1.0, 1.0), EmdenParams(2.0, -1.0, 0.5), EmdenParams(-1.0, 1.0),
              EmdenParams(1.0, 1.0)]
    s_end, tol = [1e4, 10.0, 5.0, 0.0], [1e-10, 1e-8, 1e-15, 1e-10]
    stops = [50.0, None, None, None]
    batch, _, warn = outcome(lambda: integrate_many(params, s_end, tol, stops))
    assert len(warn) == 1 and "`rtol` is too small" in warn[0]  # the 1e-15 orbit's
    for args, got in zip(zip(params, s_end, tol, stops), batch):
        want, err, _ = outcome(lambda: integrate(*args))
        if want is None:
            assert f"{type(got).__name__}: {got}" == err
        else:
            assert_same_trajectory(got, want)


def test_analyze_many_matches_analyze():
    orbits = [
        (EmdenParams(-1.0, 1.0), None, 1e-10),                  # collapse
        (EmdenParams(1.0, -1.0, 0.3), 30.0, 1e-8),              # growth
        (EmdenParams(-0.0404969088912777, 10.0), None, 1e-10),  # the S routes disagree
        (EmdenParams(1.0, 1.0), 30.0, -1.0),                    # invalid tol
        (EmdenParams(-3.0, 1.0, 2.0), 10.0, 1e-12),             # turning point
    ]
    batch = analyze_many(orbits)
    for (params, s_end, tol), got in zip(orbits, batch):
        want, err, _ = outcome(lambda: analyze(params, s_end=s_end, tol=tol))
        if want is None:
            assert f"{type(got).__name__}: {got}" == err
        else:
            assert got[1] == want[1]
            assert_same_trajectory(got[0], want[0])
    assert [type(r).__name__ for r in batch] == \
        ["tuple", "tuple", "IntegrationFailure", "ValueError", "tuple"]


def reference_integrate(params, s_end, tol, stop_abs_a):
    """emden.integrate as it was written on top of scipy's solve_ivp."""
    f, events = problem(params, stop_abs_a)
    scale = max(abs(params.a0), abs(params.a1), 1.0)
    res = solve_ivp(f, (0.0, float(s_end)), [params.a0, params.a1], method="DOP853",
                    rtol=tol, atol=tol * 1e-4 * scale, dense_output=True,
                    events=scipy_events(events))
    if res.status == -1 or not res.success:
        last = None
        if res.t.size:
            last = EmdenState(float(res.t[-1]), float(res.y[0, -1]), float(res.y[1, -1]))
        raise IntegrationFailure(f"adaptive step failed: {res.message}", last)
    return res


@settings(max_examples=40, deadline=None)
@given(xi_sign=signs, xi_dec=decades, a0_sign=signs, a0_dec=decades, u=slopes,
       tol=tols, s_end=horizons, growth=growth_stops)
def test_integrate_matches_scipy_reference(xi_sign, xi_dec, a0_sign, a0_dec, u, tol, s_end, growth):
    params = orbit(xi_sign, xi_dec, a0_sign, a0_dec, u)
    stop_abs_a = None if growth is None else abs(params.a0) * 10.0 ** growth
    ref, ref_err, ref_warn = outcome(lambda: reference_integrate(params, s_end, tol, stop_abs_a))
    traj, err, warn = outcome(lambda: integrate(params, s_end, tol=tol, stop_abs_a=stop_abs_a))

    assert err == ref_err
    assert warn == ref_warn
    if ref is None:
        return
    assert np.array_equal(np.stack([traj.s, traj.a, traj.a_dot]), np.vstack([ref.t, ref.y]))
    assert traj.s_max == ref.t[-1]
    assert traj.collapsed == (ref.status == 1 and len(ref.t_events[0]) > 0)
    pts = np.clip(probe_points(ref.t), 0.0, traj.s_max)
    a, a_dot = traj.eval_many(pts)
    assert np.array_equal(np.stack([a, a_dot]), ref.sol(pts))
    for s in pts[::7]:
        state = traj.eval(float(s))
        assert np.array_equal([state.a, state.a_dot], ref.sol(float(s)))


def test_brentq_matches_scipy():
    funcs = [
        lambda x: (x - 0.3) * (1.0 + x * x),
        lambda x: math.tanh(40.0 * (x - 0.123)) + 1e-3,
        lambda x: (x - 1.0 / 3.0) ** 3,
        lambda x: np.float64(x ** 5 - 0.2),
        lambda x: x * x + 1.0,                   # no sign change
        lambda x: math.nan,                      # NaN function value
    ]
    errors = set()
    for f in funcs:
        for xtol in (4 * EPS, 1e-12, 1e-6):
            for iterations in (100, 3):
                theirs = outcome(lambda: scipy_brentq(f, -1.0, 2.0, xtol=xtol, rtol=4 * EPS,
                                                      maxiter=iterations))
                mine = outcome(lambda: _dop853.brentq(f, -1.0, 2.0, xtol=xtol, rtol=4 * EPS,
                                                      maxiter=iterations))
                assert mine == theirs
                errors.add(mine[1])
    assert {"ValueError: f(a) and f(b) must have different signs",
            "RuntimeError: Failed to converge after 3 iterations."} <= errors


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(theta_dec=st.floats(-12.0, 12.0), lo=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
def test_rule_matches_quad_on_orbit_time_integrand(theta_dec, lo, hi):
    theta = 10.0 ** theta_dec
    root = math.sqrt(theta)
    g_lo, g_hi = sorted((lo * root, hi * root))

    def g(p):
        return theta * math.sin(p) ** 2

    # orbit_time_integral as it was written on top of scipy's quad
    phi_lo = math.asin(min(1.0, max(0.0, g_lo / root)))
    phi_hi = math.asin(min(1.0, max(0.0, g_hi / root)))
    val, _, info = quad(g, phi_lo, phi_hi, epsabs=1e-15, epsrel=1e-13, full_output=1)
    assert info["neval"] == (0 if phi_lo == phi_hi else 21)
    assert gauss_kronrod21(g, phi_lo, phi_hi) == val
    assert orbit_time_integral(theta, g_lo, g_hi) == val


@settings(max_examples=30, deadline=None)
@given(sigma=st.sampled_from([-1, 1]), xi_dec=st.floats(-3.0, 3.0),
       a0_dec=st.floats(-3.0, 3.0), alpha=st.floats(0.1, 10.0), t_frac=st.floats(0.0, 0.3))
def test_rule_matches_quad_on_mass_integrand(sigma, xi_dec, a0_dec, alpha, t_frac):
    # Compact families: 1a (sigma=-1, xi<0, a0>0) and 2a (sigma=+1, xi>0, a0>0).
    xi = (-1.0 if sigma < 0 else 1.0) * 10.0 ** xi_dec
    case = SolutionCase(sigma=sigma, alpha=alpha, emden=EmdenParams(xi, 10.0 ** a0_dec))
    traj = integrate(case.emden, 30.0)  # only the orbit is needed, not the report
    t = t_frac * traj.s_max / 3.0
    xb = support(case, traj, t)[1]

    def integrand(phi):
        return density(case, traj, t, xb * math.sin(phi)) * xb * math.cos(phi)

    val, _, info = quad(integrand, -math.pi / 2.0, math.pi / 2.0,
                        epsabs=1e-13, epsrel=1e-12, full_output=1)
    assert info["neval"] == 21
    assert gauss_kronrod21(integrand, -math.pi / 2.0, math.pi / 2.0) == val
    assert mass(case, traj, t) == val


# ----------------------------------------------------------------------
# integrator counters
# ----------------------------------------------------------------------

@pytest.mark.parametrize("params,s_end", [
    (EmdenParams(-1.0, 1.0), 3.0),          # collapse: stops at the event
    (EmdenParams(1.0, -1.0), 1000.0),       # growth: runs to s_end
    (EmdenParams(-3.0, 1.0, 2.0), 10.0),    # outward slope, turning point, collapse
])
def test_counters_are_consistent_and_repeatable(params, s_end):
    runs = [integrate(params, s_end) for _ in range(2)]
    counts = [(t.nfev, t.n_accepted, t.n_rejected) for t in runs]
    assert counts[0] == counts[1]
    traj = runs[0]
    assert traj.n_accepted == len(traj.s) - 1
    event_stages = 3 if traj.collapsed else 0
    assert traj.nfev == 2 + 12 * (traj.n_accepted + traj.n_rejected) + event_stages
    # Interpolating afterwards evaluates more stages but leaves the counts alone.
    traj.eval_many(np.linspace(0.0, traj.s_max, 50))
    assert (traj.nfev, traj.n_accepted, traj.n_rejected) == counts[0]


# ----------------------------------------------------------------------
# scipy stays off the runtime path
# ----------------------------------------------------------------------

FOUR_FAMILIES = """\
sigma = -1
alpha = 1
xi = -1
a0 = 1
a1 = 0

sigma = -1
alpha = 1
xi = 1
a0 = -1
a1 = 0

sigma = 1
alpha = 1
xi = 1
a0 = 1
a1 = 0

sigma = 1
alpha = 1
xi = -3
a0 = -1
a1 = 0
"""


def _run_python(code, tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = _run_python("""
        import sys
        import ch2exact.cli
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    (tmp_path / "four.cfg").write_text(FOUR_FAMILIES, encoding="utf-8")
    (tmp_path / "1a.cfg").write_text(FOUR_FAMILIES.split("\n\n")[0] + "\n", encoding="utf-8")
    proc = _run_python("""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from ch2exact.cli import main
        codes = [main(["verify", "--config", "1a.cfg", "--out", "v"]),
                 main(["sweep", "--config", "four.cfg", "--out", "s"])]
        print("exit codes", *codes)
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit codes 0 0"
    assert (tmp_path / "v" / "verify.json").is_file()
    assert len((tmp_path / "s" / "sweep.csv").read_text(encoding="utf-8").splitlines()) == 5
