"""The in-tree DOP853 and Gauss-Kronrod rule against scipy, bit for bit.

``ch2exact`` does not import scipy at run time: the scale-factor ODE goes
through ``ch2exact._dop853`` and both quadratures through
``ch2exact._quadrature``.  These tests keep scipy as the oracle.  On orbits
drawn over many decades of ``|xi|`` and ``|a0|``, every slope and every
tolerance, the port must return the same doubles as
``scipy.integrate.solve_ivp(method="DOP853")``: nodes, states, status,
event times, dense output and warnings.  The port steps a batch of orbits
in lockstep, and every orbit must get what solve_ivp gives it alone, the
same doubles in a batch of one as in a larger batch.  The rule must equal
``scipy.integrate.quad`` on the package's two integrands, which ``quad``
settles with one 21-point evaluation.
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

from ch2exact import EmdenParams, IntegrationFailure, SolutionCase, analyze
from ch2exact import _dop853
from ch2exact._quadrature import gauss_kronrod21_array
from ch2exact.emden import DEFAULT_TOL, REL_STOP, analyze_many, integrate_many
from ch2exact.selfsim import profile
from ch2exact.verify import mass

EPS = np.finfo(float).eps

signs = st.sampled_from([-1.0, 1.0])
decades = st.floats(-6.0, 6.0)
slopes = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
tols = st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12, 1e-15])
horizons = st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)


def orbit(xi_sign, xi_dec, a0_sign, a0_dec, u):
    """EmdenParams with slope a1 = u sqrt|xi| |a0|^{1/3} (u = 0: at rest)."""
    xi = xi_sign * 10.0 ** xi_dec
    a0 = a0_sign * 10.0 ** a0_dec
    return EmdenParams(xi, a0, u * math.sqrt(abs(xi)) * abs(a0) ** (1.0 / 3.0))


def problem(params):
    """Right-hand side and stop event, as emden.integrate_many built them for scipy."""
    xi, a0 = params.xi, params.a0
    sgn = 1.0 if a0 > 0 else -1.0
    stop_level = REL_STOP * abs(a0)

    def f(s, y):
        return np.array((y[1], xi / (3.0 * np.cbrt(y[0]))))

    return f, lambda s, y: sgn * y[0] - stop_level


def batch_problem(params):
    """The same orbits as one batch for _dop853.solve."""
    xi = np.array([p.xi for p in params])
    sgn = np.array([1.0 if p.a0 > 0 else -1.0 for p in params])
    stop_level = np.array([REL_STOP * abs(p.a0) for p in params])

    def f(y, i, out):
        out[:] = np.stack((y[:, 1], xi[i] / (3.0 * np.cbrt(y[:, 0]))), axis=1)

    return f, lambda s, y, i: sgn[i] * y[:, 0] - stop_level[i]


def never(t, y, i):
    """An event that never fires: its value never falls to 0."""
    return np.ones(len(i))


def tolerances(params, tol):
    """(rtol, atol) as emden.integrate_many derives them."""
    return tol, tol * 1e-4 * max(abs(params.a0), abs(params.a1), 1.0)


def scipy_event(g):
    """g as solve_ivp's terminal event of direction -1, the solver's one event."""
    def event(s, y):
        return g(s, y)
    event.terminal = True
    event.direction = -1.0
    return event


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


def scipy_outcome(params, s_end, tol):
    """(result, exception text, warnings) of solve_ivp on one orbit."""
    f, event = problem(params)
    rtol, atol = tolerances(params, tol)
    return outcome(lambda: solve_ivp(
        f, (0.0, s_end), [params.a0, params.a1], method="DOP853", rtol=rtol, atol=atol,
        dense_output=True, events=scipy_event(event)))


def dense_output(f, k, res, t):
    """Problem k's dense output at the times t, read as scipy's OdeSolution reads it.

    A time takes the step ``searchsorted(..., "left") - 1`` of the step
    ends, clamped to the steps, so a node time takes the lower step.  Step
    i runs from node i to node i + 1, the last step to ``t_step_end``.  That
    step's value comes from ``_dop853.dense_values`` with the right-hand
    side f the problem was solved with.  Returns (m,) for a scalar t, else
    (m, len(t)), as ``OdeSolution`` does.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ends = np.append(res.t[:-1], res.t_step_end)
    i = np.clip(np.searchsorted(ends, t_arr, side="left") - 1, 0, len(ends) - 2)
    y = _dop853.dense_values(f, np.full(t_arr.size, k), ends[i], res.y.T[i], ends[i + 1],
                             np.arange(t_arr.size), t_arr).T
    return y[:, 0] if np.ndim(t) == 0 else y


def assert_matches_scipy(res, ref, f, k=0):
    """One orbit's OdeResult equals solve_ivp's on everything both report; f and k are
    the right-hand side and batch index it was solved with."""
    assert res.status == ref.status
    if ref.status == -1:
        assert res.message == ref.message
    assert np.array_equal(res.t, ref.t)
    assert np.array_equal(res.y, ref.y)
    # With status 1 the last node is the event root, scipy's one t_events entry.
    assert ref.t_events[0].tolist() == ([res.t[-1]] if res.status == 1 else [])
    # scipy builds every step's interpolant (3 extra stages each); the
    # port builds only the event step's during integration.
    assert ref.nfev == res.nfev + 3 * (res.n_accepted - (res.status == 1))

    pts = probe_points(ref.t)
    assert np.array_equal(dense_output(f, k, res, pts), ref.sol(pts))
    assert np.array_equal(dense_output(f, k, res, pts[::-1]), ref.sol(pts[::-1]))
    for s in pts[::5]:
        assert np.array_equal(dense_output(f, k, res, float(s)), ref.sol(float(s)))


@settings(max_examples=60, deadline=None)
@given(xi_sign=signs, xi_dec=decades, a0_sign=signs, a0_dec=decades, u=slopes,
       tol=tols, s_end=horizons)
def test_solver_matches_solve_ivp(xi_sign, xi_dec, a0_sign, a0_dec, u, tol, s_end):
    params = orbit(xi_sign, xi_dec, a0_sign, a0_dec, u)
    f, event = batch_problem([params])
    rtol, atol = tolerances(params, tol)

    ref, ref_err, ref_warn = scipy_outcome(params, s_end, tol)
    res, err, warn = outcome(lambda: _dop853.solve(
        f, s_end, [[params.a0, params.a1]], rtol=rtol, atol=atol, event=event)[0])

    assert err == ref_err
    assert warn == ref_warn
    if tol < 100 * EPS:
        assert any("`rtol` is too small" in w for w in warn)
    if ref is not None:
        assert_matches_scipy(res, ref, f)


orbits = st.tuples(signs, decades, signs, decades, slopes, tols, horizons)


@settings(max_examples=40, deadline=None)
@given(draws=st.lists(orbits, min_size=1, max_size=12))
def test_batch_matches_solve_ivp_per_orbit(draws):
    params = [orbit(*d[:5]) for d in draws]
    tol = [d[5] for d in draws]
    s_end = [d[6] for d in draws]
    f, event = batch_problem(params)
    rtol, atol = zip(*map(tolerances, params, tol))

    results, err, warn = outcome(lambda: _dop853.solve(
        f, s_end, [[p.a0, p.a1] for p in params], rtol=rtol, atol=atol, event=event))
    assert err is None
    refs = [scipy_outcome(*args) for args in zip(params, s_end, tol)]
    # One clamp warning per orbit, in batch order, as scipy warns each alone.
    assert warn == [w for _, _, ref_warn in refs for w in ref_warn]
    for k, (res, (ref, ref_err, _)) in enumerate(zip(results, refs)):
        if ref is None:
            assert f"{type(res).__name__}: {res}" == ref_err
        else:
            assert_matches_scipy(res, ref, f, k)


@settings(max_examples=40, deadline=None)
@given(draws=st.lists(orbits, min_size=1, max_size=12))
def test_rebuilt_step_ends_equal_the_steps_own(draws):
    # An OdeResult keeps no step ends: dense output derives each step's end
    # from its first node and its length, as the input of stage 12 of the
    # rebuilt stages.  On every step it must be the end the step produced,
    # bit for bit, the event step's too, whose node is the root.
    params = [orbit(*d[:5]) for d in draws]
    f, event = batch_problem(params)
    rtol, atol = zip(*map(tolerances, params, [d[5] for d in draws]))
    records, rebuilt = [], []
    real_lockstep, real_stages = _dop853._solve_lockstep, _dop853._stages

    def spy_lockstep(fun, event, active):  # keeps every accepted node, event step ends too
        status, n_rejected, nodes = real_lockstep(fun, event, active)
        records.append([np.concatenate(v) for v in nodes])
        return status, n_rejected, nodes

    def spy_stages(fun, y, h, idx, K):
        y_end = real_stages(fun, y, h, idx, K)
        rebuilt.append(y_end)
        return y_end

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rtol clamps
        patch.setattr(_dop853, "_solve_lockstep", spy_lockstep)
        results = _dop853.solve(f, [d[6] for d in draws], [[p.a0, p.a1] for p in params],
                                rtol=rtol, atol=atol, event=event)
    (node_idx, t_all, y_all), = records
    for k, res in enumerate(results):
        if isinstance(res, Exception):
            continue
        t_k, y_k = t_all[node_idx == k], y_all[node_idx == k]  # in step order
        n_steps = len(res.t) - 1
        assert np.array_equal(res.t[:-1], t_k[:n_steps])
        assert res.t_step_end == t_k[n_steps]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_dop853, "_stages", spy_stages)
            _dop853.dense_values(f, np.full(n_steps, k), res.t[:-1], res.y.T[:-1],
                                 np.append(res.t[1:-1], res.t_step_end), np.arange(n_steps),
                                 res.t[:-1])
        assert np.array_equal(rebuilt.pop(), y_k[1:n_steps + 1])


def test_step_size_underflow_matches_solve_ivp():
    # y' = y^2 blows up at t = 1; the step size collapses before t_bound = 2.
    def f(t, y):
        return np.array((y[0] * y[0],))

    ref = solve_ivp(f, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-8, atol=1e-12,
                    dense_output=True)
    def f_batch(y, i, out):
        out[:] = y * y

    res = _dop853.solve(f_batch, 2.0, [[1.0]], rtol=1e-8, atol=1e-12, event=never)[0]
    assert ref.status == res.status == -1
    assert res.message == ref.message == _dop853.TOO_SMALL_STEP
    assert np.array_equal(res.t, ref.t)
    assert np.array_equal(res.y, ref.y)


def test_step_size_underflow_in_a_batch():
    # y' = c y^2 from y(0) = 1 blows up at t = 1/c: inside [0, 2] only for
    # c = 1.  That orbit fails alone; the others run to t_bound as they
    # would alone, and all three match scipy.
    c = np.array([0.1, 1.0, -1.0])

    def f(y, i, out):
        out[:] = c[i, None] * y * y

    def solve(rows):
        return solve_rows(f, never, rows, 2.0, np.ones((3, 1)), 1e-8, 1e-12)

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
            assert np.array_equal(dense_output(f, k, res, pts), ref.sol(pts))
            assert np.array_equal(dense_output(f, k, alone, pts), ref.sol(pts))


def solve_rows(f_batch, event_batch, rows, t_bound, y0, rtol, atol):
    """_dop853.solve on the problems ``rows`` of a batch defined by f_batch and event_batch."""
    def f(y, i, out):
        f_batch(y, rows[i], out)

    return _dop853.solve(f, np.broadcast_to(t_bound, len(y0))[rows], y0[rows],
                         rtol=np.broadcast_to(rtol, len(y0))[rows],
                         atol=np.broadcast_to(atol, len(y0))[rows],
                         event=lambda t, y, i: event_batch(t, y, rows[i]))


def solve_alone_and_in_batch(f_batch, event_batch, f_one, n, t_bound, y0,
                             rtol=1e-10, atol=1e-14):
    """The batch's results, each orbit's results alone and solve_ivp's outcome per orbit.

    ``f_one(k, t, y)`` is orbit k's right-hand side on one state; its event
    is ``event_batch`` at the batch index k.
    """
    batch = solve_rows(f_batch, event_batch, np.arange(n), t_bound, y0, rtol, atol)
    alone = [solve_rows(f_batch, event_batch, np.array([k]), t_bound, y0, rtol, atol)[0]
             for k in range(n)]
    refs = [outcome(lambda k=k: solve_ivp(
        lambda t, y: f_one(k, t, y), (0.0, t_bound[k]), y0[k], method="DOP853", rtol=rtol,
        atol=atol, dense_output=True,
        events=scipy_event(lambda t, y: event_batch(t, y, k))))
        for k in range(n)]
    return batch, alone, refs


def assert_same_result(res, alone, f, k):
    """Two OdeResults of one orbit carry the same doubles; f and k are its right-hand
    side and index in a batch that solve_rows takes rows of."""
    assert (res.status, res.message, res.nfev, res.n_accepted, res.n_rejected) == \
        (alone.status, alone.message, alone.nfev, alone.n_accepted, alone.n_rejected)
    assert np.array_equal(res.t, alone.t) and np.array_equal(res.y, alone.y)
    if len(res.t) > 1:
        pts = probe_points(res.t)
        assert np.array_equal(dense_output(f, k, res, pts), dense_output(f, k, alone, pts))


def assert_same_outcome(res, alone, f, k):
    """The same OdeResult doubles, or the same exception, from two solves of one orbit."""
    if isinstance(res, Exception) or isinstance(alone, Exception):
        assert f"{type(res).__name__}: {res}" == f"{type(alone).__name__}: {alone}"
    else:
        assert_same_result(res, alone, f, k)


def test_events_firing_together_match_solve_ivp(monkeypatch):
    # Orbits 0-2 and 3-4 step identically (a duplicate and odd mirrors), so
    # each group's stop events fire on one lockstep iteration.  Orbit 5
    # moves linearly, a = 1 - t, and stops where a falls to 0.5.
    xi = np.array([-1.0, -1.0, -1.0, -2.0, -2.0, 0.0])
    sgn = np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    y0 = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.5, 0.3], [-0.5, -0.3], [1.0, 0.0]])
    stop = np.array([1e-10, 1e-10, 1e-10, 5e-11, 5e-11, 0.5])
    linear = xi == 0.0

    def f_batch(y, i, out):
        with np.errstate(divide="ignore", invalid="ignore"):
            accel = xi[i] / (3.0 * np.cbrt(y[:, 0]))
        out[:] = np.where(linear[i, None], [-1.0, 1.0], np.stack((y[:, 1], accel), axis=1))

    def f_one(k, t, y):
        return np.array((-1.0, 1.0)) if linear[k] else np.array((y[1], xi[k] / (3.0 * np.cbrt(y[0]))))

    def stop_event(t, y, i):
        return sgn[i] * y[..., 0] - stop[i]

    located = []  # per solve call: the orbits searched and the ends of their last steps
    real_locate = _dop853._locate_events

    def spy_locate(fun, event, k, t_old, y_old, t_new):
        located.append((k.tolist(), t_new.tolist()))
        return real_locate(fun, event, k, t_old, y_old, t_new)

    monkeypatch.setattr(_dop853, "_locate_events", spy_locate)
    batch, alone, refs = solve_alone_and_in_batch(f_batch, stop_event, f_one, 6,
                                                  np.full(6, 5.0), y0)
    # The batch's one root search took every orbit's last step; orbits 0-2
    # stopped on one iteration, as their last steps end at the same t.
    orbits, step_ends = located[0]
    assert orbits == list(range(6))
    assert step_ends[0] == step_ends[1] == step_ends[2]
    for k, (res, one, (ref, err, _)) in enumerate(zip(batch, alone, refs)):
        assert err is None and res.status == 1
        assert_matches_scipy(res, ref, f_batch, k)
        assert_same_result(res, one, f_batch, k)


def test_event_root_error_stays_with_its_orbit():
    # Orbit 2 grows and never collapses; its event is a clock, 0.7 - t, NaN
    # within 1e-9 of its root, where Brent's first interpolation lands:
    # locating it raises scipy's NaN error for that orbit alone.  The others
    # stop at their collapse events or run to t_bound, as they do alone.
    xi = np.array([-1.0, 2.0, 1.0, -3.0, -0.5])
    y0 = np.array([[1.0, 0.0], [-1.0, 0.5], [1.0, 0.2], [1.0, 2.0], [-2.0, 0.0]])
    sgn = np.sign(y0[:, 0])
    stop = 1e-10 * np.abs(y0[:, 0])
    clock = np.arange(5) == 2

    def f_batch(y, i, out):
        out[:] = np.stack((y[:, 1], xi[i] / (3.0 * np.cbrt(y[:, 0]))), axis=1)

    def f_one(k, t, y):
        return np.array((y[1], xi[k] / (3.0 * np.cbrt(y[0]))))

    def event(t, y, i):
        time_left = np.where(np.abs(t - 0.7) < 1e-9, np.nan, 0.7 - t)
        return np.where(clock[i], time_left, sgn[i] * y[..., 0] - stop[i])

    batch, alone, refs = solve_alone_and_in_batch(f_batch, event, f_one, 5,
                                                  np.full(5, 20.0), y0)
    assert [type(res).__name__ for res in batch] == \
        ["OdeResult", "OdeResult", "ValueError", "OdeResult", "OdeResult"]
    assert [res.status for k, res in enumerate(batch) if k != 2] == [1, 0, 1, 1]
    for k, (res, one, (ref, err, _)) in enumerate(zip(batch, alone, refs)):
        if k == 2:
            assert err.startswith("ValueError: The function value at x=0.7")
            assert f"ValueError: {res}" == f"ValueError: {one}" == err
        else:
            assert_matches_scipy(res, ref, f_batch, k)
            assert_same_result(res, one, f_batch, k)


def test_subset_and_full_commits_match_solve_ivp(monkeypatch):
    # A collapse orbit with 52 rejected steps and a growth orbit with one:
    # their lockstep iterations commit one row of the two or both.
    commits = []  # per two-orbit iteration: which rows it accepted
    real_error_norm = _dop853._estimate_error_norm

    def spy_error_norm(K, h, scale):
        error_norm = real_error_norm(K, h, scale)
        if len(h) == 2:
            commits.append(tuple((error_norm < 1).tolist()))
        return error_norm

    monkeypatch.setattr(_dop853, "_estimate_error_norm", spy_error_norm)
    params = [EmdenParams(-1.0, 1.0), EmdenParams(1.0, 1.0, 0.3)]
    s_end = np.array([3.0, 900.0])
    f, event = batch_problem(params)
    y0 = np.array([[p.a0, p.a1] for p in params])
    rtol, atol = map(np.array, zip(*[tolerances(p, 1e-10) for p in params]))
    batch = solve_rows(f, event, np.arange(2), s_end, y0, rtol, atol)
    assert [res.n_rejected for res in batch] == [52, 1]
    assert {(True, True), (False, True)} <= set(commits)
    for k, res in enumerate(batch):
        ref, err, _ = scipy_outcome(params[k], s_end[k], 1e-10)
        assert err is None
        assert_matches_scipy(res, ref, f, k)
        assert_same_result(res, solve_rows(f, event, np.array([k]), s_end, y0, rtol, atol)[0],
                           f, k)


# ----------------------------------------------------------------------
# a row in a batch of one against the same row in a larger batch
# ----------------------------------------------------------------------

def _underflow(y, i, out):  # row 0: y' = y^2 blows up at t = 1; row 1: y' = -y^2
    out[:] = np.where(i == 0, 1.0, -1.0)[:, None] * y * y


def _decay(y, i, out):
    out[:] = -y


def _linear(y, i, out):  # y = 1 - t on every row
    out[:] = -1.0


def _still(y, i, out):  # row 0: y' = 0, every error term exactly 0; row 1: y' = -y
    out[:] = np.where(i == 0, 0.0, -1.0)[:, None] * y


def _node_of_decay(k):
    """Node k of y' = -y from 1 to t = 5 (rtol 1e-10, atol 1e-14), solved alone."""
    return float(_dop853.solve(_decay, 5.0, [[1.0]], rtol=1e-10, atol=1e-14,
                               event=never)[0].t[k])


def _root_on_node(t_k):
    # g = -(t - t_k)^2 is 0 at node t_k and negative on both sides: it fires
    # on the step after the node, with its root on the node, which is dropped.
    return (_decay, lambda t, y, i: np.where(i == 0, -(t - t_k) ** 2, 1.0),
            [5.0, 5.0], [[1.0], [1.0]], [1e-10, 1e-10], 1e-14)


EDGE_CASES = {
    # step-size underflow before t_bound: status -1 with TOO_SMALL_STEP
    "underflow": lambda: (_underflow, never, [2.0, 2.0], [[1.0], [1.0]], [1e-8, 1e-8], 1e-12),
    # rtol below 100 eps on row 0 only: one clamp warning
    "small_rtol": lambda: (_decay, never, [5.0, 5.0], [[1.0], [2.0]], [1e-17, 1e-10], 1e-14),
    # the stop event fires within the first step
    "first_step_event": lambda: (
        _linear, lambda t, y, i: y[:, 0] - (1.0 - 1e-9) * (i == 0),
        [2.0, 2.0], [[1.0], [1.0]], [1e-8, 1e-8], 1e-12),
    # an event root equal to the last node (node 6)
    "root_on_last_node": lambda: _root_on_node(_node_of_decay(6)),
    # both error norms exactly 0: the error norm is 0 and every step grows by MAX_FACTOR
    "zero_error": lambda: (_still, never, [1e3, 1e3], [[1.0], [1.0]], [1e-10, 1e-10], 1e-14),
    # the last step is clipped to t_bound = 0.7
    "clipped_last_step": lambda: (_decay, never, [0.7, 5.0], [[1.0], [1.0]], [1e-10, 1e-10],
                                  1e-14),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_cases_alone_equal_them_in_a_batch(case):
    f, event, t_bound, y0, rtol, atol = EDGE_CASES[case]()
    t_bound, y0, rtol = np.array(t_bound), np.array(y0), np.array(rtol)
    (one,), err, warn_one = outcome(lambda: solve_rows(f, event, np.array([0]), t_bound, y0,
                                                       rtol, atol))
    batch, err_batch, warn_batch = outcome(lambda: solve_rows(f, event, np.arange(2), t_bound,
                                                              y0, rtol, atol))
    assert err is None and err_batch is None
    assert_same_result(batch[0], one, f, 0)
    assert warn_one == warn_batch

    def f_one(t, y):
        out = np.empty((1, len(y)))
        f(y[None], np.array([0]), out)
        return out[0]

    ref, ref_err, ref_warn = outcome(lambda: solve_ivp(
        f_one, (0.0, t_bound[0]), y0[0], method="DOP853", rtol=rtol[0], atol=atol,
        dense_output=True,
        events=scipy_event(lambda t, y: event(np.array([t]), y[None], np.array([0]))[0])))
    assert ref_err is None and warn_one == ref_warn
    assert_matches_scipy(one, ref, f)

    if case == "underflow":
        assert one.status == -1 and one.message == _dop853.TOO_SMALL_STEP
        assert batch[1].status == 0
    elif case == "small_rtol":
        assert len(warn_one) == 1 and "`rtol` is too small" in warn_one[0]
    elif case == "first_step_event":
        assert one.status == 1 and one.n_accepted == 1
    elif case == "root_on_last_node":
        t_k = _node_of_decay(6)
        assert one.status == 1 and one.t[-1] == t_k
        assert one.n_accepted == len(one.t)  # the step past the root is counted, not kept
    elif case == "zero_error":
        steps = np.diff(one.t)
        assert one.status == 0 and one.n_rejected == 0
        assert np.allclose(steps[1:-1] / steps[:-2], _dop853.MAX_FACTOR, rtol=1e-6)
    else:
        assert one.status == 0 and one.t[-1] == 0.7 and batch[1].t[-1] == 5.0


# Slopes either side of theta = 0 (for xi > 0 it falls at u = +-1).
theta_slopes = st.one_of(st.sampled_from([0.0, -1.0, 1.0]), st.floats(-3.0, 3.0))
wide_orbits = st.tuples(signs, decades, signs, decades, theta_slopes, tols, horizons)


@settings(max_examples=40, deadline=None)
@given(draws=st.lists(wide_orbits, min_size=2, max_size=6))
def test_one_orbit_alone_equals_it_in_a_lockstep_batch(draws):
    # An orbit in a batch of one and in the larger batch must get the same
    # doubles, counters, status, message, event roots and dense output, or
    # the same exception.
    params = [orbit(*d[:5]) for d in draws]
    f, event = batch_problem(params)
    rtol, atol = map(np.array, zip(*[tolerances(p, d[5]) for p, d in zip(params, draws)]))
    s_end = np.array([d[6] for d in draws])
    y0 = np.array([[p.a0, p.a1] for p in params])

    batch, err, warn = outcome(lambda: solve_rows(f, event, np.arange(len(draws)), s_end, y0,
                                                  rtol, atol))
    alone = [outcome(lambda k=k: solve_rows(f, event, np.array([k]), s_end, y0, rtol, atol))
             for k in range(len(draws))]
    assert err is None and all(one_err is None for _, one_err, _ in alone)
    assert warn == [w for _, _, one_warn in alone for w in one_warn]
    for k, (res, (one, _, _)) in enumerate(zip(batch, alone)):
        assert_same_outcome(res, one[0], f, k)


def test_step_factors_match_the_scalar_rule():
    def scalar_rule(e, was_rejected):  # SciPy's rule, as the solver used to apply it per orbit
        if e < 1:
            factor = _dop853.MAX_FACTOR if e == 0 else min(
                _dop853.MAX_FACTOR, _dop853.SAFETY * e ** _dop853.ERROR_EXPONENT)
            if was_rejected:
                factor = min(1, factor)
        else:
            factor = max(_dop853.MIN_FACTOR, _dop853.SAFETY * e ** _dop853.ERROR_EXPONENT)
        return float(factor)

    values = [0.0, 5e-324, 1e-300, 1e-8, 0.3, math.nextafter(1.0, 0.0), 1.0,
              math.nextafter(1.0, 2.0), 1.7, 1e8, 1e300, math.inf, math.nan]
    for rejected in (False, True):
        got = _dop853._step_factors(np.array(values), np.full(len(values), rejected))
        want = [scalar_rule(e, rejected) for e in values]
        assert got.tolist() == want
    # one batch mixing both flags
    flags = np.arange(len(values)) % 2 == 1
    got = _dop853._step_factors(np.array(values), flags)
    assert got.tolist() == [scalar_rule(e, r) for e, r in zip(values, flags.tolist())]


def test_squares_are_libm_pow_and_overflow_to_inf():
    big = _dop853._SQRT_MAX
    values = [0.0, 1e-200, 0.1, 3.0, 1e150, big, math.nextafter(big, math.inf), 1e200,
              math.inf, math.nan]
    want = []
    for v in values:
        try:
            want.append(v ** 2)
        except OverflowError:
            want.append(math.inf)
    got = _dop853._squares(np.array(values)).tolist()
    assert got[:-1] == want[:-1] and math.isnan(got[-1])
    assert got[5] < math.inf and got[6] == math.inf


def assert_same_trajectory(traj, ref):
    assert np.array_equal(np.stack([traj.s, traj.a, traj.a_dot]),
                          np.stack([ref.s, ref.a, ref.a_dot]))
    assert (traj.s_max, traj.collapsed) == (ref.s_max, ref.collapsed)
    assert (traj.nfev, traj.n_accepted, traj.n_rejected) == \
        (ref.nfev, ref.n_accepted, ref.n_rejected)
    pts = np.linspace(0.0, traj.s_max, 41)
    assert np.array_equal(np.stack(traj.eval_many(pts)), np.stack(ref.eval_many(pts)))


def test_integrate_many_matches_each_orbit_alone():
    params = [EmdenParams(1.0, 1.0), EmdenParams(2.0, -1.0, 0.5), EmdenParams(-1.0, 1.0),
              EmdenParams(1.0, 1.0)]
    s_end, tol = [1e4, 10.0, 5.0, 0.0], [1e-10, 1e-8, 1e-15, 1e-10]
    batch, _, warn = outcome(lambda: integrate_many(params, s_end, tol))
    assert len(warn) == 1 and "`rtol` is too small" in warn[0]  # the 1e-15 orbit's
    for p, s, t, got in zip(params, s_end, tol, batch):
        (want,), _, _ = outcome(lambda: integrate_many([p], [s], [t]))
        if isinstance(want, Exception):
            assert f"{type(got).__name__}: {got}" == f"{type(want).__name__}: {want}"
        else:
            assert_same_trajectory(got, want)


def test_analyze_many_matches_analyze():
    orbits = [
        (EmdenParams(-1.0, 1.0), None, 1e-10),                  # collapse
        (EmdenParams(1.0, -1.0, 0.3), 30.0, 1e-8),              # growth
        (EmdenParams(3.0, 1.0, -5.0), None, 1e-3),              # the S routes disagree
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


def reference_integrate(params, s_end, tol):
    """emden.integrate_many on one orbit, as it was written on top of scipy's solve_ivp."""
    f, event = problem(params)
    scale = max(abs(params.a0), abs(params.a1), 1.0)
    res = solve_ivp(f, (0.0, float(s_end)), [params.a0, params.a1], method="DOP853",
                    rtol=tol, atol=tol * 1e-4 * scale, dense_output=True,
                    events=scipy_event(event))
    if res.status == -1 or not res.success:
        last = None
        if res.t.size:
            last = (float(res.t[-1]), float(res.y[0, -1]), float(res.y[1, -1]))
        raise IntegrationFailure(f"adaptive step failed: {res.message}", last)
    return res


@settings(max_examples=40, deadline=None)
@given(xi_sign=signs, xi_dec=decades, a0_sign=signs, a0_dec=decades, u=slopes,
       tol=tols, s_end=horizons)
def test_integrate_matches_scipy_reference(xi_sign, xi_dec, a0_sign, a0_dec, u, tol, s_end):
    params = orbit(xi_sign, xi_dec, a0_sign, a0_dec, u)
    ref, ref_err, ref_warn = outcome(lambda: reference_integrate(params, s_end, tol))
    (traj,), _, warn = outcome(lambda: integrate_many([params], [s_end], [tol]))
    err = f"{type(traj).__name__}: {traj}" if isinstance(traj, Exception) else None

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
        a, a_dot = traj.eval_many([float(s)])
        assert np.array_equal([a[0], a_dot[0]], ref.sol(float(s)))


def batch_brentq(funcs, xtol, maxiter):
    """_dop853.brentq on scalar functions, all in one batch over [-1, 2].

    Each function is called on Python floats, as scipy's brentq calls it.
    Returns each function's root or the exception raised for it.
    """
    def f(x, i):
        return [funcs[k](x_k) for k, x_k in zip(i.tolist(), x.tolist())]

    n = len(funcs)
    roots, errors = _dop853.brentq(f, np.full(n, -1.0), np.full(n, 2.0), xtol=xtol,
                                   rtol=4 * EPS, maxiter=maxiter)
    return [errors.get(k, roots[k]) for k in range(n)]


def brentq_one(f, xtol, maxiter):
    """The batch of one: f's root, or its exception raised."""
    (result,) = batch_brentq([f], xtol, maxiter)
    if isinstance(result, Exception):
        raise result
    return result


BRENTQ_FUNCS = [
    lambda x: (x - 0.3) * (1.0 + x * x),
    lambda x: math.tanh(40.0 * (x - 0.123)) + 1e-3,
    lambda x: (x - 1.0 / 3.0) ** 3,
    lambda x: np.float64(x ** 5 - 0.2),
    lambda x: x * x + 1.0,                   # no sign change
    lambda x: math.nan,                      # NaN function value
]


def test_brentq_matches_scipy():
    funcs = BRENTQ_FUNCS
    errors = set()
    for f in funcs:
        for xtol in (4 * EPS, 1e-12, 1e-6):
            for iterations in (100, 3):
                theirs = outcome(lambda: scipy_brentq(f, -1.0, 2.0, xtol=xtol, rtol=4 * EPS,
                                                      maxiter=iterations))
                mine = outcome(lambda: brentq_one(f, xtol=xtol, maxiter=iterations))
                assert mine == theirs
                errors.add(mine[1])
    assert {"ValueError: f(a) and f(b) must have different signs",
            "RuntimeError: Failed to converge after 3 iterations."} <= errors


@pytest.mark.parametrize("xtol", [4 * EPS, 1e-12, 1e-6])
@pytest.mark.parametrize("iterations", [100, 3])
def test_brentq_batch_mixes_roots_and_errors(xtol, iterations):
    # All six problems in one call, twice over in shuffled order: every
    # element gets scipy's root or scipy's message, whatever its neighbours do.
    order = [3, 5, 0, 4, 1, 2, 2, 0, 5, 1, 3, 4]
    batch = batch_brentq([BRENTQ_FUNCS[j] for j in order], xtol, iterations)
    for j, got in zip(order, batch):
        want, err, _ = outcome(lambda: scipy_brentq(BRENTQ_FUNCS[j], -1.0, 2.0, xtol=xtol,
                                                    rtol=4 * EPS, maxiter=iterations))
        if err is None:
            assert not isinstance(got, Exception) and got == want
        else:
            assert f"{type(got).__name__}: {got}" == err


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

    # The reduced collapse-time integrand after G = sqrt(theta) sin(phi)
    phi_lo = math.asin(min(1.0, max(0.0, g_lo / root)))
    phi_hi = math.asin(min(1.0, max(0.0, g_hi / root)))
    val, _, info = quad(g, phi_lo, phi_hi, epsabs=1e-15, epsrel=1e-13, full_output=1)
    assert info["neval"] == (0 if phi_lo == phi_hi else 21)
    assert gauss_kronrod21_array(lambda x: [g(v) for v in x.tolist()], phi_lo, phi_hi) == val


@settings(max_examples=30, deadline=None)
@given(sigma=st.sampled_from([-1, 1]), xi_dec=st.floats(-3.0, 3.0),
       a0_dec=st.floats(-3.0, 3.0), alpha=st.floats(0.1, 10.0), t_frac=st.floats(0.0, 0.3))
def test_rule_matches_quad_on_mass_integrand(sigma, xi_dec, a0_dec, alpha, t_frac):
    # Compact families: 1a (sigma=-1, xi<0, a0>0) and 2a (sigma=+1, xi>0, a0>0).
    xi = (-1.0 if sigma < 0 else 1.0) * 10.0 ** xi_dec
    case = SolutionCase(sigma=sigma, alpha=alpha, emden=EmdenParams(xi, 10.0 ** a0_dec))
    traj = integrate_many([case.emden], [30.0], [DEFAULT_TOL])[0]  # the orbit, not the report
    t = t_frac * traj.s_max / 3.0
    (a,), _ = traj.eval_many([3.0 * t])
    cb = float(np.cbrt(a))
    xb = cb * case.eta_boundary

    def integrand(phi):
        return profile(case, xb * math.sin(phi) / cb) / cb * xb * math.cos(phi)

    val, _, info = quad(integrand, -math.pi / 2.0, math.pi / 2.0,
                        epsabs=1e-13, epsrel=1e-12, full_output=1)
    assert info["neval"] == 21
    per_node = gauss_kronrod21_array(lambda x: [integrand(v) for v in x.tolist()],
                                     -math.pi / 2.0, math.pi / 2.0)
    assert per_node == val
    assert mass(case, traj, [t])[0] == val


# ----------------------------------------------------------------------
# integrator counters
# ----------------------------------------------------------------------

@pytest.mark.parametrize("params,s_end", [
    (EmdenParams(-1.0, 1.0), 3.0),          # collapse: stops at the event
    (EmdenParams(1.0, -1.0), 1000.0),       # growth: runs to s_end
    (EmdenParams(-3.0, 1.0, 2.0), 10.0),    # outward slope, turning point, collapse
])
def test_counters_are_consistent_and_repeatable(params, s_end):
    runs = [integrate_many([params], [s_end], [DEFAULT_TOL])[0] for _ in range(2)]
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
