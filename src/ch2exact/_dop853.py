"""Explicit Runge-Kutta DOP853 with dense output and terminal events.

This is the subset of ``scipy.integrate.solve_ivp(method="DOP853",
dense_output=True, events=...)`` that ``emden.integrate`` uses, ported
from SciPy 1.17.1 (``scipy/integrate/_ivp/{ivp,rk,common,base}.py`` and
the C ``brentq`` behind ``scipy.optimize.brentq``) operation for
operation, so that it returns the same doubles: the same nodes, states,
event times and dense-output values.  Every ``np.dot`` and
``np.linalg.norm`` is kept exactly as SciPy writes it, because numpy hands
these to BLAS, whose kernels may fuse multiply-adds; rewriting them as
scalar arithmetic would change the last bits.

What differs from SciPy:

- each step's interpolant is built when it is first evaluated, from a
  stored copy of that step's stage matrix, instead of after every step;
  only the step on which an event fires builds it at once (the event
  root is found on it).  The values are the same because the same
  operations run on the same data;
- integration runs forward only, every event is terminal and
  directional, and the solver has no ``max_step``, ``first_step``, ``t_eval``, ``vectorized``
  or complex-valued mode.

The method is due to Dormand and Prince; see E. Hairer, S. P. Norsett and
G. Wanner, Solving Ordinary Differential Equations I, 2nd ed., Springer
1993, Sec. II.10.  The SciPy code is distributed under the BSD 3-clause
license in LICENSE_SCIPY at the root of this repository, and the DOP853
notice is in LICENSE_DOP.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import _dop853_coefficients as coef

EPS = np.finfo(float).eps

SAFETY = 0.9  # Multiply steps computed from asymptotic behaviour of errors by this.
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

N_STAGES = coef.N_STAGES
A = coef.A[:N_STAGES, :N_STAGES]
B = coef.B
C = coef.C[:N_STAGES]
E3 = coef.E3
E5 = coef.E5
D = coef.D
A_EXTRA = coef.A[N_STAGES + 1:]
C_EXTRA = coef.C[N_STAGES + 1:]
N_STAGES_EXTRA = len(C_EXTRA)  # stages evaluated only for dense output
ERROR_EXPONENT = -1 / (7 + 1)  # error estimator order 7


@dataclass(frozen=True)
class OdeResult:
    """Outcome of ``solve``.

    ``status`` is 0 when ``t_bound`` was reached, 1 when a terminal event
    stopped the integration and -1 when the step size underflowed
    (``message`` says so).  ``t`` and ``y`` are the accepted nodes, the
    last one being the event root when an event fired.  ``t_events[i]`` is
    the array of roots of event ``i`` (empty or one element).  ``nfev``
    counts right-hand-side evaluations made by ``solve``; stages evaluated
    later, when ``sol`` first interpolates a step, are not included.
    """

    t: np.ndarray
    y: np.ndarray
    sol: "DenseSolution"
    t_events: list
    status: int
    message: str | None
    nfev: int
    n_accepted: int
    n_rejected: int


def _validate_tol(rtol, atol):
    if rtol < 100 * EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                      stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    return rtol, atol


def _norm(x):
    """RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def _select_initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer-Norsett-Wanner initial step (Sec. II.4), for order 7."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, stages):
    K[0] = f
    for s, K_sT, a, c in stages:
        dy = np.dot(K_sT, a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _estimate_error_norm(K, h, scale):
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _dense_coefficients(fun, t_old, y_old, y, h, K):
    """Interpolation matrix F of one step; fills the extra stages of K."""
    for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA), start=N_STAGES + 1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t_old + c * h, y_old + dy)
    F = np.empty((coef.INTERPOLATOR_POWER, y_old.size), dtype=y_old.dtype)
    f_old = K[0]
    f = K[N_STAGES]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def _dense_eval(t_old, h, y_old, F, t):
    """Evaluate one step's interpolant at the 0-d or 1-d array t."""
    x = (t - t_old) / h
    if t.ndim == 0:
        y = np.zeros_like(y_old)
    else:
        x = x[:, None]
        y = np.zeros((len(x), len(y_old)), dtype=y_old.dtype)
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y.T


class DenseSolution:
    """Piecewise interpolant over the accepted steps.

    A query on a node uses the segment with the lower index, as SciPy's
    ``OdeSolution`` does.  Segment interpolants are built on first use
    and kept.
    """

    def __init__(self, fun, ts, steps, built):
        self.ts = ts
        self._fun = fun
        self._steps = steps  # (t_old, t, y_old, y, h, K) per step
        self._F = built      # interpolation matrix per step, or None
        self.n_segments = len(steps)

    def _segment(self, i, t):
        t_old, t_new, y_old, y, h, K = self._steps[i]
        F = self._F[i]
        if F is None:
            F = self._F[i] = _dense_coefficients(self._fun, t_old, y_old, y, h, K)
        return _dense_eval(t_old, t_new - t_old, y_old, F, t)

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            ind = np.searchsorted(self.ts, t, side="left")
            segment = min(max(ind - 1, 0), self.n_segments - 1)
            return self._segment(segment, t)

        order = np.argsort(t)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        t_sorted = t[order]

        segments = np.searchsorted(self.ts, t_sorted, side="left")
        segments -= 1
        segments[segments < 0] = 0
        segments[segments > self.n_segments - 1] = self.n_segments - 1

        ys = []
        group_start = 0
        for segment, group in groupby(segments):
            group_end = group_start + len(list(group))
            ys.append(self._segment(segment, t_sorted[group_start:group_end]))
            group_start = group_end

        ys = np.hstack(ys)
        return ys[:, reverse]


def brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of f in [xa, xb] by Brent's method; SciPy's C brentq, line for line."""
    def call(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def solve(fun, t0: float, t_bound: float, y0, rtol: float, atol: float,
          events=()) -> OdeResult:
    """Integrate y' = fun(t, y) from t0 forward to t_bound with DOP853.

    ``fun(t, y)`` returns a float ndarray shaped like y.  ``events`` is a
    sequence of ``(g, direction)`` pairs: integration stops at the first
    zero of ``g(t, y)`` crossed in ``direction`` (+1 upward, -1 downward).
    ``rtol`` below 100 eps is raised to it with a ``UserWarning``.
    """
    t0, t_bound = float(t0), float(t_bound)
    if not t_bound > t0:
        raise ValueError("integration runs forward only: need t_bound > t0")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1:
        raise ValueError("`y0` must be 1-dimensional.")
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol, atol = _validate_tol(rtol, atol)

    f = fun(t0, y)
    h_abs = _select_initial_step(fun, t0, y, t_bound, f, rtol, atol)
    nfev = 2
    K_ext = np.empty((coef.N_STAGES_EXTENDED, y.size), dtype=y.dtype)
    K = K_ext[:N_STAGES + 1]
    stages = [(s, K[:s].T, A[s][:s], C[s]) for s in range(1, N_STAGES)]

    t = t0
    ts, ys = [t0], [y0]
    steps, built = [], []
    g = [event(t0, y0) for event, _ in events]
    t_events = [[] for _ in events]
    n_accepted = n_rejected = 0
    status = None
    message = None
    while status is None:
        # RungeKutta._step_impl
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                message = TOO_SMALL_STEP
                break
            h = h_abs
            t_new = t + h
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K, stages)
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _estimate_error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                step_rejected = True
                n_rejected += 1
        if message is not None:
            status = -1
            break
        n_accepted += 1
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0

        steps.append((t_old, t, y_old, y, h, K_ext.copy()))
        built.append(None)

        if events:
            g_new = [event(t, y) for event, _ in events]
            active = []
            for i, (g_i, gn_i, (_, direction)) in enumerate(zip(g, g_new, events)):
                up = g_i <= 0 and gn_i >= 0
                down = g_i >= 0 and gn_i <= 0
                if up and direction > 0 or down and direction < 0:
                    active.append(i)
            if active:
                F = built[-1] = _dense_coefficients(fun, t_old, y_old, y, h, steps[-1][5])
                nfev += N_STAGES_EXTRA
                h_dense = t - t_old

                def sol(s):
                    return _dense_eval(t_old, h_dense, y_old, F, np.asarray(s))

                roots = np.asarray([
                    brentq(lambda s, event=events[i][0]: event(s, sol(s)),
                           t_old, t, xtol=4 * EPS, rtol=4 * EPS)
                    for i in active
                ])
                # Every event is terminal: the earliest root ends the run.
                first = np.argsort(roots)[0]
                t_events[active[first]].append(roots[first])
                status = 1
                t = roots[first]
                y = sol(t)
            g = g_new

        if len(ts) > 1 and ts[-1] == t:
            steps.pop()
            built.pop()
        else:
            ts.append(t)
            ys.append(y)

    ts = np.array(ts)
    return OdeResult(
        t=ts,
        y=np.vstack(ys).T,
        sol=DenseSolution(fun, ts, steps, built),
        t_events=[np.asarray(te) for te in t_events],
        status=status,
        message=message,
        nfev=nfev,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
    )
