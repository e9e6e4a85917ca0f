"""Explicit Runge-Kutta DOP853 with dense output and terminal events, for a
batch of independent problems stepped in lockstep.

This is the subset of ``scipy.integrate.solve_ivp(method="DOP853",
dense_output=True, events=...)`` that ``emden`` uses, ported from SciPy
1.17.1 (``scipy/integrate/_ivp/{ivp,rk,common,base}.py`` and the C
``brentq`` behind ``scipy.optimize.brentq``) operation for operation, so
that every problem of a batch gets the doubles ``solve_ivp`` gives it
alone: the same nodes, states, event times and dense-output values.

``solve`` integrates n problems at once.  Each keeps its own t, step
size, ``t_bound``, ``rtol``/``atol``, status, event state and counters;
one iteration tries one step on every problem still running, with numpy
arrays across the batch, and a problem leaves the running set when it
finishes.  The batched arithmetic rounds exactly like SciPy's one-problem
arithmetic: ``np.matmul`` over a stack of stage matrices calls the same
BLAS gemv as ``np.dot`` on each (BLAS kernels may fuse multiply-adds, so
neither is rewritten as scalar arithmetic), ``sqrt(x @ x)`` is what
``np.linalg.norm`` computes, and elementwise operations and ``np.cbrt``
give the same bits on arrays as on scalars.  Powers are the exception:
numpy's array ``**`` may use a SIMD kernel that rounds differently from
libm's ``pow``, which SciPy's scalar ``**`` calls, so every power (the
squared error norms, the step factor, the initial step) is taken per
problem on Python floats.  The event root, which is rare, is also found
per problem.

What differs from SciPy:

- each step's interpolant is built when it is first evaluated, from the
  stored stage matrix of that step, instead of after every step; only
  the step on which an event fires builds it at once (the event root is
  found on it).  The values are the same because the same operations run
  on the same data;
- integration runs forward only, every event is terminal and
  directional, and the solver has no ``max_step``, ``first_step``,
  ``t_eval``, ``vectorized`` or complex-valued mode.

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
STAGES = [(s, A[s][:s]) for s in range(1, N_STAGES)]


@dataclass(frozen=True)
class OdeResult:
    """Outcome of one problem of ``solve``.

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


def _pow(values, exponent) -> np.ndarray:
    """values ** exponent element by element with libm's pow, as SciPy's scalar ``**``."""
    out = []
    for v in values.tolist():
        try:
            out.append(v ** exponent)
        except OverflowError:  # numpy's scalar ** returns inf here
            out.append(math.inf)
    return np.array(out)


def _norms(x) -> np.ndarray:
    """np.linalg.norm of each row of the (n, m) array x: sqrt of its dot product."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


def _select_initial_step(fun, t0, y0, t_bound, f0, rtol, atol, idx):
    """Hairer-Norsett-Wanner initial step (Sec. II.4), for order 7, per problem."""
    interval_length = np.abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    root_m = y0.shape[1] ** 0.5  # SciPy's norm here is the RMS norm
    d0 = _norms(y0 / scale) / root_m
    d1 = _norms(f0 / scale) / root_m
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval_length)
    f1 = np.empty_like(f0)
    fun(t0 + h0, y0 + h0[:, None] * f0, idx, f1)
    d2 = _norms((f1 - f0) / scale) / root_m / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.maximum(1e-6, h0 * 1e-3)
    h1[~flat] = _pow(0.01 / np.maximum(d1, d2)[~flat], 1 / (7 + 1))
    return np.minimum(np.minimum(100 * h0, h1), interval_length)


class _StageBuffer:
    """Stage matrices K of k problems, reused from step to step.

    ``stages`` holds, per stage s, the view it writes (``K[:, s]``), the
    view it reads (each problem's ``K[:s].T``) and its coefficients.
    """

    def __init__(self, k, m):
        self.K = np.empty((k, N_STAGES + 1, m))
        K_T = self.K.transpose(0, 2, 1)  # each problem's K.T, as SciPy's K[:s].T
        self.stages = [(self.K[:, s], K_T[:, :, :s], a) for s, a in STAGES]
        self.K_T_B = K_T[:, :, :-1]
        self.f_new = self.K[:, -1]


def _rk_step(fun, t, y, f, h, idx, buf):
    """One DOP853 step of every problem, its stages into buf; returns y_new."""
    buf.K[:, 0] = f
    h_col = h[:, None]
    t_stages = t[:, None] + C * h_col
    for s, (K_s, K_sT, a) in enumerate(buf.stages, start=1):
        fun(t_stages[:, s], y + np.matmul(K_sT, a) * h_col, idx, K_s)
    y_new = y + h_col * np.matmul(buf.K_T_B, B)
    fun(t + h, y_new, idx, buf.f_new)
    return y_new


def _estimate_error_norm(K, h, scale):
    K_T = K.transpose(0, 2, 1)
    err5 = np.matmul(K_T, E5) / scale
    err3 = np.matmul(K_T, E3) / scale
    err5_norm_2 = _pow(_norms(err5), 2)
    err3_norm_2 = _pow(_norms(err3), 2)
    denom = err5_norm_2 + 0.01 * err3_norm_2
    # SciPy returns 0 when both norms are 0; a unit denominator gives that
    # 0 without computing 0 / 0.
    denom[(err5_norm_2 == 0) & (err3_norm_2 == 0)] = 1.0
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * scale.shape[1])


def _step_factors(error_norm, rejected) -> np.ndarray:
    """Step-size factor of each problem: SciPy's scalar rule, libm pow and all."""
    factors = []
    for e, was_rejected in zip(error_norm.tolist(), rejected.tolist()):
        if e < 1:
            factor = MAX_FACTOR if e == 0 else min(MAX_FACTOR, SAFETY * e ** ERROR_EXPONENT)
            if was_rejected:
                factor = min(1, factor)
        else:
            factor = max(MIN_FACTOR, SAFETY * e ** ERROR_EXPONENT)
        factors.append(factor)
    return np.array(factors, dtype=float)


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


def _extended(K_step):
    """A step's stage matrix with room for the dense-output stages."""
    K = np.empty((coef.N_STAGES_EXTENDED, K_step.shape[1]))
    K[:N_STAGES + 1] = K_step
    return K


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


class _StepStages:
    """One problem's stage matrix of every step, as a sequence.

    They stay in the blocks the lockstep loop stored them in: step i is
    ``blocks[block[i]][row[i]]``.
    """

    def __init__(self, blocks, block, row):
        self._blocks, self._block, self._row = blocks, block, row

    def __len__(self):
        return len(self._block)

    def __getitem__(self, i):
        return self._blocks[self._block[i]][self._row[i]]


class DenseSolution:
    """Piecewise interpolant over the accepted steps of one problem.

    ``ts`` are the nodes; step i runs from ``t_steps[i]`` to
    ``t_steps[i + 1]`` (the two differ only at the end of an event step,
    where the last node is the event root) with stage matrix ``K[i]``.  A
    query on a node uses the segment with the lower index, as SciPy's
    ``OdeSolution`` does.  Segment interpolants are built on first use
    and kept.
    """

    def __init__(self, fun, ts, t_steps, y_steps, K, built=None):
        self.ts = ts
        self._fun = fun
        self._t = t_steps
        self._y = y_steps
        self._K = K
        self._F = built or {}  # segment index -> interpolation matrix
        self.n_segments = len(K)

    def _segment(self, i, t):
        t_old = self._t[i]
        h = self._t[i + 1] - t_old
        F = self._F.get(i)
        if F is None:
            F = self._F[i] = _dense_coefficients(
                self._fun, t_old, self._y[i], self._y[i + 1], h, _extended(self._K[i]))
        return _dense_eval(t_old, h, self._y[i], F, t)

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


def _one_rhs(fun, k):
    """The batch right-hand side restricted to problem k, as SciPy's fun(t, y)."""
    i = np.array([k])

    def fun_k(t, y):
        out = np.empty((1, y.size))
        fun(np.array([t]), y[None, :], i, out)
        return out[0]

    return fun_k


def _one_event(g, k):
    """A batch event function restricted to problem k, as SciPy's event(t, y)."""
    i = np.array([k])

    def g_k(t, y):
        return g(np.array([t]), y[None, :], i)[0]

    return g_k


def _locate_event(fun_k, events_k, fired, t_old, y_old, t_new, y_new, K_step):
    """(event, root, state at root, interpolant) of a step on which events fired.

    The earliest root among the fired events ends the run: every event is
    terminal.
    """
    K = _extended(K_step)
    h = t_new - t_old
    F = _dense_coefficients(fun_k, t_old, y_old, y_new, h, K)

    def sol(s):
        return _dense_eval(t_old, h, y_old, F, np.asarray(s))

    roots = np.asarray([
        brentq(lambda s, g=events_k[i]: g(s, sol(s)), t_old, t_new, xtol=4 * EPS, rtol=4 * EPS)
        for i in fired
    ])
    first = np.argsort(roots)[0]
    return fired[first], roots[first], sol(roots[first]), F


class _Active:
    """State of the problems still being integrated, one row per problem."""

    __slots__ = ("idx", "t", "y", "f", "h_abs", "rejected", "t_bound", "rtol", "atol", "g")

    def __init__(self, **arrays):
        for name, value in arrays.items():
            setattr(self, name, value)

    def keep(self, rows):
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[rows])


def solve(fun, t0: float, t_bound, y0, rtol, atol, events=()) -> list:
    """Integrate the batch y_k' = fun(t, y)_k from t0 forward to t_bound with DOP853.

    ``y0`` is an (n, m) array, one row per problem; ``t_bound``, ``rtol``
    and ``atol`` are scalars or length-n sequences.  ``fun(t, y, i, out)``
    gets the (k,) times, the (k, m) states and the (k,) batch indices of
    the problems it is asked about, and writes their derivatives into the
    (k, m) float array ``out``.  ``events`` is a sequence of
    ``(g, direction)`` pairs, ``g(t, y, i)`` returning (k,) values: a problem
    stops at the first zero of any g crossed in ``direction`` (+1 upward,
    -1 downward).  ``rtol`` below 100 eps is raised to it with a
    ``UserWarning``, one per problem.

    Returns one entry per problem: its ``OdeResult``, or the exception
    raised while its event root was located.
    """
    t0 = float(t0)
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("`y0` must be 2-dimensional: one row per problem.")
    n, m = y0.shape
    t_bound = np.broadcast_to(np.asarray(t_bound, dtype=float), (n,))
    if not np.all(t_bound > t0):
        raise ValueError("integration runs forward only: need t_bound > t0")
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (n,))
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (n,))
    for rtol_k in rtol.tolist():
        if rtol_k < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                          stacklevel=2)
    rtol = np.maximum(rtol, 100 * EPS)[:, None]
    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")
    atol = atol[:, None]
    directions = np.array([direction for _, direction in events], dtype=float)
    if not np.all(np.abs(directions) == 1):
        raise ValueError("every event direction must be +1 or -1")

    idx = np.arange(n)
    t = np.full(n, t0)
    f = np.empty_like(y0)
    fun(t, y0, idx, f)
    # Event values times their directions: an event fires when this
    # crosses from <= 0 to >= 0.
    g = np.empty((n, len(events)))
    for e, (event, _) in enumerate(events):
        g[:, e] = event(t, y0, idx)
    g *= directions
    active = _Active(idx=idx, t=t, y=y0, f=f,
                     h_abs=_select_initial_step(fun, t, y0, t_bound, f, rtol, atol, idx),
                     rejected=np.zeros(n, dtype=bool), t_bound=t_bound, rtol=rtol, atol=atol,
                     g=g)
    n_rejected = np.zeros(n, dtype=int)
    status = [None] * n
    hits = {}    # problem -> (event, root, state at root, interpolant, node dropped)
    errors = {}  # problem -> exception raised while locating its event
    # Every accepted node in the order it was reached: the batch index, t,
    # y, and (after the initial nodes) the step's stage matrix.
    rec_idx, rec_t, rec_y, rec_K = [idx], [t], [y0], []
    buf = _StageBuffer(n, m)

    while active.idx.size:
        # RungeKutta._step_impl: a fresh step starts no smaller than
        # min_step; a rejected one that falls below it fails.
        min_step = 10 * np.abs(np.nextafter(active.t, np.inf) - active.t)
        small = active.h_abs < min_step
        if small.any():
            active.h_abs = np.where(small, min_step, active.h_abs)
            stuck = small & active.rejected
            for k in active.idx[stuck].tolist():
                status[k] = -1
            active.keep(~stuck)
            if not active.idx.size:
                break

        t_new = np.minimum(active.t + active.h_abs, active.t_bound)
        h = t_new - active.t
        if buf.K.shape[0] != len(h):
            buf = _StageBuffer(len(h), m)
        y_new = _rk_step(fun, active.t, active.y, active.f, h, active.idx, buf)
        K = buf.K
        scale = active.atol + np.maximum(np.abs(active.y), np.abs(y_new)) * active.rtol
        error_norm = _estimate_error_norm(K, h, scale)
        accepted = error_norm < 1
        active.h_abs = np.abs(h) * _step_factors(error_norm, active.rejected)
        active.rejected = ~accepted

        rows = np.flatnonzero(accepted)
        # The accepted rows: a slice when all are, so that nothing is copied.
        all_accepted = len(rows) == len(accepted)
        acc = slice(None) if all_accepted else rows
        if not all_accepted:
            n_rejected[active.idx[active.rejected]] += 1
        idx_a, t_a, y_a = active.idx[acc], t_new[acc], y_new[acc]
        rec_idx.append(idx_a)
        rec_t.append(t_a)
        rec_y.append(y_a)
        rec_K.append(K.copy() if all_accepted else K[rows])
        done = t_a >= active.t_bound[acc]

        if events:
            g_new = np.empty((len(rows), len(events)))
            for e, (event, _) in enumerate(events):
                g_new[:, e] = event(t_a, y_a, idx_a)
            g_new *= directions
            crossed = (active.g[acc] <= 0) & (g_new >= 0)
            fired = np.flatnonzero(crossed.any(axis=1)).tolist() if crossed.any() else ()
            for j in fired:
                k, row = int(idx_a[j]), rows[j]
                t_old = active.t[row]
                try:
                    first, root, y_root, F = _locate_event(
                        _one_rhs(fun, k), [_one_event(g, k) for g, _ in events],
                        np.flatnonzero(crossed[j]).tolist(),
                        t_old, active.y[row], t_a[j], y_a[j], K[row])
                except Exception as exc:  # this problem's outcome, not the batch's
                    errors[k] = exc
                else:
                    # SciPy does not append a root equal to the last node
                    # (the initial node excepted).
                    hits[k] = (first, root, y_root, F, t_old != t0 and root == t_old)
                    status[k] = 1
                done[j] = True
            if all_accepted:
                active.g = g_new
            else:
                active.g = active.g.copy()
                active.g[acc] = g_new

        if all_accepted:
            active.t, active.y, active.f = t_a, y_a, buf.f_new.copy()
        else:
            active.t = np.where(accepted, t_new, active.t)
            active.y = np.where(accepted[:, None], y_new, active.y)
            active.f = np.where(accepted[:, None], buf.f_new, active.f)
        if done.any():
            for k in idx_a[done].tolist():
                if status[k] is None and k not in errors:
                    status[k] = 0
            finished = np.zeros(len(accepted), dtype=bool)
            finished[rows[done]] = True
            active.keep(~finished)

    return _assemble(fun, n, events, status, hits, errors, n_rejected,
                     rec_idx, rec_t, rec_y, rec_K)


def _assemble(fun, n, events, status, hits, errors, n_rejected,
              rec_idx, rec_t, rec_y, rec_K) -> list:
    """Each problem's OdeResult (or exception) from the lockstep records."""
    node_idx = np.concatenate(rec_idx)
    n_accepted = np.bincount(node_idx, minlength=n) - 1
    # A stable sort by problem keeps each problem's nodes in time order.
    order = np.argsort(node_idx, kind="stable")
    t_all = np.concatenate(rec_t)[order]
    y_all = np.concatenate(rec_y)[order]
    node_end = np.cumsum(n_accepted + 1).tolist()
    # The stage matrices stay in their blocks (copying them would double
    # the solver's largest store); each step gets its block and row.
    sizes = [len(block) for block in rec_K]
    step_order = np.argsort(node_idx[n:], kind="stable")
    block_of = np.repeat(np.arange(len(sizes)), sizes)[step_order]
    row_of = (np.arange(len(step_order)) - np.repeat(np.cumsum(sizes) - sizes, sizes))[step_order]
    step_end = np.cumsum(n_accepted).tolist()

    results = []
    for k in range(n):
        if k in errors:
            results.append(errors[k])
            continue
        n_steps = int(n_accepted[k])
        ts = t_all[node_end[k] - n_steps - 1:node_end[k]]
        ys = y_all[node_end[k] - n_steps - 1:node_end[k]]
        steps = slice(step_end[k] - n_steps, step_end[k])
        block, row = block_of[steps], row_of[steps]
        fun_k = _one_rhs(fun, k)
        t_events = [np.asarray([]) for _ in events]
        extra_stages = 0
        if k in hits:
            event, root, y_root, F, dropped = hits[k]
            t_events[event] = np.asarray([root])
            extra_stages = N_STAGES_EXTRA
            if dropped:
                ts, ys, block, row = ts[:-1], ys[:-1], block[:-1], row[:-1]
                sol = DenseSolution(fun_k, ts, ts, ys, _StepStages(rec_K, block, row))
            else:
                nodes_t, nodes_y = ts.copy(), ys.copy()
                nodes_t[-1], nodes_y[-1] = root, y_root
                sol = DenseSolution(fun_k, nodes_t, ts, ys, _StepStages(rec_K, block, row),
                                    {n_steps - 1: F})
                ts, ys = nodes_t, nodes_y
        else:
            sol = DenseSolution(fun_k, ts, ts, ys, _StepStages(rec_K, block, row))
        results.append(OdeResult(
            t=ts,
            y=ys.T,
            sol=sol,
            t_events=t_events,
            status=status[k],
            message=TOO_SMALL_STEP if status[k] == -1 else None,
            nfev=2 + N_STAGES * int(n_accepted[k] + n_rejected[k]) + extra_stages,
            n_accepted=n_steps,
            n_rejected=int(n_rejected[k]),
        ))
    return results
