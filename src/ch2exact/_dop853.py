"""Explicit Runge-Kutta DOP853 with dense output and one terminal event, for
a batch of independent problems stepped in lockstep.

This is the subset of ``scipy.integrate.solve_ivp(method="DOP853",
dense_output=True, events=event)`` that ``emden`` uses, for one terminal
event of direction -1, ported from SciPy 1.17.1
(``scipy/integrate/_ivp/{ivp,rk,common,base}.py`` and the C ``brentq``
behind ``scipy.optimize.brentq``) operation for operation, so that every
problem of a batch gets the doubles ``solve_ivp`` gives it alone: the same
nodes, states, event times and dense-output values.

``solve`` integrates n problems at once.  Each keeps its own t, step
size, ``t_bound``, ``rtol``/``atol``, status, event state and counters;
one iteration tries one step on every problem still running, and a
problem leaves the running set when it finishes.  Batched arithmetic
rounds as SciPy's one-problem arithmetic does: ``np.matmul`` over a stack
of stage matrices calls the BLAS kernel ``np.dot`` calls on each,
``sqrt(x @ x)`` is ``np.linalg.norm``, and elementwise operations and
``np.cbrt`` give the same bits on arrays as on scalars.  Powers are the
exception: numpy's array ``**`` may round differently from libm's
``pow``, which SciPy's scalar ``**`` calls, so each power is taken on
Python floats in one list comprehension and every branch around it is
done with numpy masks.  A batch of one steps through the same loop.

What differs from SciPy:

- one stage recurrence, ``_stages``, fills every stage matrix: the 13
  of a step, the last of them the derivative at its end, and the 16 of
  the extended tableau that dense output needs.  SciPy's separate update
  ``y + h K.T B`` is the input of stage 12, as B is A[12, :12], so a
  step's end comes out of the same loop;
- the solver returns data, not an interpolant: each problem's nodes, as
  arrays, and where its last step ends.  A step's stages, its end among
  them, depend only on its first node and its length, so ``dense_values``
  rebuilds any steps, of any problems, in one batch from those two: all
  16 stages, then the interpolant, which is not kept.  One evaluator,
  ``_dense_eval``, reads time q on step ``step[q]`` row by row from the
  steps' arrays, without a per-time copy of the interpolant; the event
  search uses it too.  Event roots are found after the loop, on each
  stopped problem's last step, by one array-valued ``brentq``.  The same
  operations run on the same doubles, so the values are the same;
- the right-hand side is autonomous, ``fun(y, i, out)``: it gets no time,
  so the solver computes no stage times and uses no stage nodes ``C``;
- every problem starts at t = 0 and runs forward only, there is exactly
  one event, it is terminal and fires only on a fall through zero, and
  the solver has no ``max_step``, ``first_step``, ``t_eval``,
  ``vectorized`` or complex-valued mode.

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

import numpy as np

from . import _dop853_coefficients as coef

EPS = np.finfo(float).eps
# solve raises any smaller rtol to this, with a UserWarning, as SciPy's DOP853 does.
RTOL_FLOOR = 100 * EPS

SAFETY = 0.9  # Multiply steps computed from asymptotic behaviour of errors by this.
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # the largest double whose square is finite

N_STAGES = coef.N_STAGES
E3 = coef.E3
E5 = coef.E5
D = coef.D
N_STAGES_EXTRA = coef.N_STAGES_EXTENDED - N_STAGES - 1  # stages evaluated only for dense output
ERROR_EXPONENT = -1 / (7 + 1)  # error estimator order 7
# Stages s >= 1 of the extended tableau and their A[s, :s]: a step takes the first 12.
STAGES = [(s, coef.A[s, :s]) for s in range(1, coef.N_STAGES_EXTENDED)]


@dataclass(frozen=True)
class OdeResult:
    """Outcome of one problem of ``solve``.

    ``status`` is 0 when ``t_bound`` was reached, 1 when the event stopped
    the integration and -1 when the step size underflowed (``message``
    says so).  ``t`` and ``y`` are the accepted nodes, ``y`` of shape
    (m, nodes); with status 1 the last one, ``t[-1]``, is the event root.
    Step i runs from node i to node i + 1, except the last step, which ends
    at ``t_step_end``: past the root when the event cut that step short,
    else ``t[-1]``.  ``nfev`` counts the right-hand-side evaluations
    ``solve_ivp`` makes; the 16 stages ``dense_values`` evaluates on each
    step it reads are not counted.
    """

    t: np.ndarray
    y: np.ndarray
    t_step_end: float
    status: int
    message: str | None
    nfev: int
    n_accepted: int
    n_rejected: int


def _squares(x) -> np.ndarray:
    """x ** 2 element by element with libm's pow, as SciPy's scalar ``**``."""
    # Python's float ** raises OverflowError where numpy's scalar ** returns inf.
    return np.array([v ** 2 for v in np.where(x > _SQRT_MAX, np.inf, x).tolist()])


def _norms(x, scale) -> np.ndarray:
    """np.linalg.norm of each row of the (n, m) array x / scale: sqrt of its dot product."""
    x = x / scale
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0, 0]


def _select_initial_step(fun, y0, t_bound, f0, rtol, atol, idx):
    """Hairer-Norsett-Wanner initial step (Sec. II.4), for order 7, per problem from t = 0."""
    scale = atol + np.abs(y0) * rtol
    root_m = y0.shape[1] ** 0.5  # SciPy's norm here is the RMS norm
    d0 = _norms(y0, scale) / root_m
    d1 = _norms(f0, scale) / root_m
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    f1 = np.empty_like(f0)
    fun(y0 + h0[:, None] * f0, idx, f1)
    d2 = _norms(f1 - f0, scale) / root_m / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    h1 = np.maximum(1e-6, h0 * 1e-3)
    h1[~flat] = [v ** (1 / (7 + 1)) for v in (0.01 / np.maximum(d1, d2)[~flat]).tolist()]
    return np.minimum(np.minimum(100 * h0, h1), t_bound)


def _stages(fun, y, h, idx, K):
    """Fill stages 1 to n - 1 (n > N_STAGES) of the (k, n, m) stage matrices K of k steps
    from y, of length h, whose stage 0 is set: stage s is fun(y + h K[:s].T A[s, :s]).
    Returns the input of stage N_STAGES, the steps' ends: B is A[N_STAGES, :N_STAGES]."""
    K_T = K.transpose(0, 2, 1)  # each problem's K.T, as SciPy's K[:s].T
    h_col = h[:, None]
    for s, a in STAGES[:K.shape[1] - 1]:
        y_s = y + np.matmul(K_T[:, :, :s], a) * h_col
        if s == N_STAGES:
            y_new = y_s
        fun(y_s, idx, K[:, s])
    return y_new


def _rk_step(fun, y, f, h, idx):
    """One DOP853 step of every problem: (y_new, K), K the (k, N_STAGES + 1, m) stage matrices."""
    K = np.empty((len(h), N_STAGES + 1, y.shape[1]))
    K[:, 0] = f
    return _stages(fun, y, h, idx, K), K


def _estimate_error_norm(K, h, scale):
    K_T = K.transpose(0, 2, 1)
    squares = _squares(np.concatenate([_norms(np.matmul(K_T, E5), scale),
                                       _norms(np.matmul(K_T, E3), scale)]))
    err5_norm_2, err3_norm_2 = squares[:len(h)], squares[len(h):]
    denom = err5_norm_2 + 0.01 * err3_norm_2
    # SciPy returns 0 when both norms are 0; a unit denominator gives that
    # 0 without computing 0 / 0.
    denom[(err5_norm_2 == 0) & (err3_norm_2 == 0)] = 1.0
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * scale.shape[1])


def _step_factors(error_norm, rejected) -> np.ndarray:
    """Step-size factor of each problem: SciPy's scalar rule, libm pow and all."""
    zero = error_norm == 0  # 0 ** negative raises in Python; its factor is the cap
    factor = SAFETY * np.array([e ** ERROR_EXPONENT
                                for e in np.where(zero, 1.0, error_norm).tolist()])
    factor[zero] = np.inf
    # A step after a rejected one may not grow.  np.fmax, like the scalar
    # max, gives MIN_FACTOR for a NaN error norm.
    cap = np.where(rejected, 1.0, MAX_FACTOR)
    return np.where(error_norm < 1, np.minimum(cap, factor), np.fmax(MIN_FACTOR, factor))


def _dense_coefficients(fun, y_old, h, idx):
    """SciPy's ``_dense_output_impl`` on k steps from y_old, of length h, of the problems
    idx, their stages and ends rebuilt from y_old by ``_stages``, as ``_rk_step`` builds
    them: each stage matrix has its strides, so ``np.matmul`` rounds alike."""
    K = np.empty((len(h), coef.N_STAGES_EXTENDED, y_old.shape[1]))
    fun(y_old, idx, K[:, 0])
    y = _stages(fun, y_old, h, idx, K)
    F = np.empty((len(h), coef.INTERPOLATOR_POWER, y_old.shape[1]))
    h_col = h[:, None]
    f_old = K[:, 0]
    f = K[:, N_STAGES]
    delta_y = y - y_old
    F[:, 0] = delta_y
    F[:, 1] = h_col * f_old - delta_y
    F[:, 2] = 2 * delta_y - h_col * (f + f_old)
    F[:, 3:] = h[:, None, None] * np.matmul(D, K)
    return F


def _dense_eval(t_old, h, y_old, F, step, t):
    """Values at the (k,) times t, t[q] read on the step step[q] of the step
    interpolants (t_old, h, y_old, F); each row of F is read per time, not copied whole."""
    x = ((t - t_old[step]) / h[step])[:, None]
    y = np.zeros((len(t), F.shape[2]))
    for i, row in enumerate(reversed(range(F.shape[1]))):  # F's rows, last first
        y += F[step, row]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old[step]


def dense_values(fun, idx, t_old, y_old, t_new, step, t) -> np.ndarray:
    """The (k, m) values at the (k,) times t, t[q] read on the step step[q], as SciPy's
    ``OdeSolution`` evaluates it.  Step j, of the problem idx[j], runs from
    (t_old[j], y_old[j]) to t_new[j]; each step's stages and end are rebuilt once
    from y_old[j], all steps in one batch, then its interpolant.  ``fun`` is
    ``solve``'s right-hand side."""
    h = t_new - t_old
    return _dense_eval(t_old, h, y_old, _dense_coefficients(fun, y_old, h, idx), step, t)


def brentq(f, xa, xb, xtol: float, rtol: float, maxiter: int = 100):
    """Roots of n functions by Brent's method, each as SciPy's C brentq finds it alone.

    ``f(x, i)`` returns the values at the points x of the functions with
    the indices i; function i is bracketed by ``[xa[i], xb[i]]``.  The C
    code runs on all at once, its branches as masks, and a function leaves
    when it converges or fails.  Returns the (n,) roots (NaN where none was
    found) and {index: the exception SciPy's brentq raises}.
    """
    xpre, xcur = np.broadcast_arrays(np.asarray(xa, dtype=float), np.asarray(xb, dtype=float))
    n = len(xpre)
    roots = np.full(n, np.nan)
    errors = {}

    def call(x, i):
        fx = np.asarray(f(x, i), dtype=float)
        nan = np.isnan(fx)
        for k, x_k in zip(i[nan].tolist(), x[nan].tolist()):
            errors.setdefault(k, ValueError(
                f"The function value at x={x_k} is NaN; solver cannot continue."))
        return fx, ~nan

    fx, ok = call(np.concatenate([xpre, xcur]), np.tile(np.arange(n), 2))
    fpre, fcur = fx[:n], fx[n:]
    ok = ok[:n] & ok[n:]
    for x, fx_end in ((xpre, fpre), (xcur, fcur)):
        end = ok & (fx_end == 0)
        roots[end] = x[end]
        ok &= ~end
    same = ok & (np.signbit(fpre) == np.signbit(fcur))
    errors.update((k, ValueError("f(a) and f(b) must have different signs"))
                  for k in np.flatnonzero(same).tolist())
    i = np.flatnonzero(ok & ~same)
    xpre, xcur, fpre, fcur = xpre[i], xcur[i], fpre[i], fcur[i]
    xblk = fblk = spre = scur = np.zeros(len(i))
    for _ in range(maxiter):
        if not i.size:
            break
        new = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        d = xcur - xpre
        xblk, fblk, spre, scur = np.where(new, [xpre, fpre, d, d], [xblk, fblk, spre, scur])
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, [xcur, xblk, xcur], [xpre, xcur, xblk])
        fpre, fcur, fblk = np.where(swap, [fcur, fblk, fcur], [fpre, fcur, fblk])

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            roots[i[done]] = xcur[done]
            i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[~done] for v in (i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
            if not i.size:
                break

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(short, [scur, stry], sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur, ok = call(xcur, i)
        if not ok.all():
            i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                v[ok] for v in (i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur))
    errors.update((k, RuntimeError(f"Failed to converge after {maxiter} iterations."))
                  for k in i.tolist())
    return roots, errors


def _locate_events(fun, event, k, t_old, y_old, t_new) -> dict:
    """The event roots of the problems k on their steps from (t_old, y_old) to
    t_new, found as one batch.

    Returns, per problem, (root, state at root, whether the root node is
    dropped), or the exception SciPy's brentq raises; the interpolants
    rebuilt for the search are not kept.
    """
    h = t_new - t_old
    F = _dense_coefficients(fun, y_old, h, k)

    def g(t, i):
        return event(t, _dense_eval(t_old, h, y_old, F, i, t), k[i])

    roots, errors = brentq(g, t_old, t_new, xtol=4 * EPS, rtol=4 * EPS)
    located = {int(k[s]): error for s, error in errors.items()}
    found = [s for s in range(len(k)) if s not in errors]
    y_root = _dense_eval(t_old, h, y_old, F, found, roots[found])
    for s, y_s in zip(found, y_root):
        # SciPy does not append a root equal to the last node (the initial
        # node, t = 0, excepted).
        located[int(k[s])] = (roots[s], y_s, t_old[s] != 0.0 and roots[s] == t_old[s])
    return located


class _Active:
    """State of the problems still being integrated, one row per problem."""

    __slots__ = ("idx", "t", "y", "f", "h_abs", "rejected", "t_bound", "rtol", "atol", "g")

    def __init__(self, **arrays):
        for name, value in arrays.items():
            setattr(self, name, value)

    def keep(self, rows):
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[rows])


def solve(fun, t_bound, y0, rtol, atol, event) -> list:
    """Integrate the autonomous batch y_k' = fun(y)_k from t = 0 forward to t_bound with DOP853.

    ``y0`` is a finite (n, m) array, the state of each problem at t = 0;
    ``t_bound``, ``rtol`` and ``atol`` are scalars or length-n sequences,
    with every ``t_bound`` positive and finite and ``atol >= 0``.  These are
    not checked: the one caller, ``emden.integrate_many``, guarantees them.
    ``fun(y, i, out)`` gets the (k, m) states and the (k,) batch indices of
    the problems it is asked about, and writes their derivatives into the
    (k, m) float array ``out``.  It must be a pure function of each row,
    whatever rows come with it: ``dense_values`` evaluates a step's stages
    again, in other batches.  ``event(t, y, i)`` gets the (k,) times too and
    returns (k,) values; a problem stops at the first step over which its
    event value falls from >= 0 to <= 0, at the root in that step (SciPy's
    terminal event of direction -1).  ``rtol`` below RTOL_FLOOR (100 eps)
    is raised to it with a ``UserWarning``, one per problem.  numpy's
    floating-point warnings are off while it steps (``fun`` too): a state
    that overflows turns inf or NaN quietly, and its step then fails at
    ``min_step``.

    Returns one entry per problem: its ``OdeResult`` of node and step
    arrays, or the exception SciPy's brentq raises while its event root is
    located.
    """
    y0 = np.array(y0, dtype=float)
    n = len(y0)
    t_bound = np.broadcast_to(np.asarray(t_bound, dtype=float), (n,))
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (n,))
    for rtol_k in rtol.tolist():
        if rtol_k < RTOL_FLOOR:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {RTOL_FLOOR})`.",
                          stacklevel=2)
    rtol = np.maximum(rtol, RTOL_FLOOR)[:, None]
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (n,))[:, None]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        idx = np.arange(n)
        t = np.zeros(n)
        f = np.empty_like(y0)
        fun(y0, idx, f)
        g = np.asarray(event(t, y0, idx), dtype=float)
        h_abs = _select_initial_step(fun, y0, t_bound, f, rtol, atol, idx)
        status, n_rejected, records = _solve_lockstep(
            fun, event, _Active(idx=idx, t=t, y=y0, f=f, h_abs=h_abs,
                                rejected=np.zeros(n, dtype=bool), t_bound=t_bound,
                                rtol=rtol, atol=atol, g=g))
        return _assemble(fun, event, n, status, n_rejected, *records)


def _solve_lockstep(fun, event, active):
    """``solve``'s loop: one step of each running problem per iteration.

    Returns the statuses, rejection counts and the batch index, t and y of
    the nodes accepted on each iteration, which ``_assemble`` takes.
    """
    n = len(active.idx)
    n_rejected = np.zeros(n, dtype=int)
    status = [None] * n
    rec_idx, rec_t, rec_y = [active.idx], [active.t], [active.y]

    while active.idx.size:
        # RungeKutta._step_impl: a fresh step (a NaN one too) starts no smaller
        # than min_step; a rejected one that falls below it fails.
        min_step = 10 * np.abs(np.nextafter(active.t, np.inf) - active.t)
        small = ~(active.h_abs >= min_step)
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
        y_new, K = _rk_step(fun, active.y, active.f, h, active.idx)
        scale = active.atol + np.maximum(np.abs(active.y), np.abs(y_new)) * active.rtol
        error_norm = _estimate_error_norm(K, h, scale)
        accepted = error_norm < 1
        active.h_abs = np.abs(h) * _step_factors(error_norm, active.rejected)
        active.rejected = ~accepted
        n_rejected[active.idx[active.rejected]] += 1

        rows = np.flatnonzero(accepted)
        idx_a, t_a, y_a = active.idx[rows], t_new[rows], y_new[rows]
        rec_idx.append(idx_a)
        rec_t.append(t_a)
        rec_y.append(y_a)
        g_new = np.asarray(event(t_a, y_a, idx_a), dtype=float)
        stops = (active.g[rows] >= 0) & (g_new <= 0)
        for k in idx_a[stops].tolist():
            status[k] = 1
        done = stops | (t_a >= active.t_bound[rows])

        active.t = np.where(accepted, t_new, active.t)
        active.y = np.where(accepted[:, None], y_new, active.y)
        active.f = np.where(accepted[:, None], K[:, -1], active.f)
        active.g = active.g.copy()
        active.g[rows] = g_new
        if done.any():
            for k in idx_a[done].tolist():
                if status[k] is None:
                    status[k] = 0
            finished = np.zeros(len(accepted), dtype=bool)
            finished[rows[done]] = True
            active.keep(~finished)

    return status, n_rejected, (rec_idx, rec_t, rec_y)


def _assemble(fun, event, n, status, n_rejected, rec_idx, rec_t, rec_y) -> list:
    """Each problem's OdeResult (or exception) from the lockstep's node records."""
    node_idx = np.concatenate(rec_idx)
    n_accepted = np.bincount(node_idx, minlength=n) - 1
    # A stable sort by problem keeps each problem's nodes in time order.
    order = np.argsort(node_idx, kind="stable")
    t_all = np.concatenate(rec_t)[order]
    y_all = np.concatenate(rec_y)[order]
    node_end = np.cumsum(n_accepted + 1)
    # A problem stops on its last accepted step, so its root lies between its last two nodes.
    stopped = np.flatnonzero(np.array(status) == 1)
    last = node_end[stopped] - 1
    located = _locate_events(fun, event, stopped, t_all[last - 1], y_all[last - 1],
                             t_all[last]) if stopped.size else {}

    results = []
    for k in range(n):
        hit = located.get(k)
        if isinstance(hit, Exception):
            results.append(hit)
            continue
        n_steps = int(n_accepted[k])
        # A root on the last node drops that node and the step past it, as SciPy does.
        dropped = hit is not None and bool(hit[2])
        nodes = slice(node_end[k] - n_steps - 1, node_end[k] - dropped)
        # Copies: a view would keep the whole batch's nodes alive with this problem.
        ts, ys = t_all[nodes].copy(), y_all[nodes].copy()
        t_step_end = float(ts[-1])
        if hit is not None and not dropped:
            ts[-1], ys[-1] = hit[:2]  # the event step ends past its node, the root
        results.append(OdeResult(
            t=ts,
            y=ys.T,
            t_step_end=t_step_end,
            status=status[k],
            message=TOO_SMALL_STEP if status[k] == -1 else None,
            nfev=2 + N_STAGES * int(n_accepted[k] + n_rejected[k])
            + (N_STAGES_EXTRA if hit is not None else 0),
            n_accepted=n_steps,
            n_rejected=int(n_rejected[k]),
        ))
    return results
