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

- a step's interpolant is built from its stored stage matrix by each
  query that reads it, instead of after every step, and is not kept; a
  query builds all the interpolants it needs in one batch.  The event
  step is no exception: event roots are found after the loop, on every
  step where the event fired, by one array-valued ``brentq`` on
  interpolants built for that search alone.  The same operations run on
  the same data, so the values are the same;
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

SAFETY = 0.9  # Multiply steps computed from asymptotic behaviour of errors by this.
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # the largest double whose square is finite

N_STAGES = coef.N_STAGES
A = coef.A[:N_STAGES, :N_STAGES]
B = coef.B
E3 = coef.E3
E5 = coef.E5
D = coef.D
A_EXTRA = coef.A[N_STAGES + 1:]
N_STAGES_EXTRA = len(A_EXTRA)  # stages evaluated only for dense output
ERROR_EXPONENT = -1 / (7 + 1)  # error estimator order 7
STAGES = [(s, A[s][:s]) for s in range(1, N_STAGES)]


@dataclass(frozen=True)
class OdeResult:
    """Outcome of one problem of ``solve``.

    ``status`` is 0 when ``t_bound`` was reached, 1 when the event stopped
    the integration and -1 when the step size underflowed (``message``
    says so).  ``t`` and ``y`` are the accepted nodes; with status 1 the
    last one, ``t[-1]``, is the event root.  ``nfev`` counts
    right-hand-side evaluations made by ``solve``; the stages ``sol``
    evaluates to interpolate a step are not included.
    """

    t: np.ndarray
    y: np.ndarray
    sol: "DenseSolution"
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


def _rk_step(fun, y, f, h, idx):
    """One DOP853 step of every problem: (y_new, K), K the (k, N_STAGES + 1, m) stage matrices."""
    K = np.empty((len(h), N_STAGES + 1, y.shape[1]))
    K[:, 0] = f
    K_T = K.transpose(0, 2, 1)  # each problem's K.T, as SciPy's K[:s].T
    h_col = h[:, None]
    for s, a in STAGES:
        fun(y + np.matmul(K_T[:, :, :s], a) * h_col, idx, K[:, s])
    y_new = y + h_col * np.matmul(K_T[:, :, :-1], B)
    fun(y_new, idx, K[:, -1])
    return y_new, K


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


def _dense_coefficients(fun, y_old, y, h, K_steps, idx):
    """SciPy's ``_dense_output_impl`` on k steps (stage matrices K_steps) of the problems idx."""
    K = np.empty((len(h), coef.N_STAGES_EXTENDED, y.shape[1]))
    K[:, :N_STAGES + 1] = K_steps
    K_T = K.transpose(0, 2, 1)
    h_col = h[:, None]
    for s, a in enumerate(A_EXTRA, start=N_STAGES + 1):
        fun(y_old + np.matmul(K_T[:, :, :s], a[:s]) * h_col, idx, K[:, s])
    F = np.empty((len(h), coef.INTERPOLATOR_POWER, y.shape[1]))
    f_old = K[:, 0]
    f = K[:, N_STAGES]
    delta_y = y - y_old
    F[:, 0] = delta_y
    F[:, 1] = h_col * f_old - delta_y
    F[:, 2] = 2 * delta_y - h_col * (f + f_old)
    F[:, 3:] = h[:, None, None] * np.matmul(D, K)
    return F


def _dense_eval(t_old, h, y_old, F, t):
    """Values at t of the step interpolants (t_old, h, y_old, F), one step per time."""
    x = (t - t_old) / h
    if np.ndim(x):
        x = x[:, None]
    y = np.zeros_like(y_old)
    for i, f in enumerate(F.swapaxes(0, -2)[::-1]):  # F's rows, last first
        y += f
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


class DenseSolution:
    """Piecewise interpolant over the accepted steps of problem k.

    ``ts`` are the nodes; step i runs from ``t_steps[i]`` to
    ``t_steps[i + 1]`` (the two differ only at the end of an event step,
    where the last node is the event root).  Its stage matrix stays in the
    block the lockstep loop stored it in: ``blocks[block[i]][row[i]]``.  A
    query on a node uses the segment with the lower index, as SciPy's
    ``OdeSolution`` does.  Each query builds the interpolants of the
    segments it reads, the event step's included, in one batch, and keeps
    none; each point is evaluated on its own segment's interpolant with
    the arithmetic SciPy uses.
    """

    def __init__(self, fun, k, ts, t_steps, y_steps, blocks, block, row):
        self.ts = ts
        self._fun, self._k = fun, k
        self._t, self._y = t_steps, y_steps
        self._blocks, self._block, self._row = blocks, block, row
        self.n_segments = len(block)

    def _find(self, t):
        segments = np.searchsorted(self.ts, t, side="left") - 1
        return np.minimum(np.maximum(segments, 0), self.n_segments - 1)

    def __call__(self, t):
        t = np.asarray(t)
        segments = self._find(t)
        built, where = np.unique(segments, return_inverse=True)
        F = _build([(self, i) for i in built.tolist()])[where.reshape(t.shape)]
        t_old = self._t[segments]
        return _dense_eval(t_old, self._t[segments + 1] - t_old, self._y[segments], F, t).T


def _build(pieces):
    """Interpolation matrices of the (solution, segment) pairs, solutions of one solve."""
    fun = pieces[0][0]._fun
    t_old, t_new, y_old, y_new, K, idx = map(np.array, zip(*[
        (sol._t[i], sol._t[i + 1], sol._y[i], sol._y[i + 1],
         sol._blocks[sol._block[i]][sol._row[i]], sol._k)
        for sol, i in pieces]))
    return _dense_coefficients(fun, y_old, y_new, t_new - t_old, K, idx)


def dense_values(sols, t) -> np.ndarray:
    """``sols[p](t[p])`` for every p, solutions of one solve, as an (n, m) array,
    evaluated as one batch."""
    pieces = [(sol, int(sol._find(t_p))) for sol, t_p in zip(sols, t)]
    t_old, t_new, y_old = map(np.array, zip(*[
        (sol._t[i], sol._t[i + 1], sol._y[i]) for sol, i in pieces]))
    return _dense_eval(t_old, t_new - t_old, y_old, _build(pieces), np.asarray(t, dtype=float))


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


def _locate_events(fun, event, fired) -> dict:
    """The event root of every step in ``fired`` (see ``solve``), found as one batch.

    Returns, per problem, (root, state at root, whether the root node is
    dropped), or the exception SciPy's brentq raises; the interpolants
    built for the search are not kept.
    """
    k, t_old, y_old, t_new, y_new, K = map(np.concatenate, zip(*fired))
    h = t_new - t_old
    F = _dense_coefficients(fun, y_old, y_new, h, K, k)

    def g(t, i):
        return event(t, _dense_eval(t_old[i], h[i], y_old[i], F[i], t), k[i])

    roots, errors = brentq(g, t_old, t_new, xtol=4 * EPS, rtol=4 * EPS)
    located = {int(k[s]): error for s, error in errors.items()}
    found = [s for s in range(len(k)) if s not in errors]
    y_root = _dense_eval(t_old[found], h[found], y_old[found], F[found], roots[found])
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
    (k, m) float array ``out``.  ``event(t, y, i)`` gets the (k,) times too
    and returns (k,) values; a problem stops at the first step over which
    its event value falls from >= 0 to <= 0, at the root in that step
    (SciPy's terminal event of direction -1).  ``rtol`` below 100 eps is
    raised to it with a ``UserWarning``, one per problem.  numpy's
    floating-point warnings are off while it steps (``fun`` too): a state
    that overflows turns inf or NaN quietly, and its step then fails at
    ``min_step``.

    Returns one entry per problem: its ``OdeResult``, or the exception
    SciPy's brentq raises while its event root is located.
    """
    y0 = np.array(y0, dtype=float)
    n = len(y0)
    t_bound = np.broadcast_to(np.asarray(t_bound, dtype=float), (n,))
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), (n,))
    for rtol_k in rtol.tolist():
        if rtol_k < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                          stacklevel=2)
    rtol = np.maximum(rtol, 100 * EPS)[:, None]
    atol = np.broadcast_to(np.asarray(atol, dtype=float), (n,))[:, None]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        idx = np.arange(n)
        t = np.zeros(n)
        f = np.empty_like(y0)
        fun(y0, idx, f)
        g = np.asarray(event(t, y0, idx), dtype=float)
        h_abs = _select_initial_step(fun, y0, t_bound, f, rtol, atol, idx)
        status, n_rejected, fired, records = _solve_lockstep(
            fun, event, _Active(idx=idx, t=t, y=y0, f=f, h_abs=h_abs,
                                rejected=np.zeros(n, dtype=bool), t_bound=t_bound,
                                rtol=rtol, atol=atol, g=g))

        located = _locate_events(fun, event, fired) if fired else {}
        return _assemble(fun, n, status, located, n_rejected, *records)


def _solve_lockstep(fun, event, active):
    """``solve``'s loop: one step of each running problem per iteration.

    Returns the statuses, rejection counts, fired steps and node records
    (batch index, t, y and stage matrices per iteration) that
    ``_locate_events`` and ``_assemble`` take.
    """
    n = len(active.idx)
    n_rejected = np.zeros(n, dtype=int)
    status = [None] * n
    # Per iteration, the steps on which the event fired: problems, t and y
    # at both ends, and stage matrices.
    fired = []
    # Every accepted node in the order it was reached: the batch index, t,
    # y, and (after the initial nodes) the step's stage matrix.
    rec_idx, rec_t, rec_y, rec_K = [active.idx], [active.t], [active.y], []

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
        idx_a, t_a, y_a, K_a = active.idx[rows], t_new[rows], y_new[rows], K[rows]
        rec_idx.append(idx_a)
        rec_t.append(t_a)
        rec_y.append(y_a)
        rec_K.append(K_a)
        done = t_a >= active.t_bound[rows]

        g_new = np.asarray(event(t_a, y_a, idx_a), dtype=float)
        js = np.flatnonzero((active.g[rows] >= 0) & (g_new <= 0))
        if js.size:
            fired.append((idx_a[js], active.t[rows[js]], active.y[rows[js]], t_a[js],
                          y_a[js], K_a[js]))
            for k in idx_a[js].tolist():
                status[k] = 1
            done[js] = True

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

    return status, n_rejected, fired, (rec_idx, rec_t, rec_y, rec_K)


def _assemble(fun, n, status, located, n_rejected, rec_idx, rec_t, rec_y, rec_K) -> list:
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
        hit = located.get(k)
        if isinstance(hit, Exception):
            results.append(hit)
            continue
        n_steps = int(n_accepted[k])
        ts = t_all[node_end[k] - n_steps - 1:node_end[k]]
        ys = y_all[node_end[k] - n_steps - 1:node_end[k]]
        steps = slice(step_end[k] - n_steps, step_end[k])
        block, row = block_of[steps], row_of[steps]
        extra_stages = 0
        nodes_t, nodes_y = ts, ys
        if hit is not None:
            root, y_root, dropped = hit
            extra_stages = N_STAGES_EXTRA
            if dropped:
                ts, ys, block, row = ts[:-1], ys[:-1], block[:-1], row[:-1]
                nodes_t, nodes_y = ts, ys
            else:
                # The event step keeps its end for the interpolant; its node is the root.
                nodes_t, nodes_y = ts.copy(), ys.copy()
                nodes_t[-1], nodes_y[-1] = root, y_root
        results.append(OdeResult(
            t=nodes_t,
            y=nodes_y.T,
            sol=DenseSolution(fun, k, nodes_t, ts, ys, rec_K, block, row),
            status=status[k],
            message=TOO_SMALL_STEP if status[k] == -1 else None,
            nfev=2 + N_STAGES * int(n_accepted[k] + n_rejected[k]) + extra_stages,
            n_accepted=n_steps,
            n_rejected=int(n_rejected[k]),
        ))
    return results
