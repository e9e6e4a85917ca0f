"""Scale-factor ODE driving the self-similar ansatz.

The scale factor a(s) obeys an Emden-type equation

    a''(s) = xi / (3 a(s)^{1/3}),        a(0) = a0 != 0,  a'(0) = a1,

with a^{1/3} the sign-preserving real cube root.  Multiplying by a' and
integrating gives the conserved orbit energy

    theta = a'^2 / 2 - (xi / 2) |a|^{2/3},

which classifies every orbit.  |a| reaches zero in finite time S (collapse
of the scale factor, hence density blowup) when xi < 0, whatever the
slope, and when xi > 0 with an inward slope sign(a0) a'(0) < 0 and
theta >= 0; every other xi > 0 orbit grows like (4 xi / 9)^{3/4} s^{3/2}.

Collapse times are computed twice, by independent routes: ODE event
detection on the trajectory, and a reduction of the first integral to

    S = int db / sqrt(2 theta + xi b^{2/3})

which the substitution G = sqrt(|xi|/2) b^{1/3} turns into a multiple of
int G^2 / sqrt(theta + sign(xi) G^2) dG.  That integral is elementary: a
cycloid, the radial Kepler equation, for xi < 0 (G = sqrt(theta) sin phi)
and its hyperbolic twin for xi > 0 (G = sqrt(theta) sinh psi).  The event
route uses the same closed form only for the time left after the stop
event, from |a| = REL_STOP |a0| down to zero.

The ODE is integrated with an in-tree port of SciPy's DOP853 (``_dop853``),
which reproduces SciPy 1.17's ``solve_ivp`` bit for bit on these problems
without importing SciPy.  The solver steps a batch of orbits in lockstep,
through one loop whatever the batch size: ``integrate_many`` and
``analyze_many`` take a batch, ``analyze`` is ``analyze_many`` of one
orbit, and every orbit gets the doubles it would get alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _dop853

__all__ = [
    "DEFAULT_TOL",
    "REL_STOP",
    "S_AGREEMENT_TOL",
    "BlowupReport",
    "Classification",
    "CollapseSingularity",
    "EmdenParams",
    "IntegrationFailure",
    "InvalidEnergy",
    "Trajectory",
    "analyze",
    "analyze_many",
    "classify",
    "collapse_time_quadrature",
    "detect_collapse",
    "energy",
    "integrate_many",
    "node_energies",
]

# Local error tolerance for the adaptive integrator (mixed abs/rel).
DEFAULT_TOL = 1e-10
# Halt integration once |a| falls to REL_STOP * |a0|.
REL_STOP = 1e-10
# Maximum tolerated disagreement between the two collapse-time routes,
# relative to S.
S_AGREEMENT_TOL = 1e-6


class CollapseSingularity(ArithmeticError):
    """The right-hand side was evaluated at the a = 0 singularity."""


class InvalidEnergy(ArithmeticError):
    """Orbit energy fails the sign condition required by the requested route."""


class IntegrationFailure(ArithmeticError):
    """Adaptive stepping broke down, or the state overflowed.

    ``last_state`` is the last accepted node whose state is finite, the
    one an overflow message names, as an ``(s, a, a_dot)`` tuple of
    floats, or None when there is none.
    """

    def __init__(self, message: str, last_state: tuple[float, float, float] | None = None):
        super().__init__(message)
        self.last_state = last_state


class Classification(enum.Enum):
    """Long-time fate of an orbit: |a| reaches zero in finite time, or grows forever."""

    COLLAPSE = "Collapse"
    GLOBAL = "Global"


@dataclass(frozen=True)
class EmdenParams:
    """Coupling constant and initial data for the scale-factor equation."""

    xi: float
    a0: float
    a1: float = 0.0

    def __post_init__(self):
        for name in ("xi", "a0", "a1"):
            v = getattr(self, name)
            real = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (real and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
        if self.xi == 0:
            raise ValueError("coupling constant fails xi != 0")
        if self.a0 == 0:
            raise ValueError("initial scale violates a(0) = a0 != 0")

    @property
    def theta(self) -> float:
        """Conserved orbit energy evaluated on the initial data."""
        return energy(self.xi, self.a0, self.a1)


def energy(xi: float, a: float, a_dot: float) -> float:
    """Orbit energy a'^2/2 - (xi/2)|a|^{2/3}; conserved along exact orbits."""
    # |a|^{2/3} via the squared cube root keeps the expression exactly even in a.
    return 0.5 * a_dot * a_dot - 0.5 * xi * float(np.cbrt(a)) ** 2


def node_energies(*trajs: "Trajectory") -> np.ndarray:
    """energy() at every node of the trajectories, one after another, as an
    array of the same doubles."""
    a = np.concatenate([traj.a for traj in trajs])
    a_dot = np.concatenate([traj.a_dot for traj in trajs])
    xi = np.repeat([traj.params.xi for traj in trajs], [len(traj.a) for traj in trajs])
    # float ** 2 is libm's pow, as in energy; c * c can differ in the last bit.
    cbrt_sq = np.array([c ** 2 for c in np.cbrt(a).tolist()])
    # The products and the difference round as energy's float operations do,
    # which overflow without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * a_dot * a_dot - 0.5 * xi * cbrt_sq


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Numerical orbit with dense output, as plain arrays: it pickles.

    ``s``, ``a`` and ``a_dot`` are float arrays holding the accepted
    integration nodes (``s`` strictly increasing) and the states there,
    the orbit's one copy of them.  The integrator's step i runs from node
    i to node i + 1, except the last step, which ends at ``s_step_end``:
    past the last node when the stop event cut that step short at its
    root, else at ``s_max``, the last node.  ``eval_many`` and
    ``analyze``'s rate probe share one reader: a node time returns the
    stored node, so node values round-trip, and between nodes it rebuilds
    the integrator's dense-output interpolant from the step's first node
    and its length.

    ``nfev``, ``n_accepted`` and ``n_rejected`` count the integrator's
    right-hand-side evaluations, accepted steps and rejected steps.  They
    are diagnostics only and never enter an output file.
    """

    params: EmdenParams
    s: np.ndarray
    a: np.ndarray
    a_dot: np.ndarray
    s_step_end: float
    collapsed: bool
    nfev: int
    n_accepted: int
    n_rejected: int

    @property
    def s_max(self) -> float:
        """The last node's time: the horizon, or the stop event's root."""
        return float(self.s[-1])

    def eval_many(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        """(a, a') arrays at the times of the 1-D sequence s_values, each in [0, s_max].

        Only the times between nodes reach the interpolant, so a batch of
        node times builds none.
        """
        s_arr = np.asarray(s_values, dtype=float)
        if s_arr.ndim != 1:
            raise ValueError(f"s_values must be a 1-D sequence of times, got shape {s_arr.shape}")
        if s_arr.size and not (s_arr.min() >= 0.0 and s_arr.max() <= self.s_max):  # NaN too
            raise ValueError(
                f"requested s range [{s_arr.min()}, {s_arr.max()}] outside [0, {self.s_max}]"
            )
        return _states_at([self], [s_arr])[0]


def _states_at(trajs, times) -> list:
    """(a, a') arrays of each trajs[p] at the 1-D times times[p], each in [0, s_max].

    A time on a node returns the stored node.  Every other time, whatever
    trajectory it comes from, is read in one ``_dop853.dense_values`` call,
    which rebuilds each step read once, from its first node, its length
    and its orbit's xi.
    """
    out, starts = [], []
    offset = 0  # of each trajectory's steps in the batch's
    for traj, s in zip(trajs, times):
        s = np.asarray(s, dtype=float)
        i = np.minimum(traj.s.searchsorted(s), len(traj.s) - 1)
        between = np.flatnonzero(traj.s[i] != s)
        out.append((traj.a[i], traj.a_dot[i], s, between))
        starts.append(offset + i[between] - 1)  # each of these times lies inside step i - 1
        offset += len(traj.s) - 1
    counts = [between.size for *_, between in out]
    if sum(counts):
        built, step = np.unique(np.concatenate(starts), return_inverse=True)
        # Step j runs from node j to node j + 1; a trajectory's last step ends at s_step_end.
        s_old, a_old, a_dot_old, s_new, xi = (np.concatenate(v)[built] for v in zip(*(
            (t.s[:-1], t.a[:-1], t.a_dot[:-1], np.append(t.s[1:-1], t.s_step_end),
             np.full(len(t.s) - 1, t.params.xi)) for t in trajs)))
        y = _dop853.dense_values(_rhs(xi), np.arange(len(built)), s_old,
                                 np.stack((a_old, a_dot_old), axis=1), s_new, step,
                                 np.concatenate([s[between] for _, _, s, between in out]))
        for (a, a_dot, _, between), y_p in zip(out, np.split(y, np.cumsum(counts)[:-1])):
            a[between], a_dot[between] = y_p.T
    return [(a, a_dot) for a, a_dot, _, _ in out]


def _rhs(xi):
    """The solver's right-hand side (a', xi[i] / (3 cbrt a)) of batch index i."""
    def f(y, i, dy):
        dy[:, 0] = y[:, 1]
        np.divide(xi[i], 3.0 * np.cbrt(y[:, 0]), out=dy[:, 1])

    return f


def integrate_many(params, s_end, tol) -> list:
    """Integrate the scale-factor equation of every orbit of a batch on [0, s_end].

    The arguments are equal-length sequences, one entry per orbit: its
    ``EmdenParams``, its horizon s_end (> 0 and finite) and its local error
    tolerance tol (relative; the absolute floor is scaled from the initial
    data; ``DEFAULT_TOL`` is the usual choice).  The orbits are stepped in
    lockstep by an adaptive explicit Runge-Kutta scheme (DOP853) with
    embedded error estimate and dense output.  The one stop event halts an
    orbit early when |a| falls to REL_STOP * |a0| (approach to the a = 0
    singularity); its trajectory then ends at the event root and is marked
    ``collapsed``.

    Returns one entry per orbit: its ``Trajectory``, bit for bit the one a
    batch of that orbit alone gives, or the exception that ends it (a
    ``ValueError`` for a bad horizon or tolerance, an ``IntegrationFailure``
    when stepping breaks down or the state overflows).
    """
    out = [None] * len(params)
    todo = []
    for k, (p, s_k, tol_k) in enumerate(zip(params, s_end, tol)):
        if not (math.isfinite(s_k) and s_k > 0.0):
            out[k] = ValueError(f"s_end must be positive and finite, got {s_k}")
        elif not (math.isfinite(tol_k) and tol_k > 0.0):
            out[k] = ValueError(f"tol must be positive, got {tol_k}")
        else:
            todo.append(k)
    if not todo:
        return out

    batch = [params[k] for k in todo]
    xi = np.array([p.xi for p in batch])
    a0 = np.array([p.a0 for p in batch])
    sgn = np.where(a0 > 0, 1.0, -1.0)
    stop_level = REL_STOP * np.abs(a0)

    # Signed event: sgn*a decreases through the stop level exactly when |a|
    # does, and the signed form is monotone through the crossing.
    def hit_zero(s, y, i):
        return sgn[i] * y[:, 0] - stop_level[i]

    rtol = [tol[k] for k in todo]
    atol = [tol_k * 1e-4 * max(abs(p.a0), abs(p.a1), 1.0) for p, tol_k in zip(batch, rtol)]
    results = _dop853.solve(_rhs(xi), [s_end[k] for k in todo], [[p.a0, p.a1] for p in batch],
                            rtol=rtol, atol=atol, event=hit_zero)
    for k, p, res in zip(todo, batch, results):
        out[k] = res if isinstance(res, Exception) else _trajectory(p, s_end[k], res)
    return out


def _trajectory(params: EmdenParams, s_end: float, res) -> Trajectory | Exception:
    """The Trajectory of one solver result on [0, s_end], or the exception it amounts to."""
    finite = np.isfinite(res.y).all(axis=0)
    if res.status == -1 or not finite.all():
        # The last finite node: the last node, or the one before the first that is not
        # finite (the initial node is finite).
        j = np.argmin(finite) - 1
        last = (float(res.t[j]), float(res.y[0, j]), float(res.y[1, j]))
        if res.status == -1:
            return IntegrationFailure(f"adaptive step failed: {res.message}", last)
        return IntegrationFailure(f"the state overflowed past its last finite node at "
                                  f"s = {last[0]} before the horizon s_end = {s_end}", last)
    return Trajectory(
        params=params,
        s=res.t,
        a=res.y[0],
        a_dot=res.y[1],
        s_step_end=res.t_step_end,
        collapsed=res.status == 1,
        nfev=res.nfev,
        n_accepted=res.n_accepted,
        n_rejected=res.n_rejected,
    )


def classify(params: EmdenParams) -> Classification:
    """Collapse for xi < 0, and for xi > 0 with an inward slope and theta >= 0.

    An inward xi > 0 orbit with theta < 0 turns at |a| = (-2 theta / xi)^{3/2}
    and grows from there, like every outward one.
    """
    b1 = params.a1 if params.a0 > 0 else -params.a1
    collapses = params.xi < 0 or (b1 < 0.0 and params.theta >= 0.0)
    return Classification.COLLAPSE if collapses else Classification.GLOBAL


def collapse_time_quadrature(params: EmdenParams) -> float:
    """Collapse time S by reduction of the first integral.

    Requires a collapse orbit.  The reduced integral is elementary and is
    evaluated in closed form (``_fall_time``).  An outward xi < 0 start
    climbs to the turning point |a| = (-2 theta / xi)^{3/2} and falls back
    through a full half-orbit: S is two half-orbits, (6 / |xi|^{3/2})
    theta pi / 2, less the time to fall from the start.
    """
    if classify(params) is not Classification.COLLAPSE:
        raise ValueError("collapse-time quadrature requires a collapse orbit")
    xi = params.xi
    # Mirror a0 < 0 data onto the b = |a| half-line (odd symmetry of the ODE).
    b0 = abs(params.a0)
    b1 = params.a1 if params.a0 > 0 else -params.a1
    theta = energy(xi, b0, b1)
    if xi < 0 and theta <= 0.0:
        raise InvalidEnergy(
            f"collapse orbit must have positive energy, got theta = {theta}"
        )
    fall = _fall_time(xi, b0, abs(b1))
    if b1 <= 0.0:
        return fall
    return 6.0 / (-xi) ** 1.5 * theta * (0.5 * math.pi) - fall


def detect_collapse(traj: Trajectory) -> float | None:
    """Collapse time from the trajectory's stop event, or None.

    When integration halted at |a| = REL_STOP * |a0| the remaining time to
    zero is the closed-form time of the rest of the inward leg, from the
    last node's state.
    """
    if not traj.collapsed:
        return None
    s, a, a_dot = _last_node(traj)
    xi = traj.params.xi
    if xi < 0 and (theta := energy(xi, a, a_dot)) <= 0.0:
        raise InvalidEnergy(f"halted orbit carries nonpositive energy {theta}")
    return s + _fall_time(xi, abs(a), abs(a_dot))


def _last_node(traj: Trajectory) -> tuple[float, float, float]:
    """(s, a, a_dot) of the trajectory's last node, as floats."""
    return float(traj.s[-1]), float(traj.a[-1]), float(traj.a_dot[-1])


def _fall_time(xi: float, b: float, v: float) -> float:
    """Time for |a| to fall from b to zero on an inward leg of speed v = |a'|.

    With g = sqrt(|xi|/2) b^{1/3} that time is (6 / |xi|^{3/2}) times
    int_0^g G^2 / sqrt(theta - G^2) dG for xi < 0, and the same integral
    with theta + G^2 for xi > 0.  G = sqrt(theta) sin(phi) makes the first
    (theta / 4)(2phi - sin 2phi), the radial Kepler equation, at
    phi = atan2(g, v / sqrt 2), which stays well conditioned at rest
    (phi = pi / 2).  G = sqrt(theta) sinh(psi) makes the second
    (theta / 4)(sinh 2psi - 2psi) at psi = asinh(g / sqrt(theta)).  For
    small angles x - sin x and sinh x - x are summed as their common
    Taylor series, which keeps the digits the closed forms cancel.  At
    theta = 0, reached only for xi > 0, the time is 1.5 b^{2/3} / sqrt(xi).
    """
    cb = float(np.cbrt(b))
    theta = energy(xi, b, v)
    if xi > 0 and theta <= 0.0:
        # A theta = 0 orbit ends with a roundoff-sized energy of either sign.
        return 1.5 * cb ** 2 / math.sqrt(xi)
    g = math.sqrt(abs(xi) / 2.0) * cb
    if xi < 0:
        w = v / math.sqrt(2.0)  # sqrt(theta - g^2) = sqrt(theta) cos(phi)
        sign, angle = -1.0, math.atan2(g, w)
    else:
        w = math.sqrt(theta + g * g)  # sqrt(theta) cosh(psi)
        sign, angle = 1.0, math.asinh(g / math.sqrt(theta))
    if angle > 0.5:
        # The closed forms, with sin 2phi and sinh 2psi both 2 g w / theta.
        integral = 0.5 * sign * (g * w - theta * angle)
    else:
        # x - sin x = x^3/3! - x^5/5! + ...; sinh x - x has every sign +.
        x = 2.0 * angle
        x2, term, total, k = sign * x * x, x ** 3 / 6.0, 0.0, 3
        while total + term != total:
            total, term, k = total + term, term * x2 / ((k + 1) * (k + 2)), k + 2
        integral = 0.25 * theta * total
    return 6.0 / abs(xi) ** 1.5 * integral


@dataclass(frozen=True)
class BlowupReport:
    """Classification plus collapse-time data for one orbit.

    Collapse orbits carry both collapse-time routes (numeric event detection
    and the closed form of the reduced first integral) and they must agree
    to S_AGREEMENT_TOL relative to S; global orbits carry neither.
    ``a_turning`` is the interior extremum of |a| when the orbit has one.
    ``rate_limit_estimate`` is the measured limit of ((S - s)/|a|)^{1/3},
    which tends to (2 theta)^{-1/6}.
    """

    classification: Classification
    theta: float
    s_collapse_numeric: float | None = None
    s_collapse_quadrature: float | None = None
    a_turning: float | None = None
    rate_limit_estimate: float | None = None

    def __post_init__(self):
        is_collapse = self.classification is Classification.COLLAPSE
        have_num = self.s_collapse_numeric is not None
        have_quad = self.s_collapse_quadrature is not None
        if is_collapse != have_num or is_collapse != have_quad:
            raise ValueError(
                "collapse classification and collapse-time fields must agree"
            )
        if is_collapse:
            s_quad = self.s_collapse_quadrature
            gap = abs(self.s_collapse_numeric - s_quad)
            if gap > S_AGREEMENT_TOL * s_quad:
                raise IntegrationFailure(
                    f"collapse-time routes disagree by {gap / s_quad:.3e} of S "
                    f"(> {S_AGREEMENT_TOL})"
                )


# Fallback horizon for global orbits when the caller does not provide one.
_DEFAULT_GLOBAL_HORIZON = 30.0


def analyze(
    params: EmdenParams,
    s_end: float | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[Trajectory, BlowupReport]:
    """Integrate one orbit and assemble its blowup report.

    For collapse orbits the horizon is extended past the quadrature collapse
    time so the stop event is always reached.  It is ``analyze_many`` of one.
    """
    result = analyze_many([(params, s_end, tol)])[0]
    if isinstance(result, Exception):
        raise result
    return result


def analyze_many(orbits) -> list:
    """``analyze`` on every ``(params, s_end, tol)`` of orbits, integrated as one batch.

    Returns one entry per orbit: its ``(trajectory, report)``, bit for bit
    what ``analyze`` returns for it alone, or the exception ``analyze``
    would raise for it.  The collapse time S is computed once per collapse
    orbit, before the batch, and the report reuses it.
    """
    out = []
    for params, s_end, _ in orbits:
        try:
            out.append(_plan(params, s_end))
        except Exception as exc:  # this orbit's outcome, not the batch's
            out.append(exc)
    todo = [k for k, plan in enumerate(out) if not isinstance(plan, Exception)]
    trajs = integrate_many([orbits[k][0] for k in todo], [out[k][2] for k in todo],
                           [orbits[k][2] for k in todo])
    results = _results([orbits[k][0] for k in todo], [out[k][:2] for k in todo], trajs)
    for k, result in zip(todo, results):
        out[k] = result
    return out


def _plan(params: EmdenParams, s_end: float | None):
    """(classification, quadrature S or None, integration horizon) of one finite-energy orbit."""
    if not math.isfinite(params.theta):
        raise ArithmeticError(f"orbit energy theta = a1^2/2 - xi |a0|^(2/3)/2 = {params.theta}")
    cls = classify(params)
    if cls is Classification.COLLAPSE:
        try:
            s_quad = collapse_time_quadrature(params)
        except (OverflowError, ZeroDivisionError) as exc:  # |xi|^(3/2) leaves the doubles
            raise ArithmeticError(
                f"collapse time S: its closed form is out of range at xi = {params.xi}") from exc
        reach = 1.25 * s_quad
        if not 0.0 < reach < math.inf:  # S underflowed or overflowed (or is NaN)
            raise ArithmeticError(f"collapse time S = {s_quad} is out of range")
        horizon = reach if s_end is None else max(s_end, reach)
    else:
        s_quad = None
        horizon = _DEFAULT_GLOBAL_HORIZON if s_end is None else s_end
    return cls, s_quad, horizon


def _results(params, plans, trajs) -> list:
    """Each orbit's (trajectory, report), or the exception raised, from its
    (classification, quadrature S) and trajectory; rate probes run as one batch.
    """
    out = [None] * len(trajs)
    probes = []  # (orbit, report fields, probe time) of collapse orbits
    for k, (p, (cls, s_quad), traj) in enumerate(zip(params, plans, trajs)):
        try:
            if isinstance(traj, Exception):
                raise traj
            theta = p.theta
            b1 = p.a1 if p.a0 > 0 else -p.a1
            turns = b1 > 0.0 if cls is Classification.COLLAPSE else (b1 < 0.0 and theta < 0.0)
            a_turning = (-2.0 * theta / p.xi) ** 1.5 if turns else None
            fields = dict(classification=cls, theta=theta, s_collapse_quadrature=s_quad,
                          a_turning=a_turning)
            if cls is Classification.GLOBAL:
                if traj.collapsed:
                    raise IntegrationFailure(
                        f"global orbit reached the collapse stop event at s = {traj.s_max}",
                        _last_node(traj))
                out[k] = (traj, BlowupReport(**fields))
                continue
            fields["s_collapse_numeric"] = detect_collapse(traj)
            if fields["s_collapse_numeric"] is None:
                raise IntegrationFailure(
                    f"collapse orbit failed to reach the stop event by s = {traj.s_max}",
                    _last_node(traj))
            # Measure the rate a little away from S: at the final state the
            # remaining time (S - s) is comparable to the integrator's time
            # error, which would contaminate the ratio.
            probes.append((k, fields, min(s_quad * (1.0 - 1e-4), traj.s_max)))
        except Exception as exc:
            out[k] = exc
    states = _states_at([trajs[k] for k, _, _ in probes], [[s] for _, _, s in probes])
    for (k, fields, s_probe), (a, _) in zip(probes, states):
        try:
            rate = ((fields["s_collapse_quadrature"] - s_probe) / abs(float(a[0]))) ** (1.0 / 3.0)
            out[k] = (trajs[k], BlowupReport(**fields, rate_limit_estimate=rate))
        except Exception as exc:
            out[k] = exc
    return out
