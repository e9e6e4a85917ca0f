"""Scale-factor ODE driving the self-similar ansatz.

The scale factor a(s) obeys an Emden-type equation

    a''(s) = xi / (3 a(s)^{1/3}),        a(0) = a0 != 0,  a'(0) = a1,

with a^{1/3} the sign-preserving real cube root.  Multiplying by a' and
integrating gives the conserved orbit energy

    theta = a'^2 / 2 - (xi / 2) |a|^{2/3},

which classifies every orbit: xi < 0 drives |a| to zero in finite time S
(collapse of the scale factor, hence density blowup), xi > 0 drives |a|
to infinity like (4 xi / 9)^{3/4} s^{3/2}.

Collapse times are computed twice, by independent routes: ODE event
detection on the trajectory, and a reduced quadrature of

    S = int db / sqrt(2 theta + xi b^{2/3})

which the substitution G = sqrt(-xi/2) b^{1/3} turns into a multiple of
int G^2 / sqrt(theta - G^2) dG.  The half-orbit value of that integral
is theta * pi / 4 exactly, which doubles as a self-test of the singular
quadrature.

The ODE is integrated with an in-tree port of SciPy's DOP853 (``_dop853``)
and the quadrature uses a fixed 21-point Gauss-Kronrod rule
(``_quadrature``); both reproduce SciPy 1.17's ``solve_ivp`` and ``quad``
bit for bit on these problems, and neither imports SciPy.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _dop853
from ._quadrature import gauss_kronrod21

__all__ = [
    "DEFAULT_TOL",
    "REL_STOP",
    "S_AGREEMENT_TOL",
    "BlowupReport",
    "Classification",
    "CollapseSingularity",
    "EmdenParams",
    "EmdenState",
    "IntegrationFailure",
    "InvalidEnergy",
    "Trajectory",
    "analyze",
    "classify",
    "collapse_time_quadrature",
    "detect_collapse",
    "energy",
    "growth_asymptote",
    "integrate",
    "orbit_time_integral",
    "rhs",
]

# Local error tolerance for the adaptive integrator (mixed abs/rel).
DEFAULT_TOL = 1e-10
# Halt integration once |a| falls to REL_STOP * |a0|.
REL_STOP = 1e-10
# Maximum tolerated disagreement between the two collapse-time routes.
S_AGREEMENT_TOL = 1e-6


class CollapseSingularity(ArithmeticError):
    """The right-hand side was evaluated at the a = 0 singularity."""


class InvalidEnergy(ValueError):
    """Orbit energy fails the sign condition required by the requested route."""


class IntegrationFailure(RuntimeError):
    """Adaptive stepping broke down; carries the last accepted state."""

    def __init__(self, message: str, last_state: "EmdenState | None" = None):
        super().__init__(message)
        self.last_state = last_state


class Classification(enum.Enum):
    """Long-time fate of an orbit, decided by the sign of xi."""

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
        return _energy(self.xi, self.a0, self.a1)

    def mirrored(self) -> "EmdenParams":
        """Image of the initial data under the odd symmetry a -> -a."""
        return EmdenParams(self.xi, -self.a0, -self.a1)


@dataclass(frozen=True)
class EmdenState:
    """Snapshot (s, a, a') of an orbit."""

    s: float
    a: float
    a_dot: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.s, self.a, self.a_dot)):
            raise ValueError("state components must be finite")


def _energy(xi: float, a: float, a_dot: float) -> float:
    # |a|^{2/3} via the squared cube root keeps the expression exactly even in a.
    return 0.5 * a_dot * a_dot - 0.5 * xi * float(np.cbrt(a)) ** 2


def rhs(params: EmdenParams, state: EmdenState) -> float:
    """Acceleration xi / (3 a^{1/3}); singular (and rejected) at a = 0."""
    if state.a == 0.0:
        raise CollapseSingularity("acceleration undefined at a = 0")
    return params.xi / (3.0 * float(np.cbrt(state.a)))


def energy(params: EmdenParams, state: EmdenState) -> float:
    """Orbit energy a'^2/2 - (xi/2)|a|^{2/3}; conserved along exact orbits."""
    return _energy(params.xi, state.a, state.a_dot)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Numerical orbit with dense output.

    ``states`` are the accepted integration nodes (strictly increasing in s).
    ``eval`` snaps to stored nodes when the query matches one exactly, so
    node values round-trip; between nodes it uses the integrator's own
    dense-output interpolant.

    ``nfev``, ``n_accepted`` and ``n_rejected`` count the integrator's
    right-hand-side evaluations, accepted steps and rejected steps.  They
    are diagnostics only and never enter an output file.
    """

    params: EmdenParams
    states: tuple[EmdenState, ...]
    s_max: float
    collapsed: bool
    _dense: object = field(repr=False)
    _nodes: tuple[float, ...] = field(repr=False)
    nfev: int
    n_accepted: int
    n_rejected: int

    def eval(self, s: float) -> EmdenState:
        """State at time s, 0 <= s <= s_max."""
        if not (0.0 <= s <= self.s_max):
            raise ValueError(f"s = {s} outside integrated range [0, {self.s_max}]")
        i = bisect.bisect_left(self._nodes, s)
        if i < len(self._nodes) and self._nodes[i] == s:
            return self.states[i]
        a, a_dot = self._dense(s)
        return EmdenState(s, float(a), float(a_dot))

    def a(self, s: float) -> float:
        return self.eval(s).a

    def a_dot(self, s: float) -> float:
        return self.eval(s).a_dot

    def eval_many(self, s_values) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized dense-output evaluation; returns (a, a') arrays."""
        s_arr = np.asarray(s_values, dtype=float)
        if s_arr.size and (s_arr.min() < 0.0 or s_arr.max() > self.s_max):
            raise ValueError(
                f"requested s range [{s_arr.min()}, {s_arr.max()}] outside [0, {self.s_max}]"
            )
        out = self._dense(s_arr)
        return out[0], out[1]


def integrate(
    params: EmdenParams,
    s_end: float,
    tol: float = DEFAULT_TOL,
    stop_abs_a: float | None = None,
) -> Trajectory:
    """Integrate the scale-factor equation on [0, s_end].

    Uses an adaptive explicit Runge-Kutta scheme (DOP853) with embedded
    error estimate and dense output.  Integration halts early when |a|
    falls to REL_STOP * |a0| (approach to the a = 0 singularity), or --
    optionally -- when |a| first exceeds ``stop_abs_a``.

    Parameters
    ----------
    params : EmdenParams
    s_end : float
        Integration horizon, > 0.
    tol : float
        Local error tolerance (relative; the absolute floor is scaled
        from the initial data).
    stop_abs_a : float, optional
        Terminal growth threshold on |a|, useful for escape tests.

    Returns
    -------
    Trajectory
    """
    if not (math.isfinite(s_end) and s_end > 0.0):
        raise ValueError(f"s_end must be positive and finite, got {s_end}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")

    xi, a0, a1 = params.xi, params.a0, params.a1
    sgn = 1.0 if a0 > 0 else -1.0
    stop_level = REL_STOP * abs(a0)

    def f(s, y):
        return np.array((y[1], xi / (3.0 * np.cbrt(y[0]))))

    # Signed event: sgn*a decreases through the stop level exactly when |a|
    # does, and the signed form is monotone through the crossing.
    def hit_zero(s, y):
        return sgn * y[0] - stop_level

    events = [(hit_zero, -1.0)]
    if stop_abs_a is not None:
        def hit_growth(s, y):
            return sgn * y[0] - stop_abs_a

        events.append((hit_growth, 1.0))

    scale = max(abs(a0), abs(a1), 1.0)
    res = _dop853.solve(
        f, 0.0, s_end, [a0, a1], rtol=tol, atol=tol * 1e-4 * scale, events=events
    )
    if res.status == -1:
        last = None
        if res.t.size:
            last = EmdenState(float(res.t[-1]), float(res.y[0, -1]), float(res.y[1, -1]))
        raise IntegrationFailure(f"adaptive step failed: {res.message}", last)

    states = tuple(
        EmdenState(float(s), float(a), float(ad))
        for s, a, ad in zip(res.t, res.y[0], res.y[1])
    )
    collapsed = res.status == 1 and len(res.t_events[0]) > 0
    return Trajectory(
        params=params,
        states=states,
        s_max=float(res.t[-1]),
        collapsed=collapsed,
        _dense=res.sol,
        _nodes=tuple(float(s) for s in res.t),
        nfev=res.nfev,
        n_accepted=res.n_accepted,
        n_rejected=res.n_rejected,
    )


def classify(params: EmdenParams) -> Classification:
    """Collapse for xi < 0, global growth for xi > 0."""
    return Classification.COLLAPSE if params.xi < 0 else Classification.GLOBAL


def orbit_time_integral(theta: float, g_lo: float, g_hi: float) -> float:
    """int_{g_lo}^{g_hi} G^2 / sqrt(theta - G^2) dG, singular endpoint included.

    The substitution G = sqrt(theta) sin(phi) removes the inverse-square-root
    endpoint singularity (the integrand becomes theta sin^2 phi), after which
    a single 21-point Gauss-Kronrod rule is accurate to near machine
    precision.  Over the full half-orbit [0, sqrt(theta)] the exact value is
    theta * pi / 4.
    """
    if not (math.isfinite(theta) and theta > 0.0):
        raise InvalidEnergy(f"orbit energy must be positive, got theta = {theta}")
    root = math.sqrt(theta)
    if not (-1e-12 * root <= g_lo <= g_hi * (1.0 + 1e-12)) or g_hi > root * (1.0 + 1e-12):
        raise ValueError(f"need 0 <= g_lo <= g_hi <= sqrt(theta), got [{g_lo}, {g_hi}]")
    phi_lo = math.asin(min(1.0, max(0.0, g_lo / root)))
    phi_hi = math.asin(min(1.0, max(0.0, g_hi / root)))
    return gauss_kronrod21(lambda p: theta * math.sin(p) ** 2, phi_lo, phi_hi)


def collapse_time_quadrature(params: EmdenParams) -> float:
    """Collapse time S by reduction of the first integral to a quadrature.

    Requires xi < 0.  Orbits with an initially outward slope are split at the
    turning point |a| = (-2 theta / xi)^{3/2}; the leg from the turning point
    down to zero is a full half-orbit of the reduced integral.
    """
    if params.xi >= 0:
        raise ValueError("collapse-time quadrature requires xi < 0")
    xi = params.xi
    # Mirror a0 < 0 data onto the b = |a| half-line (odd symmetry of the ODE).
    b0 = abs(params.a0)
    b1 = params.a1 if params.a0 > 0 else -params.a1
    theta = _energy(xi, b0, b1)
    if theta <= 0.0:
        raise InvalidEnergy(
            f"collapse orbit must have positive energy, got theta = {theta}"
        )
    c = 6.0 / (-xi) ** 1.5
    root = math.sqrt(theta)
    g0 = min(math.sqrt(-xi / 2.0) * float(np.cbrt(b0)), root)
    if b1 <= 0.0:
        # Moving toward zero from the start.
        return c * orbit_time_integral(theta, 0.0, g0)
    # Out to the turning point, then the full leg back down to zero.
    return c * (orbit_time_integral(theta, g0, root) + orbit_time_integral(theta, 0.0, root))


def detect_collapse(traj: Trajectory) -> float | None:
    """Collapse time from the trajectory's stop event, or None.

    When integration halted at |a| = REL_STOP * |a0| the remaining time to
    zero is recovered from the local model |a|(s) ~ sqrt(2 theta) (S - s),
    valid because a' tends to -sign(a0) sqrt(2 theta) at collapse.
    """
    if not traj.collapsed:
        return None
    last = traj.states[-1]
    theta = energy(traj.params, last)
    if theta <= 0.0:
        raise InvalidEnergy(f"halted orbit carries nonpositive energy {theta}")
    return last.s + abs(last.a) / math.sqrt(2.0 * theta)


def growth_asymptote(traj: Trajectory) -> float:
    """a(s_max) / s_max^{3/2}; tends to sign(a0) (4 xi / 9)^{3/4} for xi > 0."""
    if traj.params.xi <= 0:
        raise ValueError("growth asymptote requires xi > 0")
    if traj.s_max <= 0:
        raise ValueError("trajectory has no extent")
    last = traj.states[-1]
    return last.a / last.s ** 1.5


@dataclass(frozen=True)
class BlowupReport:
    """Classification plus collapse-time data for one orbit.

    Collapse orbits carry both collapse-time routes (numeric event detection
    and reduced quadrature) and they must agree to S_AGREEMENT_TOL; global
    orbits carry neither.  ``a_turning`` is the interior extremum of |a|
    when the orbit has one.  ``rate_limit_estimate`` is the measured limit
    of ((S - s)/|a|)^{1/3}, which tends to (2 theta)^{-1/6}.
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
            gap = abs(self.s_collapse_numeric - self.s_collapse_quadrature)
            if gap > S_AGREEMENT_TOL:
                raise IntegrationFailure(
                    f"collapse-time routes disagree by {gap:.3e} (> {S_AGREEMENT_TOL})"
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
    time so the stop event is always reached.
    """
    cls = classify(params)
    theta = params.theta
    if cls is Classification.COLLAPSE:
        s_quad = collapse_time_quadrature(params)
        horizon = 1.25 * s_quad if s_end is None else max(s_end, 1.25 * s_quad)
    else:
        s_quad = None
        horizon = _DEFAULT_GLOBAL_HORIZON if s_end is None else s_end

    traj = integrate(params, horizon, tol=tol)

    b1 = params.a1 if params.a0 > 0 else -params.a1
    a_turning = None
    if cls is Classification.COLLAPSE and b1 > 0.0:
        a_turning = (-2.0 * theta / params.xi) ** 1.5
    elif cls is Classification.GLOBAL and b1 < 0.0 and theta < 0.0:
        a_turning = (-2.0 * theta / params.xi) ** 1.5

    s_num = None
    rate = None
    if cls is Classification.COLLAPSE:
        s_num = detect_collapse(traj)
        if s_num is None:
            raise IntegrationFailure(
                f"collapse orbit failed to reach the stop event by s = {traj.s_max}",
                traj.states[-1],
            )
        # Measure the rate a little away from S: at the final state the
        # remaining time (S - s) is comparable to the integrator's time
        # error, which would contaminate the ratio.
        s_probe = min(s_quad * (1.0 - 1e-4), traj.s_max)
        rate = ((s_quad - s_probe) / abs(traj.a(s_probe))) ** (1.0 / 3.0)

    report = BlowupReport(
        classification=cls,
        theta=theta,
        s_collapse_numeric=s_num,
        s_collapse_quadrature=s_quad,
        a_turning=a_turning,
        rate_limit_estimate=rate,
    )
    return traj, report
