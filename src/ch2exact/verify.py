"""Numerical verification of the exact fields.

Everything here interrogates constructed solutions with machinery that is
independent of how they were built: second-order central differences for
the PDE residuals

    mass:      D_t rho + u D_x rho + rho D_x u
    momentum:  D_t m + 2 (D_x u) m + u D_x m + sigma rho D_x rho,
               m = u - alpha_d^2 D_xx u,

a 21-point Gauss-Kronrod rule for masses, and direct sampling for blowup
rates and origin decay.  The discrete Helmholtz form of m is kept explicit even
though u is linear in x (so u_xx vanishes analytically): a wrong velocity
ansatz would then show up in the residual instead of being simplified
away, and the residual must be independent of the dispersion scale
alpha_d for the right ansatz.

Residual grids must stay inside the smooth region: strictly inside the
support for compactly supported densities (the profile slope is unbounded
at the boundary, and the linear-velocity momentum balance holds only
where the profile equation is active), and well before the collapse time
for collapsing families.

Every check reads the fields through one sampler, fields_on_grid: the
residual lattices, the 21 mass quadrature nodes at the five times of
[t0, t1] that the mass (at t0, the first) and mass_conservation records
share, and the blowup and decay times at x = 0, each in one call.  A fault
injected there reaches them all.  run_battery runs every check on one
family with the thresholds of Tolerances, the one place their defaults are
defined.

Windows: sampling_grid fills in the grid keys a config leaves out (t1 =
0.25 S/3 on collapse, else min(0.5, mu, t_max); x1 a fraction of the support
radius that _check_grid accepts, or |a0|^{1/3}), after checking that a
given t1 ends before the collapse and that the orbit covers [t0, t1].
battery_t_needed runs a global orbit past the grid and the origin-decay
window (_decay_window_end), after the checks that need no orbit; horizon
turns that and a config's t_end into analyze's s_end.  mu = |a0|^{2/3} /
sqrt|xi| is the orbit's own time unit (_time_unit): a(s) = |a0| A(s / mu)
with A an orbit of |xi| = |a0| = 1, so windows in units of mu keep an
orbit's verdict when a0 and a1 are rescaled.  The 0.5 cap on t1 and the
decay window's floor at decay_t_max break that invariance below mu = 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._quadrature import gauss_kronrod21_array
from .emden import (
    BlowupReport,
    Classification,
    CollapseSingularity,
    Trajectory,
    classify,
    node_energies,
)
from .selfsim import SolutionCase, profile

__all__ = [
    "DEFAULT_POINTS", "DEFAULT_SUPPORT_MARGIN", "COLLAPSE_TIME_MARGIN", "ENERGY_DRIFT_TOL",
    "MAX_LATTICE_POINTS", "GridError", "SpaceTimeGrid", "Tolerances", "analytic_mass",
    "battery_t_needed", "blowup_rate", "check_lattice_cap", "energy_drift", "fields_on_grid",
    "horizon", "mass", "mass_error", "mass_residual_field", "min_support_radius",
    "momentum_residual_field", "origin_decay", "run_battery", "sampling_grid", "sweep_checks",
]

# Residual grids may use at most this fraction of the support radius.
DEFAULT_SUPPORT_MARGIN = 0.8
# ... and at most this fraction of the collapse time (in s).
COLLAPSE_TIME_MARGIN = 0.9
# The finest lattice of the residual ladder holds at most this many points:
# each of its fields takes 8 bytes a point, and a check holds several.
MAX_LATTICE_POINTS = 2 ** 22
# Grid points per axis where a config gives no nt or nx.
DEFAULT_POINTS = 81
# Default grid end of global orbits, in physical time, before the cap at mu.
_GLOBAL_T1 = 0.5


@dataclass(frozen=True)
class Tolerances:
    """Thresholds of the verification battery, one field per ``verify`` config key.

    This is the only place their defaults are defined; the CLI parses the
    keys from these fields, in this order.
    """

    levels: int = 2                 # grid refinements for the order estimate
    margin: float = DEFAULT_SUPPORT_MARGIN
    order_band: float = 0.2         # accepted |order - 2|
    dispersion_tol: float = 100.0   # max alpha_d spread, in units of its roundoff scale
    mass_rtol: float = 1e-6         # mass vs analytic_mass
    drift_tol: float = 1e-8         # relative mass drift across times
    rate_rtol: float = 0.01         # blowup-rate tail vs alpha / (2 theta)^{1/6}
    decay_rtol: float = 0.05        # origin-decay tail vs alpha / (sqrt(3) k^{1/3})
    decay_t_max: float = 300.0      # last sampled decay time
    alpha_d: tuple[float, ...] = (0.0, 1.0, 10.0)  # dispersion scales

    def __post_init__(self):
        # Zero tolerances are valid: they demand exact agreement.
        for name in ("order_band", "dispersion_tol", "mass_rtol", "drift_tol",
                     "rate_rtol", "decay_rtol"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("margin", "decay_t_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if isinstance(self.levels, bool) or not isinstance(self.levels, numbers.Integral):
            raise ValueError(f"levels must be an int, got {self.levels}")
        # The order estimate compares the last two levels.
        if not self.levels >= 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        # A NaN scale drops out of the dispersion spread's max and an
        # infinite one makes its bound infinite; with none, there is no run.
        if not (isinstance(self.alpha_d, tuple) and self.alpha_d
                and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                        and math.isfinite(v) for v in self.alpha_d)):
            raise ValueError(
                f"alpha_d must be a non-empty tuple of finite reals, got {self.alpha_d}")


# The sweep's first-integral check (energy_drift): |energy - theta| at every
# node stays within ENERGY_DRIFT_TOL of the orbit's energy scale.  The
# battery does not run it, so it is not a Tolerances field (each field is a
# verify config key).
ENERGY_DRIFT_TOL = 1e-8
# A residual ladder at most RESIDUAL_FLOOR eps times the finest level's
# roundoff scale counts as exact (_residual_report).  The factor is the
# default dispersion_tol's; it is not a verify config key either.
RESIDUAL_FLOOR = 100.0


class GridError(ValueError):
    """Grid violates a lattice or residual-evaluation precondition."""


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform lattice on [t0, t1] x [x0, x1] (physical time), >= 2 points per axis.

    The residual stencils need more (see _check_grid); plain sampling does not.
    """

    t0: float
    t1: float
    nt: int
    x0: float
    x1: float
    nx: int

    def __post_init__(self):
        if self.nt < 2 or self.nx < 2:
            raise GridError(f"need nt >= 2 and nx >= 2, got nt={self.nt}, nx={self.nx}")
        if not (self.t1 > self.t0):
            raise GridError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if not (self.x1 > self.x0):
            raise GridError(f"need x1 > x0, got [{self.x0}, {self.x1}]")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.nt - 1)

    @property
    def dx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    def ts(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.nt)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def refined(self) -> "SpaceTimeGrid":
        """Same domain with both spacings halved."""
        return SpaceTimeGrid(self.t0, self.t1, 2 * self.nt - 1,
                             self.x0, self.x1, 2 * self.nx - 1)


# ----------------------------------------------------------------------
# difference kernels (pure array functions, testable in isolation)
# ----------------------------------------------------------------------

def mass_residual_field(rho: np.ndarray, u: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Central-difference mass residual on interior nodes of an (nt, nx) lattice."""
    r_t = (rho[2:, 1:-1] - rho[:-2, 1:-1]) / (2.0 * dt)
    r_x = (rho[1:-1, 2:] - rho[1:-1, :-2]) / (2.0 * dx)
    u_x = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * dx)
    return r_t + u[1:-1, 1:-1] * r_x + rho[1:-1, 1:-1] * u_x


def momentum_residual_field(
    rho: np.ndarray,
    u: np.ndarray,
    dt: float,
    dx: float,
    sigma: int,
    alpha_d: float = 0.0,
) -> np.ndarray:
    """Central-difference momentum residual with explicit discrete Helmholtz m.

    m needs one x-neighbor layer and D_x m another, so the interior loses
    two x-layers on each side (and one t-layer, as usual).
    """
    u_xx = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx ** 2
    m = u[:, 1:-1] - alpha_d ** 2 * u_xx
    m_t = (m[2:, 1:-1] - m[:-2, 1:-1]) / (2.0 * dt)
    m_x = (m[1:-1, 2:] - m[1:-1, :-2]) / (2.0 * dx)
    u_int = u[1:-1, 2:-2]
    u_x = (u[1:-1, 3:-1] - u[1:-1, 1:-3]) / (2.0 * dx)
    rho_int = rho[1:-1, 2:-2]
    rho_x = (rho[1:-1, 3:-1] - rho[1:-1, 1:-3]) / (2.0 * dx)
    return m_t + 2.0 * u_x * m[1:-1, 1:-1] + u_int * m_x + sigma * rho_int * rho_x


# ----------------------------------------------------------------------
# grid preparation
# ----------------------------------------------------------------------

def fields_on_grid(
    case: SolutionCase,
    traj: Trajectory,
    ts: np.ndarray,
    xs: np.ndarray,
    u_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (rho, u, eta), each (len(ts), nx), at the physical times ts and the
    points xs: nx points shared by every time, or (len(ts), nx), a row per time.

    The one place the checks read the fields from.  Any lattice size is
    accepted; u_scale is a fault-injection hook.  A field that is not finite
    somewhere is an ArithmeticError naming the first of rho, u and eta that
    is, and the (t, x) where.
    """
    ts = np.asarray(ts, dtype=float)
    a, a_dot = traj.eval_many(3.0 * ts)
    if not a.all():
        raise CollapseSingularity(f"scale factor vanished at t = {ts[a == 0.0][0]}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cb = np.cbrt(a)
        eta = xs / cb[:, None]
        rho = profile(case, eta) / cb[:, None]
        u = u_scale * (a_dot / a)[:, None] * xs
    for name, field in (("rho", rho), ("u", u), ("eta", eta)):
        bad = ~np.isfinite(field)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            x = np.broadcast_to(xs, field.shape)[i, j]
            raise ArithmeticError(
                f"field {name} = {field[i, j]} is out of range at t = {ts[i]}, x = {x}")
    return rho, u, eta


def _t_max(traj: Trajectory) -> float:
    """Largest physical t with 3t <= s_max (s_max / 3 can round one ulp high)."""
    t = traj.s_max / 3.0
    while 3.0 * t > traj.s_max:
        t = math.nextafter(t, 0.0)
    return t


def min_support_radius(case: SolutionCase, traj: Trajectory, ts) -> float:
    """Smallest support half-width a(3t)^{1/3} eta_b over the physical times ts."""
    a, _ = traj.eval_many(3.0 * np.asarray(ts))
    return float(np.min(np.cbrt(a))) * case.eta_boundary


def _check_window(traj: Trajectory, t0: float, t1: float) -> None:
    """Raise GridError unless [t0, t1] is increasing and the trajectory covers it."""
    if not t1 > t0:
        raise GridError(f"need t1 > t0, got [{t0}, {t1}]")
    if t0 < 0.0:
        raise GridError(f"grid starts before t = 0 (t0 = {t0})")
    if 3.0 * t1 > traj.s_max:
        raise GridError(
            f"grid needs s up to {3.0 * t1} but the trajectory ends at {traj.s_max}"
        )


def _check_grid(
    case: SolutionCase,
    traj: Trajectory,
    grid: SpaceTimeGrid,
    margin: float,
    s_collapse: float | None,
) -> None:
    """Raise GridError unless the residual stencils fit the grid and it stays in
    the smooth region, and an ArithmeticError where the momentum stencil's
    dx ** 2 overflows; s_collapse is the collapse time, None for a global orbit."""
    if grid.nt < 5 or grid.nx < 5:
        raise GridError(f"need nt >= 5 and nx >= 5, got nt={grid.nt}, nx={grid.nx}")
    try:  # the kernel's own dx ** 2: Python's float ** raises OverflowError, unnamed
        grid.dx ** 2
    except OverflowError:
        raise ArithmeticError(f"momentum stencil's dx^2 is out of range at dx = {grid.dx}") \
            from None
    _check_window(traj, grid.t0, grid.t1)
    s_hi = 3.0 * grid.t1
    if s_collapse is not None and s_hi > COLLAPSE_TIME_MARGIN * s_collapse:
        raise GridError(
            f"grid reaches s = {s_hi}, too close to collapse at "
            f"s = {s_collapse} (margin {COLLAPSE_TIME_MARGIN})"
        )
    if case.compact:
        xb_min = min_support_radius(case, traj, grid.ts())
        x_extent = max(abs(grid.x0), abs(grid.x1))
        if x_extent > margin * xb_min:
            raise GridError(
                f"grid reaches |x| = {x_extent}, beyond {margin} of the "
                f"minimal support radius {xb_min}"
            )


def sampling_grid(case: SolutionCase, traj: Trajectory, report: BlowupReport, given: dict,
                  margin: float = DEFAULT_SUPPORT_MARGIN) -> SpaceTimeGrid:
    """The lattice of the grid keys in given, the missing ones derived from the orbit;
    a given t1 must come before the collapse, and the orbit must cover [t0, t1]."""
    if report.classification is Classification.COLLAPSE:
        s_collapse = report.s_collapse_quadrature
        if "t1" in given and 3.0 * given["t1"] >= s_collapse:
            raise GridError(f"grid end 3*t1 = {3.0 * given['t1']} crosses the collapse "
                            f"time s = {s_collapse}")
        t1_default = 0.25 * s_collapse / 3.0
    else:
        t1_default = min(_GLOBAL_T1, _time_unit(case), _t_max(traj))
    t0 = given.get("t0", 0.0)
    t1 = given.get("t1", t1_default)
    nt = given.get("nt", DEFAULT_POINTS)
    nx = given.get("nx", DEFAULT_POINTS)
    _check_window(traj, t0, t1)
    if case.compact:
        if case.alpha == 0 and "x1" not in given:
            raise GridError("alpha = 0 shrinks the compact profile's support to the one "
                            "point x = 0, so there is no default grid: give x0 and x1")
        # The minimum over the grid's own times, which _check_grid takes too,
        # and a fraction that stays inside margin.  (At least both ends:
        # SpaceTimeGrid reports nt < 2.)
        ts = np.linspace(t0, t1, max(nt, 2))
        x1_default = min(0.6, 0.75 * margin) * min_support_radius(case, traj, ts)
    else:
        x1_default = float(np.cbrt(abs(case.emden.a0)))
    x1 = given.get("x1", x1_default)
    x0 = given.get("x0", -x1)
    return SpaceTimeGrid(t0, t1, nt, x0, x1, nx)


def _time_unit(case: SolutionCase) -> float:
    """The orbit's time unit mu = |a0|^{2/3} / sqrt|xi|; an ArithmeticError unless it
    is a positive finite double."""
    p = case.emden
    mu = float(np.cbrt(abs(p.a0))) ** 2 / math.sqrt(abs(p.xi))
    if not 0.0 < mu < math.inf:
        raise ArithmeticError(f"time unit mu = |a0|^(2/3) / sqrt|xi| = {mu} is out of range")
    return mu


def _decay_window_end(tols: Tolerances, case: SolutionCase) -> float:
    """Last physical time the origin_decay check samples, where the orbit reaches it:
    decay_t_max, in units of mu where mu > 1."""
    return tols.decay_t_max * max(1.0, _time_unit(case))


def battery_t_needed(case: SolutionCase, tols: Tolerances, given: dict) -> float:
    """Physical time a verify run integrates a global orbit to: the end of the origin-decay
    window or 1.05 times the given t1 (sampling_grid's _GLOBAL_T1 if none), whichever is
    later; 0 for a collapse orbit, run to its collapse.  Needing no orbit, it first
    rejects alpha = 0 on a compact family and a residual ladder over the lattice cap."""
    if case.compact and case.alpha == 0:
        raise GridError("alpha = 0 shrinks the compact profile's support to the one point "
                        "x = 0, so no grid fits inside it")
    check_lattice_cap(given.get("nt", DEFAULT_POINTS), given.get("nx", DEFAULT_POINTS),
                      tols.levels)
    if classify(case.emden) is not Classification.GLOBAL:
        return 0.0
    return max(_decay_window_end(tols, case), 1.05 * given.get("t1", _GLOBAL_T1))


def horizon(t_end: float, t_needed: float = 0.0) -> float | None:
    """analyze's s_end: 3 max(t_end, t_needed), or None (its default) when that is 0."""
    t = max(t_end, t_needed)
    return 3.0 * t if t > 0 else None


# ----------------------------------------------------------------------
# residual operations
# ----------------------------------------------------------------------

def check_lattice_cap(nt: int, nx: int, levels: int) -> None:
    """Raise GridError when an nt x nx grid refined levels - 1 times holds more
    than MAX_LATTICE_POINTS points.  It needs no orbit, so it can run first;
    fewer than 2 points per axis is SpaceTimeGrid's error."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    # Each refinement halves both spacings: n points per axis become 2 n - 1.
    nt_fine, nx_fine = ((n - 1) * 2 ** (levels - 1) + 1 for n in (nt, nx))
    if min(nt, nx) >= 2 and nt_fine * nx_fine > MAX_LATTICE_POINTS:
        raise GridError(
            f"levels = {levels} refines the {nt} x {nx} grid to {nt_fine} x {nx_fine} "
            f"points, more than {MAX_LATTICE_POINTS}"
        )


def _sampled_levels(case, traj, grid, levels, margin, u_scale, s_collapse) -> list:
    """Check the ladder's size and the grid once, then (lattice, rho, u) on it
    and each of its refinements."""
    check_lattice_cap(grid.nt, grid.nx, levels)
    _check_grid(case, traj, grid, margin, s_collapse)
    sampled = []
    g = grid
    for _ in range(levels):
        rho, u, _ = fields_on_grid(case, traj, g.ts(), g.xs(), u_scale)
        sampled.append((g, rho, u))
        g = g.refined()
    return sampled


def _check_finite(record: str, g: SpaceTimeGrid, **norms) -> None:
    """Raise ArithmeticError naming the record and the lattice g unless every norm is finite."""
    for name, value in norms.items():
        if not math.isfinite(value):
            raise ArithmeticError(
                f"{record}: {name} = {value} is out of range on the {g.nt} x {g.nx} lattice")


def _residual_report(case, sampled, which, alpha_d, band) -> dict:
    """Battery record of one equation's residual on the sampled levels.

    ``residuals`` holds each level's max norm.  The observed order is the
    log2 ratio of the last two (the exact fields give ~ 2) and must lie
    within band of 2; residuals at the roundoff floor count as exact, since
    the order is meaningless there.  The floor is RESIDUAL_FLOOR eps times
    the size of the equation's terms on the finest level, eps max|rho|
    (1/dt + 2 max|u|/dx) for mass and eps (max|u|/dt + 3 max|u|^2/dx +
    max|rho|^2/dx) for momentum, so a residual is judged in the fields' own
    units.  Both maxima of the ratio are taken on the coarser level's
    interior nodes: the finer level's own interior reaches O(h) closer to
    the edges, where the residual is largest.
    """
    h_values: list[float] = []
    maxes: list[float] = []
    l2s: list[float] = []
    for g, rho, u in sampled:
        if which == "mass":
            r = mass_residual_field(rho, u, g.dt, g.dx)
        else:
            r = momentum_residual_field(rho, u, g.dt, g.dx, case.sigma, alpha_d)
        h_values.append(g.dx)
        maxes.append(float(np.max(np.abs(r))))
        l2s.append(float(np.sqrt(np.mean(r * r))))
        _check_finite(f"residual_{which}", g, max_residual=maxes[-1], l2_residual=l2s[-1])
    # The last level's residual at the coarser level's interior nodes.  The
    # momentum interior starts two nodes in from each x edge, so [2::2] would
    # keep one coarse node outside it.
    common = r[1::2, 1::2] if which == "mass" else r[1::2, 2:-1:2]
    fine = float(np.max(np.abs(common)))
    order = None
    if len(sampled) >= 2 and fine > 0.0:
        order = math.log2(maxes[-2] / fine)
    rho_max, u_max = float(np.max(np.abs(rho))), float(np.max(np.abs(u)))
    if which == "mass":
        scale = rho_max * (1.0 / g.dt + 2.0 * u_max / g.dx)
    else:
        # Each quotient by dx first, as the kernels take them.
        scale = u_max / g.dt + 3.0 * u_max * (u_max / g.dx) + rho_max * (rho_max / g.dx)
    floor = RESIDUAL_FLOOR * float(np.finfo(float).eps) * scale
    _check_finite(f"residual_{which}", g, roundoff_floor=floor)  # inf would pass any residual
    ok = max(maxes) <= floor or (order is not None and abs(order - 2.0) <= band)
    return {"eq": which, "interior_max_residual": maxes[0], "interior_l2_residual": l2s[0],
            "h_values": h_values, "residuals": maxes, "estimated_order": order, "pass": ok}


# ----------------------------------------------------------------------
# mass
# ----------------------------------------------------------------------

def mass(case: SolutionCase, traj: Trajectory, ts) -> np.ndarray:
    """Total mass int rho(t, x) dx at each time of the 1-D sequence ts; exactly
    conserved in t.

    Compact families integrate over the support with the substitution
    x = x_b(t) sin(phi), which absorbs the square-root vanishing of rho at
    the boundary into a smooth integrand proportional to cos^2(phi),
    integrated to roundoff by one 21-point Gauss-Kronrod rule.  The fields
    are read once, on the (len(ts), 21) lattice; each mass has the bits of
    a call for its time alone.  Families on the full line have rho ~ |x|
    growth and divergent mass; math.inf is returned.
    """
    ts = np.asarray(ts, dtype=float)
    # Checked here, not only in eval_many: the full-line branch never reads the orbit.
    if ts.ndim != 1:
        raise ValueError(f"ts must be a 1-D sequence of times, got shape {ts.shape}")
    if not case.compact:
        return np.full(len(ts), math.inf)
    a, _ = traj.eval_many(3.0 * ts)
    xb = (np.cbrt(a) * case.eta_boundary)[:, None]

    def integrand(phi: np.ndarray) -> np.ndarray:
        # sin and cos per node are libm's; the rest is the same arithmetic on arrays.
        sin, cos = np.array([(math.sin(p), math.cos(p)) for p in phi.tolist()]).T
        rho, _, _ = fields_on_grid(case, traj, ts, xb * sin)
        return (rho * xb * cos).T

    return gauss_kronrod21_array(integrand, -math.pi / 2.0, math.pi / 2.0)


def analytic_mass(case: SolutionCase) -> float:
    """Exact mass alpha^2 pi / (2 sqrt|xi|) of a compact family; math.inf otherwise."""
    if not case.compact:
        return math.inf
    return case.alpha ** 2 * math.pi / (2.0 * math.sqrt(abs(case.emden.xi)))


def mass_error(case: SolutionCase, m: float, rtol: float) -> tuple[float, float, bool]:
    """(analytic, error, passed) for a computed mass m of a compact family.

    The error is relative to analytic_mass, or absolute (against 1e-12) for
    the zero profile alpha = 0.
    """
    analytic = analytic_mass(case)
    if analytic > 0:
        err = abs(m - analytic) / analytic
        return analytic, err, err <= rtol
    err = abs(m)
    return analytic, err, err <= 1e-12


# ----------------------------------------------------------------------
# first integral
# ----------------------------------------------------------------------

def energy_drift(traj: Trajectory, theta: float) -> tuple[float, float]:
    """(largest |energy - theta| over the nodes of traj, its bound).

    The bound is ENERGY_DRIFT_TOL times the orbit's energy scale: the
    largest a'^2/2 or |xi| |a|^{2/3}/2 over the nodes, the size of the two
    terms whose difference is the energy.  A bound in units of theta would
    not do: theta is small wherever those terms nearly cancel.
    """
    kinetic = 0.5 * traj.a_dot * traj.a_dot
    potential = 0.5 * abs(traj.params.xi) * np.cbrt(traj.a) ** 2
    scale = max(float(kinetic.max()), float(potential.max()))
    drift = float(np.max(np.abs(node_energies(traj) - theta)))
    return drift, ENERGY_DRIFT_TOL * scale


def sweep_checks(case: SolutionCase, traj: Trajectory, report: BlowupReport) -> tuple[float, bool]:
    """(mass at t = 0, pass) of a sweep row: the first integral within its bound
    and, on a compact family, the mass within the default mass_rtol."""
    drift, drift_bound = energy_drift(traj, report.theta)
    m_val = mass(case, traj, [0.0])[0]
    return m_val, drift <= drift_bound and (
        not case.compact or mass_error(case, m_val, Tolerances.mass_rtol)[2])


# ----------------------------------------------------------------------
# blowup rate and decay
# ----------------------------------------------------------------------

def blowup_rate(
    case: SolutionCase,
    traj: Trajectory,
    report: BlowupReport,
    s_samples,
) -> list[tuple[float, float]]:
    """Samples of rho(s, 0) (S - s)^{1/3} approaching the collapse time.

    The product tends to alpha / (2 theta)^{1/6}: the origin density blows
    up exactly like (S - s)^{-1/3}.
    """
    if report.classification is not Classification.COLLAPSE:
        raise ValueError("blowup rate is defined only for collapse orbits")
    if case.alpha <= 0.0:
        raise ValueError("blowup rate needs alpha > 0 (zero profile otherwise)")
    S = report.s_collapse_quadrature
    s_list = [float(s) for s in s_samples]
    for s in s_list:
        if not (0.0 <= s <= traj.s_max):
            raise ValueError(f"sample s = {s} outside the trajectory [0, {traj.s_max}]")
        if s >= S:
            raise ValueError(f"sample s = {s} is not before the collapse time {S}")
    rho, _, _ = fields_on_grid(case, traj, np.array(s_list) / 3.0, np.zeros(1))
    return [(s, rho0 * (S - s) ** (1.0 / 3.0)) for s, rho0 in zip(s_list, rho[:, 0].tolist())]


def origin_decay(case: SolutionCase, traj: Trajectory, t_list) -> list[float]:
    """rho(t, 0) samples for global orbits; decays to zero like t^{-1/2}."""
    if classify(case.emden) is Classification.COLLAPSE:
        raise ValueError("origin decay is defined only for global orbits")
    rho, _, _ = fields_on_grid(case, traj, np.array(t_list, dtype=float), np.zeros(1))
    return rho[:, 0].tolist()


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------

def run_battery(
    case: SolutionCase,
    traj: Trajectory,
    report: BlowupReport,
    grid: SpaceTimeGrid,
    tols: Tolerances = Tolerances(),
    u_scale: float = 1.0,
) -> dict:
    """Run every check on one family; returns {check name: record}.

    The records come in report order: residual_mass, residual_momentum,
    dispersion_independence, mass, mass_conservation, then blowup_rate
    (collapse orbits with alpha > 0) or origin_decay (global orbits).  Each
    record carries its own "pass", except the skipped mass records of
    full-line families.  u_scale scales the velocity (fault injection).
    """
    # Each lattice is checked and sampled once; both equations, and all
    # alpha_d runs, read the same samples.
    def sample(g, levels):
        return _sampled_levels(case, traj, g, levels, tols.margin, u_scale,
                               report.s_collapse_quadrature)

    # The kernels and norms run quietly: a norm that is not finite is named
    # by its record instead.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sampled = sample(grid, tols.levels)
        reports = {
            "residual_mass": _residual_report(case, sampled, "mass", 0.0, tols.order_band),
            "residual_momentum": _residual_report(case, sampled, "momentum", tols.alpha_d[0],
                                                  tols.order_band),
        }

        # The dispersion comparison runs on a coarse copy of the grid: the
        # alpha_d runs must share one grid, and coarse spacings keep the
        # roundoff amplification of D_xx u (analytically zero) small.
        grid_disp = SpaceTimeGrid(grid.t0, grid.t1, min(17, grid.nt),
                                  grid.x0, grid.x1, min(17, grid.nx))
        reports["dispersion_independence"] = _dispersion_record(case, sample(grid_disp, 1), tols)

    reports.update(_mass_records(case, traj, grid, tols))

    if report.classification is not Classification.COLLAPSE:
        reports["origin_decay"] = _origin_decay_record(case, traj, tols)
    elif case.alpha > 0:
        reports["blowup_rate"] = _blowup_rate_record(case, traj, report, tols.rate_rtol)
    return reports


def _mass_records(case, traj, grid, tols: Tolerances) -> dict:
    """The mass record at t0 and the mass_conservation record over five times
    spanning [t0, t1], from one mass call; its first time is t0 itself.
    Both are skipped on the full line."""
    if not case.compact:
        note = "mass diverges: the profile grows like |x| on the full line"
        return {name: {"divergent": True, "skipped": True, "note": note}
                for name in ("mass", "mass_conservation")}
    times = np.linspace(grid.t0, grid.t1, 5).tolist()
    masses = mass(case, traj, times).tolist()
    m0 = masses[0]
    analytic, rel, ok = mass_error(case, m0, tols.mass_rtol)
    spread = max(abs(m - m0) for m in masses)
    if m0 != 0.0:
        drift = spread / abs(m0)
    else:
        drift = 0.0 if spread == 0.0 else math.inf
    return {
        "mass": {"divergent": False, "value": m0, "analytic": analytic,
                 "relative_error": rel, "tolerance": tols.mass_rtol, "pass": ok},
        "mass_conservation": {"divergent": False, "times": times, "masses": masses,
                              "max_relative_drift": drift, "tolerance": tols.drift_tol,
                              "pass": drift <= tols.drift_tol},
    }


def _dispersion_record(case, sampled, tols: Tolerances) -> dict:
    """Spread of the momentum residual across alpha_d on one sampled lattice.

    For a velocity linear in x, D_xx u is roundoff, of size eps max|u| / dx^2,
    and the residual's difference quotients amplify alpha_d^2 times it by up
    to 1 / min(dt, dx).  The bound is dispersion_tol, which is dimensionless,
    times that scale, so it holds in every unit system.
    """
    (g, rho, u), = sampled
    eps = float(np.finfo(float).eps)
    cell = g.dx ** 2 * min(g.dt, g.dx)
    scale = (eps * max(ad * ad for ad in tols.alpha_d) * float(np.max(np.abs(u))) / cell
             if cell else math.inf)
    # An infinite bound would pass any spread.  Checked first: where it is
    # infinite, the residuals it bounds overflow too, and it names the cause.
    if not math.isfinite(scale):
        raise ArithmeticError(
            "dispersion roundoff scale eps max(alpha_d^2) max|u| / (dx^2 min(dt, dx)) "
            f"is out of range at dx = {g.dx}, dt = {g.dt}")
    bound = tols.dispersion_tol * scale
    disp_max = []
    for ad in tols.alpha_d:
        r = momentum_residual_field(rho, u, g.dt, g.dx, case.sigma, ad)
        disp_max.append(float(np.max(np.abs(r))))
        _check_finite(f"dispersion_independence at alpha_d = {ad}", g, max_residual=disp_max[-1])
    disp_diff = max(abs(v - disp_max[0]) for v in disp_max)
    return {
        "alpha_d_values": list(tols.alpha_d), "grid": {"nt": g.nt, "nx": g.nx},
        "interior_max_residuals": disp_max, "max_abs_difference": disp_diff,
        "tolerance": tols.dispersion_tol, "bound": bound, "pass": disp_diff <= bound,
    }


def _blowup_rate_record(case, traj, report, rtol: float) -> dict:
    if report.theta == 0.0:
        # Only xi > 0 orbits collapse with zero energy.
        return {"skipped": True,
                "note": "theta = 0: rho(s, 0) grows like (S - s)^{-1/2}, not (S - s)^{-1/3}"}
    S = report.s_collapse_quadrature
    samples = blowup_rate(case, traj, report, S - np.geomspace(1e-2, 1e-6, 17) * S)
    products = [p for _, p in samples]
    expected = case.alpha / (2.0 * report.theta) ** (1.0 / 6.0)
    limit = products[-1]
    rel = abs(limit - expected) / expected
    floor_ratio = min(products) / limit
    return {"samples": [[s, p] for s, p in samples], "limit_estimate": limit,
            "expected": expected, "relative_error": rel, "min_over_limit": floor_ratio,
            "tolerance": rtol, "pass": rel <= rtol and floor_ratio >= 1e-2}


def _origin_decay_record(case, traj, tols: Tolerances) -> dict:
    t_hi = min(_decay_window_end(tols, case), _t_max(traj))
    t_lo = max(t_hi / 100.0, 1e-3) if t_hi > 1e-3 else t_hi / 100.0  # below t_hi
    t_samples = list(np.geomspace(t_lo, t_hi, 12))
    values = origin_decay(case, traj, t_samples)
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    k = (4.0 * case.emden.xi / 9.0) ** 0.75
    expected = case.alpha / (math.sqrt(3.0) * k ** (1.0 / 3.0))
    scaled_tail = values[-1] * math.sqrt(t_samples[-1])
    if expected > 0:
        rel = abs(scaled_tail - expected) / expected
        ok = decreasing and rel <= tols.decay_rtol
    else:
        rel = abs(scaled_tail)
        ok = rel <= 1e-12
    return {"times": t_samples, "values": values, "strictly_decreasing": decreasing,
            "scaled_tail": scaled_tail, "expected": expected, "relative_error": rel,
            "tolerance": tols.decay_rtol, "pass": ok}
