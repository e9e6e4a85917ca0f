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

run_battery runs every check on one family with the thresholds of
Tolerances, the one place their defaults are defined.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._quadrature import gauss_kronrod21_array
from .emden import (
    BlowupReport,
    Classification,
    Trajectory,
    classify,
    collapse_time_quadrature,
    node_energies,
)
from .selfsim import SolutionCase, _scale_at, density, profile

__all__ = [
    "DEFAULT_SUPPORT_MARGIN",
    "COLLAPSE_TIME_MARGIN",
    "ENERGY_DRIFT_TOL",
    "ConservationReport",
    "GridError",
    "ResidualReport",
    "SpaceTimeGrid",
    "Tolerances",
    "analytic_mass",
    "blowup_rate",
    "energy_drift",
    "mass",
    "mass_conservation",
    "mass_error",
    "mass_residual_field",
    "min_support_radius",
    "momentum_residual_field",
    "origin_decay",
    "residual_mass_eq",
    "residual_momentum_eq",
    "run_battery",
]

# Residual grids may use at most this fraction of the support radius.
DEFAULT_SUPPORT_MARGIN = 0.8
# ... and at most this fraction of the collapse time (in s).
COLLAPSE_TIME_MARGIN = 0.9


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

    @property
    def residual_levels(self) -> int:
        """Levels the residual checks run: an order estimate needs two."""
        return max(self.levels, 2)


# The sweep's first-integral check (energy_drift): |energy - theta| at every
# node stays within ENERGY_DRIFT_TOL of the orbit's energy scale.  The
# battery does not run it, so it is not a Tolerances field (each field is a
# verify config key).
ENERGY_DRIFT_TOL = 1e-8


class GridError(ValueError):
    """Grid violates a residual-evaluation precondition."""


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform lattice on [t0, t1] x [x0, x1] (physical time)."""

    t0: float
    t1: float
    nt: int
    x0: float
    x1: float
    nx: int

    def __post_init__(self):
        if self.nt < 5 or self.nx < 5:
            raise GridError(f"need nt >= 5 and nx >= 5, got nt={self.nt}, nx={self.nx}")
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


@dataclass
class ResidualReport:
    """Interior residual norms, one entry per grid level (h halving)."""

    eq_label: str
    interior_max_residual: float
    interior_l2_residual: float
    h_values: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    estimated_order: float | None = None


@dataclass
class ConservationReport:
    """Mass samples across times, or a divergence marker."""

    times: list[float]
    masses: list[float]
    analytic_mass: float | None
    max_relative_drift: float | None
    divergent: bool


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

def _fields_on_grid(
    case: SolutionCase,
    traj: Trajectory,
    ts: np.ndarray,
    xs: np.ndarray,
    u_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (rho, u, eta) on the (len(ts), len(xs)) lattice of physical times ts.

    Any lattice size is accepted; u_scale is a fault-injection hook.
    """
    a, a_dot = traj.eval_many(3.0 * ts)
    cb = np.cbrt(a)
    eta = xs[None, :] / cb[:, None]
    rho = profile(case, eta) / cb[:, None]
    u = u_scale * (a_dot / a)[:, None] * xs[None, :]
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


def _check_grid(
    case: SolutionCase,
    traj: Trajectory,
    grid: SpaceTimeGrid,
    margin: float,
    s_collapse: float | None,
) -> None:
    if grid.t0 < 0.0:
        raise GridError(f"grid starts before t = 0 (t0 = {grid.t0})")
    s_hi = 3.0 * grid.t1
    if s_hi > traj.s_max:
        raise GridError(
            f"grid needs s up to {s_hi} but the trajectory ends at {traj.s_max}"
        )
    if classify(case.emden) is Classification.COLLAPSE:
        if s_collapse is None:
            s_collapse = collapse_time_quadrature(case.emden)
        if s_hi > COLLAPSE_TIME_MARGIN * s_collapse:
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


# ----------------------------------------------------------------------
# residual operations
# ----------------------------------------------------------------------

def _sampled_levels(case, traj, grid, levels, margin, u_scale, s_collapse) -> list:
    """Check the grid once, then (lattice, rho, u) on it and each of its refinements."""
    _check_grid(case, traj, grid, margin, s_collapse)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    sampled = []
    g = grid
    for _ in range(levels):
        rho, u, _ = _fields_on_grid(case, traj, g.ts(), g.xs(), u_scale)
        sampled.append((g, rho, u))
        g = g.refined()
    return sampled


def _residual_report(case, sampled, which, alpha_d) -> ResidualReport:
    """Residual norms of one equation on the sampled levels, and the observed order."""
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
    order = None
    if len(sampled) >= 2 and maxes[-1] > 0.0:
        order = math.log2(maxes[-2] / maxes[-1])
    return ResidualReport(
        eq_label=which,
        interior_max_residual=maxes[0],
        interior_l2_residual=l2s[0],
        h_values=h_values,
        residuals=maxes,
        estimated_order=order,
    )


def residual_mass_eq(
    case: SolutionCase,
    traj: Trajectory,
    grid: SpaceTimeGrid,
    levels: int = 1,
    margin: float = DEFAULT_SUPPORT_MARGIN,
    u_scale: float = 1.0,
    s_collapse: float | None = None,
) -> ResidualReport:
    """Mass-equation residual on the grid interior.

    With ``levels`` >= 2 the grid is refined by halving both spacings and
    the observed convergence order (log2 ratio of max residuals on the
    finest pair) is reported; the exact fields give order ~ 2.  The grid
    must end before ``COLLAPSE_TIME_MARGIN`` of the collapse time
    ``s_collapse`` (the report's quadrature S; computed when not given).
    """
    sampled = _sampled_levels(case, traj, grid, levels, margin, u_scale, s_collapse)
    return _residual_report(case, sampled, "mass", 0.0)


def residual_momentum_eq(
    case: SolutionCase,
    traj: Trajectory,
    grid: SpaceTimeGrid,
    alpha_d: float = 0.0,
    levels: int = 1,
    margin: float = DEFAULT_SUPPORT_MARGIN,
    u_scale: float = 1.0,
    s_collapse: float | None = None,
) -> ResidualReport:
    """Momentum-equation residual with dispersion scale alpha_d.

    The reported norms must be independent of alpha_d (to roundoff) for the
    exact fields, because their velocity is linear in x.  ``s_collapse`` is
    as in ``residual_mass_eq``.
    """
    sampled = _sampled_levels(case, traj, grid, levels, margin, u_scale, s_collapse)
    return _residual_report(case, sampled, "momentum", alpha_d)


# ----------------------------------------------------------------------
# mass
# ----------------------------------------------------------------------

def mass(case: SolutionCase, traj: Trajectory, t: float) -> float:
    """Total mass int rho(t, x) dx; exactly conserved in t.

    Compact families integrate over the support with the substitution
    x = x_b sin(phi), which absorbs the square-root vanishing of rho at the
    boundary into a smooth integrand proportional to cos^2(phi), integrated
    to roundoff by one 21-point Gauss-Kronrod rule.  Families on the full
    line have rho ~ |x| ^ 1 growth and divergent mass; math.inf is returned.
    """
    if not case.compact:
        return math.inf
    # a(3t) once: rho(t, x) = f(x / cb) / cb on the support [-xb, xb].
    a, _ = _scale_at(traj, t)
    cb = float(np.cbrt(a))
    xb = cb * case.eta_boundary
    if xb == 0.0:
        return 0.0

    def integrand(phi: np.ndarray) -> list:
        # sin and cos per node are libm's; the rest is the same arithmetic on arrays.
        sin, cos = np.array([(math.sin(p), math.cos(p)) for p in phi.tolist()]).T
        return (profile(case, xb * sin / cb) / cb * xb * cos).tolist()

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


def mass_conservation(
    case: SolutionCase,
    traj: Trajectory,
    t_list,
) -> ConservationReport:
    """Sample mass across times and report the worst relative drift."""
    times = [float(t) for t in t_list]
    if not times:
        raise ValueError("t_list must be nonempty")
    if not case.compact:
        return ConservationReport(
            times=times,
            masses=[],
            analytic_mass=None,
            max_relative_drift=None,
            divergent=True,
        )
    masses = [mass(case, traj, t) for t in times]
    analytic = analytic_mass(case)
    m0 = masses[0]
    spread = max(abs(m - m0) for m in masses)
    if m0 != 0.0:
        drift = spread / abs(m0)
    else:
        drift = 0.0 if spread == 0.0 else math.inf
    return ConservationReport(
        times=times,
        masses=masses,
        analytic_mass=analytic,
        max_relative_drift=drift,
        divergent=False,
    )


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
    out = []
    for s in s_samples:
        s = float(s)
        if not (0.0 <= s <= traj.s_max):
            raise ValueError(f"sample s = {s} outside the trajectory [0, {traj.s_max}]")
        if s >= S:
            raise ValueError(f"sample s = {s} is not before the collapse time {S}")
        rho0 = density(case, traj, s / 3.0, 0.0)
        out.append((s, rho0 * (S - s) ** (1.0 / 3.0)))
    return out


def origin_decay(case: SolutionCase, traj: Trajectory, t_list) -> list[float]:
    """rho(t, 0) samples for global orbits; decays to zero like t^{-1/2}."""
    if classify(case.emden) is Classification.COLLAPSE:
        raise ValueError("origin decay is defined only for global orbits")
    return [density(case, traj, float(t), 0.0) for t in t_list]


# ----------------------------------------------------------------------
# the battery
# ----------------------------------------------------------------------

def _order_ok(rep: ResidualReport, band: float) -> bool:
    # Residuals at the roundoff floor count as exact; order is meaningless there.
    if rep.residuals and max(rep.residuals) < 1e-12:
        return True
    if rep.estimated_order is None:
        return False
    return abs(rep.estimated_order - 2.0) <= band


def _residual_record(rep: ResidualReport, band: float) -> dict:
    rec = asdict(rep)
    return {"eq": rec.pop("eq_label"), **rec, "pass": _order_ok(rep, band)}


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

    reports: dict = {}
    sampled = sample(grid, tols.residual_levels)
    rep = _residual_report(case, sampled, "mass", 0.0)
    reports["residual_mass"] = _residual_record(rep, tols.order_band)
    rep = _residual_report(case, sampled, "momentum", tols.alpha_d[0])
    reports["residual_momentum"] = _residual_record(rep, tols.order_band)

    # The dispersion comparison runs on a coarse copy of the grid: the
    # alpha_d runs must share one grid, and coarse spacings keep the
    # roundoff amplification of D_xx u (analytically zero) small.
    grid_disp = SpaceTimeGrid(grid.t0, grid.t1, min(17, grid.nt),
                              grid.x0, grid.x1, min(17, grid.nx))
    reports["dispersion_independence"] = _dispersion_record(case, sample(grid_disp, 1), tols)

    if case.compact:
        m_val = mass(case, traj, grid.t0)
        analytic, rel, ok = mass_error(case, m_val, tols.mass_rtol)
        reports["mass"] = {"divergent": False, "value": m_val, "analytic": analytic,
                           "relative_error": rel, "tolerance": tols.mass_rtol, "pass": ok}
        con = mass_conservation(case, traj, list(np.linspace(grid.t0, grid.t1, 5)))
        drift = con.max_relative_drift
        reports["mass_conservation"] = {
            "divergent": False, "times": con.times, "masses": con.masses,
            "max_relative_drift": drift, "tolerance": tols.drift_tol,
            "pass": drift is not None and drift <= tols.drift_tol,
        }
    else:
        note = "mass diverges: the profile grows like |x| on the full line"
        reports["mass"] = {"divergent": True, "skipped": True, "note": note}
        reports["mass_conservation"] = {"divergent": True, "skipped": True, "note": note}

    if report.classification is not Classification.COLLAPSE:
        reports["origin_decay"] = _origin_decay_record(case, traj, tols)
    elif case.alpha > 0:
        reports["blowup_rate"] = _blowup_rate_record(case, traj, report, tols.rate_rtol)
    return reports


def _dispersion_record(case, sampled, tols: Tolerances) -> dict:
    """Spread of the momentum residual across alpha_d on one sampled lattice.

    For a velocity linear in x, D_xx u is roundoff, of size eps max|u| / dx^2,
    and the residual's difference quotients amplify alpha_d^2 times it by up
    to 1 / min(dt, dx).  The bound is dispersion_tol, which is dimensionless,
    times that scale, so it holds in every unit system.
    """
    (g, _, u), = sampled
    disp_max = [_residual_report(case, sampled, "momentum", ad).interior_max_residual
                for ad in tols.alpha_d]
    disp_diff = max(abs(v - disp_max[0]) for v in disp_max)
    eps = float(np.finfo(float).eps)
    scale = (eps * max(ad * ad for ad in tols.alpha_d) * float(np.max(np.abs(u)))
             / (g.dx ** 2 * min(g.dt, g.dx)))
    bound = tols.dispersion_tol * scale
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
    t_hi = min(tols.decay_t_max, _t_max(traj))
    t_samples = list(np.geomspace(max(t_hi / 100.0, 1e-3), t_hi, 12))
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
