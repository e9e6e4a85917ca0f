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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quadrature import gauss_kronrod21
from .emden import (
    BlowupReport,
    Classification,
    Trajectory,
    classify,
    collapse_time_quadrature,
)
from .selfsim import SolutionCase, profile, density

__all__ = [
    "DEFAULT_SUPPORT_MARGIN",
    "COLLAPSE_TIME_MARGIN",
    "ConservationReport",
    "GridError",
    "ResidualReport",
    "SpaceTimeGrid",
    "blowup_rate",
    "mass",
    "mass_conservation",
    "mass_residual_field",
    "momentum_residual_field",
    "origin_decay",
    "residual_mass_eq",
    "residual_momentum_eq",
]

# Residual grids may use at most this fraction of the support radius.
DEFAULT_SUPPORT_MARGIN = 0.8
# ... and at most this fraction of the collapse time (in s).
COLLAPSE_TIME_MARGIN = 0.9


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


def _check_grid(
    case: SolutionCase,
    traj: Trajectory,
    grid: SpaceTimeGrid,
    margin: float,
) -> None:
    if grid.t0 < 0.0:
        raise GridError(f"grid starts before t = 0 (t0 = {grid.t0})")
    s_hi = 3.0 * grid.t1
    if s_hi > traj.s_max:
        raise GridError(
            f"grid needs s up to {s_hi} but the trajectory ends at {traj.s_max}"
        )
    if classify(case.emden) is Classification.COLLAPSE:
        s_collapse = collapse_time_quadrature(case.emden)
        if s_hi > COLLAPSE_TIME_MARGIN * s_collapse:
            raise GridError(
                f"grid reaches s = {s_hi}, too close to collapse at "
                f"s = {s_collapse} (margin {COLLAPSE_TIME_MARGIN})"
            )
    if case.compact:
        a, _ = traj.eval_many(3.0 * grid.ts())
        xb = np.cbrt(a) * case.eta_boundary
        xb_min = float(np.min(xb))
        x_extent = max(abs(grid.x0), abs(grid.x1))
        if x_extent > margin * xb_min:
            raise GridError(
                f"grid reaches |x| = {x_extent}, beyond {margin} of the "
                f"minimal support radius {xb_min}"
            )


# ----------------------------------------------------------------------
# residual operations
# ----------------------------------------------------------------------

def _residual_levels(case, traj, grid, levels, margin, u_scale, which, alpha_d):
    _check_grid(case, traj, grid, margin)
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    h_values: list[float] = []
    maxes: list[float] = []
    l2s: list[float] = []
    g = grid
    for _ in range(levels):
        rho, u, _ = _fields_on_grid(case, traj, g.ts(), g.xs(), u_scale)
        if which == "mass":
            r = mass_residual_field(rho, u, g.dt, g.dx)
        else:
            r = momentum_residual_field(rho, u, g.dt, g.dx, case.sigma, alpha_d)
        h_values.append(g.dx)
        maxes.append(float(np.max(np.abs(r))))
        l2s.append(float(np.sqrt(np.mean(r * r))))
        g = g.refined()
    order = None
    if levels >= 2 and maxes[-1] > 0.0:
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
) -> ResidualReport:
    """Mass-equation residual on the grid interior.

    With ``levels`` >= 2 the grid is refined by halving both spacings and
    the observed convergence order (log2 ratio of max residuals on the
    finest pair) is reported; the exact fields give order ~ 2.
    """
    return _residual_levels(case, traj, grid, levels, margin, u_scale, "mass", 0.0)


def residual_momentum_eq(
    case: SolutionCase,
    traj: Trajectory,
    grid: SpaceTimeGrid,
    alpha_d: float = 0.0,
    levels: int = 1,
    margin: float = DEFAULT_SUPPORT_MARGIN,
    u_scale: float = 1.0,
) -> ResidualReport:
    """Momentum-equation residual with dispersion scale alpha_d.

    The reported norms must be independent of alpha_d (to roundoff) for the
    exact fields, because their velocity is linear in x.
    """
    return _residual_levels(case, traj, grid, levels, margin, u_scale, "momentum", alpha_d)


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
    from .selfsim import support as _support

    lo, hi = _support(case, traj, t)
    xb = hi
    if xb == 0.0:
        return 0.0

    def integrand(phi: float) -> float:
        x = xb * math.sin(phi)
        return density(case, traj, t, x) * xb * math.cos(phi)

    return gauss_kronrod21(integrand, -math.pi / 2.0, math.pi / 2.0)


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
    analytic = case.alpha ** 2 * math.pi / (2.0 * math.sqrt(abs(case.emden.xi)))
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
