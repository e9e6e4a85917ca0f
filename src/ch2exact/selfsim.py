"""Exact self-similar density/velocity fields.

Each admissible sign pattern (sigma, sign xi, sign a0) yields a family

    rho(t, x) = f(eta) / a(3t)^{1/3},   u(t, x) = (a'(3t) / a(3t)) x,
    eta = x / a(3t)^{1/3},

where a solves the scale-factor equation and the even profile f solves

    (xi / sigma) eta + f(eta) f'(eta) = 0,    f(0) = +/- alpha,

i.e.  f(eta) = (xi / sigma) sqrt(-(sigma/xi) eta^2 + (alpha/xi)^2),
clamped to zero where the radicand is negative.  sigma*xi > 0 gives a
compactly supported profile (vanishing like a square root at the support
boundary, where the slope is unbounded); sigma*xi < 0 gives a profile on
the whole line growing like |eta|.  The density is nonnegative in all
four families because sign(f) matches sign(a0^{1/3}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emden import CollapseSingularity, EmdenParams, Trajectory

__all__ = [
    "FieldSample",
    "SolutionCase",
    "SupportBoundaryError",
    "TimeOutOfRange",
    "density",
    "profile",
    "profile_derivative",
    "sample",
    "support",
    "velocity",
]

# (sigma, sign xi, sign a0) -> family label
_CASE_TABLE = {
    (-1, -1, +1): "1a",
    (-1, +1, -1): "1b",
    (+1, +1, +1): "2a",
    (+1, -1, -1): "2b",
}

_SIGN_RULE = (
    "admissible sign patterns (sigma, sign xi, sign a0): "
    "(-1, xi<0, a0>0) -> 1a, (-1, xi>0, a0<0) -> 1b, "
    "(+1, xi>0, a0>0) -> 2a, (+1, xi<0, a0<0) -> 2b"
)


class SupportBoundaryError(ArithmeticError):
    """Profile slope is unbounded at (or undefined beyond) the support boundary."""


class TimeOutOfRange(ValueError):
    """Requested time lies outside the integrated trajectory."""


@dataclass(frozen=True)
class SolutionCase:
    """One admissible family: sigma, profile amplitude alpha, scale-factor data."""

    sigma: int
    alpha: float
    emden: EmdenParams

    def __post_init__(self):
        if isinstance(self.sigma, bool) or self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma}")
        real = isinstance(self.alpha, (int, float)) and not isinstance(self.alpha, bool)
        if not (real and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be a finite real, got {self.alpha!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        key = (self.sigma, _sign(self.emden.xi), _sign(self.emden.a0))
        if key not in _CASE_TABLE:
            raise ValueError(
                f"sign pattern (sigma={self.sigma}, xi={self.emden.xi}, "
                f"a0={self.emden.a0}) is not admissible; {_SIGN_RULE}"
            )

    @property
    def case_id(self) -> str:
        return _CASE_TABLE[(self.sigma, _sign(self.emden.xi), _sign(self.emden.a0))]

    @property
    def compact(self) -> bool:
        """True when the profile has compact support (sigma * xi > 0)."""
        return self.sigma * self.emden.xi > 0

    @property
    def eta_boundary(self) -> float | None:
        """Support half-width in eta, alpha / sqrt(sigma xi); None on the full line."""
        if not self.compact:
            return None
        return self.alpha / math.sqrt(self.sigma * self.emden.xi)


def _sign(x: float) -> int:
    return 1 if x > 0 else -1


def profile(case: SolutionCase, eta):
    """Self-similar profile f(eta); accepts scalars or arrays.

    Compact families return 0 outside the support; the profile is continuous
    there but not differentiable (square-root vanishing).
    """
    xi, sg, al = case.emden.xi, case.sigma, case.alpha
    e = np.asarray(eta, dtype=float)
    radicand = -(sg / xi) * e * e + (al / xi) ** 2
    f = (xi / sg) * np.sqrt(np.maximum(radicand, 0.0))
    if np.isscalar(eta) or np.ndim(eta) == 0:
        return float(f)
    return f


def profile_derivative(case: SolutionCase, eta: float) -> float:
    """f'(eta) = -(xi/sigma) eta / f(eta) for eta strictly inside the support.

    Returns 0 at eta = 0 (even profile).  Raises SupportBoundaryError where
    f vanishes at eta != 0: the one-sided slope is unbounded at the support
    boundary and the profile is identically zero beyond it.
    """
    if eta == 0.0:
        return 0.0
    f = profile(case, eta)
    if f == 0.0:
        raise SupportBoundaryError(
            f"profile slope unbounded at the support boundary (eta = {eta})"
        )
    return -(case.emden.xi / case.sigma) * eta / f


def _scale_at(traj: Trajectory, t: float) -> tuple[float, float]:
    """(a, a') at s = 3t with range checking in physical time."""
    s = 3.0 * t
    if not (0.0 <= s <= traj.s_max):
        raise TimeOutOfRange(
            f"t = {t} maps to s = {s} outside the integrated range [0, {traj.s_max}]"
        )
    state = traj.eval(s)
    if state.a == 0.0:
        raise CollapseSingularity(f"scale factor vanished at t = {t}")
    return state.a, state.a_dot


def density(case: SolutionCase, traj: Trajectory, t: float, x: float) -> float:
    """rho(t, x) = f(x / a(3t)^{1/3}) / a(3t)^{1/3}; nonnegative."""
    a, _ = _scale_at(traj, t)
    cb = float(np.cbrt(a))
    return profile(case, x / cb) / cb


def velocity(case: SolutionCase, traj: Trajectory, t: float, x: float) -> float:
    """u(t, x) = (a'(3t) / a(3t)) x; linear in x, odd in x."""
    a, a_dot = _scale_at(traj, t)
    return (a_dot / a) * x


def support(case: SolutionCase, traj: Trajectory, t: float) -> tuple[float, float] | None:
    """Support interval [-x_b, x_b] of rho(t, .), or None on the full line.

    For compact families x_b(t) = a(3t)^{1/3} alpha / sqrt(sigma xi), which
    traces the collapse (shrinking) or spreading (growing) of the support.
    """
    if not case.compact:
        return None
    a, _ = _scale_at(traj, t)
    xb = float(np.cbrt(a)) * case.eta_boundary
    return (-xb, xb)


@dataclass(frozen=True)
class FieldSample:
    """Point evaluation of the exact fields."""

    t: float
    x: float
    rho: float
    u: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.t, self.x, self.rho, self.u)):
            raise ValueError("field sample must be finite")
        if self.rho < 0:
            raise ValueError(f"density must be nonnegative, got {self.rho}")


def sample(case: SolutionCase, traj: Trajectory, t: float, x: float) -> FieldSample:
    """Evaluate both fields at one spacetime point."""
    a, a_dot = _scale_at(traj, t)
    cb = float(np.cbrt(a))
    return FieldSample(
        t=t,
        x=x,
        rho=profile(case, x / cb) / cb,
        u=(a_dot / a) * x,
    )
