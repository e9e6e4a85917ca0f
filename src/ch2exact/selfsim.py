"""Exact self-similar families: their sign table and profile.

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
four families because sign(f) matches sign(a0^{1/3}).  The fields
themselves are sampled in one place, ``verify.fields_on_grid``, on
lattices of times and points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emden import EmdenParams

__all__ = [
    "SolutionCase",
    "profile",
    "profiles",
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
    there but not differentiable (square-root vanishing).  A batch of one of
    ``profiles``.
    """
    e = np.asarray(eta, dtype=float)
    (f,), (error,) = profiles([case], e[None])
    if error is not None:
        raise error
    if np.ndim(eta) == 0:
        return float(f)
    return f


def profiles(cases, eta) -> tuple[np.ndarray, list]:
    """(f, errors): f[p] is the profile of cases[p] at eta[p], eta's leading
    axis running over the cases, each the bits of ``profile`` alone.

    errors[p] is the OverflowError naming an amplitude (alpha / xi)^2 out of
    range, and row p of f is then NaN; else it is None.
    """
    coefficients, errors = [], []
    for case in cases:
        xi, sg, al = case.emden.xi, case.sigma, case.alpha
        # Python floats, so that the amplitude's overflow is named before numpy warns.
        try:
            amplitude = (al / xi) ** 2
        except OverflowError:  # Python's float ** raises where numpy's returns inf
            amplitude = math.inf
        if amplitude == math.inf:
            errors.append(OverflowError(
                f"profile amplitude (alpha / xi)^2 is out of range at alpha = {al}, xi = {xi}"))
            coefficients.append((math.nan, math.nan, math.nan))  # NaN raises no warning
        else:
            errors.append(None)
            coefficients.append((amplitude, sg / xi, xi / sg))
    # Three columns, each broadcast over eta's axes after the first.
    amplitude, slope, scale = np.array(coefficients, dtype=float).T.reshape(
        (3, len(cases)) + (1,) * (eta.ndim - 1))
    radicand = amplitude - slope * eta * eta
    return scale * np.sqrt(np.maximum(radicand, 0.0)), errors
