"""Output oracles: judge each command's output from the inputs alone.

Nothing here imports the program.  The expected values come from the
closed forms of the paper's first integral

    theta = a1^2 / 2 - (xi / 2) |a0|^{2/3},

and the even profile f(eta) = sigma sgn(xi) sqrt(max(0, alpha^2 - sigma xi eta^2)).
An orbit collapses when xi < 0, or when xi > 0 with an inward slope and
theta >= 0.  With G = sqrt(|xi|/2) |a|^{1/3} and c = 6 / |xi|^{3/2} the
collapse time is

    xi < 0:  S = c (theta/2) (phi - sin phi cos phi),
             phi = asin(G0 / sqrt theta), or pi minus that for an outward slope;
    xi > 0:  S = c (theta/2) (sinh psi cosh psi - psi),  psi = asinh(G0 / sqrt theta).

Each check returns None when the output is right and a one-line reason
when it is not.  Malformed output is a rejection, never an exception: an
exception out of this module is a fault of the benchmark.
"""

from __future__ import annotations

import json
import math

import numpy as np

from cases import Case, Item

THETA_RTOL = 1e-12      # theta is one formula; only roundoff separates routes
S_RTOL = 1e-9           # closed-form S vs the program's quadrature route
MASS_RTOL = 1e-6        # the program's documented mass tolerance
FIELD_RTOL = 1e-10      # construct cells vs the closed-form profile
SLICE_RTOL = 1e-12      # x = eta a^{1/3} and u / x within one time slice

SWEEP_HEADER = ("case_id,sigma,xi,alpha,a0,a1,classification,theta,"
                "s_collapse,mass,rate_limit,all_pass")
CONSTRUCT_HEADER = "t,x,rho,u,eta,in_support"


def theta(c: Case) -> float:
    return 0.5 * c.a1 * c.a1 - 0.5 * c.xi * abs(c.a0) ** (2.0 / 3.0)


def _theta_scale(c: Case) -> float:
    return 0.5 * c.a1 * c.a1 + 0.5 * abs(c.xi) * abs(c.a0) ** (2.0 / 3.0)


def _inward_slope(c: Case) -> float:
    """a'(0) measured toward a = 0 positive-outward: b1 = sign(a0) a1."""
    return c.a1 if c.a0 > 0 else -c.a1


def collapses(c: Case) -> bool:
    return c.xi < 0 or (_inward_slope(c) < 0 and theta(c) >= 0)


def classification(c: Case) -> str:
    return "Collapse" if collapses(c) else "Global"


def collapse_time(c: Case) -> float:
    """Closed-form collapse time S in the scale factor's clock s = 3t."""
    th = theta(c)
    g0 = math.sqrt(abs(c.xi) / 2.0) * abs(c.a0) ** (1.0 / 3.0)
    k = 6.0 / abs(c.xi) ** 1.5
    if c.xi < 0:
        phi = math.asin(min(1.0, g0 / math.sqrt(th)))
        if _inward_slope(c) > 0:
            phi = math.pi - phi
        return k * 0.5 * th * (phi - math.sin(phi) * math.cos(phi))
    if not collapses(c):
        raise ValueError("orbit does not collapse")
    if th == 0.0:
        return k * 0.5 * g0 * g0
    psi = math.asinh(g0 / math.sqrt(th))
    return k * 0.5 * th * (math.sinh(psi) * math.cosh(psi) - psi)


def analytic_mass(c: Case) -> float:
    return c.alpha ** 2 * math.pi / (2.0 * math.sqrt(abs(c.xi)))


def compact(c: Case) -> bool:
    return c.sigma * c.xi > 0


def _close(value: float, expected: float, rtol: float, scale: float | None = None) -> bool:
    return abs(value - expected) <= rtol * (abs(expected) if scale is None else scale)


def _orbit_reason(c: Case, cls: str, th: float, s_coll) -> str | None:
    """Classification, theta and collapse time of one orbit."""
    if cls != classification(c):
        return f"classified {cls}, expected {classification(c)} (theta={theta(c):.6g})"
    if not _close(th, theta(c), THETA_RTOL, _theta_scale(c)):
        return f"theta {th!r} != {theta(c)!r}"
    if collapses(c):
        if s_coll is None:
            return "collapse orbit without a collapse time"
        if not _close(s_coll, collapse_time(c), S_RTOL):
            return f"S {s_coll!r} != closed form {collapse_time(c)!r}"
    elif s_coll is not None:
        return f"global orbit with a collapse time {s_coll!r}"
    return None


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _sweep_row_reason(c: Case, cells: list[str]) -> str | None:
    if len(cells) != 12:
        return f"row has {len(cells)} cells"
    case_id, sigma, xi, alpha, a0, a1, cls, th, s_coll, mass, _rate, all_pass = cells
    if case_id != c.family:
        return f"case {case_id!r} ({cls[:80]}), expected {c.family}"
    try:
        echoed = (int(sigma), float(xi), float(alpha), float(a0), float(a1))
        th_v = float(th)
        s_v = float(s_coll) if s_coll else None
        mass_v = None if mass == "div" else float(mass)
    except ValueError as exc:
        return f"unparsable cell: {exc}"
    if echoed != (c.sigma, c.xi, c.alpha, c.a0, c.a1):
        return "row does not echo its inputs"
    reason = _orbit_reason(c, cls, th_v, s_v)
    if reason:
        return reason
    if compact(c):
        if mass_v is None or not _close(mass_v, analytic_mass(c), MASS_RTOL):
            return f"mass {mass!r} != {analytic_mass(c)!r}"
    elif mass != "div":
        return f"full-line profile with finite mass {mass!r}"
    if all_pass != "true":
        return f"all_pass={all_pass}"
    return None


def check_sweep(item: Item, text: str | None) -> list[str | None]:
    """One verdict per case of the sweep config."""
    n = len(item.cases)
    if text is None:
        return ["no sweep.csv"] * n
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "" or len(lines) != n + 2:
        return [f"malformed sweep.csv ({len(lines) - 2} rows for {n} cases)"] * n
    return [_sweep_row_reason(c, line.split(",")) for c, line in zip(item.cases, lines[1:-1])]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def check_verify(item: Item, exit_code: int, text: str | None) -> str | None:
    (c,) = item.cases
    want = 3 if item.corrupt else 0
    if text is None:
        return f"exit {exit_code}, expected {want}; no verify.json"
    try:
        doc = json.loads(text)
        reports = doc["reports"]
        if exit_code != want:
            failing = [k for k, v in reports.items() if isinstance(v, dict) and v.get("pass") is False]
            return f"exit {exit_code}, expected {want}; failing: {', '.join(failing) or 'none'}"
        if item.corrupt:
            if reports["residual_momentum"]["pass"] is not False:
                return "corrupted velocity passed the momentum residual check"
            return None
        if doc["pass"] is not True:
            return "pass is not true"
        if doc["case"] != c.family:
            return f"case {doc['case']!r}, expected {c.family}"
        b = reports["blowup"]
        return _orbit_reason(c, b["classification"], float(b["theta"]),
                             b["s_collapse_quadrature"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed verify.json: {exc!r}"


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def _construct_grid_reason(c: Case, cols: np.ndarray, nt: int, nx: int) -> str | None:
    t, x, rho, u, eta = (cols[i].reshape(nt, nx) for i in range(5))
    if not np.all(np.isfinite(cols)):
        return "non-finite cell"
    if np.any(t != t[:, :1]) or np.any(np.diff(t[:, 0]) <= 0):
        return "t is not constant per slice and increasing"
    if np.any(x != x[:1, :]) or np.any(np.diff(x[0]) <= 0):
        return "x grid differs between slices or is not increasing"
    # a^{1/3} per slice from the outermost row, where x / eta has least roundoff
    j = int(np.argmax(np.abs(x[0])))
    cb = x[:, j] / eta[:, j]
    xs = np.max(np.abs(x))
    if np.any(np.abs(x - eta * cb[:, None]) > SLICE_RTOL * 4 * xs):
        return "x != eta a^{1/3} on some row"
    f = c.sigma * math.copysign(1.0, c.xi) * np.sqrt(
        np.maximum(0.0, c.alpha ** 2 - c.sigma * c.xi * eta * eta))
    scale = np.sqrt(c.alpha ** 2 + abs(c.xi) * eta * eta)
    if np.any(np.abs(rho * cb[:, None] - f) > FIELD_RTOL * scale):
        return "rho a^{1/3} != f(eta) on some row"
    mask = np.abs(x[0]) > 1e-9 * xs
    k = u[:, mask] / x[:, mask]
    if np.any(np.abs(k - k[:, :1]) > SLICE_RTOL * 4 * np.abs(k).max(axis=1, keepdims=True)):
        return "u / x is not constant within a time slice"
    if t[0, 0] == 0.0:
        if not _close(cb[0], np.cbrt(c.a0), SLICE_RTOL * 4):
            return f"a(0)^(1/3) = {cb[0]!r}, expected {np.cbrt(c.a0)!r}"
        if not _close(k[0, 0], c.a1 / c.a0, SLICE_RTOL * 4, abs(c.a1 / c.a0) + 1e-300):
            return f"u/x at t=0 is {k[0, 0]!r}, expected a1/a0 = {c.a1 / c.a0!r}"
    return None


def check_construct(item: Item, data: bytes | None, previous: bytes | None = None,
                    nt: int = 401, nx: int = 401) -> str | None:
    """Grid, closed-form cells and, for a repeated item, byte identity."""
    (c,) = item.cases
    if data is None:
        return "no construct.csv"
    if item.repeat_of is not None and previous is not None and data != previous:
        return f"output differs from the identical item {item.repeat_of}"
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return "construct.csv is not UTF-8"
    if lines[0] != CONSTRUCT_HEADER or lines[-1] != "":
        return "bad header or missing final newline"
    body = lines[1:-1]
    if len(body) != nt * nx:
        return f"{len(body)} rows, expected {nt * nx}"
    flat = ",".join(body).split(",")
    if len(flat) != 6 * nt * nx:
        return "rows do not all have 6 cells"
    flags = flat[5::6]
    if any(f not in ("true", "false") for f in flags):
        return "in_support is not true/false"
    try:
        cols = np.array([flat[i::6] for i in range(5)], dtype=float)
    except ValueError as exc:
        return f"unparsable cell: {exc}"
    reason = _construct_grid_reason(c, cols, nt, nx)
    if reason:
        return reason
    eta = cols[4]
    if compact(c):
        inside = eta * eta < c.alpha ** 2 / (c.sigma * c.xi)
    else:
        inside = np.ones(eta.shape, dtype=bool)
    if np.any(inside != (np.array(flags) == "true")):
        return "in_support disagrees with eta"
    return None
