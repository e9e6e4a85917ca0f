"""Command-line front end.

Subcommands
-----------
emden      integrate one scale-factor orbit; CSV trajectory + JSON report
construct  sample the exact fields on a grid; CSV table
verify     run the verification battery on one family; JSON report
sweep      run a list of families; one-row-per-case summary CSV

Configs are flat ``key = value`` text files ('#' starts a comment); a sweep
config is a list of such blocks separated by blank lines.  All numeric
output is serialized with 17 significant digits and reruns are
byte-identical.  Times in configs and outputs are physical t; the scale
factor's internal clock is s = 3t.

Exit codes: 0 success, 1 invalid input, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .emden import (
    DEFAULT_TOL,
    Classification,
    CollapseSingularity,
    EmdenParams,
    IntegrationFailure,
    InvalidEnergy,
    analyze,
    energy,
)
from .selfsim import SolutionCase
from .serialize import fmt_float, fmt_floats, to_json, write_csv, write_text
from .verify import (
    DEFAULT_SUPPORT_MARGIN,
    SpaceTimeGrid,
    _fields_on_grid,
    blowup_rate,
    mass,
    mass_conservation,
    origin_decay,
    residual_mass_eq,
    residual_momentum_eq,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL_FAILURE = 2
EXIT_VERIFICATION_FAILURE = 3


class ConfigError(ValueError):
    """Malformed or invalid configuration."""


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def parse_config_blocks(text: str) -> list[dict[str, str]]:
    """Split a flat key=value config into blank-line-separated blocks."""
    blocks: list[dict[str, str]] = []
    current: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append(current)
                current = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in one block")
        current[key] = value
    if current:
        blocks.append(current)
    return blocks


def _load_blocks(path: str) -> list[dict[str, str]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_blocks(text)


def _single_block(path: str) -> dict[str, str]:
    blocks = _load_blocks(path)
    if len(blocks) != 1:
        raise ConfigError(
            f"config {path} must contain exactly one block, found {len(blocks)}"
        )
    return blocks[0]


def _check_keys(block: dict[str, str], allowed: set[str], context: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) for {context}: {', '.join(unknown)}")


def _get_float(block: dict[str, str], key: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ConfigError(f"config key {key!r} is required")
        return default
    try:
        return float(block[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is not a number: {block[key]!r}") from exc


def _get_int(block: dict[str, str], key: str, default=None) -> int:
    if key not in block:
        if default is None:
            raise ConfigError(f"config key {key!r} is required")
        return default
    try:
        return int(block[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is not an integer: {block[key]!r}") from exc


_CASE_KEYS = {"sigma", "xi", "alpha", "a0", "a1"}
_EMDEN_KEYS = {"xi", "a0", "a1", "t_end", "tol"}
_GRID_KEYS = {"t0", "t1", "nt", "x0", "x1", "nx"}
_VERIFY_KEYS = _CASE_KEYS | _GRID_KEYS | {
    "t_end", "tol", "levels", "margin", "alpha_d",
    "order_band", "dispersion_tol", "mass_rtol", "drift_tol",
    "rate_rtol", "decay_rtol", "decay_t_max",
}
_SWEEP_KEYS = _CASE_KEYS | {"t_end", "tol"}


def _emden_params(block: dict[str, str]) -> EmdenParams:
    try:
        return EmdenParams(
            xi=_get_float(block, "xi"),
            a0=_get_float(block, "a0"),
            a1=_get_float(block, "a1", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _solution_case(block: dict[str, str]) -> SolutionCase:
    sigma_f = _get_float(block, "sigma")
    if sigma_f not in (-1.0, 1.0):
        raise ConfigError(f"sigma must be +1 or -1, got {block.get('sigma')}")
    try:
        return SolutionCase(
            sigma=int(sigma_f),
            alpha=_get_float(block, "alpha"),
            emden=_emden_params(block),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _apply_grid_flag(block: dict[str, str], grid_flag: str | None) -> None:
    if grid_flag is None:
        return
    parts = grid_flag.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--grid expects 'nx,nt', got {grid_flag!r}")
    block["nx"], block["nt"] = parts[0].strip(), parts[1].strip()


def _parse_corrupt(flag: str | None) -> float:
    if flag is None:
        return 1.0
    if not flag.startswith("u="):
        raise ConfigError(f"--seed-corrupt expects 'u=<factor>', got {flag!r}")
    try:
        return float(flag[2:])
    except ValueError as exc:
        raise ConfigError(f"--seed-corrupt factor is not a number: {flag!r}") from exc


def _t_max(traj) -> float:
    """Largest physical t with 3t <= s_max (s_max / 3 can round one ulp high)."""
    t = traj.s_max / 3.0
    while 3.0 * t > traj.s_max:
        t = math.nextafter(t, 0.0)
    return t


def _grid_values(case: SolutionCase, traj, report, block: dict[str, str]):
    """(t0, t1, nt, x0, x1, nx) from config keys, defaults derived from the orbit."""
    params = case.emden
    if params.xi < 0:
        t1_default = 0.25 * report.s_collapse_quadrature / 3.0
    else:
        t1_default = min(0.5, _t_max(traj))
    t0 = _get_float(block, "t0", 0.0)
    t1 = _get_float(block, "t1", t1_default)
    nt = _get_int(block, "nt", 81)
    nx = _get_int(block, "nx", 81)
    if case.compact:
        a, _ = traj.eval_many(3.0 * np.linspace(t0, t1, 33))
        xb_min = float(np.min(np.cbrt(a))) * case.eta_boundary
        x1_default = 0.6 * xb_min
    else:
        x1_default = float(np.cbrt(abs(params.a0)))
    x1 = _get_float(block, "x1", x1_default)
    x0 = _get_float(block, "x0", -x1)
    return t0, t1, nt, x0, x1, nx


def _default_grid(case: SolutionCase, traj, report, block: dict[str, str]) -> SpaceTimeGrid:
    t0, t1, nt, x0, x1, nx = _grid_values(case, traj, report, block)
    return SpaceTimeGrid(t0=t0, t1=t1, nt=nt, x0=x0, x1=x1, nx=nx)


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------

def _blowup_dict(report) -> dict:
    return {
        "classification": report.classification.value,
        "theta": report.theta,
        "s_collapse_numeric": report.s_collapse_numeric,
        "s_collapse_quadrature": report.s_collapse_quadrature,
        "a_turning": report.a_turning,
        "rate_limit_estimate": report.rate_limit_estimate,
    }


def _residual_dict(rep, passed: bool, note: str | None = None) -> dict:
    out = {
        "eq": rep.eq_label,
        "interior_max_residual": rep.interior_max_residual,
        "interior_l2_residual": rep.interior_l2_residual,
        "h_values": list(rep.h_values),
        "residuals": list(rep.residuals),
        "estimated_order": rep.estimated_order,
        "pass": passed,
    }
    if note:
        out["note"] = note
    return out


def _order_ok(rep, band: float) -> bool:
    # Residuals at the roundoff floor count as exact; order is meaningless there.
    if rep.residuals and max(rep.residuals) < 1e-12:
        return True
    if rep.estimated_order is None:
        return False
    return abs(rep.estimated_order - 2.0) <= band


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_emden(args) -> int:
    block = _single_block(args.config)
    _check_keys(block, _EMDEN_KEYS, "emden")
    params = _emden_params(block)
    tol = args.tol if args.tol is not None else _get_float(block, "tol", DEFAULT_TOL)
    t_end = _get_float(block, "t_end", 0.0)
    s_end = 3.0 * t_end if t_end > 0 else None

    traj, report = analyze(params, s_end=s_end, tol=tol)

    states = traj.states
    rows = zip(
        fmt_floats([st.s for st in states]),
        fmt_floats([st.a for st in states]),
        fmt_floats([st.a_dot for st in states]),
        fmt_floats([energy(params, st) for st in states]),
    )
    out = Path(args.out)
    write_csv(out / "emden.csv", ["s", "a", "a_dot", "energy"], rows)

    doc = {
        "case": None,
        "params": {"xi": params.xi, "a0": params.a0, "a1": params.a1, "tol": tol},
        "reports": {"blowup": _blowup_dict(report)},
        "pass": True,
    }
    write_text(out / "emden.json", to_json(doc))
    print(f"wrote {out / 'emden.csv'} and {out / 'emden.json'}")
    return EXIT_OK


def cmd_construct(args) -> int:
    block = _single_block(args.config)
    _apply_grid_flag(block, args.grid)
    _check_keys(block, _CASE_KEYS | _GRID_KEYS | {"t_end", "tol"}, "construct")
    case = _solution_case(block)
    params = case.emden
    tol = args.tol if args.tol is not None else _get_float(block, "tol", DEFAULT_TOL)

    t_end = _get_float(block, "t_end", 0.0)
    t1 = _get_float(block, "t1", 0.0)
    s_end = 3.0 * max(t_end, t1) if max(t_end, t1) > 0 else None
    traj, report = analyze(params, s_end=s_end, tol=tol)
    if params.xi < 0 and "t1" in block:
        s_collapse = report.s_collapse_quadrature
        if 3.0 * t1 >= s_collapse:
            raise ConfigError(
                f"grid end 3*t1 = {3.0 * t1} crosses the collapse "
                f"time s = {s_collapse}"
            )
    # Plain sampling has no stencil, so any lattice with >= 2 points per
    # axis is fine (unlike the residual grids, which need >= 5).
    t0, t1, nt, x0, x1, nx = _grid_values(case, traj, report, block)
    if nt < 2 or nx < 2:
        raise ConfigError(f"need nt >= 2 and nx >= 2, got nt={nt}, nx={nx}")
    if not (t1 > t0) or not (x1 > x0):
        raise ConfigError(
            f"need t1 > t0 and x1 > x0, got t=[{t0}, {t1}], x=[{x0}, {x1}]"
        )
    if 3.0 * t1 > traj.s_max:
        raise ConfigError(
            f"grid needs s up to {3.0 * t1} but the orbit ends at {traj.s_max}"
        )

    ts, xs = np.linspace(t0, t1, nt), np.linspace(x0, x1, nx)
    rho, u, eta = _fields_on_grid(case, traj, ts, xs)
    eta_b = case.eta_boundary
    if eta_b is None:
        in_sup = ["true"] * eta.size
    else:
        inside = (eta * eta < eta_b * eta_b).ravel().tolist()
        in_sup = ["true" if b else "false" for b in inside]
    # Built a column at a time in t-major order: t and x cells are formatted
    # once per distinct value, the fields once per cell.
    rows = zip(
        [t for t in fmt_floats(ts) for _ in range(nx)],
        fmt_floats(xs) * nt,
        fmt_floats(rho),
        fmt_floats(u),
        fmt_floats(eta),
        in_sup,
    )
    out = Path(args.out)
    write_csv(out / "construct.csv", ["t", "x", "rho", "u", "eta", "in_support"], rows)
    print(f"wrote {out / 'construct.csv'} ({nt * nx} rows, case {case.case_id})")
    return EXIT_OK


def cmd_verify(args) -> int:
    block = _single_block(args.config)
    _apply_grid_flag(block, args.grid)
    _check_keys(block, _VERIFY_KEYS, "verify")
    case = _solution_case(block)
    params = case.emden
    tol = args.tol if args.tol is not None else _get_float(block, "tol", DEFAULT_TOL)
    u_scale = _parse_corrupt(args.seed_corrupt)

    levels = _get_int(block, "levels", 2)
    margin = _get_float(block, "margin", DEFAULT_SUPPORT_MARGIN)
    order_band = _get_float(block, "order_band", 0.2)
    dispersion_tol = _get_float(block, "dispersion_tol", 1e-10)
    mass_rtol = _get_float(block, "mass_rtol", 1e-6)
    drift_tol = _get_float(block, "drift_tol", 1e-8)
    rate_rtol = _get_float(block, "rate_rtol", 0.01)
    decay_rtol = _get_float(block, "decay_rtol", 0.05)
    decay_t_max = _get_float(block, "decay_t_max", 300.0)
    alpha_d_values = [float(v) for v in block.get("alpha_d", "0,1,10").split(",")]

    is_collapse = params.xi < 0
    if is_collapse:
        traj, report = analyze(params, tol=tol)
    else:
        t_end = _get_float(block, "t_end", 0.0)
        t1_cfg = _get_float(block, "t1", 0.5)
        s_end = 3.0 * max(decay_t_max, t_end, t1_cfg * 1.05)
        traj, report = analyze(params, s_end=s_end, tol=tol)
    grid = _default_grid(case, traj, report, block)

    reports: dict = {"blowup": _blowup_dict(report)}
    checks: list[bool] = []

    rep_mass = residual_mass_eq(case, traj, grid, levels=max(levels, 2),
                                margin=margin, u_scale=u_scale)
    ok = _order_ok(rep_mass, order_band)
    checks.append(ok)
    reports["residual_mass"] = _residual_dict(rep_mass, ok)

    rep_mom = residual_momentum_eq(case, traj, grid, alpha_d=alpha_d_values[0],
                                   levels=max(levels, 2), margin=margin, u_scale=u_scale)
    ok = _order_ok(rep_mom, order_band)
    checks.append(ok)
    reports["residual_momentum"] = _residual_dict(rep_mom, ok)

    # The dispersion comparison runs on a coarse copy of the grid: the three
    # alpha_d runs must share one grid, and coarse spacings keep the
    # roundoff amplification of D_xx u (analytically zero) far below the
    # comparison tolerance.
    grid_disp = SpaceTimeGrid(grid.t0, grid.t1, min(17, grid.nt),
                              grid.x0, grid.x1, min(17, grid.nx))
    disp_max = []
    for ad in alpha_d_values:
        r = residual_momentum_eq(case, traj, grid_disp, alpha_d=ad, levels=1,
                                 margin=margin, u_scale=u_scale)
        disp_max.append(r.interior_max_residual)
    disp_diff = max(abs(v - disp_max[0]) for v in disp_max)
    ok = disp_diff <= dispersion_tol
    checks.append(ok)
    reports["dispersion_independence"] = {
        "alpha_d_values": alpha_d_values,
        "grid": {"nt": grid_disp.nt, "nx": grid_disp.nx},
        "interior_max_residuals": disp_max,
        "max_abs_difference": disp_diff,
        "tolerance": dispersion_tol,
        "pass": ok,
    }

    if case.compact:
        m_val = mass(case, traj, grid.t0)
        analytic = case.alpha ** 2 * math.pi / (2.0 * math.sqrt(abs(params.xi)))
        if analytic > 0:
            rel = abs(m_val - analytic) / analytic
            ok = rel <= mass_rtol
        else:
            rel = abs(m_val)
            ok = rel <= 1e-12
        checks.append(ok)
        reports["mass"] = {
            "divergent": False,
            "value": m_val,
            "analytic": analytic,
            "relative_error": rel,
            "tolerance": mass_rtol,
            "pass": ok,
        }
        con = mass_conservation(case, traj, list(np.linspace(grid.t0, grid.t1, 5)))
        ok = con.max_relative_drift is not None and con.max_relative_drift <= drift_tol
        checks.append(ok)
        reports["mass_conservation"] = {
            "divergent": False,
            "times": con.times,
            "masses": con.masses,
            "max_relative_drift": con.max_relative_drift,
            "tolerance": drift_tol,
            "pass": ok,
        }
    else:
        note = "mass diverges: the profile grows like |x| on the full line"
        reports["mass"] = {"divergent": True, "skipped": True, "note": note}
        reports["mass_conservation"] = {"divergent": True, "skipped": True, "note": note}

    if is_collapse and case.alpha > 0:
        S = report.s_collapse_quadrature
        deltas = np.geomspace(1e-2, 1e-6, 17) * S
        samples = blowup_rate(case, traj, report, S - deltas)
        products = [p for _, p in samples]
        expected = case.alpha / (2.0 * report.theta) ** (1.0 / 6.0)
        limit = products[-1]
        rel = abs(limit - expected) / expected
        floor_ratio = min(products) / limit
        ok = rel <= rate_rtol and floor_ratio >= 1e-2
        checks.append(ok)
        reports["blowup_rate"] = {
            "samples": [[s, p] for s, p in samples],
            "limit_estimate": limit,
            "expected": expected,
            "relative_error": rel,
            "min_over_limit": floor_ratio,
            "tolerance": rate_rtol,
            "pass": ok,
        }
    elif not is_collapse:
        t_hi = min(decay_t_max, _t_max(traj))
        t_samples = list(np.geomspace(max(t_hi / 100.0, 1e-3), t_hi, 12))
        values = origin_decay(case, traj, t_samples)
        decreasing = all(b < a for a, b in zip(values, values[1:]))
        k = (4.0 * params.xi / 9.0) ** 0.75
        expected = case.alpha / (math.sqrt(3.0) * k ** (1.0 / 3.0))
        scaled_tail = values[-1] * math.sqrt(t_samples[-1])
        if expected > 0:
            rel = abs(scaled_tail - expected) / expected
            ok = decreasing and rel <= decay_rtol
        else:
            rel = abs(scaled_tail)
            ok = rel <= 1e-12
        checks.append(ok)
        reports["origin_decay"] = {
            "times": t_samples,
            "values": values,
            "strictly_decreasing": decreasing,
            "scaled_tail": scaled_tail,
            "expected": expected,
            "relative_error": rel,
            "tolerance": decay_rtol,
            "pass": ok,
        }

    all_pass = all(checks)
    doc = {
        "case": case.case_id,
        "params": {
            "sigma": case.sigma,
            "xi": params.xi,
            "alpha": case.alpha,
            "a0": params.a0,
            "a1": params.a1,
            "tol": tol,
            "u_scale": u_scale,
        },
        "grid": {
            "t0": grid.t0, "t1": grid.t1, "nt": grid.nt,
            "x0": grid.x0, "x1": grid.x1, "nx": grid.nx,
            "levels": max(levels, 2),
        },
        "reports": reports,
        "pass": all_pass,
    }
    out = Path(args.out)
    write_text(out / "verify.json", to_json(doc))
    print(f"wrote {out / 'verify.json'} (case {case.case_id}, pass={all_pass})")
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILURE


_SWEEP_HEADER = [
    "case_id", "sigma", "xi", "alpha", "a0", "a1", "classification",
    "theta", "s_collapse", "mass", "rate_limit", "all_pass",
]


def _sweep_row(block: dict[str, str], tol_flag: float | None) -> list[str]:
    _check_keys(block, _SWEEP_KEYS, "sweep")
    case = _solution_case(block)
    params = case.emden
    tol = tol_flag if tol_flag is not None else _get_float(block, "tol", DEFAULT_TOL)
    t_end = _get_float(block, "t_end", 0.0)
    s_end = 3.0 * t_end if t_end > 0 else None

    traj, report = analyze(params, s_end=s_end, tol=tol)

    ok = True
    drift_bound = 1e-8 * (1.0 + abs(report.theta))
    for st in traj.states:
        if abs(energy(params, st) - report.theta) > drift_bound:
            ok = False
            break

    mass_cell = "div"
    if case.compact:
        m_val = mass(case, traj, 0.0)
        analytic = case.alpha ** 2 * math.pi / (2.0 * math.sqrt(abs(params.xi)))
        if analytic > 0:
            ok = ok and abs(m_val - analytic) / analytic <= 1e-6
        else:
            ok = ok and abs(m_val) <= 1e-12
        mass_cell = fmt_float(m_val)

    s_cell = ""
    rate_cell = ""
    if report.classification is Classification.COLLAPSE:
        s_cell = fmt_float(report.s_collapse_quadrature)
        if case.alpha > 0:
            rate_cell = fmt_float(case.alpha * report.rate_limit_estimate)

    return [
        case.case_id,
        str(case.sigma),
        fmt_float(params.xi),
        fmt_float(case.alpha),
        fmt_float(params.a0),
        fmt_float(params.a1),
        report.classification.value,
        fmt_float(report.theta),
        s_cell,
        mass_cell,
        rate_cell,
        "true" if ok else "false",
    ]


def cmd_sweep(args) -> int:
    blocks = _load_blocks(args.config)
    rows = []
    for block in blocks:
        try:
            rows.append(_sweep_row(block, args.tol))
        except Exception as exc:  # per-case failure recorded in-row
            rows.append([
                "?",
                block.get("sigma", ""), block.get("xi", ""), block.get("alpha", ""),
                block.get("a0", ""), block.get("a1", ""),
                f"error: {exc}".replace(",", ";").replace("\n", " "),
                "", "", "", "", "false",
            ])
    out = Path(args.out)
    write_csv(out / "sweep.csv", _SWEEP_HEADER, rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} case(s))")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ch2exact",
        description="Exact self-similar solutions of the two-component "
                    "Camassa-Holm system: construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat key=value config file")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--tol", type=float, default=None,
                        help="integrator tolerance override")

    p = sub.add_parser("emden", parents=[common],
                       help="integrate one scale-factor orbit")
    p.set_defaults(func=cmd_emden)

    p = sub.add_parser("construct", parents=[common],
                       help="sample the exact fields on a grid")
    p.add_argument("--grid", default=None, help="override grid as 'nx,nt'")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification battery on one family")
    p.add_argument("--grid", default=None, help="override grid as 'nx,nt'")
    p.add_argument("--seed-corrupt", default=None, metavar="u=FACTOR",
                   help="debug hook: scale the velocity field by FACTOR")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="run a list of families, one summary row each")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IntegrationFailure, CollapseSingularity, InvalidEnergy) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (ConfigError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
