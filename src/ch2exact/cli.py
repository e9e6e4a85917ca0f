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
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

# Before the first numpy import: numpy's OpenBLAS starts one worker thread
# per core unless told otherwise, and a command never uses them, since its
# only BLAS calls are DOP853 stage products on 13 x 2 stage matrices, far
# below the sizes OpenBLAS threads.  A value the user set wins, and code
# that imports the library without the CLI keeps its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .emden import (
    DEFAULT_TOL,
    Classification,
    CollapseSingularity,
    EmdenParams,
    IntegrationFailure,
    InvalidEnergy,
    analyze,
    analyze_many,
    classify,
    node_energies,
)
from .selfsim import SolutionCase
from .serialize import Indexed, fmt_float, to_json, write_csv, write_text
from .verify import (
    SpaceTimeGrid,
    Tolerances,
    _fields_on_grid,
    _t_max,
    energy_drift,
    mass,
    mass_error,
    min_support_radius,
    run_battery,
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


def _get(block: dict[str, str], key: str, default=None, kind=float):
    """block[key] as kind: float, int, or tuple (comma-separated floats), each finite."""
    if key not in block:
        if default is None:
            raise ConfigError(f"config key {key!r} is required")
        return default
    try:
        value = tuple(map(float, block[key].split(","))) if kind is tuple else kind(block[key])
    except ValueError as exc:
        noun = {int: "an integer", tuple: "a list of numbers"}.get(kind, "a number")
        raise ConfigError(f"config key {key!r} is not {noun}: {block[key]!r}") from exc
    if not all(map(math.isfinite, value if kind is tuple else (value,))):
        raise ConfigError(f"config key {key!r} must be finite: {block[key]!r}")
    return value


_CASE_KEYS = {"sigma", "xi", "alpha", "a0", "a1"}
_EMDEN_KEYS = {"xi", "a0", "a1", "t_end", "tol"}
_GRID_KEYS = {"t0", "t1", "nt", "x0", "x1", "nx"}
_VERIFY_KEYS = _CASE_KEYS | _GRID_KEYS | {"t_end", "tol"} | {f.name for f in fields(Tolerances)}
_SWEEP_KEYS = _CASE_KEYS | {"t_end", "tol"}
# Default grid end of global orbits, in physical time.
_GLOBAL_T1 = 0.5


def _emden_params(block: dict[str, str]) -> EmdenParams:
    try:
        return EmdenParams(
            xi=_get(block, "xi"),
            a0=_get(block, "a0"),
            a1=_get(block, "a1", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _solution_case(block: dict[str, str]) -> SolutionCase:
    sigma_f = _get(block, "sigma")
    if sigma_f not in (-1.0, 1.0):
        raise ConfigError(f"sigma must be +1 or -1, got {block.get('sigma')}")
    try:
        return SolutionCase(
            sigma=int(sigma_f),
            alpha=_get(block, "alpha"),
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
        factor = float(flag[2:])
    except ValueError as exc:
        raise ConfigError(f"--seed-corrupt factor is not a number: {flag!r}") from exc
    if not math.isfinite(factor):
        raise ConfigError(f"--seed-corrupt factor must be finite: {flag!r}")
    return factor


def _grid_values(case: SolutionCase, traj, report, block: dict[str, str],
                 margin: float = Tolerances.margin):
    """(t0, t1, nt, x0, x1, nx) from config keys, defaults derived from the orbit."""
    params = case.emden
    if report.classification is Classification.COLLAPSE:
        t1_default = 0.25 * report.s_collapse_quadrature / 3.0
    else:
        t1_default = min(_GLOBAL_T1, _t_max(traj))
    t0 = _get(block, "t0", 0.0)
    t1 = _get(block, "t1", t1_default)
    nt = _get(block, "nt", 81, int)
    nx = _get(block, "nx", 81, int)
    if case.compact:
        # The minimum over the grid's own times, which the residual checks'
        # support test takes too, and a fraction that stays inside margin.
        # (At least both ends: the caller reports nt < 2.)
        ts = np.linspace(t0, t1, max(nt, 2))
        x1_default = min(0.6, 0.75 * margin) * min_support_radius(case, traj, ts)
    else:
        x1_default = float(np.cbrt(abs(params.a0)))
    x1 = _get(block, "x1", x1_default)
    x0 = _get(block, "x0", -x1)
    return t0, t1, nt, x0, x1, nx


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_emden(args) -> int:
    block = _single_block(args.config)
    _check_keys(block, _EMDEN_KEYS, "emden")
    params = _emden_params(block)
    tol = args.tol if args.tol is not None else _get(block, "tol", DEFAULT_TOL)
    t_end = _get(block, "t_end", 0.0)
    s_end = 3.0 * t_end if t_end > 0 else None

    traj, report = analyze(params, s_end=s_end, tol=tol)

    out = Path(args.out)
    write_csv(out / "emden.csv", ["s", "a", "a_dot", "energy"],
              [traj.s, traj.a, traj.a_dot, node_energies(traj)])

    doc = {
        "case": None,
        "params": {"xi": params.xi, "a0": params.a0, "a1": params.a1, "tol": tol},
        "reports": {"blowup": {**asdict(report), "classification": report.classification.value}},
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
    tol = args.tol if args.tol is not None else _get(block, "tol", DEFAULT_TOL)

    t_end = _get(block, "t_end", 0.0)
    t1 = _get(block, "t1", 0.0)
    s_end = 3.0 * max(t_end, t1) if max(t_end, t1) > 0 else None
    traj, report = analyze(params, s_end=s_end, tol=tol)
    if report.classification is Classification.COLLAPSE and "t1" in block:
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
    inside = np.ones(eta.size, dtype=bool) if eta_b is None else (eta * eta < eta_b * eta_b).ravel()
    # Columns in t-major order: t, x and in_support cells are formatted once
    # per distinct value, the fields once per cell.
    columns = [
        Indexed(ts, np.repeat(np.arange(nt), nx)),
        Indexed(xs, np.tile(np.arange(nx), nt)),
        rho,
        u,
        eta,
        Indexed(["false", "true"], inside),
    ]
    out = Path(args.out)
    write_csv(out / "construct.csv", ["t", "x", "rho", "u", "eta", "in_support"], columns)
    print(f"wrote {out / 'construct.csv'} ({nt * nx} rows, case {case.case_id})")
    return EXIT_OK


def cmd_verify(args) -> int:
    block = _single_block(args.config)
    _apply_grid_flag(block, args.grid)
    _check_keys(block, _VERIFY_KEYS, "verify")
    case = _solution_case(block)
    params = case.emden
    tol = args.tol if args.tol is not None else _get(block, "tol", DEFAULT_TOL)
    u_scale = _parse_corrupt(args.seed_corrupt)
    # Each tolerance key parses as the type of its default, in field order.
    tols = Tolerances(**{f.name: _get(block, f.name, f.default, type(f.default))
                         for f in fields(Tolerances)})

    t_end = _get(block, "t_end", 0.0)
    if classify(params) is Classification.COLLAPSE:
        s_end = 3.0 * t_end if t_end > 0 else None
    else:
        t1_cfg = _get(block, "t1", _GLOBAL_T1)
        s_end = 3.0 * max(tols.decay_t_max, t_end, t1_cfg * 1.05)
    traj, report = analyze(params, s_end=s_end, tol=tol)
    grid = SpaceTimeGrid(*_grid_values(case, traj, report, block, tols.margin))

    reports = {
        "blowup": {**asdict(report), "classification": report.classification.value},
        **run_battery(case, traj, report, grid, tols, u_scale),
    }
    all_pass = all(r.get("pass", True) for r in reports.values())
    doc = {
        "case": case.case_id,
        "params": {"sigma": case.sigma, "xi": params.xi, "alpha": case.alpha, "a0": params.a0,
                   "a1": params.a1, "tol": tol, "u_scale": u_scale},
        "grid": {**asdict(grid), "levels": tols.residual_levels},
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


# Per-case library errors, which a sweep records in the case's row.
_ROW_ERRORS = (ValueError, ArithmeticError, IntegrationFailure)


def _sweep_orbit(block: dict[str, str], tol_flag: float | None):
    """(case, s_end, tol) of one sweep block."""
    _check_keys(block, _SWEEP_KEYS, "sweep")
    case = _solution_case(block)
    tol = tol_flag if tol_flag is not None else _get(block, "tol", DEFAULT_TOL)
    t_end = _get(block, "t_end", 0.0)
    return case, 3.0 * t_end if t_end > 0 else None, tol


def _sweep_row(case: SolutionCase, traj, report) -> list[str]:
    params = case.emden
    drift, drift_bound = energy_drift(traj, report.theta)
    ok = drift <= drift_bound

    mass_cell = "div"
    if case.compact:
        m_val = mass(case, traj, 0.0)
        ok = ok and mass_error(case, m_val, Tolerances.mass_rtol)[2]
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
    """Parse every block, integrate all valid orbits as one batch, then build the rows."""
    blocks = _load_blocks(args.config)
    orbits = []
    for block in blocks:
        try:
            orbits.append(_sweep_orbit(block, args.tol))
        except _ROW_ERRORS as exc:
            orbits.append(exc)
    valid = [orbit for orbit in orbits if not isinstance(orbit, Exception)]
    analyzed = iter(analyze_many([(case.emden, s_end, tol) for case, s_end, tol in valid]))
    rows = []
    for block, orbit in zip(blocks, orbits):
        try:
            if isinstance(orbit, Exception):
                raise orbit
            result = next(analyzed)
            if isinstance(result, Exception):
                raise result
            rows.append(_sweep_row(orbit[0], *result))
        except _ROW_ERRORS as exc:  # library error: one row
            rows.append([
                "?",
                block.get("sigma", ""), block.get("xi", ""), block.get("alpha", ""),
                block.get("a0", ""), block.get("a1", ""),
                f"error: {exc}".replace(",", ";").replace("\n", " "),
                "", "", "", "", "false",
            ])
    out = Path(args.out)
    columns = list(zip(*rows)) or [()] * len(_SWEEP_HEADER)  # an empty sweep has no rows to transpose
    write_csv(out / "sweep.csv", _SWEEP_HEADER, columns)
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
