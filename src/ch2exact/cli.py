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
3 verification failure.  An error's class alone picks 1 or 2: an
ArithmeticError is a numerical failure, any other ValueError invalid input.
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
# only BLAS calls are DOP853 stage products on at most 16 x 2 stage
# matrices, far below the sizes OpenBLAS threads.  A value the user set
# wins, and code that imports the library without the CLI keeps its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ._dop853 import RTOL_FLOOR
from .emden import (
    DEFAULT_TOL,
    Classification,
    EmdenParams,
    analyze,
    analyze_many,
    node_energies,
)
from .selfsim import SolutionCase
from .serialize import Indexed, fmt_float, to_json, write_csv, write_text
from .verify import (
    Tolerances,
    battery_t_needed,
    fields_on_grid,
    horizon,
    run_battery,
    sampling_grid,
    sweep_checks,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERICAL_FAILURE = 2
EXIT_VERIFICATION_FAILURE = 3


class ConfigError(ValueError):
    """Malformed or invalid configuration, flag or output path."""


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def parse_config_blocks(text: str) -> list[dict[str, str]]:
    """Split a flat key=value config into blocks separated by blank lines.

    A line that holds only a comment is skipped: it does not end a block.
    """
    blocks: list[dict[str, str]] = []
    current: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            if current:
                blocks.append(current)
                current = {}
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
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


_CASE_KEYS = ("sigma", "alpha", "xi", "a0", "a1")  # a1 alone is optional
_GRID_KEYS = ("t0", "t1", "nt", "nx", "x1", "x0")
_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))
# Each command's (required keys, in the order they are reported missing; allowed keys).
_KEYS = {
    "emden": (("xi", "a0"), {"xi", "a0", "a1", "t_end", "tol"}),
    "construct": (_CASE_KEYS[:4], {*_CASE_KEYS, "t_end", "tol", *_GRID_KEYS}),
    "verify": (_CASE_KEYS[:4], {*_CASE_KEYS, "t_end", "tol", *_GRID_KEYS, *_TOLERANCE_KEYS}),
    "sweep": (_CASE_KEYS[:4], {*_CASE_KEYS, "t_end", "tol"}),
}
# Each key's type where it is not float; a tuple is a comma-separated list of floats.
_TYPES = {"nt": int, "nx": int, **{f.name: type(f.default) for f in fields(Tolerances)}}


def _parse(block: dict[str, str], command: str) -> dict:
    """The block's values by key, each parsed once; a1, t_end and tol have defaults,
    and the given grid and Tolerances keys sit in the dicts "grid" and "tols".

    The keys are checked first (unknown ones, then missing required ones),
    then each value in block order: its type, finite, sigma +1 or -1, a
    given t_end > 0, 3 t_end and 3 t1 finite and a given tol >= RTOL_FLOOR.
    """
    required, allowed = _KEYS[command]
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) for {command}: {', '.join(unknown)}")
    for key in required:
        if key not in block:
            raise ConfigError(f"config key {key!r} is required")
    values = {"a1": 0.0, "t_end": 0.0, "tol": DEFAULT_TOL, "grid": {}, "tols": {}}
    for key, text in block.items():
        kind = _TYPES.get(key, float)
        try:
            value = tuple(map(float, text.split(","))) if kind is tuple else kind(text)
        except ValueError as exc:
            noun = {int: "an integer", tuple: "a list of numbers"}.get(kind, "a number")
            raise ConfigError(f"config key {key!r} is not {noun}: {text!r}") from exc
        if not all(map(math.isfinite, value if kind is tuple else (value,))):
            raise ConfigError(f"config key {key!r} must be finite: {text!r}")
        if key == "sigma" and value not in (-1.0, 1.0):
            raise ConfigError(f"sigma must be +1 or -1, got {text}")
        if key == "t_end" and not value > 0:
            raise ConfigError(f"config key 't_end' must be > 0: {text!r}")
        if key in ("t_end", "t1") and not 3.0 * value < math.inf:
            raise ConfigError(f"config key {key!r} is out of range, its s = 3 {key} overflows: "
                              f"{text!r}")
        if key == "tol" and not value >= RTOL_FLOOR:
            raise ConfigError(f"config key 'tol' must be >= {RTOL_FLOOR}, the solver's floor "
                              f"100 eps: {text!r}")
        group = "grid" if key in _GRID_KEYS else "tols" if key in _TOLERANCE_KEYS else None
        (values[group] if group else values)[key] = value
    return values


def _load(args) -> dict:
    """The parsed values of a single-case command's one-block config, --grid applied."""
    blocks = _load_blocks(args.config)
    if len(blocks) != 1:
        raise ConfigError(f"config {args.config} must contain exactly one block, "
                          f"found {len(blocks)}")
    block = blocks[0]
    grid_flag = getattr(args, "grid", None)
    if grid_flag is not None:
        parts = grid_flag.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--grid expects 'nx,nt', got {grid_flag!r}")
        block["nx"], block["nt"] = parts[0].strip(), parts[1].strip()
    return _parse(block, args.command)


def _params(values: dict) -> EmdenParams:
    return EmdenParams(xi=values["xi"], a0=values["a0"], a1=values["a1"])


def _case(values: dict) -> SolutionCase:
    return SolutionCase(sigma=int(values["sigma"]), alpha=values["alpha"], emden=_params(values))


def _write(write, path: Path, *content) -> None:
    """write(path, *content), with an OSError reported as a ConfigError naming the path."""
    try:
        write(path, *content)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _blowup_record(report) -> dict:
    return {**asdict(report), "classification": report.classification.value}


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


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_emden(args) -> int:
    values = _load(args)
    params, tol = _params(values), values["tol"]
    traj, report = analyze(params, horizon(values["t_end"]), tol)

    out = Path(args.out)
    _write(write_csv, out / "emden.csv", ["s", "a", "a_dot", "energy"],
           [traj.s, traj.a, traj.a_dot, node_energies(traj)])

    doc = {
        "case": None,
        "params": {"xi": params.xi, "a0": params.a0, "a1": params.a1, "tol": tol},
        "reports": {"blowup": _blowup_record(report)},
        "pass": True,
    }
    _write(write_text, out / "emden.json", to_json(doc))
    print(f"wrote {out / 'emden.csv'} and {out / 'emden.json'}")
    return EXIT_OK


def cmd_construct(args) -> int:
    values = _load(args)
    case = _case(values)
    given = values["grid"]
    traj, report = analyze(case.emden, horizon(values["t_end"], given.get("t1", 0.0)),
                           values["tol"])
    # Plain sampling has no stencil: any SpaceTimeGrid the orbit covers will do.
    grid = sampling_grid(case, traj, report, given)

    ts, xs, nt, nx = grid.ts(), grid.xs(), grid.nt, grid.nx
    rho, u, eta = fields_on_grid(case, traj, ts, xs)
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
    _write(write_csv, out / "construct.csv", ["t", "x", "rho", "u", "eta", "in_support"],
           columns)
    print(f"wrote {out / 'construct.csv'} ({nt * nx} rows, case {case.case_id})")
    return EXIT_OK


def cmd_verify(args) -> int:
    values = _load(args)
    case = _case(values)
    params, tol = case.emden, values["tol"]
    u_scale = _parse_corrupt(args.seed_corrupt)
    tols, given = Tolerances(**values["tols"]), values["grid"]
    t_needed = battery_t_needed(case, tols, given)  # its checks need no orbit: they run first
    traj, report = analyze(params, horizon(values["t_end"], t_needed), tol)
    grid = sampling_grid(case, traj, report, given, tols.margin)

    reports = {"blowup": _blowup_record(report),
               **run_battery(case, traj, report, grid, tols, u_scale)}
    all_pass = all(r.get("pass", True) for r in reports.values())
    doc = {
        "case": case.case_id,
        "params": {"sigma": case.sigma, "xi": params.xi, "alpha": case.alpha, "a0": params.a0,
                   "a1": params.a1, "tol": tol, "u_scale": u_scale},
        "grid": {**asdict(grid), "levels": tols.levels},
        "reports": reports,
        "pass": all_pass,
    }
    out = Path(args.out)
    _write(write_text, out / "verify.json", to_json(doc))
    print(f"wrote {out / 'verify.json'} (case {case.case_id}, pass={all_pass})")
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILURE


_SWEEP_HEADER = [
    "case_id", "sigma", "xi", "alpha", "a0", "a1", "classification",
    "theta", "s_collapse", "mass", "rate_limit", "all_pass",
]


# Per-case library errors, which a sweep records in the case's row.
_ROW_ERRORS = (ValueError, ArithmeticError)


def _cell(text: str) -> str:
    """Free text as one CSV cell: each comma becomes a semicolon, each double
    quote a single quote and each newline a space."""
    return text.replace(",", ";").replace('"', "'").replace("\n", " ")


def _sweep_row(case: SolutionCase, report, check) -> list[str]:
    """The row of an orbit, from its sweep_checks entry (raised if an exception)."""
    if isinstance(check, Exception):
        raise check
    m_val, ok = check
    params = case.emden
    collapse = report.classification is Classification.COLLAPSE
    return [
        case.case_id,
        str(case.sigma),
        fmt_float(params.xi),
        fmt_float(case.alpha),
        fmt_float(params.a0),
        fmt_float(params.a1),
        report.classification.value,
        fmt_float(report.theta),
        fmt_float(report.s_collapse_quadrature) if collapse else "",
        fmt_float(m_val) if case.compact else "div",
        fmt_float(case.alpha * report.rate_limit_estimate) if collapse and case.alpha > 0
        else "",
        "true" if ok else "false",
    ]


def cmd_sweep(args) -> int:
    """Parse every block, integrate all valid orbits as one batch, check them as
    one batch, then build the rows."""
    blocks = _load_blocks(args.config)
    cases, plans = [], []
    for block in blocks:
        try:
            values = _parse(block, "sweep")
            cases.append(_case(values))
            plans.append((cases[-1].emden, horizon(values["t_end"]), values["tol"]))
        except _ROW_ERRORS as exc:
            cases.append(exc)
    analyzed = iter(analyze_many(plans))
    results = [case if isinstance(case, Exception) else next(analyzed) for case in cases]
    done = [(case, *result) for case, result in zip(cases, results)
            if not isinstance(result, Exception)]
    checks = iter(sweep_checks(*zip(*done)) if done else ())  # zip(*[]) gives no columns
    rows = []
    for block, case, result in zip(blocks, cases, results):
        try:
            if isinstance(result, Exception):
                raise result
            rows.append(_sweep_row(case, result[1], next(checks)))
        except _ROW_ERRORS as exc:  # library error: one row
            rows.append(["?", *(_cell(block.get(key, "")) for key in _SWEEP_HEADER[1:6]),
                         _cell(f"error: {exc}"), "", "", "", "", "false"])
    out = Path(args.out)
    columns = list(zip(*rows)) or [()] * len(_SWEEP_HEADER)  # an empty sweep has no rows to transpose
    _write(write_csv, out / "sweep.csv", _SWEEP_HEADER, columns)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} case(s))")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_INVALID_INPUT, not 2 (which
    here means numerical failure); --help still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ch2exact",
        description="Exact self-similar solutions of the two-component "
                    "Camassa-Holm system: construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, help="flat key=value config file")
    common.add_argument("--out", default=".", help="output directory (default: .)")

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
    except ArithmeticError as exc:  # first: serialize's NonFiniteValue is a ValueError too
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except ValueError as exc:  # ConfigError included
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def run() -> None:
    import gc  # here, so that importing the CLI loads no module it does not use

    try:
        code = main()
    finally:
        # Finalization still runs atexit handlers, flushes the streams and
        # clears modules, but its full collections skip the frozen heap.  The
        # finally covers argparse's SystemExit (usage errors and --help) too.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
