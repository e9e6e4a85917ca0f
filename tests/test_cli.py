"""End-to-end CLI behavior: configs, outputs, determinism, exit codes."""

import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ch2exact.cli as cli
import ch2exact.emden as emden
from ch2exact import EmdenParams, IntegrationFailure, analyze, profile
from ch2exact._dop853 import RTOL_FLOOR, TOO_SMALL_STEP
from ch2exact.cli import ConfigError, main, parse_config_blocks
from ch2exact.verify import Tolerances, _t_max, energy_drift, fields_on_grid, horizon


def write_config(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


CFG_COLLAPSE = "xi = -3\na0 = 1\na1 = 0\n"
CFG_2A = "sigma = 1\nxi = 1\nalpha = 1\na0 = 1\na1 = 0\n"


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------

def test_parse_blocks_comments_and_blanks():
    text = "# leading comment\nxi = -3  # trailing\na0 = 1\n\n\nxi = 1\na0 = -1\n"
    blocks = parse_config_blocks(text)
    assert blocks == [{"xi": "-3", "a0": "1"}, {"xi": "1", "a0": "-1"}]


def test_parse_blocks_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_blocks("xi = 1\nxi = 2\n")


def test_parse_blocks_rejects_bad_lines():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_blocks("this is not a config\n")
    with pytest.raises(ConfigError, match="empty key or value"):
        parse_config_blocks("xi =\n")


def test_parse_blocks_empty_text():
    assert parse_config_blocks("# only comments\n\n") == []


def test_comment_line_does_not_end_a_block():
    # Only a line that is blank before its comment is stripped separates blocks.
    text = "xi = -3\n# note\n  # indented note\na0 = 1\n\n# next\nxi = 1\na0 = -1\n"
    assert parse_config_blocks(text) == [{"xi": "-3", "a0": "1"}, {"xi": "1", "a0": "-1"}]


def test_verify_config_with_inner_comments(tmp_path):
    plain = verify_cfg_2a()
    lines = plain.splitlines()
    commented = "\n".join(["# family 2a"] + lines[:3] + ["# the scale factor", "  # at rest"]
                          + lines[3:-1] + ["# three levels", lines[-1]]) + "\n"
    outs = []
    for name, text in (("plain", plain), ("commented", commented)):
        cfg = write_config(tmp_path, text, name + ".cfg")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name / "verify.json").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_block_with_inner_comment_is_one_row(tmp_path):
    cfg = write_config(tmp_path, "sigma = 1\nalpha = 1\n# the orbit\nxi = 1\na0 = 1\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith("2a,") and rows[0].endswith(",true")


# ----------------------------------------------------------------------
# usage errors
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["verify"],                                      # no --config
    ["verify", "--config", "x.cfg", "--frobnicate"],  # unknown flag
    ["verify", "--config", "x.cfg", "--seed-corrupt"],  # flag without its value
    ["simulate", "--config", "x.cfg"],               # unknown subcommand
    ["verify", "--config", "x.cfg", "--tol", "1e-8"],  # removed flag: tol is a config key
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == cli.EXIT_INVALID_INPUT == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "usage:" in out and "--tol" not in out


# Every command's first output file, under an --out that is a regular file
# or lies below one: one "cannot write" line, exit 1, no traceback.
_FIRST_OUTPUT = {
    "emden": (CFG_COLLAPSE, "emden.csv"),
    "construct": (CFG_2A + "nt = 3\nnx = 3\n", "construct.csv"),
    "verify": (CFG_2A, "verify.json"),
    "sweep": (CFG_2A, "sweep.csv"),
}


@pytest.mark.parametrize("command", list(_FIRST_OUTPUT))
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, command, below):
    config, first = _FIRST_OUTPUT[command]
    out = tmp_path / "taken"
    out.write_text("")
    if below:
        out = out / "sub"
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: cannot write {out / first}: [Errno ")
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# emden command
# ----------------------------------------------------------------------

def test_emden_collapse_outputs(tmp_path):
    cfg = write_config(tmp_path, CFG_COLLAPSE)
    rc = main(["emden", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0

    doc = json.loads((tmp_path / "emden.json").read_text())
    assert set(doc) == {"case", "params", "reports", "pass"}
    assert doc["case"] is None
    assert doc["pass"] is True
    blowup = doc["reports"]["blowup"]
    assert blowup["classification"] == "Collapse"
    assert blowup["theta"] == pytest.approx(1.5)
    assert blowup["s_collapse_quadrature"] == pytest.approx(1.3603495231756633, rel=1e-9)
    assert abs(blowup["s_collapse_numeric"] - blowup["s_collapse_quadrature"]) <= 1e-6

    lines = (tmp_path / "emden.csv").read_text().splitlines()
    assert lines[0] == "s,a,a_dot,energy"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "0"
    assert float(first[3]) == pytest.approx(1.5)


def test_emden_global_has_no_collapse_fields(tmp_path):
    cfg = write_config(tmp_path, "xi = 1\na0 = 1\na1 = 0\nt_end = 2\n")
    rc = main(["emden", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    blowup = json.loads((tmp_path / "emden.json").read_text())["reports"]["blowup"]
    assert blowup["classification"] == "Global"
    assert blowup["s_collapse_numeric"] is None
    assert blowup["s_collapse_quadrature"] is None


def test_emden_rejects_zero_a0(tmp_path, capsys):
    cfg = write_config(tmp_path, "xi = -3\na0 = 0\n")
    rc = main(["emden", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "a(0) = a0 != 0" in capsys.readouterr().err


def test_emden_rejects_unknown_key(tmp_path):
    cfg = write_config(tmp_path, "xi = -3\na0 = 1\nbogus = 7\n")
    assert main(["emden", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_emden_deterministic(tmp_path):
    cfg = write_config(tmp_path, CFG_COLLAPSE)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["emden", "--config", cfg, "--out", str(d)]) == 0
    assert (d1 / "emden.csv").read_bytes() == (d2 / "emden.csv").read_bytes()
    assert (d1 / "emden.json").read_bytes() == (d2 / "emden.json").read_bytes()


# ----------------------------------------------------------------------
# construct command
# ----------------------------------------------------------------------

def test_construct_tiny_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        CFG_2A + "t0 = 0\nt1 = 0.3\nnt = 3\nx0 = -1.2\nx1 = 1.2\nnx = 3\n",
    )
    rc = main(["construct", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "construct.csv").read_text().splitlines()
    assert lines[0] == "t,x,rho,u,eta,in_support"
    assert len(lines) == 1 + 3 * 3
    rows = [ln.split(",") for ln in lines[1:]]
    # t=0, x=0: rho = alpha / a0^{1/3} = 1, inside the support
    center = rows[1]
    assert center[:4] == ["0", "0", "1", "0"]
    assert center[5] == "true"
    # t=0, |x| = 1.2 lies outside the unit support
    assert rows[0][2] == "0" and rows[0][5] == "false"
    assert rows[2][2] == "0" and rows[2][5] == "false"


def test_construct_grid_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, CFG_2A + "t1 = 0.2\n")
    rc = main(["construct", "--config", cfg, "--out", str(tmp_path), "--grid", "7,5"])
    assert rc == 0
    lines = (tmp_path / "construct.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 7  # nt=5 rows of nx=7


def test_construct_rejects_grid_crossing_collapse(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sigma = -1\nxi = -3\nalpha = 1\na0 = 1\na1 = 0\nt1 = 0.46\n",
    )
    rc = main(["construct", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "collapse" in capsys.readouterr().err


_HUGE_LATTICE = "the 2 x 1000000000000 grid has 2000000000000 points, more than 4194304"


@pytest.mark.parametrize("extra,flags,message", [
    ("", ["--grid", "81,1"], "need nt >= 2 and nx >= 2, got nt=1, nx=81"),
    ("", ["--grid", "1,81"], "need nt >= 2 and nx >= 2, got nt=81, nx=1"),
    ("t0 = 0.2\nt1 = 0.2\n", [], "need t1 > t0, got [0.2, 0.2]"),
    ("x0 = 0.5\nx1 = -0.5\n", [], "need x1 > x0, got [0.5, -0.5]"),
    # a lattice past the cap is rejected before any of it is allocated
    ("", ["--grid", "1000000000000,2"], _HUGE_LATTICE),
    ("nx = 1000000000000\nnt = 2\n", [], _HUGE_LATTICE),
])
def test_construct_rejects_a_degenerate_lattice(tmp_path, capsys, extra, flags, message):
    # construct samples on a SpaceTimeGrid, which checks every lattice, and
    # sampling_grid caps its size at MAX_LATTICE_POINTS.
    cfg = write_config(tmp_path, CFG_2A + extra)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


def test_construct_deterministic(tmp_path):
    cfg = write_config(tmp_path, CFG_2A + "t1 = 0.4\nnt = 9\nnx = 9\n")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["construct", "--config", cfg, "--out", str(d)]) == 0
    assert (d1 / "construct.csv").read_bytes() == (d2 / "construct.csv").read_bytes()


# ----------------------------------------------------------------------
# verify command
# ----------------------------------------------------------------------

def verify_cfg_2a():
    # 41-point base with three levels: the order comes from the 81->161
    # pair, the first one safely inside the asymptotic O(h^2) range.
    return CFG_2A + "nt = 41\nnx = 41\nlevels = 3\n"


def test_verify_2a_passes(tmp_path):
    cfg = write_config(tmp_path, verify_cfg_2a())
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["case"] == "2a"
    assert doc["pass"] is True
    reports = doc["reports"]
    assert reports["residual_mass"]["pass"]
    assert reports["residual_momentum"]["pass"]
    assert reports["dispersion_independence"]["pass"]
    assert reports["mass"]["value"] == pytest.approx(1.5707963267948966, rel=1e-6)
    assert reports["mass_conservation"]["pass"]
    assert reports["origin_decay"]["pass"]


def test_verify_collapse_case_reports_rate(tmp_path):
    cfg = write_config(
        tmp_path,
        "sigma = -1\nxi = -3\nalpha = 1\na0 = 1\na1 = 0\nnt = 41\nnx = 41\nlevels = 3\n",
    )
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    rate = doc["reports"]["blowup_rate"]
    assert rate["pass"] is True
    assert rate["expected"] == pytest.approx(0.8326831776556043, rel=1e-12)
    assert rate["relative_error"] <= 0.01
    assert rate["min_over_limit"] >= 1e-2


def test_verify_noncompact_skips_mass(tmp_path):
    cfg = write_config(
        tmp_path,
        "sigma = 1\nxi = -3\nalpha = 1\na0 = -1\na1 = 0\nnt = 41\nnx = 41\nlevels = 3\n",
    )
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["reports"]["mass"]["divergent"] is True
    assert doc["reports"]["mass"]["skipped"] is True
    assert "note" in doc["reports"]["mass"]


def test_verify_zero_amplitude_takes_the_zero_decay_branch(tmp_path):
    # Family 1b with alpha = 0: rho(t, 0) = 0, so origin_decay expects a tail
    # of 0 and its error is the tail itself.
    cfg = write_config(tmp_path, "sigma = -1\nxi = 1\nalpha = 0\na0 = -1\na1 = 0\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    decay = json.loads((tmp_path / "verify.json").read_text())["reports"]["origin_decay"]
    assert decay["expected"] == 0 and decay["scaled_tail"] == 0
    assert decay["relative_error"] == 0 and decay["pass"] is True


def test_verify_corrupted_velocity_fails(tmp_path):
    cfg = write_config(tmp_path, verify_cfg_2a())
    rc = main([
        "verify", "--config", cfg, "--out", str(tmp_path),
        "--seed-corrupt", "u=1.01",
    ])
    assert rc == 3
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["pass"] is False
    assert doc["reports"]["residual_momentum"]["pass"] is False
    assert doc["params"]["u_scale"] == pytest.approx(1.01)


def test_verify_bad_corrupt_flag(tmp_path):
    cfg = write_config(tmp_path, verify_cfg_2a())
    rc = main([
        "verify", "--config", cfg, "--out", str(tmp_path),
        "--seed-corrupt", "rho=2",
    ])
    assert rc == 1


@pytest.mark.parametrize("factor", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_corrupt_factor(tmp_path, capsys, factor):
    # Rejected before the battery runs, like a non-finite config value.
    cfg = write_config(tmp_path, verify_cfg_2a())
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out", str(out), "--seed-corrupt", f"u={factor}"])
    assert rc == 1
    assert f"--seed-corrupt factor must be finite: 'u={factor}'" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


# A clean item (verify-cli seed 1, item 1) whose alpha_d spread, 7.6e-8, is
# roundoff: it is a third of the bound's scale, but 760 times the absolute
# 1e-10 the check used to apply.
CFG_DISPERSION_ROUNDOFF = (
    "sigma = 1\nxi = -2.5845637022394996\nalpha = 2.470677476185586\n"
    "a0 = -0.0299521875216168\na1 = 0.3541423897229059\n"
)


def test_verify_dispersion_bound_is_relative_to_roundoff(tmp_path):
    cfg = write_config(tmp_path, CFG_DISPERSION_ROUNDOFF)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rec = json.loads((tmp_path / "verify.json").read_text())["reports"]["dispersion_independence"]
    assert rec["pass"] is True and rec["tolerance"] == 100.0
    assert 1e-10 < rec["max_abs_difference"] <= rec["bound"]


def test_verify_rejects_invalid_sign_pattern(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sigma = 1\nxi = -1\nalpha = 1\na0 = 1\na1 = 0\n",
    )
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "admissible sign patterns" in capsys.readouterr().err


@pytest.mark.parametrize("line,message", [
    ("levels = 2.5", "config key 'levels' is not an integer: '2.5'"),
    ("mass_rtol = tight", "config key 'mass_rtol' is not a number: 'tight'"),
    ("alpha_d = 0,x", "config key 'alpha_d' is not a list of numbers: '0,x'"),
    ("rate_tol = 0.1", "unknown config key(s) for verify: rate_tol"),
])
def test_verify_tolerance_key_errors(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, CFG_2A + line + "\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n"


@pytest.mark.parametrize("line,message", [
    ("order_band = -1", "order_band must be >= 0, got -1.0"),
    ("mass_rtol = -1", "mass_rtol must be >= 0, got -1.0"),
    ("decay_t_max = -1", "decay_t_max must be > 0, got -1.0"),
    ("margin = 0", "margin must be > 0, got 0.0"),
    ("levels = -5", "levels must be >= 2, got -5"),
    ("levels = 1", "levels must be >= 2, got 1"),
])
def test_verify_out_of_range_tolerance_names_its_key(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, CFG_2A + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


def test_verify_too_many_levels_is_rejected_before_sampling(tmp_path, capsys, monkeypatch):
    # 40 levels of the default 81 x 81 grid would need far more memory than
    # any host has; the ladder is sized and rejected before any field exists.
    fields = _counting(monkeypatch, ["verify"], "fields_on_grid")
    cfg = write_config(tmp_path, CFG_2A + "levels = 40\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: levels = 40 refines the 81 x 81 grid to ")
    assert fields == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("levels", [66, 2000, 100000000])
def test_huge_levels_is_one_short_line(tmp_path, capsys, levels):
    # Past 64 refinements the refined sizes are not built: no huge integer,
    # whose text Python refuses to write past 4300 digits, and no long line.
    cfg = write_config(tmp_path, CFG_2A + f"levels = {levels}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"invalid input: levels = {levels} refines any grid of at least 2 x 2 points to "
        "more than 4194304 points\n")
    assert not (tmp_path / "out").exists()


def test_oversized_lattice_is_rejected_before_the_orbit(tmp_path, capsys, monkeypatch):
    # The cap reads only nt, nx and levels: a 2,000,000 x 9 grid at the
    # family config's levels = 3 exits before the orbit is integrated or the
    # support radius sampled at its 2,000,000 times.
    analyses = _counting(monkeypatch, ["cli"], "analyze")
    evals = []
    monkeypatch.setattr(emden.Trajectory, "eval_many", lambda self, s: evals.append(s))
    cfg = str(FAMILY_CONFIGS / "2a.cfg")
    assert main(["verify", "--config", cfg, "--grid", "9,2000000",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: levels = 3 refines the 2000000 x 9 grid to 7999997 x 33 points, "
        "more than 4194304\n")
    assert analyses == [] and evals == [] and not (tmp_path / "out").exists()


def test_verify_negative_sizes_are_the_grid_error_not_the_cap(tmp_path, capsys):
    # (-3000 - 1) ** 2 refined points would pass as a product over the cap;
    # the sizes themselves are the error, as SpaceTimeGrid reports it.
    cfg = write_config(tmp_path, CFG_2A + "nt = -3000\nnx = -3000\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: need nt >= 2 and nx >= 2, got nt=-3000, nx=-3000\n")


# A non-finite number, or a malformed entry of a list, in any numeric key:
# the command stops at parsing (no output, no numpy warning) and names the key.
@pytest.mark.parametrize("command,line", [
    ("emden", "t_end = nan"),
    ("emden", "tol = inf"),
    ("verify", "t_end = nan"),
    ("verify", "mass_rtol = nan"),
    ("verify", "t1 = -inf"),
    ("verify", "alpha_d = 1,-inf"),
    ("verify", "alpha_d = 1,x"),
    ("construct", "x1 = inf"),
    ("construct", "t_end = -inf"),
    ("construct", "alpha = nan"),
])
def test_non_finite_or_malformed_value_names_its_key(tmp_path, capsys, command, line):
    key = line.split(" = ")[0]
    base = CFG_COLLAPSE if command == "emden" else CFG_2A
    kept = [row for row in base.splitlines() if row.split(" = ")[0] != key]
    cfg = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: config key {key!r} ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# alpha = 0 on a compact family (sigma xi > 0) puts the whole profile at x = 0.
CFG_ALPHA0 = "sigma = 1\nxi = 3\nalpha = 0\na0 = 1\na1 = 0\n"


@pytest.mark.parametrize("command,extra,reason", [
    ("construct", "", "so there is no default grid: give x0 and x1"),
    ("verify", "", "so no grid fits inside it"),
    ("verify", "x0 = -1\nx1 = 1\n", "so no grid fits inside it"),
], ids=["construct", "verify", "verify-given-range"])
def test_alpha_zero_on_a_compact_family_names_its_one_point_support(
        tmp_path, capsys, command, extra, reason):
    cfg = write_config(tmp_path, CFG_ALPHA0 + extra)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: alpha = 0 shrinks the compact profile's support to the one point "
        f"x = 0, {reason}\n"
    )
    assert not (tmp_path / "out").exists()


def test_alpha_zero_on_a_compact_family_constructs_on_a_given_range_and_sweeps(tmp_path):
    cfg = write_config(tmp_path, CFG_ALPHA0 + "x0 = -1\nx1 = 1\nnt = 3\nnx = 3\n")
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "construct.csv").read_text().splitlines()[1:]]
    assert len(rows) == 9 and all(r[2] == "0" and r[5] == "false" for r in rows)
    cfg = write_config(tmp_path, CFG_ALPHA0, name="sweep.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1] == (
        "2a,1,3,0,1,0,Global,-1.5,,0,,true"
    )


def test_sweep_non_finite_value_errors_only_its_block(tmp_path):
    valid = [block.strip("\n") + "\n" for block in SWEEP_FOUR.split("\n\n")]
    bad = [valid[0] + "t_end = nan\n", valid[2].replace("t_end = 1", "t_end = inf"),
           valid[3] + "tol = -inf\n"]
    cfg = write_config(tmp_path, "\n".join([valid[0], bad[0], valid[1], bad[1], valid[2],
                                            bad[2], valid[3]]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "mixed")]) == 0
    rows = (tmp_path / "mixed" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[6] for row in rows[1::2]] == [
        "error: config key 't_end' must be finite: 'nan'",
        "error: config key 't_end' must be finite: 'inf'",
        "error: config key 'tol' must be finite: '-inf'",
    ]
    assert all(row.startswith("?,") and row.endswith(",false") for row in rows[1::2])
    cfg = write_config(tmp_path, SWEEP_FOUR, name="valid.cfg")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "valid")]) == 0
    assert rows[::2] == (tmp_path / "valid" / "sweep.csv").read_text().splitlines()[1:]


def test_verify_tolerance_keys_reach_the_checks(tmp_path):
    cfg = write_config(tmp_path, verify_cfg_2a() + "decay_rtol = 0\nalpha_d = 0,2\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
    assert reports["origin_decay"]["pass"] is False
    assert reports["origin_decay"]["tolerance"] == 0
    assert reports["dispersion_independence"]["alpha_d_values"] == [0, 2]
    assert reports["residual_mass"]["pass"] is True


CFG_1A = "sigma = -1\nxi = -1\nalpha = 1\na0 = 1\na1 = 0\n"


@pytest.mark.parametrize("cfg_text", [CFG_1A, CFG_2A], ids=["1a", "2a"])
def test_verify_parses_t_end_on_every_orbit(tmp_path, capsys, cfg_text):
    cfg = write_config(tmp_path, cfg_text + "t_end = bad\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "invalid input: config key 't_end' is not a number: 'bad'\n"


def test_verify_passes_t_end_of_a_collapse_orbit_to_analyze(tmp_path, monkeypatch):
    # As in construct: s_end = 3 t_end (analyze extends it past 1.25 S).
    seen = []

    def spy(params, s_end=None, tol=None):
        seen.append(s_end)
        return analyze(params, s_end=s_end, tol=tol)

    monkeypatch.setattr(cli, "analyze", spy)
    for t_end, s_end in (("", None), ("t_end = 2\n", 6.0)):
        cfg = write_config(tmp_path, CFG_1A + t_end)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert seen.pop() == s_end


# An explicit t_end of zero or less is an error, not the default horizon.
@pytest.mark.parametrize("command", ["emden", "construct", "verify"])
def test_t_end_must_be_positive(tmp_path, capsys, command):
    base = "xi = 1\na0 = 1\na1 = 0\n" if command == "emden" else CFG_2A
    for value in ("-5", "0"):
        cfg = write_config(tmp_path, base + f"t_end = {value}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: config key 't_end' must be > 0: '{value}'\n")
        assert not (tmp_path / "out").exists()


def test_sweep_t_end_must_be_positive_in_its_row(tmp_path):
    cfg = write_config(tmp_path, CFG_2A + "t_end = -5\n\n" + CFG_2A)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0] == "?,1,1,1,1,0,error: config key 't_end' must be > 0: '-5',,,,,false"
    assert rows[1].startswith("2a,") and rows[1].endswith(",true")


# A t_end whose clock s = 3 t_end overflows is named at parsing, not as
# analyze's s_end = inf.
@pytest.mark.parametrize("command", ["emden", "construct", "verify"])
def test_t_end_whose_clock_overflows_is_named(tmp_path, capsys, command):
    base = "xi = 1\na0 = 1\na1 = 0\n" if command == "emden" else CFG_2A
    cfg = write_config(tmp_path, base + "t_end = 7e307\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: config key 't_end' is out of range, its s = 3 t_end overflows: "
        "'7e307'\n")
    assert not (tmp_path / "out").exists()


# A given t1 whose clock overflows is named as t1, not as the integration horizon.
@pytest.mark.parametrize("command,t1,message", [
    ("construct", "7e307", "config key 't1' is out of range, its s = 3 t1 overflows: '7e307'"),
    ("verify", "7e307", "config key 't1' is out of range, its s = 3 t1 overflows: '7e307'"),
    # 3 t1 is finite; the 1.05 t1 a global orbit is integrated to is not.
    ("verify", "5.8e307", "t1 = 5.8e+307 is out of range: a global orbit runs to "
     "s = 3 (1.05 t1), which overflows"),
])
def test_t1_whose_clock_overflows_is_named(tmp_path, capsys, command, t1, message):
    cfg = write_config(tmp_path, CFG_2A + f"t1 = {t1}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


# A 2a orbit integrated to t1 = 1e300 overflows long before its horizon;
# the failure names the last finite node's s and the horizon s_end = 3 t1
# (verify's global orbits run to 1.05 t1).
@pytest.mark.parametrize("command,s_end", [("construct", "3e+300"), ("verify", "3.15e+300")])
def test_overflowing_orbit_names_where(tmp_path, capsys, command, s_end):
    cfg = write_config(tmp_path, CFG_2A + "t1 = 1e300\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: the state overflowed past its last finite node at "
        f"s = 6.923964119457754e+204 before the horizon s_end = {s_end}\n")


# A decay window whose start, a hundredth of its end, underflows to 0 is
# named, not numpy's geomspace error.
@pytest.mark.parametrize("family", ["1b", "2a"])
@pytest.mark.parametrize("decay_t_max", ["1e-322", "5e-324"])
def test_decay_window_start_underflow_is_named(tmp_path, capsys, family, decay_t_max):
    text = (FAMILY_CONFIGS / f"{family}.cfg").read_text()
    cfg = write_config(tmp_path, text + f"decay_t_max = {decay_t_max}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: origin-decay window start t = decay_t_max max(1, mu) / 100 underflows "
        f"to 0 at decay_t_max = {float(decay_t_max)}, mu = 1.0\n")
    assert not (tmp_path / "out").exists()


# A tol below the solver's floor is named at parsing: the solver would raise
# it to the floor with a UserWarning on stderr.
@pytest.mark.parametrize("value", ["1e-15", "1e-300", "0", "-1"])
def test_tol_below_the_solver_floor_is_named(tmp_path, capsys, value):
    cfg = write_config(tmp_path, CFG_2A + f"tol = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "invalid input: config key 'tol' must be >= 2.220446049250313e-14, the solver's "
        f"floor 100 eps: '{value}'\n")
    assert not (tmp_path / "out").exists()


def test_tol_at_the_solver_floor_runs_without_a_warning(tmp_path):
    cfg = write_config(tmp_path, f"xi = 1\na0 = 1\na1 = 0\ntol = {float(RTOL_FLOOR)!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["emden", "--config", cfg, "--out", str(tmp_path)]) == 0


# The dispersion scales' overflows are named: alpha_d^2 before anything is
# sampled (the momentum kernel's float ** raised an unnamed OverflowError),
# and a bound dispersion_tol * scale that would pass any spread.
@pytest.mark.parametrize("extra,message", [
    ("alpha_d = 1e160\n", "dispersion scale alpha_d^2 is out of range at alpha_d = 1e+160\n"),
    ("alpha_d = 0,1e150\ndispersion_tol = 1e308\n",
     "dispersion bound dispersion_tol * scale = 1e+308 * "),
], ids=["alpha_d", "dispersion_tol"])
def test_dispersion_overflow_is_named(tmp_path, capsys, extra, message):
    cfg = write_config(tmp_path, CFG_2A + extra)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verify_default_grid_respects_margin(tmp_path):
    # x1 defaults to min(0.6, 0.75 margin) of the support radius (1.0 here),
    # so margin = 0.5 gives the grid an explicit x1 = 0.375 gives.
    docs = []
    for extra in ("margin = 0.5\n", "margin = 0.5\nx1 = 0.375\n"):
        out = tmp_path / str(len(docs))
        cfg = write_config(tmp_path, CFG_2A + extra)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        docs.append((out / "verify.json").read_bytes())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["grid"]["x1"] == 0.375


def _counting(monkeypatch, module_names, name):
    """Wrap ch2exact.<module>.<name> in every listed module; returns the call list."""
    import importlib

    calls = []
    original = getattr(importlib.import_module(f"ch2exact.{module_names[0]}"), name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in module_names:
        monkeypatch.setattr(importlib.import_module(f"ch2exact.{module}"), name, counted)
    return calls


def test_collapse_time_computed_once_per_orbit(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, ["emden"], "collapse_time_quadrature")
    cfg = write_config(tmp_path, CFG_1A)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 1
    calls.clear()
    cfg = write_config(tmp_path, SWEEP_FOUR)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
    assert len(calls) == sum(row.split(",")[6] == "Collapse" for row in rows) == 2


def test_battery_samples_each_lattice_once(tmp_path, monkeypatch):
    # Both residual checks read the two refinement levels of the grid, and
    # the three alpha_d runs one 17 x 17 lattice: 3 samples and 2 grid
    # checks, where each check used to sample and check its own (7 and 5).
    # Every other field read goes through the same sampler: the mass and
    # conservation records' 5 times (the first is t0) on the 21 quadrature
    # nodes, as one lattice, then the 12 origin-decay times at x = 0.
    fields = _counting(monkeypatch, ["verify"], "fields_on_grid")
    checks = _counting(monkeypatch, ["verify"], "_check_grid")
    cfg = write_config(tmp_path, CFG_2A)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [(len(args[2]), np.shape(args[3])[-1]) for args in fields] == [
        (81, 81), (161, 161), (17, 17), (5, 21), (12, 1)]
    assert [(args[2].nt, args[2].nx) for args in checks] == [(81, 81), (17, 17)]


def test_sweep_locates_all_event_roots_in_one_batch(tmp_path, monkeypatch):
    # One analyze_many call, one Brent call for every collapse orbit's stop
    # event together (one per fired event before: 125 on this sweep).
    calls = _counting(monkeypatch, ["_dop853"], "brentq")
    batches = _counting(monkeypatch, ["cli", "emden"], "analyze_many")
    cfg = str(DATA / GOLDEN_DATA["batch200"])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert sum(row.split(",")[6] == "Collapse" for row in rows) == 126
    assert len(batches) == 1 and len(calls) == 1


def test_verify_zero_energy_collapse_skips_the_rate_check(tmp_path):
    # xi > 0, theta = 0: rho(s, 0) grows like (S - s)^{-1/2}, so the
    # (S - s)^{1/3} rate check has no finite limit to compare with.
    cfg = write_config(tmp_path, "sigma = 1\nxi = 1\nalpha = 1\na0 = 1\na1 = -1\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) in (0, 3)
    reports = json.loads((tmp_path / "verify.json").read_text())["reports"]
    assert reports["blowup"]["classification"] == "Collapse"
    assert reports["blowup"]["s_collapse_quadrature"] == 1.5
    assert reports["blowup_rate"]["skipped"] is True and "pass" not in reports["blowup_rate"]


def test_sweep_energy_drift_bound_on_batch200():
    # Every clean orbit of batch200 passes the sweep's first-integral check,
    # and the fault a' (1 + 1e-5) trips it on every one.
    blocks = cli._load_blocks(str(DATA / GOLDEN_DATA["batch200"]))
    parsed = [cli._parse(block, "sweep") for block in blocks]
    results = emden.analyze_many([(cli._case(values).emden, horizon(values["t_end"]),
                                   values["tol"]) for values in parsed])
    clean, faulted = [], []
    for traj, report in results:
        drift, bound = energy_drift(traj, report.theta)
        clean.append(drift / bound)
        bad = dataclasses.replace(traj, a_dot=traj.a_dot * (1.0 + 1e-5))
        drift, bound = energy_drift(bad, report.theta)
        faulted.append(drift / bound)
    assert len(clean) == 200
    assert max(clean) < 0.1
    assert min(faulted) > 1.0


def test_a_kept_trajectory_does_not_pin_its_batch():
    # Each problem's nodes are copied out of the batch's arrays, so one
    # trajectory of batch200 kept alone holds its own nodes and little else
    # (about 12 kB), not the whole batch's nodes (about 0.2 MB).
    blocks = cli._load_blocks(str(DATA / GOLDEN_DATA["batch200"]))
    parsed = [cli._parse(block, "sweep") for block in blocks]
    orbits = [(cli._case(values).emden, horizon(values["t_end"]), values["tol"])
              for values in parsed]
    gc.collect()
    tracemalloc.start()
    try:
        results = emden.analyze_many(orbits)
        kept, _ = results[0]
        del results
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(kept, emden.Trajectory) and kept.n_accepted > 0
    assert retained < 64_000


# A turning-point orbit (inward slope, theta < 0): its support radius is
# smallest between the grid's time levels, not at an end.
CFG_TURNING = (
    "sigma = 1\nxi = 10.714819842391346\nalpha = 0.1693826188803053\n"
    "a0 = 2.5803653358177017\na1 = -4.479915811840134\n"
)


def test_default_grid_passes_its_own_support_check(tmp_path, capsys):
    cfg = write_config(tmp_path, CFG_TURNING)
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert "minimal support radius" not in capsys.readouterr().err
    # 81 time levels do not resolve the near-zero turning point, so the
    # residual orders fail: a verdict (exit 3), not an input error.
    assert rc in (0, 3)
    assert (tmp_path / "verify.json").is_file()


def test_verify_deterministic(tmp_path):
    cfg = write_config(tmp_path, verify_cfg_2a())
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["verify", "--config", cfg, "--out", str(d)]) == 0
    assert (d1 / "verify.json").read_bytes() == (d2 / "verify.json").read_bytes()


def test_exit_code_2_on_numerical_failure(tmp_path, monkeypatch, capsys):
    def broken_analyze(*args, **kwargs):
        raise IntegrationFailure("synthetic step breakdown")

    monkeypatch.setattr(cli, "analyze", broken_analyze)
    cfg = write_config(tmp_path, CFG_COLLAPSE)
    rc = main(["emden", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


# Inputs whose closed forms divide by zero or overflow: the collapse time's
# fall from the start (xi = -1e-300 and -1e300) and the profile's (alpha / xi)^2
# (alpha = 1e200, and family 1b at xi = 1e-300).  emden reads the xi, a0 and a1 lines.
_ALL = ("verify", "construct", "emden")
_EXTREME = {
    "xi_tiny": ("sigma = -1\nalpha = 1\nxi = -1e-300\na0 = 1\na1 = 0\n", _ALL),
    "xi_huge": ("sigma = -1\nalpha = 1\nxi = -1e300\na0 = 1\na1 = 0\n", _ALL),
    "alpha_huge": ("sigma = -1\nalpha = 1e200\nxi = -1\na0 = 1\na1 = 0\n", _ALL[:2]),
    "1b_xi_tiny": ("sigma = -1\nalpha = 1\nxi = 1e-300\na0 = -1\na1 = 0\n", _ALL[:2]),
}


@pytest.mark.parametrize("name, command", [
    (name, command) for name, (_, commands) in _EXTREME.items() for command in commands])
def test_arithmetic_error_exits_2_without_a_traceback(tmp_path, name, command):
    lines = _EXTREME[name][0].splitlines(keepends=True)
    if command == "emden":
        lines = [line for line in lines if line[:2] in ("xi", "a0", "a1")]
    cfg = write_config(tmp_path, "".join(lines))
    # A fresh interpreter: a traceback reaches stderr only when nothing catches the error.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ch2exact.cli", command, "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numerical failure: ")
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# sweep command
# ----------------------------------------------------------------------

SWEEP_FOUR = (
    "sigma = -1\nxi = -1\nalpha = 1\na0 = 1\na1 = 0\n\n"
    "sigma = -1\nxi = 1\nalpha = 1\na0 = -1\na1 = 0\nt_end = 1\n\n"
    "sigma = 1\nxi = 1\nalpha = 1\na0 = 1\na1 = 0\nt_end = 1\n\n"
    "sigma = 1\nxi = -1\nalpha = 1\na0 = -1\na1 = 0\n"
)


def test_sweep_four_families(tmp_path):
    cfg = write_config(tmp_path, SWEEP_FOUR)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "case_id", "sigma", "xi", "alpha", "a0", "a1", "classification",
        "theta", "s_collapse", "mass", "rate_limit", "all_pass",
    ]
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["1a", "1b", "2a", "2b"]
    assert [r[6] for r in rows] == ["Collapse", "Global", "Global", "Collapse"]
    assert all(r[11] == "true" for r in rows)
    # compact families report a finite mass, full-line families "div"
    assert float(rows[0][9]) == pytest.approx(1.5707963267948966, rel=1e-6)
    assert rows[1][9] == "div" and rows[3][9] == "div"
    # collapse rows carry S and the rate limit, global rows leave them empty
    assert rows[0][8] != "" and rows[1][8] == ""
    assert float(rows[0][10]) == pytest.approx(1.0, rel=1e-2)  # alpha/(2 theta)^{1/6}, theta=1/2


def test_sweep_empty_config(tmp_path):
    cfg = write_config(tmp_path, "# nothing here\n")
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1


def test_sweep_duplicate_rows_identical(tmp_path):
    cfg = write_config(tmp_path, CFG_2A + "t_end = 1\n\n" + CFG_2A + "t_end = 1\n")
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_sweep_bad_block_recorded_in_row(tmp_path):
    bad = "sigma = 1\nxi = -1\nalpha = 1\na0 = 1\na1 = 0\n"  # inadmissible pattern
    cfg = write_config(tmp_path, CFG_2A + "t_end = 1\n\n" + bad)
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    bad_row = lines[2].split(",")
    assert bad_row[0] == "?"
    assert bad_row[6].startswith("error: ")
    assert bad_row[11] == "false"


def test_sweep_error_row_keeps_config_text_as_utf8(tmp_path):
    # An error row carries the block's raw config text, here non-ASCII,
    # between two valid rows.  The hash was recorded before the CSV writer
    # moved to byte matrices.
    bad = "sigma = 1\nxi = 1\u00e9\nalpha = 1\na0 = 1\na1 = 0\n"
    cfg = write_config(tmp_path, "\n".join([
        "sigma = 1\nxi = 1\nalpha = 1\na0 = 1\na1 = 0\n",
        bad,
        "sigma = -1\nxi = -1\nalpha = 1\na0 = 1\na1 = 0\n",
    ]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    data = (tmp_path / "s" / "sweep.csv").read_bytes()
    assert data.splitlines()[2].startswith("?,1,1\u00e9,1,1,0,error: ".encode("utf-8"))
    assert hashlib.sha256(data).hexdigest() == (
        "d352075609b541dac1febac6cfbf12e5b090798cf43b8e35bd7df9cf989128da"
    )


def test_sweep_error_row_echoes_commas_as_one_cell(tmp_path):
    # A value holding a comma is echoed as one cell, as the error text is:
    # every row keeps the header's 12 fields.
    bad = "sigma = 1\nxi = 1,5\nalpha = 1\na0 = 1,0\na1 = 0\n"
    cfg = write_config(tmp_path, "\n".join([CFG_2A + "t_end = 1\n", bad, CFG_2A + "t_end = 1\n"]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    lines = (tmp_path / "s" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert [len(line.split(",")) for line in lines] == [12] * 4
    assert lines[2].startswith("?,1,1;5,1,1;0,0,error: ")


def test_sweep_error_row_echoes_quotes_as_one_cell(tmp_path):
    # A value that starts with a double quote would open a quoted CSV field
    # that swallows the commas after it: echoed with a single quote instead,
    # every row reads back as the header's 12 fields in a standard reader.
    bad = 'sigma = 1\nxi = "1\nalpha = 1\na0 = 1\na1 = 0\n'
    cfg = write_config(tmp_path, "\n".join([CFG_2A, bad, CFG_2A]))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    with open(tmp_path / "s" / "sweep.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [12] * 4
    assert rows[2][:7] == ["?", "1", "'1", "1", "1", "0",
                           "error: config key 'xi' is not a number: ''1'"]
    assert rows[1] == rows[3]


# Failures of the sweep's checks themselves, one orbit each: a profile
# amplitude (alpha / xi)^2 that overflows, a field u that is not finite
# (a' / a overflows at a0 = 1e-300), and an analytic mass alpha^2 pi /
# (2 sqrt xi) that overflows after the quadrature's own overflow.
SWEEP_CHECK_FAILURES = [
    ("sigma = 1\nxi = 1e-200\nalpha = 1e200\na0 = 1\na1 = 0\n",
     "error: profile amplitude (alpha / xi)^2 is out of range at alpha = 1e+200; xi = 1e-200"),
    ("sigma = 1\nxi = 1\nalpha = 1\na0 = 1e-300\na1 = 1e100\nt_end = 1e-200\n",
     "error: field u = nan is out of range at t = 0.0; x = 0.0"),
    ("sigma = 1\nxi = 1e100\nalpha = 1e200\na0 = 1\na1 = 0\n",
     "error: (34; 'Numerical result out of range')"),
]


def test_sweep_check_failures_are_each_their_own_row(tmp_path):
    # The batched checks fail one orbit at a time: each failing orbit gets its
    # own error row, the valid rows between them are those of their blocks
    # alone, and no numpy warning escapes.
    blocks = [CFG_2A, CFG_1A] + [block for block, _ in SWEEP_CHECK_FAILURES] + [SWEEP_FOUR]
    cfg = write_config(tmp_path, "\n".join(blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
    with open(tmp_path / "all" / "sweep.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == 9 and all(len(row) == 12 for row in rows)
    assert [(row[0], row[6], row[11]) for row in rows[2:5]] == [
        ("?", text, "false") for _, text in SWEEP_CHECK_FAILURES]
    valid = (tmp_path / "all" / "sweep.csv").read_text().splitlines()[1:]
    valid = valid[:2] + valid[5:]
    alone = []
    for k, block in enumerate([CFG_2A, CFG_1A, SWEEP_FOUR]):
        cfg = write_config(tmp_path, block, name=f"{k}.cfg")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / str(k))]) == 0
        alone += (tmp_path / str(k) / "sweep.csv").read_text().splitlines()[1:]
    assert valid == alone


# Blocks that fail at each stage of a sweep: parsing, integration and the
# report (at tol = 1e-3 the two collapse-time routes differ by 4.4e-6 of S,
# more than S_AGREEMENT_TOL).
SWEEP_FAILING = [
    "sigma = 1\nxi = 0\nalpha = 1\na0 = 1\n",
    "sigma = 1\nxi = 1\nalpha = 1\na0 = 1\ntol = -1\n",
    "sigma = 1\nxi = 3\nalpha = 1\na0 = 1\na1 = -5\ntol = 1e-3\n",
]


def test_sweep_failing_blocks_leave_valid_rows_alone(tmp_path):
    valid = SWEEP_FOUR.split("\n\n")
    blocks = valid[:2] + SWEEP_FAILING + valid[2:]
    cfg = write_config(tmp_path, "\n\n".join(blocks))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
    rows = (tmp_path / "all" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    assert [row.split(",")[6] for row in rows[2:5]] == [
        "error: coupling constant fails xi != 0",
        "error: config key 'tol' must be >= 2.220446049250313e-14; the solver's floor 100 eps: "
        "'-1'",
        "error: collapse-time routes disagree by 4.423e-06 of S (> 1e-06)",
    ]
    assert all(row.startswith("?,") and row.endswith(",false") for row in rows[2:5])
    alone = []
    for k, block in enumerate(valid):
        cfg = write_config(tmp_path, block, name=f"{k}.cfg")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / str(k))]) == 0
        alone += (tmp_path / str(k) / "sweep.csv").read_text().splitlines()[1:]
    assert rows[:2] + rows[5:] == alone


def test_sweep_overflowing_orbit_is_one_error_row(tmp_path):
    # xi = 1e200 overflows its state in the lockstep loop, beside an orbit of
    # order one: its error norm turns NaN without a numpy warning, its step
    # fails, and only its row says so.
    blocks = [f"sigma = 1\nxi = {xi}\nalpha = 1\na0 = 1\na1 = 0\n" for xi in ("1e200", "1")]
    cfg = write_config(tmp_path, "\n".join(blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[6], row[11]) for row in rows] == [
        ("?", "error: adaptive step failed: " + TOO_SMALL_STEP, "false"),
        ("2a", "Global", "true")]


def test_sweep_propagates_programming_errors(tmp_path, monkeypatch):
    # Only library errors become rows; a bug must not hide in the CSV, even
    # when the batch hands it back as one orbit's outcome.
    def broken_quadrature(*args, **kwargs):
        raise TypeError("synthetic programming error")

    monkeypatch.setattr(emden, "collapse_time_quadrature", broken_quadrature)
    cfg = write_config(tmp_path, SWEEP_FOUR)
    with pytest.raises(TypeError, match="synthetic programming error"):
        main(["sweep", "--config", cfg, "--out", str(tmp_path)])
    assert not (tmp_path / "sweep.csv").exists()


FAMILY_CONFIGS = Path(__file__).resolve().parents[1] / "configs" / "families"


def test_family_configs_agree_with_the_sweep_config(tmp_path):
    # CI runs verify on each family config and sweep on sweep.cfg; the sweep
    # holds the same four cases, with an invalid block as its third row.
    cases = {}
    for family in GOLDEN_FAMILIES:
        block, = cli._load_blocks(str(FAMILY_CONFIGS / f"{family}.cfg"))
        assert (block["levels"], block["nt"], block["nx"]) == ("3", "41", "41")
        cases[family] = {k: v for k, v in block.items() if k in cli._CASE_KEYS}
    blocks = cli._load_blocks(str(FAMILY_CONFIGS / "sweep.cfg"))
    assert blocks[:2] + blocks[3:] == list(cases.values())
    assert main(["sweep", "--config", str(FAMILY_CONFIGS / "sweep.cfg"),
                 "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1a", "1b", "?", "2a", "2b"]
    assert [row[-1] for row in rows] == ["true", "true", "false", "true", "true"]


def test_sweep_deterministic(tmp_path):
    cfg = write_config(tmp_path, SWEEP_FOUR)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["sweep", "--config", cfg, "--out", str(d)]) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()


# Clean cases of the benchmark's verify-cli generator (perfbench/cases.py),
# keyed by (seed, item): (sigma, xi, alpha, a0, a1).  Each exited 3 at some
# scale before the order estimate took common nodes and the global windows
# took the orbit's time unit mu.  Inlined: the tests do not import perfbench.
GENERATED_CASES = {
    (1, 0): (-1, -0.08390322422319148, 0.9885940748879141, 25.960610411654393,
             -1.3926905115157135),
    (1, 8): (-1, 0.15799540522459898, 9.815913112908111, -0.5903485486181377,
             -0.2894644377359423),
    (1, 9): (1, 0.018010263849094196, 0.5002339412024208, 0.16938530968967758,
             0.06311116131394383),
    (1, 46): (1, 0.0186750640475522, 0.6448126204862228, 1.3139424690854882,
              -0.1012066494554724),
    (1, 62): (1, -4.892244540358743, 0.1476267481793525, -0.8489096912866366,
              -4.159830161452037),
    (2, 45): (-1, 23.26270689846978, 2.250717551970579, -65.48343773517988,
              19.132984153126856),
}


@pytest.mark.parametrize("key", list(GENERATED_CASES), ids=[f"seed{s}-item{k}"
                                                            for s, k in GENERATED_CASES])
def test_generated_case_verdict_keeps_under_exact_scaling(tmp_path, key):
    # a0 -> lambda a0 and a1 -> lambda^(1/3) a1 rescale the orbit exactly
    # (a(s) = lambda A(s / lambda^(2/3))), so the verdict should not move.
    # Seed 2 item 45 (1b) is the one measured exception: residual_mass fails
    # at lambda = 1e-6, where mu < 1 and the 0.5 cap and decay floor are not
    # invariant.
    sigma, xi, alpha, a0, a1 = GENERATED_CASES[key]
    codes = []
    for k, lam in enumerate((1e-6, 1.0, 1e6)):
        cfg = write_config(tmp_path, f"sigma = {sigma}\nxi = {xi!r}\nalpha = {alpha!r}\n"
                                     f"a0 = {lam * a0!r}\na1 = {lam ** (1 / 3) * a1!r}\n")
        codes.append(main(["verify", "--config", cfg, "--out", str(tmp_path / str(k))]))
    assert codes == ([3, 0, 0] if key == (2, 45) else [0, 0, 0])


# ----------------------------------------------------------------------
# golden files: outputs must stay byte-identical across refactors
# ----------------------------------------------------------------------

# The four conftest families: (sigma, xi, a0), alpha = 1, a1 = 0.
GOLDEN_FAMILIES = {
    "1a": (-1, -1, 1),
    "1b": (-1, 1, -1),
    "2a": (1, 1, 1),
    "2b": (1, -3, -1),
}

# (command, family, extra flags) -> (exit code, sha256 of the output file).
# Recorded on x86-64 with numpy 2.4: the last digits of the integrated orbit
# depend on numpy, on the BLAS its dot products call and on the libm behind
# cbrt, sin and pow, and may differ under other builds of these.
GOLDEN = {
    ("construct", "1a", ()):
        (0, "fb20bdfa26d324aa0cfaba3aa98d2f55b75bd41f2a7b3d38d8c1742d46ce881e"),
    ("construct", "1b", ()):
        (0, "44d868310cd98e5f4ad1b61453a691ca7ca02029c3cc22a276ee4a1fb0c92334"),
    ("construct", "2a", ()):
        (0, "c2c429745c3fb152ab453b36fa67f6a932031d7ae3481a2ef9757cffbaf6ba94"),
    ("construct", "2b", ()):
        (0, "4c391708395b53fc84e7b602ba8195989eb9b1495603236f76b9191d280f8885"),
    ("construct", "1a", ("--grid", "401,401")):
        (0, "e18dc24b64d90dd54a270d44c3e06ba17d6a11e26c4d05287cf3d4bee7f98465"),
    ("construct", "1b", ("--grid", "401,401")):
        (0, "6cc5640b51b0b98add6f8a19bb62ae21b9d677aea2043391f8e0c207a757344a"),
    ("construct", "2a", ("--grid", "401,401")):
        (0, "6fffffd807ba27e4821e8b4c3002087d88bd7d0ce7b2b335e738944cfab141ab"),
    ("construct", "2b", ("--grid", "401,401")):
        (0, "19821a16d24ac3bc14464ee71381285046258b17981f1ae793db5d41434489a2"),
    ("emden", "1a", ()):
        (0, "e68f378d87f98b757bc410e90bf40bdd2e915561e116cfca007d83312fd768bf"),
    ("emden", "1b", ()):
        (0, "7b96eea862d919b12880d1cc09a523201065a4e6207dd09c831600e28a332d8e"),
    ("emden", "2a", ()):
        (0, "45424d0f859b085061b5314b6fe98bf675ed3f0ed0386eeedfa27a0f2b91da33"),
    ("emden", "2b", ()):
        (0, "f8ac7995c47c86042d176347000a9837efaab04a854518ebc2b5d492f3beb9da"),
    ("verify", "1a", ()):
        (0, "36c70f3a64b37ca44b0f0f9dfd225edb323423e5670bde634b939f9ae64006d3"),
    ("verify", "1b", ()):
        (0, "8f13547749e657ea0997b891402b562b233be053e8f1fac72fe9b539d681afbe"),
    ("verify", "2a", ()):
        (0, "34647465b9e64e9a5c255f4f1a15055cc75775ff9e036d4495e7997a7cce713f"),
    ("verify", "2b", ()):
        (0, "ba9d5ba0e167e4552c9cd94ae575f26cfde1d898f2953b5331b0d3fcc86802b0"),
    ("verify", "2a", ("--seed-corrupt", "u=1.01")):
        (3, "d78105e40122cd14871b11519d7162c0e33ecc9564b49406e5dbd78c375aaa39"),
    # One sweep over the four families' blocks, in GOLDEN_FAMILIES order.
    ("sweep", "all", ()):
        (0, "3d8725f72665fb000af40459c791d13e495867f74f74b86514a9f082c7ec9b60"),
    # 200 generated cases, 126 of them collapse orbits (GOLDEN_DATA): 100 with
    # xi < 0 and 26 with xi > 0, an inward slope and theta >= 0.
    ("sweep", "batch200", ()):
        (0, "8976b709e5761a7061a8a44240687f4f0338f8cad935d3e5a0c973490f4d4c10"),
}

DATA = Path(__file__).parent / "data"
# Configs read from tests/data instead of built from GOLDEN_FAMILIES.
# sweep_batch_seed1.cfg is item 0 of the benchmark's sweep-batch stream, seed 1.
GOLDEN_DATA = {"batch200": "sweep_batch_seed1.cfg"}

_GOLDEN_OUTPUT = {
    "construct": "construct.csv", "emden": "emden.csv",
    "verify": "verify.json", "sweep": "sweep.csv",
}


def _golden_block(command, family):
    sigma, xi, a0 = GOLDEN_FAMILIES[family]
    text = f"xi = {xi}\na0 = {a0}\na1 = 0\n"
    if command != "emden":
        text = f"sigma = {sigma}\nalpha = 1\n" + text
    return text


@pytest.mark.parametrize(
    "command,family,extra", list(GOLDEN),
    ids=[" ".join((c, f) + e) for c, f, e in GOLDEN],
)
def test_golden_output_hashes(tmp_path, command, family, extra):
    if family == "all":
        text = "\n".join(_golden_block(command, f) for f in GOLDEN_FAMILIES)
    elif family in GOLDEN_DATA:
        text = (DATA / GOLDEN_DATA[family]).read_text(encoding="utf-8")
    else:
        text = _golden_block(command, family)
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out), *extra])
    data = (out / _GOLDEN_OUTPUT[command]).read_bytes()
    assert (rc, hashlib.sha256(data).hexdigest()) == GOLDEN[(command, family, extra)]


def test_fields_on_grid_takes_time_and_space_arrays(case_2a):
    # construct samples 2x2 lattices, below SpaceTimeGrid's 5-point minimum,
    # so the sampler takes the t and x arrays directly.
    case, traj, _ = case_2a
    ts, xs = np.array([0.0, 0.3]), np.array([-0.4, 0.7])
    rho, u, eta = fields_on_grid(case, traj, ts, xs)
    assert rho.shape == u.shape == eta.shape == (2, 2)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            (a,), (a_dot,) = traj.eval_many([3.0 * t])
            cb = float(np.cbrt(a))
            assert rho[i, j] == profile(case, float(x) / cb) / cb
            assert u[i, j] == a_dot / a * x


# An inward-slope xi > 0 orbit with theta > 0, which collapses; its
# integration stops near a = 0 at s_max, and s_max / 3 times 3 rounds one
# ulp above s_max.
CFG_ULP = (
    "sigma = 1\nxi = 1.6080305655209362\nalpha = 0.7861880071428833\n"
    "a0 = 0.19120769802229437\na1 = -1.12511702408761\n"
)


def test_t_max_stays_inside_the_orbit():
    traj, _ = analyze(EmdenParams(xi=1.6080305655209362, a0=0.19120769802229437,
                                  a1=-1.12511702408761))
    assert 3.0 * (traj.s_max / 3.0) > traj.s_max  # the rounding this guards
    t = _t_max(traj)
    assert 3.0 * t <= traj.s_max
    assert 3.0 * math.nextafter(t, math.inf) > traj.s_max


def test_default_horizon_one_ulp_orbit(tmp_path, capsys):
    cfg = write_config(tmp_path, CFG_ULP)
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    assert rc in (0, 3), capsys.readouterr().err
    assert (tmp_path / "v" / "verify.json").is_file()


def test_explicit_t1_beyond_orbit_still_rejected(tmp_path, capsys):
    # The orbit collapses at s = 0.1877..., so 3 * t1 = 0.21 lies past it.
    cfg = write_config(tmp_path, CFG_ULP + "t1 = 0.07\n")
    assert main(["construct", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "crosses the collapse time s = 0.1877021917" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,message", [
    ("construct", CFG_1A + "t0 = -0.1\n", "grid starts before t = 0 (t0 = -0.1)"),
    ("verify", CFG_1A + "t0 = -0.1\n", "grid starts before t = 0 (t0 = -0.1)"),
    # A given t1 past the collapse: sampling_grid words it alike for both commands.
    ("construct", CFG_1A + "t1 = 5\n",
     "grid end 3*t1 = 15.0 crosses the collapse time s = 2.356194490192345"),
    ("verify", CFG_1A + "t1 = 5\n",
     "grid end 3*t1 = 15.0 crosses the collapse time s = 2.356194490192345"),
    ("construct", "sigma = 1\nxi = -3\nalpha = 1\na0 = -1\na1 = 0\nt0 = -0.1\n",
     "grid starts before t = 0 (t0 = -0.1)"),
    # 3 t1 lies between the end of the integration and the collapse time.
    ("construct", CFG_ULP + "t1 = 0.06256739722636141\n",
     "grid needs s up to 0.18770219167908425 but the trajectory ends at 0.18770219167908422"),
    # A reversed window on a compact family: named before the support radius is sampled.
    ("construct", "sigma = 1\nxi = 3\nalpha = 1\na0 = 1\na1 = 0\nt0 = 50\nt1 = 0.1\n",
     "need t1 > t0, got [50.0, 0.1]"),
    ("verify", "sigma = 1\nxi = 3\nalpha = 1\na0 = 1\na1 = 0\nt0 = 50\nt1 = 0.1\n",
     "need t1 > t0, got [50.0, 0.1]"),
], ids=["construct-1a-t0", "verify-1a-t0", "construct-1a-t1", "verify-1a-t1", "construct-2b-t0",
        "construct-ulp-t1", "construct-2a-reversed", "verify-2a-reversed"])
def test_window_outside_the_orbit_is_named(tmp_path, capsys, command, cfg, message):
    # sampling_grid checks the window before it samples the support radius
    # of a compact family on it, and construct of a full-line family checks
    # t0 at all.
    cfg = write_config(tmp_path, cfg)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not (tmp_path / "out").exists()


class _Hung(BaseException):
    """Raised by the alarm of _run_in_time; no handler catches it."""


def _config(command, xi, a0, a1):
    """command's config of the orbit (xi, a0, a1): verify and construct take
    alpha = 1 and the admissible sigma, sign(xi a0)."""
    case = "" if command == "emden" else f"sigma = {1 if (xi > 0) == (a0 > 0) else -1}\nalpha = 1\n"
    return case + f"xi = {xi}\na0 = {a0}\na1 = {a1}\n"


def _run_in_time(tmp_path, capsys, command, text, seconds=5.0):
    """(exit code, stderr, RuntimeWarnings) of command on the config text, run in
    process under an alarm that fails the test once seconds have passed."""
    cfg = write_config(tmp_path, text)

    def hung(signum, frame):
        raise _Hung(f"{command} still running after {seconds} s on {text!r}")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc, capsys.readouterr().err, runtime


# |xi| from 1e150 to 1e300 at rest with a0 = 1 (sigma = sign xi: families 1a and 2a), and
# slopes whose energy a1^2/2 overflows.  Each (xi, a1, exit code) ends in a verdict or in
# one numerical-failure line; at |xi| >= 1e200 the state overflows and the step fails.
EXTREME = [(xi, "0", None) for xi in (1e150, -1e150)] + [
    (sign * 10.0 ** e, "0", 2) for e in (200, 250, 300) for sign in (1, -1)] + [
    (1.0, a1, 2) for a1 in ("1e160", "-1e160", "1e300", "-1e300")]


@pytest.mark.parametrize("command", ["emden", "construct", "verify"])
@pytest.mark.parametrize("xi,a1,code", EXTREME, ids=[f"xi={xi:g},a1={a1}" for xi, a1, _ in EXTREME])
def test_extreme_magnitudes_end_in_time(tmp_path, capsys, command, xi, a1, code):
    rc, err, caught = _run_in_time(tmp_path, capsys, command, _config(command, xi, 1.0, a1))
    assert rc in (0, 2, 3) and (code is None or rc == code), err
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) <= 1 and (rc != 2 or err.startswith("numerical failure: "))


# A breakdown of the arithmetic, named: a collapse time S that underflows or
# overflows, or whose closed form over- or underflows in |xi|^(3/2); a state that
# overflows; a NaN or an infinity that reaches a writer; a profile amplitude
# (alpha / xi)^2 that overflows, a sampled field or a residual norm that is not
# finite, a momentum stencil whose dx^2 overflows, a dispersion roundoff scale
# whose dx^2 min(dt, dx) underflows, an orbit time unit mu out of range, and an
# origin-decay window 300 mu whose clock s overflows.
BREAKDOWNS = [
    ("emden", -1.0, 1.0, -1e150, "collapse time S = 0.0 is out of range"),
    ("verify", -1.0, 1.0, -1e150, "collapse time S = 0.0 is out of range"),
    ("emden", -1e-150, -1.0, -1e150, "collapse time S = inf is out of range"),
    ("emden", -1e250, 1.0, 0.0, "collapse time S: its closed form is out of range at xi = -1e+250"),
    ("emden", 1e-300, 1.0, -1.0, "collapse time S: its closed form is out of range at xi = 1e-300"),
    ("emden", -1.0, 1e-300, 1e150, "the state overflowed"),
    ("emden", 1e300, 1.0, 1e150, "non-finite value nan "),
    ("verify", 1e-150, 1e-150, 1.0,
     "residual_momentum: l2_residual = inf is out of range on the 81 x 81 lattice\n"),
    ("construct", 1e-150, 1e-300, 1e10, "field u = -inf is out of range at t = 0.0, x = "),
    ("verify", 1e-300, 1e-300, 0.0,
     "profile amplitude (alpha / xi)^2 is out of range at alpha = 1.0, xi = 1e-300\n"),
    ("construct", 1e-300, 1e-300, 0.0,
     "profile amplitude (alpha / xi)^2 is out of range at alpha = 1.0, xi = 1e-300\n"),
    ("verify", 1e300, 1.0, 1e150, "dispersion roundoff scale eps max(alpha_d^2) max|u| / "
     "(dx^2 min(dt, dx)) is out of range at dx = "),
    ("verify", 1e-300, 1e300, 0.0, "time unit mu = |a0|^(2/3) / sqrt|xi| = inf is out of range\n"),
    ("verify", 1e-212, 1e300, 0.0, "origin-decay window end s = 3 decay_t_max max(1, mu) is out "
     "of range at decay_t_max = 300.0, mu = 1e+306\n"),
] + [("verify", 1e-150, 1e300, a1, "momentum stencil's dx^2 is out of range at dx = ")
     for a1 in (-1e10, -1.0, 0.0, 1.0, 1e10)]
_COARSE = [v for m in (1e-300, 1.0, 1e300) for v in (m, -m)]


@pytest.mark.parametrize("command", ["emden", "construct", "verify"])
def test_numerical_breakdowns_exit_2(tmp_path, capsys, command):
    # The named breakdowns, then a coarse grid of xi, a0 and a1: every run ends
    # in time with 0, 2 or 3, a failure is one line, and no numpy warning
    # comes from the solver, the scale-factor code, the field sampler or the
    # residual kernels.
    runs = [(xi, a0, a1, message) for c, xi, a0, a1, message in BREAKDOWNS if c == command]
    runs += [(xi, a0, a1, None) for xi in _COARSE for a0 in _COARSE for a1 in (-1e150, 0.0, 1e150)]
    wrong = []
    for xi, a0, a1, message in runs:
        rc, err, caught = _run_in_time(tmp_path, capsys, command, _config(command, xi, a0, a1))
        ours = sorted({Path(w.filename).name for w in caught}
                      & {"_dop853.py", "emden.py", "verify.py", "selfsim.py"})
        if message is None and rc in (0, 3):
            ok = err == ""
        else:
            ok = rc == 2 and err.startswith(f"numerical failure: {message or ''}") \
                and err.count("\n") == 1
        if not ok or ours:
            wrong.append((xi, a0, a1, rc, err, ours))
    assert wrong == []


def test_readme_verify_table_matches_tolerances():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("`verify` tolerance keys", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]+?) +\|", table, flags=re.MULTILINE)
    fields = dataclasses.fields(Tolerances)
    assert [key for key, _ in rows] == [f.name for f in fields]
    for (key, text), f in zip(rows, fields):
        if isinstance(f.default, tuple):
            value = tuple(float(v) for v in text.split(","))
        else:
            value = type(f.default)(text)
        assert value == f.default, key


def test_readme_library_example_runs():
    # The README's python block documents the library API; it must run and
    # give the values its comments state.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["report"].classification.value == "Collapse"
    assert ns["report"].s_collapse_quadrature == pytest.approx(math.sqrt(3) * math.pi / 4,
                                                               rel=1e-12)
    assert ns["mass"](ns["case"], ns["traj"], [0.2]).tolist() == pytest.approx(
        [math.pi / (2.0 * math.sqrt(3.0))], rel=1e-6)
    assert [name for name, rec in ns["records"].items() if rec.get("pass") is False] == []
