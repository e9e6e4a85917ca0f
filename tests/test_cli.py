"""End-to-end CLI behavior: configs, outputs, determinism, exit codes."""

import dataclasses
import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import ch2exact.cli as cli
import ch2exact.emden as emden
from ch2exact import EmdenParams, IntegrationFailure, analyze, sample
from ch2exact.cli import ConfigError, main, parse_config_blocks
from ch2exact.verify import Tolerances, _fields_on_grid, energy_drift


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
    calls = _counting(monkeypatch, ["emden", "verify"], "collapse_time_quadrature")
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
    fields = _counting(monkeypatch, ["verify"], "_fields_on_grid")
    checks = _counting(monkeypatch, ["verify"], "_check_grid")
    cfg = write_config(tmp_path, CFG_2A)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [(len(args[2]), len(args[3])) for args in fields] == [(81, 81), (161, 161), (17, 17)]
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
    orbits = [cli._sweep_orbit(block, None) for block in blocks]
    results = emden.analyze_many([(case.emden, s_end, tol) for case, s_end, tol in orbits])
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
        "error: tol must be positive; got -1.0",
        "error: collapse-time routes disagree by 4.423e-06 of S (> 1e-06)",
    ]
    assert all(row.startswith("?,") and row.endswith(",false") for row in rows[2:5])
    alone = []
    for k, block in enumerate(valid):
        cfg = write_config(tmp_path, block, name=f"{k}.cfg")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / str(k))]) == 0
        alone += (tmp_path / str(k) / "sweep.csv").read_text().splitlines()[1:]
    assert rows[:2] + rows[5:] == alone


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
        block = cli._single_block(str(FAMILY_CONFIGS / f"{family}.cfg"))
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
        (0, "4ed20dbfd2670294fe66aeb6a7bf8f236261edb324776fe5521d0330237b4b62"),
    ("verify", "1b", ()):
        (0, "0fbef66be3e621f16f4671944095a94dd6a6aa0dd9b63e76cbb67276bb5cd66f"),
    ("verify", "2a", ()):
        (0, "292576e431b1473e427488f4c4cd29f45676bfb80b69e685a4f7c876e36b0984"),
    ("verify", "2b", ()):
        (0, "1cb4a0949c0fdad9bd130a727559875af749cc306e8072602adf40ecea0128ed"),
    ("verify", "2a", ("--seed-corrupt", "u=1.01")):
        (3, "34e63c39e800c8ed1d7fb9482760a1362a3eaa582334e26a6238875cf9b3f80e"),
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
    rho, u, eta = _fields_on_grid(case, traj, ts, xs)
    assert rho.shape == u.shape == eta.shape == (2, 2)
    for i, t in enumerate(ts):
        for j, x in enumerate(xs):
            point = sample(case, traj, float(t), float(x))
            assert rho[i, j] == point.rho
            assert u[i, j] == point.u


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
    t = cli._t_max(traj)
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
