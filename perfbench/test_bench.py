"""Self-tests of the benchmark (no timing).

Run from the root of a checkout:  python3 -m pytest perfbench -q

They check that the generator is deterministic, that every oracle accepts
the program's right output and trips on an injected bad one, that the
normaliser and tail arithmetic hold on synthetic numbers, and that the
tracer keeps exact counts and reports missing functions as zero.
"""

import json
import math
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from cases import Case, Item  # noqa: E402

from ch2exact.cli import main as cli_main  # noqa: E402


def _run_cli(tmp_path, command, item, *extra):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(item.config, encoding="utf-8")
    out = tmp_path / "out"
    code = cli_main([command, "--config", str(cfg), *item.flags, *extra, "--out", str(out)])
    return code, out


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_generator_is_deterministic(workload):
    a = [cases.item(workload, 7, k).config for k in range(5)]
    b = [cases.item(workload, 7, k).config for k in range(5)]
    c = [cases.item(workload, 8, k).config for k in range(5)]
    assert a == b
    assert a != c


def test_generator_shares_and_ranges():
    block = cases.draw_block("sweep-batch", 3, 0, cases.SWEEP_CASES)
    fams = [c.family for c in block]
    assert all(fams.count(f) == cases.SWEEP_CASES // 4 for f in cases.FAMILIES)
    for c in block:
        sigma, s_xi, s_a0 = cases.FAMILIES[c.family]
        assert c.sigma == sigma and math.copysign(1, c.xi) == s_xi and math.copysign(1, c.a0) == s_a0
        assert 1e-2 <= abs(c.xi) <= 1e2 and 1e-2 <= abs(c.a0) <= 1e2 and 1e-1 <= c.alpha <= 1e1
        u = c.a1 / (abs(c.xi) ** 0.5 * abs(c.a0) ** (1 / 3))
        assert -2 <= u <= 2
    # each slope quarter holds exactly a quarter of a stratified block
    us = sorted(c.a1 / (abs(c.xi) ** 0.5 * abs(c.a0) ** (1 / 3)) for c in block)
    assert [sum(lo <= u < lo + 1 for u in us) for lo in (-2, -1, 0, 1)] == [50] * 4


def test_item_streams():
    verify = [cases.item("verify-cli", 1, k) for k in range(16)]
    assert [it.corrupt for it in verify] == [k % 8 == 7 for k in range(16)]
    construct = [cases.item("construct-grid", 1, k) for k in range(8)]
    assert [it.repeat_of for it in construct] == [None, None, None, 2, None, None, None, 6]
    assert construct[3].config == construct[2].config
    assert len({construct[k].config for k in (0, 1, 2, 4, 5, 6)}) == 6
    assert cases.item("sweep-batch", 1, 0).units == cases.SWEEP_CASES


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------

def test_closed_form_collapse_times():
    inward_growth = Case("2a", 1, 3.0, 1.0, 1.0, -5.0)
    assert oracles.classification(inward_growth) == "Collapse"
    assert oracles.theta(inward_growth) == pytest.approx(11.0)
    assert oracles.collapse_time(inward_growth) == pytest.approx(0.20506, abs=1e-5)
    at_rest = Case("1a", -1, -3.0, 1.0, 1.0, 0.0)
    assert oracles.collapse_time(at_rest) == pytest.approx(math.sqrt(3) * math.pi / 4, rel=1e-14)
    # outward slope: up to the turning point and the full leg back down
    out = Case("1a", -1, -3.0, 1.0, 1.0, 0.5)
    assert oracles.collapse_time(out) > oracles.collapse_time(Case("1a", -1, -3.0, 1.0, 1.0, -0.5))
    assert oracles.classification(Case("2a", 1, 3.0, 1.0, 1.0, 0.5)) == "Global"
    assert oracles.classification(Case("1b", -1, 3.0, 1.0, -1.0, 5.0)) == "Collapse"


def test_closed_form_matches_program_quadrature():
    from ch2exact.emden import EmdenParams, collapse_time_quadrature
    for c in cases.draw_block("sweep-batch", 5, 0, 40):
        if c.xi < 0:
            s = collapse_time_quadrature(EmdenParams(c.xi, c.a0, c.a1))
            assert oracles.collapse_time(c) == pytest.approx(s, rel=1e-12)


# ----------------------------------------------------------------------
# oracles against real output, then injected faults
# ----------------------------------------------------------------------

COLLAPSE_CASES = (Case("1a", -1, -3.0, 1.0, 1.0, 0.0), Case("2b", 1, -2.0, 0.5, -2.0, 0.3),
                  Case("2a", 1, 1.0, 1.0, 1.0, 0.2), Case("1b", -1, 1.0, 1.0, -1.0, 0.0))


def test_sweep_oracle(tmp_path):
    item = Item(0, COLLAPSE_CASES)
    code, out = _run_cli(tmp_path, "sweep", item)
    text = (out / "sweep.csv").read_text()
    assert code == 0
    assert oracles.check_sweep(item, text) == [None] * 4
    lines = text.split("\n")
    lines[1] = lines[1].replace("Collapse", "Global")
    verdicts = oracles.check_sweep(item, "\n".join(lines))
    assert verdicts[0].startswith("classified Global") and verdicts[1:] == [None] * 3
    assert oracles.check_sweep(item, None) == ["no sweep.csv"] * 4
    assert all(oracles.check_sweep(item, "\n".join(lines[:-2] + [""])))


def test_sweep_oracle_rejects_mislabelled_growth_orbit():
    c = Case("2a", 1, 3.0, 1.0, 1.0, -5.0)
    row = f"2a,1,3,1,1,-5,Global,{oracles.theta(c)!r},,{oracles.analytic_mass(c)!r},,true"
    (verdict,) = oracles.check_sweep(Item(0, (c,)), oracles.SWEEP_HEADER + "\n" + row + "\n")
    assert verdict.startswith("classified Global, expected Collapse")


def test_verify_oracle(tmp_path):
    good = Item(0, (COLLAPSE_CASES[0],))
    code, out = _run_cli(tmp_path, "verify", good)
    text = (out / "verify.json").read_text()
    assert code == 0 and oracles.check_verify(good, code, text) is None
    doc = json.loads(text)
    doc["reports"]["blowup"]["s_collapse_quadrature"] *= 1 + 1e-6
    assert "closed form" in oracles.check_verify(good, 0, json.dumps(doc))

    corrupt = Item(7, (COLLAPSE_CASES[0],), ("--seed-corrupt", cases.CORRUPT_FLAG))
    code, out = _run_cli(tmp_path, "verify", corrupt)
    text = (out / "verify.json").read_text()
    assert code == 3 and oracles.check_verify(corrupt, code, text) is None
    # a corrupted item that exits 0 is rejected
    assert oracles.check_verify(corrupt, 0, text).startswith("exit 0, expected 3")
    doc = json.loads(text)
    doc["reports"]["residual_momentum"]["pass"] = True
    assert "corrupted velocity passed" in oracles.check_verify(corrupt, 3, json.dumps(doc))
    assert "malformed" in oracles.check_verify(good, 0, "{not json")


def test_construct_oracle(tmp_path):
    item = Item(0, (COLLAPSE_CASES[1],), ("--grid", "21,21"))
    code, out = _run_cli(tmp_path, "construct", item)
    data = (out / "construct.csv").read_bytes()
    assert code == 0
    assert oracles.check_construct(item, data, nt=21, nx=21) is None
    lines = data.decode().split("\n")
    cells = lines[200].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-7))       # one altered rho cell
    altered = "\n".join(lines[:200] + [",".join(cells)] + lines[201:]).encode()
    assert "f(eta)" in oracles.check_construct(item, altered, nt=21, nx=21)
    cells = lines[205].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)             # one altered u cell, x != 0
    altered_u = "\n".join(lines[:205] + [",".join(cells)] + lines[206:]).encode()
    assert "u / x" in oracles.check_construct(item, altered_u, nt=21, nx=21)
    assert "rows" in oracles.check_construct(item, data, nt=21, nx=20)
    repeat = Item(3, item.cases, item.flags, repeat_of=2)
    assert oracles.check_construct(repeat, data, data, nt=21, nx=21) is None
    assert "differs" in oracles.check_construct(repeat, data, altered, nt=21, nx=21)


# ----------------------------------------------------------------------
# normaliser and statistics
# ----------------------------------------------------------------------

def test_normalise():
    # twice as slow a host doubles both the item and its references
    assert run.normalise(2.0, 0.4, 0.4, 0.4) == pytest.approx(2.0)
    assert run.normalise(4.0, 0.8, 0.8, 0.4) == pytest.approx(2.0)
    assert run.normalise(3.0, 0.5, 1.5, 2.0) == pytest.approx(6.0)



def test_timed_metrics_leave_out_errored_commands(tmp_path):
    def record(k, code, wall, rejected=0):
        return run.Record(k, "sha", 2, code, wall, wall, 50.0 + k, (0.5, 0.5), (0.5, 0.5),
                          wall, wall, rejected)

    bench = run.Bench(tmp_path, "sweep-batch", 1, 1)
    ref = run.Proc(0.5, 0.5, 30.0, 0)
    records = [record(0, 0, 2.0), record(1, 3, 4.0, rejected=1), record(2, 1, 0.1, rejected=2),
               record(3, 0, 3.0)]
    out = bench._timed_metrics(records, [(run.Proc(1.0, 1.0, 60.0, 0), ref, ref)])
    m = out["metrics"]
    assert m["latency_p50_s"] == 3.0                   # the exit-1 command is not timed
    assert m["latency_tail_s"] == pytest.approx(3.8)         # p90 of 2, 3 and 4
    assert m["items_per_s"] == pytest.approx(6 / 9.0)
    assert m["peak_rss_mb"] == 53.0                    # memory counts every command
    assert (out["attempted"], out["failed"]) == (8, 3)
    assert m["fail_frac"] == pytest.approx(3 / 8)
    assert m["setup_s"] == pytest.approx(1.0 * run.NOMINAL["wall_s"] / 0.5)


def test_item_count_depends_only_on_seconds():
    for workload, cycle in run.NOMINAL_CYCLE_S.items():
        assert run.item_count(workload, 30) == round(30 / cycle)
        assert run.item_count(workload, 1) == 1


def test_tail_percentile():
    values = [float(v) for v in range(1, 41)]          # 40 samples
    value, pct, n = run.tail(values)
    assert (value, pct, n) == (30.0, 75.0, 40)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert run.tail([float(v) for v in range(1, 101)])[:2] == (90.0, 90.0)
    # 20 samples: ten beyond would be below the median, so the interpolated p90
    assert run.tail([float(v) for v in range(20, 0, -1)]) == (pytest.approx(18.1), 90.0, 20)
    assert run.tail([3.0, 1.0]) == (pytest.approx(2.8), 90.0, 2)
    assert run.tail([2.5]) == (2.5, 100.0, 1)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def test_tracer_counts_and_self_time():
    import trace_driver

    tracer = trace_driver.Tracer(0.0)

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap("m.leaf", leaf)

    def parent(n):
        return sum(wrapped_leaf(i) for i in range(n))

    wrapped_parent = tracer.wrap("m.parent", parent)
    assert wrapped_parent(trace_driver.LIMIT + 500) == sum(range(1, trace_driver.LIMIT + 501))
    (count, total, self_time), = [v for (n, p), v in tracer.buckets.items() if n == "m.leaf"]
    assert count == trace_driver.LIMIT + 500
    assert ("m.leaf", "m.parent") in tracer.buckets
    assert sum(1 for s in tracer.spans if s[1] == "m.leaf") == trace_driver.LIMIT
    (p_count, p_total, p_self), = [v for (n, _), v in tracer.buckets.items() if n == "m.parent"]
    assert p_count == 1 and p_self == pytest.approx(p_total - total, abs=1e-9)


def test_per_layer_metrics_report_missing_functions_as_zero():
    tr = {
        "import": {"wall_s": 1.0, "modules_loaded": 10, "scipy_modules": 4},
        "items": [{"wall_untraced_s": 1.0, "wall_traced_s": 1.5, "bytes_written": 7}],
        "functions": {"cli.main": {"calls": 1, "self_s": 0.5, "total_s": 1.5},
                      "selfsim.density": {"calls": 30, "self_s": 0.5, "total_s": 0.5},
                      "verify.mass": {"calls": 3, "self_s": 0.5, "total_s": 1.0}},
        "buckets": [["selfsim.density", "verify.mass", 30, 0.5, 0.5]],
        "counters": {},
    }
    m = run.per_layer_metrics(tr)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(m) == {x["name"] for x in spec["per_layer"]}
    assert m["emden.integrate.calls"] == 0 and m["emden.integrate.nodes"] == 0
    assert m["verify.mass.density_per_call"] == 10
    assert m["trace.overhead"] == pytest.approx(0.5)
    assert m["import.self_share"] == pytest.approx(0.4)
    assert statistics.fsum(m[f"{layer}.self_share"] for layer in run.LAYERS) == pytest.approx(1.0)
