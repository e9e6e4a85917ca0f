#!/usr/bin/env python3
"""ch2exact benchmark: fresh CLI processes, drift-normalised, oracle-checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-cli --seed 1 --seconds 30 --trace 0

Workloads (see cases.py for the generator and README.md for the reasons):

    verify-cli      one `verify` per item, every 8th with --seed-corrupt u=1.01
    construct-grid  one `construct --grid 401,401` per item
    sweep-batch     one `sweep` over a 200-case config per item

With --trace 0 the benchmark times each item as a fresh process
(`PYTHONPATH=src python -m ch2exact.cli ...`), one at a time, and reports
the end-to-end metrics.  A run times a fixed number of items, as many as
fill --seconds at the nominal pace of NOMINAL_CYCLE_S, so the same seed
always attempts the same items and gets the same verdicts.  A fixed reference process
(reference.py) runs between consecutive items; every time is normalised
as raw * R_nom / R_adj, with R_adj the mean of the two references next to
the item and R_nom the reference's nominal time in nominal.json.  A
warm-up reference and `import ch2exact.cli` probe, untimed, open every
run on every commit.  Timings cover the commands that ran to a verdict
(exit 0 or 3); a command that stops at an error (exit 1 or 2) counts as
attempted and failed but not in the timings.

With --trace 1 a fixed number of items runs in one traced process
(trace_driver.py) and the per-layer metrics are reported.

Every item's output is judged by oracles.py.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}: attempted and
failed count work units (cases verified, grids written, sweep cases),
failed being those the oracles reject.  correct is false, and the exit
code 1, only when an oracle itself crashes.  A full run record (provenance,
the per-item drift log, raw and normalised values, spans) is written to
.perfbench/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import oracles
from cases import WORKLOADS, Item, item as make_item

HERE = Path(__file__).resolve().parent
NOMINAL = json.loads((HERE / "nominal.json").read_text(encoding="utf-8"))
COMPLETED = (0, 3)     # the CLI's exit codes for pass and for a failed check
SETUP_PROBES = 3
# seconds per timed item (command, reference and oracle) on the host of
# the steadiness table in README.md
NOMINAL_CYCLE_S = {"verify-cli": 1.6, "construct-grid": 4.0, "sweep-batch": 4.2}
TRACE_ITEMS = {"verify-cli": 16, "construct-grid": 4, "sweep-batch": 2}
TAIL_BEYOND = 10
RUN_DEADLINE_S = 170.0
LAYERS = ("import", "cli", "emden", "selfsim", "verify", "serialize")

class OracleCrash(RuntimeError):
    """An oracle raised instead of returning a verdict."""


# ----------------------------------------------------------------------
# normaliser and statistics
# ----------------------------------------------------------------------

def item_count(workload: str, seconds: int) -> int:
    """Items in a timed run: as many as fill --seconds at the nominal pace.

    The count depends on nothing measured, so a seed always runs the same
    items and the oracles reject the same ones, however fast the host is.
    """
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def normalise(raw: float, ref_before: float, ref_after: float, nominal: float) -> float:
    """raw * R_nom / R_adj, R_adj being the mean of the two neighbouring references."""
    return raw * nominal / (0.5 * (ref_before + ref_after))


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the tail latency.

    The highest order statistic with TAIL_BEYOND samples above it.  With
    fewer than 2 * TAIL_BEYOND + 1 samples that statistic would not lie
    above the median, and the p90 interpolated between order statistics
    is reported instead: over eight or so items the maximum is one
    sample and swings with it.
    """
    v = sorted(values)
    n = len(v)
    if n > 2 * TAIL_BEYOND:
        return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    if n == 1:
        return v[0], 100.0, n
    return statistics.quantiles(v, n=10, method="inclusive")[-1], 90.0, n


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stderr_tail: str = ""


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> Proc:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    reaped = {}
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def reap():
            reaped["wait"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(timeout, 1.0))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    _, status, usage = reaped["wait"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail_text = log.read_bytes()[-300:].decode("utf-8", "replace").strip()
    return Proc(reaped["end"] - start, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode, tail_text)


@dataclass
class Record:
    """One item of the drift log."""

    index: int
    sha256: str
    units: int
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_before: tuple[float, float]   # (wall, cpu) of the reference before
    ref_after: tuple[float, float]
    wall_norm_s: float
    cpu_norm_s: float
    rejected: int
    reasons: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.py = sys.executable
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.refs: list[Proc] = []

    def _timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def reference(self) -> Proc:
        r = run_child([self.py, str(HERE / "reference.py")], self.env,
                      self.work / "ref.err", self._timeout())
        if r.exit_code != 0:
            raise RuntimeError(f"reference process failed: {r.stderr_tail}")
        self.refs.append(r)
        return r

    def probe(self) -> Proc:
        p = run_child([self.py, "-c", "import ch2exact.cli"], self.env,
                      self.work / "probe.err", self._timeout())
        if p.exit_code != 0:
            raise RuntimeError(f"import ch2exact.cli failed: {p.stderr_tail}")
        return p

    def write_config(self, it: Item) -> Path:
        path = self.work / "cfg" / f"{it.index}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(it.config, encoding="utf-8")
        return path

    def cli_args(self, it: Item) -> list[str]:
        return [WORKLOADS[self.workload], "--config", str(self.write_config(it)), *it.flags]

    # -- oracles ---------------------------------------------------------

    def judge(self, it: Item, exit_code: int, out: Path, previous: bytes | None):
        """(reasons for rejected units, output bytes kept for a repeat check)."""
        def read(name):
            p = out / name
            return p.read_bytes() if p.is_file() else None

        try:
            if self.workload == "sweep-batch":
                data = read("sweep.csv")
                verdicts = oracles.check_sweep(it, None if data is None else data.decode("utf-8", "replace"))
                return [f"case {i}: {r}" for i, r in enumerate(verdicts) if r], None
            if self.workload == "verify-cli":
                data = read("verify.json")
                reason = oracles.check_verify(it, exit_code, None if data is None else data.decode("utf-8", "replace"))
                return [reason] if reason else [], None
            data = read("construct.csv")
            reason = oracles.check_construct(it, data, previous)
            if reason is None and exit_code != 0:
                reason = f"exit {exit_code}"
            return [reason] if reason else [], data
        except Exception as exc:
            raise OracleCrash(f"oracle crashed on item {it.index}") from exc

    # -- timed run -------------------------------------------------------

    def timed(self) -> dict:
        self.reference()                  # warm-up: page cache and .pyc files
        self.probe()
        probes = []
        before = self.reference()
        for _ in range(SETUP_PROBES):
            p = self.probe()
            after = self.reference()
            probes.append((p, before, after))
            before = after

        records: list[Record] = []
        previous = None
        for k in range(item_count(self.workload, self.seconds)):
            if self._timeout() <= 0:
                raise RuntimeError(f"run passed {RUN_DEADLINE_S:.0f} s after {k} items")
            it = make_item(self.workload, self.seed, k)
            out = self.work / "out" / str(k)
            out.mkdir(parents=True)
            argv = [self.py, "-m", "ch2exact.cli", *self.cli_args(it), "--out", str(out)]
            p = run_child(argv, self.env, self.work / "item.err", self._timeout())
            after = self.reference()
            reasons, data = self.judge(it, p.exit_code, out, previous)
            if p.exit_code not in COMPLETED:
                first = reasons[0] if reasons else "output accepted"
                reasons[:1] = [f"{first} (exit {p.exit_code}: {p.stderr_tail})"]
            previous = data
            shutil.rmtree(out)
            records.append(Record(
                k, it.sha256, it.units, p.exit_code, p.wall_s, p.cpu_s, p.rss_mb,
                (before.wall_s, before.cpu_s), (after.wall_s, after.cpu_s),
                normalise(p.wall_s, before.wall_s, after.wall_s, NOMINAL["wall_s"]),
                normalise(p.cpu_s, before.cpu_s, after.cpu_s, NOMINAL["cpu_s"]),
                len(reasons), reasons[:3]))
            before = after
        return self._timed_metrics(records, probes)

    def _timed_metrics(self, records: list[Record], probes) -> dict:
        timed = [r for r in records if r.exit_code in COMPLETED] or records
        setup_norm = [normalise(p.wall_s, b.wall_s, a.wall_s, NOMINAL["wall_s"]) for p, b, a in probes]

        def summary(wall, cpu, setup):
            tail_v, tail_p, n = tail(wall)
            return {
                "latency_p50_s": statistics.median(wall),
                "latency_tail_s": tail_v,
                "items_per_s": sum(r.units for r in timed) / sum(wall),
                "cpu_per_item_s": statistics.median(cpu),
                "peak_rss_mb": max(r.rss_mb for r in records),
                "setup_s": statistics.median(setup),
                "fail_frac": sum(r.rejected for r in records) / sum(r.units for r in records),
            }, {"percentile": tail_p, "samples": n}

        metrics, tail_info = summary([r.wall_norm_s for r in timed], [r.cpu_norm_s for r in timed],
                                     setup_norm)
        raw, _ = summary([r.wall_s for r in timed], [r.cpu_s for r in timed],
                         [p.wall_s for p, _, _ in probes])
        return {
            "metrics": metrics,
            "raw_metrics": raw,
            "config_sha256": sorted({r.sha256 for r in records}),
            "tail": tail_info,
            "attempted": sum(r.units for r in records),
            "failed": sum(r.rejected for r in records),
            "setup_probes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "ref_before_s": b.wall_s,
                              "ref_after_s": a.wall_s} for p, b, a in probes],
            "references": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s} for r in self.refs],
            "items": [asdict(r) for r in records],
        }

    # -- traced run ------------------------------------------------------

    def traced(self) -> dict:
        items = [make_item(self.workload, self.seed, k) for k in range(TRACE_ITEMS[self.workload])]
        plan = []
        for it in items:
            outs = [self.work / "trace" / str(it.index) / side for side in ("untraced", "traced")]
            for o in outs:
                o.mkdir(parents=True)
            plan.append({"argv": self.cli_args(it), "out_untraced": str(outs[0]),
                         "out_traced": str(outs[1])})
        plan_path, result_path = self.work / "plan.json", self.work / "trace.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        p = run_child([self.py, str(HERE / "trace_driver.py"), str(plan_path), str(result_path)],
                      self.env, self.work / "trace.err", self._timeout())
        if p.exit_code != 0:
            raise RuntimeError(f"trace driver failed: {p.stderr_tail}")
        tr = json.loads(result_path.read_text(encoding="utf-8"))

        attempted = failed = 0
        for it, entry, res in zip(items, plan, tr["items"]):
            traced_out, untraced_out = Path(entry["out_traced"]), Path(entry["out_untraced"])
            reasons, _ = self.judge(it, res["exit_traced"], traced_out, None)
            if _dir_bytes(traced_out) != _dir_bytes(untraced_out) or \
                    res["exit_traced"] != res["exit_untraced"]:
                reasons = reasons or ["traced output differs from the untraced run"]
            attempted += it.units
            failed += len(reasons)
        return {"metrics": per_layer_metrics(tr), "attempted": attempted, "failed": failed,
                "config_sha256": [it.sha256 for it in items], "trace": tr}


def _dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def per_layer_metrics(tr: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a trace_driver result."""
    fn = tr["functions"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def self_s(name):
        return fn.get(name, {}).get("self_s", 0.0)

    m = {
        "import.modules_loaded": tr["import"]["modules_loaded"],
        "import.scipy_modules": tr["import"]["scipy_modules"],
        "emden.integrate.calls": calls("emden.integrate"),
        "emden.integrate.self_s": self_s("emden.integrate"),
        "emden.integrate.nodes": tr["counters"].get("emden.integrate.nodes", 0),
        "emden.analyze.calls": calls("emden.analyze"),
        "emden.collapse_time_quadrature.calls": calls("emden.collapse_time_quadrature"),
        "emden.collapse_time_quadrature.self_s": self_s("emden.collapse_time_quadrature"),
        "emden.orbit_time_integral.calls": calls("emden.orbit_time_integral"),
        "selfsim.profile.calls": calls("selfsim.profile"),
        "selfsim.profile.self_s": self_s("selfsim.profile"),
        "selfsim.density.calls": calls("selfsim.density"),
        "selfsim.density.self_s": self_s("selfsim.density"),
    }
    for name in ("residual_mass_eq", "residual_momentum_eq", "mass_conservation",
                 "blowup_rate", "origin_decay"):
        m[f"verify.{name}.self_s"] = self_s(f"verify.{name}")
    mass_calls = calls("verify.mass")
    density_in_mass = sum(c for n, parent, c, _, _ in tr["buckets"]
                          if n == "selfsim.density" and parent == "verify.mass")
    m.update({
        "verify.mass.calls": mass_calls,
        "verify.mass.self_s": self_s("verify.mass"),
        "verify.mass.density_per_call": density_in_mass / mass_calls if mass_calls else 0.0,
        "serialize.fmt_float.calls": calls("serialize.fmt_float"),
        "serialize.fmt_float.self_s": self_s("serialize.fmt_float"),
        "serialize.write_csv.self_s": self_s("serialize.write_csv"),
        "serialize.to_json.self_s": self_s("serialize.to_json"),
        "serialize.bytes_written": sum(i["bytes_written"] for i in tr["items"]),
        "cli.main.self_s": self_s("cli.main"),
    })
    wall_traced = sum(i["wall_traced_s"] for i in tr["items"])
    total = tr["import"]["wall_s"] + wall_traced
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_self["import"] = tr["import"]["wall_s"]
    for name, v in fn.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += v["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / total
    m["trace.overhead"] = wall_traced / sum(i["wall_untraced_s"] for i in tr["items"]) - 1.0
    m["trace.items"] = len(tr["items"])
    return m


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def provenance(args, workload: str) -> dict:
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "R_nom": NOMINAL,
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ch2exact benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ch2exact" / "cli.py").is_file():
        print(f"no program to measure: {root / 'src' / 'ch2exact'} is missing "
              "(run from the root of a ch2exact checkout)", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, args.seconds)
    bench.work.mkdir(parents=True)
    crashed = False
    try:
        result = bench.traced() if args.trace else bench.timed()
    except OracleCrash:
        traceback.print_exc()
        crashed = True
        result = None
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if crashed:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    declared = declared_metrics(args.trace)
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"provenance": provenance(args, args.workload), **result}
    runs = root / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print_report(record, record_path)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def print_report(record: dict, record_path: Path) -> None:
    prov = record["provenance"]
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items() if k != "R_nom")
          + f" R_nom={prov['R_nom']['wall_s']}s/{prov['R_nom']['cpu_s']}s(cpu)")
    for sha in record["config_sha256"]:
        print(f"# config sha256 {sha}")
    if "items" in record:
        print("# item exit  wall_s   cpu_s  ref_before_s ref_after_s  wall_norm_s cpu_norm_s rejected")
        for r in record["items"]:
            print(f"  {r['index']:4d} {r['exit_code']:4d} {r['wall_s']:7.3f} {r['cpu_s']:7.3f} "
                  f"{r['ref_before'][0]:12.3f} {r['ref_after'][0]:11.3f} {r['wall_norm_s']:12.3f} "
                  f"{r['cpu_norm_s']:10.3f} {r['rejected']:8d}")
        t = record["tail"]
        print(f"# latency_tail_s is p{t['percentile']:.1f} of {t['samples']} timed items")
        for name, v in record["raw_metrics"].items():
            print(f"raw {name} = {v:.6g}")
    # fail_frac is printed and recorded but not declared: see README.md
    units = {m["name"]: m["unit"] for m in declared_metrics(record["provenance"]["trace"])}
    units["fail_frac"] = "ratio"
    for name, v in record["metrics"].items():
        print(f"{name} = {v if isinstance(v, int) else format(v, '.6g')} {units[name]}")
    print(f"# run record: {record_path}")


if __name__ == "__main__":
    sys.exit(main())
