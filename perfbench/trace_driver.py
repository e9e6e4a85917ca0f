"""Traced in-process driver: spans around the calls into each ch2exact layer.

Usage: python trace_driver.py PLAN.json RESULT.json, with the program's
``src`` on PYTHONPATH.  PLAN.json lists CLI argument vectors, each with
an output directory for an untraced and a traced call.

The driver times ``import ch2exact.cli`` as its own span, before anything
else is imported.  It then finds the public functions of every
``ch2exact`` module (the names in ``__all__``, and ``main`` for the CLI)
and, for the traced call, replaces each one in every module namespace
that holds it.  A function that a later version renames or removes is
simply not wrapped, so it reports zero calls.

Each call records a span: name, request (item index), parent span, start,
end and self time, which is its duration minus that of its wrapped
children.  After LIMIT full spans of one name, further calls of that name
only add to (name, parent name) buckets, which keeps per-point functions
from filling memory while their counts and times stay exact.  Spans stay
in memory and are written to RESULT.json at the end.
"""

import sys
import time

_t0 = time.perf_counter()
_before = set(sys.modules)
import ch2exact.cli  # noqa: E402  (timed: this is the import span)
_t1 = time.perf_counter()
_loaded = set(sys.modules) - _before

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

LIMIT = 1000
ENTRY_POINTS = {"cli": ("main",)}


def _node_count(traj) -> int:
    """Accepted integration nodes of a returned trajectory, whatever its layout."""
    for attr in ("states", "_nodes", "s"):
        value = getattr(traj, attr, None)
        if value is not None:
            try:
                return len(value)
            except TypeError:
                continue
    return 0


RESULT_COUNTERS = {"emden.integrate": ("emden.integrate.nodes", _node_count)}


class Tracer:
    def __init__(self, origin: float):
        self.origin = origin
        self.request = None
        self.stack = []          # frames [name, child_time, span_id]
        self.spans = []          # (id, name, request, parent_id, start, end, self)
        self.buckets = {}        # (name, parent name) -> [count, total, self]
        self.full = {}           # name -> full spans recorded
        self.counters = {}
        self.next_id = 1

    def wrap(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, self._span_id(name)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._record(frame, parent, start, end)
            if counter is not None:
                key, measure = counter
                self.counters[key] = self.counters.get(key, 0) + measure(result)
            return result

        return traced

    def _span_id(self, name):
        n = self.full.get(name, 0)
        if n >= LIMIT:
            return None
        self.full[name] = n + 1
        self.next_id += 1
        return self.next_id - 1

    def _record(self, frame, parent, start, end):
        name, child_time, sid = frame
        dur = end - start
        if parent is not None:
            parent[1] += dur
        self_time = dur - child_time
        bucket = self.buckets.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += dur
        bucket[2] += self_time
        if sid is not None:
            self.spans.append((sid, name, self.request, parent[2] if parent else None,
                               start - self.origin, end - self.origin, self_time))


def public_functions():
    """{qualified name: function} for every ch2exact module's public functions."""
    found = {}
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("ch2exact.") or mod is None:
            continue
        layer = modname.split(".", 1)[1]
        names = ENTRY_POINTS.get(layer, getattr(mod, "__all__", ()))
        for attr in names:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == modname:
                found[f"{layer}.{attr}"] = fn
    return found


def patch(replacements):
    """Swap functions in every ch2exact namespace; returns the undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ch2exact" or modname.startswith("ch2exact.")):
            continue
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None and new[0] is value:
                setattr(mod, attr, new[1])
                undo.append((mod, attr, value))
    return undo


def run_main(argv):
    try:
        return ch2exact.cli.main(argv)
    except SystemExit as exc:           # argparse rejects its input
        return exc.code if isinstance(exc.code, int) else 1


def bytes_in(directory):
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


def main(plan_path, result_path):
    plan = json.loads(open(plan_path, encoding="utf-8").read())
    tracer = Tracer(_t0)
    functions = public_functions()
    replacements = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in functions.items()}
    items = []
    for req, entry in enumerate(plan):
        t = time.perf_counter()
        code_u = run_main(entry["argv"] + ["--out", entry["out_untraced"]])
        wall_u = time.perf_counter() - t
        undo = patch(replacements)
        tracer.request = req
        try:
            t = time.perf_counter()
            code_t = run_main(entry["argv"] + ["--out", entry["out_traced"]])
            wall_t = time.perf_counter() - t
        finally:
            for mod, attr, value in undo:
                setattr(mod, attr, value)
        items.append({"exit_untraced": code_u, "exit_traced": code_t,
                      "wall_untraced_s": wall_u, "wall_traced_s": wall_t,
                      "bytes_written": bytes_in(entry["out_traced"])})

    per_name = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in functions}
    for (name, _parent), (count, total, self_time) in tracer.buckets.items():
        per_name[name]["calls"] += count
        per_name[name]["total_s"] += total
        per_name[name]["self_s"] += self_time
    result = {
        "import": {"wall_s": _t1 - _t0, "modules_loaded": len(_loaded),
                   "scipy_modules": sum(1 for m in _loaded if m == "scipy" or m.startswith("scipy."))},
        "items": items,
        "functions": per_name,
        "buckets": [[n, p, c, t, s] for (n, p), (c, t, s) in sorted(
            tracer.buckets.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))],
        "counters": tracer.counters,
        "spans": tracer.spans,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
