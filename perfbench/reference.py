"""Fixed reference process, timed next to every benchmark item.

It touches nothing of the program.  Like a command of the program it
starts the interpreter and imports stdlib modules and numpy from disk.
Its loop has the shape of the program's hot paths: a per-point pure-Python
loop over numpy scalars that formats every value with 17 digits into a
large list of rows (as `construct` does), many tiny-array numpy steps (as
adaptive integration does) and a few vector operations.  Host speed drift
that slows the program slows it too.  Its work never changes: the
benchmark divides item times by its time (see run.py).
"""

import argparse  # noqa: F401  (imported for its start-up cost)
import csv  # noqa: F401
import dataclasses  # noqa: F401
import enum  # noqa: F401
import json

import numpy as np


def main() -> None:
    rows = []
    xs = np.linspace(-1.0, 1.0, 401)
    for t in np.linspace(0.0, 1.0, 100):
        c = float(np.cbrt(1.0 + t))
        for x in xs:
            e = x / c
            f = float(np.sqrt(max(1.0 - e * e, 0.0))) / c
            rows.append([f"{t:.17g}", f"{x:.17g}", f"{f:.17g}", f"{e:.17g}"])
    text = "\n".join(",".join(r) for r in rows)

    y = np.array([1.0, 0.0])
    for _ in range(3000):
        y = y + 1e-3 * np.array([y[1], -y[0] / np.cbrt(1.0 + y[0] * y[0])])

    x = np.linspace(-1.0, 1.0, 20_001)
    acc = float(y.sum())
    for k in range(100):
        acc += float((np.sqrt(np.maximum(1.0 - x * x, 0.0)) / np.cbrt(1.0 + k))[::97].sum())
    json.dumps({"acc": acc, "n": len(text)})


if __name__ == "__main__":
    main()
