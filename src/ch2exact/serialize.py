"""Deterministic text serialization for reports and tables.

Floats are rendered with 17 significant digits (round-trip exact for IEEE
doubles); both zeros are written as "0" and non-finite values are rejected.
CSV uses LF endings and UTF-8, and JSON is emitted by a small
writer so the float format is identical everywhere.  Reruns on identical
inputs are byte-identical.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "fmt_floats", "to_json", "write_csv", "write_text"]


def fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} must be handled by the caller")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def fmt_floats(values) -> list[str]:
    """``[fmt_float(v) for v in values]`` for a whole array, flattened in C order."""
    arr = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        fmt_float(float(arr[bad[0]]))  # raises fmt_float's ValueError
    # Adding +0.0 turns -0.0 into 0.0 and leaves every other value unchanged,
    # so "%.17g" writes both zeros as "0".
    return ["%.17g" % v for v in (arr + 0.0).tolist()]


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {k!r}")
            items.append(f"{_json_value(k)}: {_json_value(v)}")
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_pretty(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict) and obj:
        inner = ",\n".join(
            f'{pad}  {_json_value(k)}: {_json_pretty(v, indent + 1).lstrip()}'
            for k, v in obj.items()
        )
        return f"{pad}{{\n{inner}\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj and any(isinstance(v, (dict, list, tuple)) for v in obj):
        inner = ",\n".join(f"{pad}  {_json_pretty(v, indent + 1).lstrip()}" for v in obj)
        return f"{pad}[\n{inner}\n{pad}]"
    return pad + _json_value(obj)


def to_json(obj) -> str:
    """Render a report tree (dict/list/scalars) as deterministic JSON text."""
    return _json_pretty(obj) + "\n"


# Rows per write: a large table is never held as one string.
_CSV_BLOCK_ROWS = 8192


def _open_for_write(path: Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_text(path: Path, text: str) -> None:
    with _open_for_write(path) as fh:
        fh.write(text)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write pre-formatted string cells with LF endings, a block of rows at a time."""
    lines = map(",".join, itertools.chain([header], rows))
    with _open_for_write(path) as fh:
        while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")
