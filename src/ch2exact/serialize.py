"""Deterministic text serialization for reports and tables.

Floats are rendered with 17 significant digits (round-trip exact for IEEE
doubles); both zeros are written as "0" and non-finite values are rejected.
``fmt_float`` is the one definition of these rules.  CSV uses LF endings
and UTF-8, and JSON is emitted by a small writer so the float format is
identical everywhere.  Reruns on identical inputs are byte-identical.

``write_csv`` takes whole columns.  A float column is formatted by an
exact integer route that gives ``fmt_float``'s bytes without a per-cell
Python call: for ``1e-11 <= |x| < 1e17`` the 17 digits are
``round_half_even(|x| * 10**p)``, computed from the 53-bit significand times
``5**p`` as two uint64 limbs and shifted by the binary exponent.  Every
other cell (both zeros, magnitudes outside that range, a cell whose
``log10`` decade estimate is off by one and does not round onto a power of
ten) goes to ``fmt_float`` itself, once per distinct value.  Cells are
fixed-width byte rows padded with 0xFF, a byte that UTF-8 never contains,
and the padding is dropped as the rows are written.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["Indexed", "fmt_float", "fmt_floats", "to_json", "write_csv", "write_text"]


def fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} must be handled by the caller")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


# ----------------------------------------------------------------------
# exact vectorised %.17g
# ----------------------------------------------------------------------

_PAD = 0xFF
_CELL = 24  # len("-1.7976931348623157e+308"), the longest %.17g of a double
# Decades k handled by the integer route: p = 16 - k lies in [0, 27], so 5**p < 2**63.
_K_MIN, _K_MAX = -11, 16
# 5**p for p in [0, 27] as 32-bit halves.
_POW5_HI = np.array([5 ** p >> 32 for p in range(16 - _K_MIN + 1)], dtype=np.uint64)
_POW5_LO = np.array([5 ** p & 0xFFFFFFFF for p in range(16 - _K_MIN + 1)], dtype=np.uint64)
_TEN16, _TEN17 = np.uint64(10 ** 16), np.uint64(10 ** 17)
_LOW32 = np.uint64(0xFFFFFFFF)


def _digit_table() -> np.ndarray:
    """uint32 entries whose 4 bytes spell i in ASCII digits (zero-filled) for
    i < 10**4, and at 10**4 + i the same with trailing zeros as padding."""
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    d = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = d == ord("0")
    for j in (2, 1, 0):
        trailing[:, j] &= trailing[:, j + 1]
    stripped = np.where(trailing, _PAD, d).astype(np.uint8)
    return np.concatenate([d, stripped]).view(np.uint32).ravel()


_DIGITS4 = _digit_table()


def _decade(ax: np.ndarray) -> np.ndarray:
    """floor(log10(ax)): the true decade or one off near a power of ten."""
    return np.floor(np.log10(ax)).astype(np.int64)


def _round17(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, ok): n = round_half_even(ax * 10**(16 - k)) exactly where ok.

    ok holds where the product is at least 10**16 before rounding and at
    most 10**17 after it, i.e. where k is the decade of ax or n carries
    into the next one.
    """
    frac, e2 = np.frexp(ax)
    m = (frac * 2.0 ** 53).astype(np.uint64)  # ax = m * 2**(e2 - 53)
    p = 16 - k
    # m * 5**p = hi * 2**64 + lo, from 32-bit halves (m < 2**53, 5**p < 2**63).
    m1, m0, q1, q0 = m >> 32, m & _LOW32, _POW5_HI[p], _POW5_LO[p]
    mid = m0 * q1 + m1 * q0
    mid_lo = mid << 32
    lo = m0 * q0 + mid_lo
    hi = m1 * q1 + (mid >> 32) + (lo < mid_lo)
    # ax * 10**p = (hi, lo) * 2**-r: shift right by r, or left by -r.
    r = 53 - p - e2
    rs = np.clip(r, 0, 63).astype(np.uint64)
    n = ((lo >> rs) | ((hi << (63 - rs)) << 1)) << np.clip(-r, 0, 63).astype(np.uint64)
    twice_rem = (lo & ((1 << rs) - 1)) << 1  # the remainder lies in lo for r <= 63
    full = 1 << rs
    up = (twice_rem > full) | ((twice_rem == full) & ((n & 1) == 1))
    ok = (r <= 63) & (n >= _TEN16)
    n = n + up
    return n, ok & (n <= _TEN17)


def _layout(e: int) -> tuple[bytes, int, bytes, bytes]:
    """(prefix, h, mid, suffix) of decade e: a cell after its sign is
    prefix, digits[:h], '.', mid, digits[h:], suffix."""
    if e >= 0:
        return b"", e + 1, b"", b""
    if e >= -4:
        return b"0", 0, b"0" * (-e - 1), b""
    return b"", 1, b"", b"e-%02d" % -e


def _finite(values) -> np.ndarray:
    """values as a flat float array; fmt_float's ValueError on the first non-finite one."""
    x = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        fmt_float(float(x[bad[0]]))  # raises
    return x


def _text_cells(texts, width: int | None = None) -> np.ndarray:
    """(len(texts), width) uint8 rows of the UTF-8 texts, 0xFF-padded."""
    data = [t.encode("utf-8") for t in texts]
    if width is None:
        width = max(map(len, data), default=0)
    buf = b"".join(d.ljust(width, b"\xff") for d in data)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(data), width)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """(x.size, 24) uint8 rows of fmt_float(v) for a flat finite array x.

    0xFF marks unused bytes, which may sit inside a cell: a positive sign,
    dropped trailing zeros, a decimal point with no digits after it.
    """
    cells = np.empty((x.size, _CELL), dtype=np.uint8)
    ax = np.abs(x)
    rows = np.flatnonzero((ax >= 1e-11) & (ax < 1e17))
    k = np.clip(_decade(ax[rows]), _K_MIN, _K_MAX)
    n, ok = _round17(ax[rows], k)
    rows, n, k = rows[ok], n[ok], k[ok]
    carry = n == _TEN17
    n[carry] = _TEN16
    k += carry

    # Sorted by decade, each decade's cells are one slice with one layout.
    order = np.argsort(k.astype(np.int8), kind="stable")
    rows, n, k = rows[order], n[order], k[order]
    # n in 4-digit blocks lead, b1, b2, b3, b4 (numpy's // by a constant is
    # several times faster than its % or divmod).
    hi = n // 10 ** 8
    lead, b34 = hi // 10 ** 8, n - hi * 10 ** 8
    b12 = hi - lead * 10 ** 8
    b1, b3 = b12 // 10 ** 4, b34 // 10 ** 4
    b2, b4 = b12 - b1 * 10 ** 4, b34 - b3 * 10 ** 4
    # digits: the 17 digits of n.  sig: the same with the trailing zeros as
    # padding, from the table's second half for a 4-digit block followed
    # only by zero blocks.
    z4 = b4 == 0
    z3 = z4 & (b3 == 0)
    z2 = z3 & (b2 == 0)
    strip = np.uint64(10_000)
    index = np.stack([
        lead, b1, b2, b3, b4,
        lead + strip * (z2 & (b1 == 0)), b1 + strip * z2, b2 + strip * z3, b3 + strip * z4, b4 + strip,
    ], axis=1, dtype=np.intp, casting="unsafe")
    table = np.take(_DIGITS4, index).view(np.uint8)
    digits, sig = table[:, 3:20], table[:, 23:40]

    out = np.full((rows.size, _CELL), _PAD, dtype=np.uint8)
    out[x[rows] < 0, 0] = ord("-")
    bounds = (np.flatnonzero(np.diff(k)) + 1).tolist()
    for s, e in zip([0] + bounds, bounds + [rows.size]) if rows.size else ():
        prefix, h, mid, suffix = _layout(int(k[s]))
        # Digits before the point are kept; after it, the point goes with
        # the trailing zeros when no digit is left.
        dot = np.where(sig[s:e, h:h + 1] != _PAD, ord("."), _PAD)
        col = 1
        for piece in (prefix, digits[s:e, :h], dot, mid, sig[s:e, h:], suffix):
            if isinstance(piece, bytes):
                piece = np.frombuffer(piece, dtype=np.uint8)
            if piece.shape[-1]:
                out[s:e, col:col + piece.shape[-1]] = piece
                col += piece.shape[-1]
    cells[rows] = out

    # Every other cell: fmt_float once per distinct bit pattern.
    rest_rows = np.ones(x.size, dtype=bool)
    rest_rows[rows] = False
    rest_rows = np.flatnonzero(rest_rows)
    if rest_rows.size:
        bits, inverse = np.unique(x[rest_rows].view(np.uint64), return_inverse=True)
        texts = [fmt_float(v) for v in bits.view(np.float64).tolist()]
        cells[rest_rows] = _text_cells(texts, _CELL)[inverse]
    return cells


def fmt_floats(values) -> list[str]:
    """``[fmt_float(v) for v in values]`` for a whole array, flattened in C order."""
    cells = _float_cells(_finite(values))
    return [c.translate(None, b"\xff").decode("ascii") for c in map(bytes, cells)]


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------

# Rows per write: a large table is never held as one byte matrix.
_CSV_BLOCK_ROWS = 8192


class Indexed:
    """A CSV column whose row i holds values[int(index[i])]; each value is formatted once."""

    __slots__ = ("values", "index")

    def __init__(self, values, index):
        self.values = values  # a float ndarray or a sequence of str
        self.index = index


def _column(column):
    """(rows, width, cells_of) of a write_csv column: cells_of(r0, r1) gives
    rows r0..r1 as (r1 - r0, width) uint8 cells."""
    if isinstance(column, Indexed):
        values, index = column.values, np.asarray(column.index, dtype=np.intp)
        cells = _float_cells(_finite(values)) if isinstance(values, np.ndarray) else _text_cells(values)
        return len(index), cells.shape[1], lambda r0, r1: cells[index[r0:r1]]
    if isinstance(column, np.ndarray):
        x = _finite(column)
        return x.size, _CELL, lambda r0, r1: _float_cells(x[r0:r1])
    cells = _text_cells(column)
    return len(cells), cells.shape[1], lambda r0, r1: cells[r0:r1]


def _open_for_write(path: Path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


def write_text(path: Path, text: str) -> None:
    with _open_for_write(path) as fh:
        fh.write(text.encode("utf-8"))


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write a table given column by column, with LF endings.

    A column is a float ndarray (formatted as fmt_float does, flattened in
    C order), a sequence of str (written as UTF-8), or an ``Indexed`` of
    either.  Float cells are formatted a block of rows at a time, but every
    float column is checked before the file is opened: a non-finite value
    raises fmt_float's ValueError and leaves no file.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    cols = [_column(c) for c in columns]
    lengths = {rows for rows, _, _ in cols}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    width = sum(w + 1 for _, w, _ in cols)
    with _open_for_write(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for r0 in range(0, n_rows, _CSV_BLOCK_ROWS):
            r1 = min(r0 + _CSV_BLOCK_ROWS, n_rows)
            block = np.empty((r1 - r0, width), dtype=np.uint8)
            col = 0
            for _, w, cells_of in cols:
                block[:, col:col + w] = cells_of(r0, r1)
                block[:, col + w] = ord(",")
                col += w + 1
            block[:, -1] = ord("\n")
            fh.write(block.tobytes().translate(None, b"\xff"))
