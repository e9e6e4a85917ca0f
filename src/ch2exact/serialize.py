"""Deterministic text serialization for reports and tables.

Floats are rendered with 17 significant digits (round-trip exact for IEEE
doubles); both zeros are written as "0" and non-finite values are rejected.
``fmt_float`` is the one definition of these rules.  CSV uses LF endings
and UTF-8, and JSON is emitted by a small writer so the float format is
identical everywhere.  In JSON a non-empty dict, and a list that holds a
dict or a list, put one entry per line two spaces deeper; every other list
stays on one line.  Reruns on identical inputs are byte-identical.

``write_csv`` takes whole columns.  A float column is formatted by an
exact integer route that gives ``fmt_float``'s bytes without a per-cell
Python call: for ``1e-11 <= |x| < 1e17`` the 17 digits are ``n =
round_half_even(|x| * 10**p)``, from the 53-bit significand times ``5**p``
as two uint64 limbs; other cells (zeros, other magnitudes, a ``log10``
decade estimate off by one) go to ``fmt_float``, once per distinct value.
Cells are fixed-width byte rows padded with 0xFF, which UTF-8 never
contains and which is dropped on writing.  A float cell is three
little-endian uint64 words, built by the same whole-block array operations
for every decade: byte 0 is the sign, bytes 1-5 the decade's prefix (``0.``
to ``0.000`` in [1e-4, 1)), bytes 6-23 the digits of ``n`` from a 4-digit
table with a '1' inserted where the point goes, so that padding trailing
zeros stops there; an XOR makes it the point, or padding if no digit
follows.  Exponent form shifts the words down 4 bytes for ``e-XX``.  The
words go straight into their slice of the CSV row block.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["Indexed", "NonFiniteValue", "fmt_float", "to_json", "write_csv", "write_text"]


class NonFiniteValue(ValueError, ArithmeticError):
    """A NaN or an infinity reached a writer: bad data, and a numerical failure upstream."""


def fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise NonFiniteValue(f"non-finite value {x} must be handled by the caller")
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


# ----------------------------------------------------------------------
# exact vectorised %.17g
# ----------------------------------------------------------------------

_CELL = 24  # len("-1.7976931348623157e+308"), the longest %.17g of a double
# Decades k handled by the integer route: p = 16 - k lies in [0, 27], so 5**p < 2**63.
_K_MIN, _K_MAX = -11, 16
# 5**p for p in [0, 27] as 32-bit halves.
_POW5_HI = np.array([5 ** p >> 32 for p in range(16 - _K_MIN + 1)], dtype=np.uint64)
_POW5_LO = np.array([5 ** p & 0xFFFFFFFF for p in range(16 - _K_MIN + 1)], dtype=np.uint64)
_TEN16, _TEN17 = np.uint64(10 ** 16), np.uint64(10 ** 17)


def _digit_table() -> np.ndarray:
    """uint64 entries whose low 4 bytes spell i in ASCII digits (zero-filled)
    for i < 10**4, and at 10**4 + i the same with trailing zeros as padding."""
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    d = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), axis=-1).reshape(-1, 4)
    trailing = d == ord("0")
    for j in (2, 1, 0):
        trailing[:, j] &= trailing[:, j + 1]
    stripped = np.where(trailing, 0xFF, d).astype(np.uint8)
    return np.concatenate([d, stripped]).view("<u4").ravel().astype(np.uint64)


_DIGITS4 = _digit_table()


def _decade_table() -> np.ndarray:
    """Rows q, word0, hole, shift, suffix of _float_cells' layout by decade."""
    columns = []
    for e in range(_K_MIN, _K_MAX + 2):  # _K_MAX + 1 only for rows _round17 rejects
        h = min(e + 1, 17) if e >= 0 else int(e < -4)  # digits before the point
        prefix = b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b""
        suffix = b"e-%02d" % -e if e < -4 else b""
        # With a prefix, byte 6 turns the '1' into padding: the point is in the prefix.
        word0 = b"\xff" + prefix.ljust(5, b"\xff") + (b"\xd1" if prefix else b"\0") + b"\0"
        columns.append((10 ** (17 - h), int.from_bytes(word0, "little"), 8 * (6 + h),
                        32 if suffix else 0, int.from_bytes(suffix, "little") << 32))
    return np.array(columns, dtype=np.uint64).T


_DECADES = _decade_table()


def _decade(ax: np.ndarray) -> np.ndarray:
    """floor(log10(ax)): the true decade or one off near a power of ten."""
    return np.floor(np.log10(ax)).astype(np.int64)


def _round17(ax: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, ok): n = round_half_even(ax * 10**(16 - k)), exact where ok: where k is
    the decade of ax or n carries into the next (10**16 <= product, n <= 10**17)."""
    frac, e2 = np.frexp(ax)
    m = (frac * 2.0 ** 53).astype(np.uint64)  # ax = m * 2**(e2 - 53)
    p = 16 - k
    # m * 5**p = hi * 2**64 + lo, from 32-bit halves (m < 2**53, 5**p < 2**63).
    m1, m0, q1, q0 = m >> 32, m & 0xFFFFFFFF, _POW5_HI.take(p), _POW5_LO.take(p)
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


def _finite(values) -> np.ndarray:
    """values as a flat float array; fmt_float's NonFiniteValue on the first non-finite one."""
    x = np.asarray(values, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        fmt_float(float(x[bad[0]]))  # raises
    return x


def _text_cells(texts, width: int | None = None) -> np.ndarray:
    """(len(texts), width) uint8 rows of the UTF-8 texts, 0xFF-padded."""
    data = [t.encode("utf-8") for t in texts]
    if width is None:
        width = max([1, *map(len, data)])  # a void record needs a byte
    buf = b"".join(d.ljust(width, b"\xff") for d in data)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(data), width)


def _float_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out, its rows set to fmt_float(v) for each v of the flat finite array x
    in the module docstring's layout; (x.size, 24) uint8, rows may be apart."""
    ax = np.abs(x)
    inside = (ax >= 1e-11) & (ax < 1e17)
    ax = np.where(inside, ax, 1.0)
    k = np.clip(_decade(ax), _K_MIN, _K_MAX)
    n, ok = _round17(ax, k)
    ok &= inside
    carry = n == _TEN17
    n -= carry * (_TEN17 - _TEN16)
    q, word0, hole, shift, suffix = _DECADES.take(k + carry - _K_MIN, axis=1)
    # The '1' after h digits: with q = 10**(17 - h), whole + frac -> whole * 10 + q + frac.
    whole = n // q * q
    frac = n - whole
    n = whole * 10 + q + frac
    # Blocks lead (2 characters), b1..b4 (4 each); // by a constant beats % or divmod.
    lead = n // 10 ** 16
    n -= lead * 10 ** 16
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    b1, b3 = hi // 10 ** 4, lo // 10 ** 4
    b2, b4 = hi - b1 * 10 ** 4, lo - b3 * 10 ** 4
    # A block followed only by zero blocks takes the table's padded half.
    z4 = b4 == 0
    z3 = z4 & (b3 == 0)
    z2 = z3 & (b2 == 0)
    strip, digits = np.uint64(10_000), _DIGITS4.take
    w0 = word0 ^ (digits(lead) & 0xFFFF0000) << 32
    w1 = digits(b1 + strip * z2) | digits(b2 + strip * z3) << 32
    w2 = digits(b3 + strip * z4) | digits(b4 + strip) << 32
    # '1' ^ 0x1F is '.', '1' ^ 0xCE is padding.  numpy shifts by 64 or more give 0.
    dot = np.where(frac == 0, np.uint64(0xCE), np.uint64(0x1F))
    w0 ^= dot << hole
    w1 ^= dot << (hole - 64)
    w2 ^= dot << (hole - 128)
    words = out.view("<u8")
    np.bitwise_or(w2 >> shift, suffix, out=words[:, 2])
    np.bitwise_or(w1 >> shift, w2 << (64 - shift), out=words[:, 1])
    sign = (x < 0) * np.uint64(0xFF ^ ord("-"))
    np.bitwise_xor((w0 >> shift) | (w1 << (64 - shift)), sign, out=words[:, 0])
    # Every other cell: fmt_float once per distinct bit pattern.
    rest = np.flatnonzero(~ok)
    if rest.size:
        bits, inverse = np.unique(x[rest].view(np.uint64), return_inverse=True)
        texts = [fmt_float(v) for v in bits.view(np.float64).tolist()]
        out[rest] = _text_cells(texts, _CELL)[inverse]
    return out


def _cells(values) -> np.ndarray:
    """(n, width) uint8 cells of a float array or a sequence of str."""
    if not isinstance(values, np.ndarray):
        return _text_cells(values)
    x = _finite(values)
    return _float_cells(x, np.empty((x.size, _CELL), dtype=np.uint8))


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------

def _json(obj, pad: str) -> str:
    """obj as JSON text whose inner lines start with pad."""
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
    inner = pad + "  "
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {k!r}")
        entries, ends = [f"{_json(k, inner)}: {_json(v, inner)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        entries, ends = [_json(v, inner) for v in obj], "[]"
        if not any(isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(entries) + "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not entries:
        return ends
    return ends[0] + "\n" + inner + f",\n{inner}".join(entries) + "\n" + pad + ends[1]


def to_json(obj) -> str:
    """Render a report tree (dict/list/scalars) as deterministic JSON text."""
    return _json(obj, "") + "\n"


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
    """(rows, width, write) of a write_csv column: write(r0, r1, out) puts its
    rows r0..r1 into out, their (r1 - r0, width) uint8 slice of the row block."""
    if isinstance(column, np.ndarray):
        x = _finite(column)
        return x.size, _CELL, lambda r0, r1, out: _float_cells(x[r0:r1], out)
    if not isinstance(column, Indexed):
        column = Indexed(column, np.arange(len(column)))
    cells, index = _cells(column.values), np.asarray(column.index, dtype=np.intp)
    # One void record per cell, so that a gather moves whole cells.
    record = np.dtype((np.void, cells.shape[1]))
    cells = cells.view(record)[:, 0]
    return len(index), record.itemsize, lambda r0, r1, out: np.copyto(
        out.view(record)[:, 0], cells.take(index[r0:r1]))


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
    raises fmt_float's NonFiniteValue and leaves no file.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    cols = [_column(c) for c in columns]
    lengths = {rows for rows, _, _ in cols}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    width = sum(w + 1 for _, w, _ in cols)
    # One row block, commas and newlines in place, is reused for every block.
    block = np.empty((min(n_rows, _CSV_BLOCK_ROWS), width), dtype=np.uint8)
    ends = np.cumsum([w + 1 for _, w, _ in cols], dtype=np.intp) - 1
    block[:, ends] = ord(",")
    block[:, ends[-1:]] = ord("\n")
    with _open_for_write(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for r0 in range(0, n_rows, _CSV_BLOCK_ROWS):
            rows = block[:min(n_rows - r0, _CSV_BLOCK_ROWS)]
            for (_, w, write), end in zip(cols, ends):
                write(r0, r0 + len(rows), rows[:, end - w:end])
            fh.write(rows.tobytes().translate(None, b"\xff"))
