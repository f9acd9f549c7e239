"""CSV reading and writing for curve points, surface grids and report tables.

Curve files carry ``x,y`` or ``x,y,z`` columns; surface files use the long
format ``row,col,x,y,z`` and must cover the full grid. Every table, these
files and the report bundles' alike, is written by :func:`write_csv` from a
:class:`Table` of float and integer columns. A float column is written as
``'%.17g' % v``, 17 significant digits, so a save/load round trip is
bit-exact; an integer column in decimal. numpy formats a chunk of rows at a
time: the digits of a float are computed exactly when 1e-6 <= |x| < 1e17,
and every other value (zero, subnormal, non-finite, out of that range)
falls back to Python's own formatting, so every double is written as ``%``
writes it.
"""

from __future__ import annotations

import csv
import functools
import io
import math

import numpy as np

from .errors import IncompleteGrid, ParseError


def _require_finite(path, lineno: int, values) -> None:
    # float() accepts "nan" and "inf"; such a value would otherwise surface
    # only deep inside parametrization, without a line number.
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{path}: line {lineno}: non-finite value")


def save_points(path, points) -> None:
    """Write curve points as a CSV with an x,y(,z) header."""
    pts = np.asarray(points, dtype=float)
    write_csv(path, ["x", "y", "z"][: pts.shape[1]], Table(*pts.T))


def load_points(path) -> np.ndarray:
    """Read curve points written by :func:`save_points`."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        width = len(header)
        if header[: 2] != ["x", "y"] or width not in (2, 3):
            raise ParseError(f"{path}: line 1: expected header x,y or x,y,z")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} fields")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
            _require_finite(path, lineno, values)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def save_grid(path, grid) -> None:
    """Write a surface grid as long-format CSV: row,col,x,y,z."""
    grid = np.asarray(grid, dtype=float)
    rows, cols = np.broadcast_arrays(np.arange(grid.shape[0])[:, None], np.arange(grid.shape[1]))
    write_csv(path, ["row", "col", "x", "y", "z"], Table(rows, cols, *np.moveaxis(grid, -1, 0)))


def load_grid(path) -> np.ndarray:
    """Read a surface grid written by :func:`save_grid`.

    Raises
    ------
    IncompleteGrid
        If any (row, col) cell of the bounding grid is missing or duplicated.
    """
    cells: dict[tuple[int, int], list[float]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        if header != ["row", "col", "x", "y", "z"]:
            raise ParseError(f"{path}: line 1: expected header row,col,x,y,z")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ParseError(f"{path}: line {lineno}: expected 5 fields")
            try:
                h, l = int(row[0]), int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad field") from None
            _require_finite(path, lineno, values)
            if h < 0 or l < 0:
                raise ParseError(f"{path}: line {lineno}: negative grid index")
            if (h, l) in cells:
                raise IncompleteGrid(f"{path}: duplicate cell ({h}, {l})")
            cells[(h, l)] = values
    if not cells:
        raise ParseError(f"{path}: no data rows")
    n_rows = max(h for h, _ in cells) + 1
    n_cols = max(l for _, l in cells) + 1
    if len(cells) != n_rows * n_cols:
        raise IncompleteGrid(
            f"{path}: {len(cells)} cells for a {n_rows}x{n_cols} grid"
        )
    grid = np.empty((n_rows, n_cols, 3))
    for (h, l), values in cells.items():
        grid[h, l] = values
    return grid


class Table:
    """The columns of a report table, one value of each per row.

    The columns are float or integer arrays of one shape, and row ``i``
    holds element ``i`` of each in C order, so ``len`` is the row count. A
    column is usually 1-D; a grid's long-format table may use its 2-D index
    arrays and coordinate planes as they are (broadcast or strided views),
    which the writer flattens one block of grid rows at a time.
    """

    def __init__(self, *columns):
        self.columns = [np.asarray(column) for column in columns]
        for position, column in enumerate(self.columns):
            if column.dtype.kind not in "fiu":
                raise ValueError(
                    f"table column {position} holds {column.dtype}; a table holds "
                    "float and integer columns only"
                )
        shapes = {column.shape for column in self.columns}
        if len(shapes) != 1:
            raise ValueError(f"a table needs columns of one shape, not {sorted(shapes)}")
        (self.shape,) = shapes

    def __len__(self) -> int:
        return math.prod(self.shape)


# Rows formatted per numpy call: enough to amortize the call overhead, few
# enough that a chunk's work arrays stay small next to the table itself.
_CHUNK_ROWS = 1024


def write_csv(path, header, table: Table) -> None:
    """Write a report table: the header, then one line per row.

    Each column's dtype fixes its format: a float column is written as
    ``'%.17g' % v``, an integer column in decimal; lines end in CR LF as
    :mod:`csv` writes them. ``len(table)`` is the number of lines after the
    header. Rows are formatted about :data:`_CHUNK_ROWS` at a time (whole
    blocks of a 2-D table's first axis), each chunk into one byte buffer
    written with one call, so the work arrays stay small however long the
    table is.
    """
    head = io.StringIO()
    csv.writer(head).writerow(header)
    block = max(1, _CHUNK_ROWS // max(1, math.prod(table.shape[1:])))
    buffers = {}
    with open(path, "wb") as handle:
        handle.write(head.getvalue().encode())
        for start in range(0, table.shape[0], block):
            chunk = [column[start:start + block].reshape(-1) for column in table.columns]
            handle.write(_format_rows(chunk, buffers))


def _format_rows(columns, buffers: dict) -> np.ndarray:
    """CSV lines of equal-length 1-D columns, as one uint8 array.

    Every field gets a number's slot in a (rows, fields, slot + 2) byte
    array, followed by its separator (``,`` or CR LF); a boolean array
    of the same shape marks the bytes that are shown, and selecting them in
    C order gives the lines. The two arrays are kept in ``buffers`` for the
    next chunk of the same shape: fresh ones would be mapped and faulted in
    anew for every chunk.
    """
    # A row before its fields are laid out: the constant bytes of the
    # slots, hidden, and the separators, shown.
    line = np.zeros((len(columns), _NUMBER_WIDTH + 2), np.uint8)
    line[:, :_NUMBER_WIDTH] = _NUMBER_CHARS
    line[:, _NUMBER_WIDTH] = ord(",")
    line[-1, _NUMBER_WIDTH:] = np.frombuffer(b"\r\n", np.uint8)
    separators = np.zeros(line.shape, bool)
    separators[:, _NUMBER_WIDTH] = True
    separators[-1, _NUMBER_WIDTH + 1] = True
    shape = (len(columns[0]),) + line.shape
    if buffers.get("shape") != shape:
        buffers.update(shape=shape, chars=np.empty(shape, np.uint8), shown=np.empty(shape, bool))
    chars, shown = buffers["chars"], buffers["shown"]
    chars[:] = line
    shown[:] = separators
    for dtype in {column.dtype for column in columns}:
        fields = [c for c, column in enumerate(columns) if column.dtype == dtype]
        _place_numbers(np.stack([columns[c] for c in fields], axis=1), chars, shown, fields)
    return chars[shown]


def _codes(texts) -> tuple[np.ndarray, np.ndarray]:
    """Strings as the rows of a (count, width) byte array, with their lengths."""
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded), default=0) or 1
    codes = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    return codes, np.fromiter(map(len, encoded), np.intp, len(encoded))


# Numbers are formatted without a per-value Python call. A float's ``%.17g``
# is exact for finite x with 1e-6 <= |x| < 1e17: its decimal exponent
# k = floor(log10|x|) lies in [-6, 16], so |x| * 10**(16 - k) lies in
# [1e16, 1e17) and 10**(16 - k) is an exact double. Dekker's error-free
# product (Numer. Math. 18, 1971; no FMA needed) gives that product exactly
# as a double pair (p, e); p is an even integer, so rounding p + e half to
# even to the 17-digit integer N is p + rint(e). That is the correctly
# rounded conversion CPython's ``%`` makes (Gay's dtoa). An integer is its
# own N when |v| < 1e17. Every other value (zero, subnormal, non-finite,
# out of range) is formatted by ``'%.17g' % x`` or ``str``, one at a time.

_POW10 = np.array([float(10**j) for j in range(23)])
_INT_POW10 = np.array([10**j for j in range(1, 17)])
_SPLITTER = 2.0**27 + 1.0


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


# Split one power at a time, in Python floats: the lookup tables below are
# built on the first write, so importing the module runs no numpy kernel.
_POW10_HI, _POW10_LO = np.array([_split(power) for power in _POW10.tolist()]).T


def _scaled(a, k):
    """a * 10**(16 - k) as an exact double pair (product, error)."""
    j = 16 - k
    p = a * _POW10[j]
    ah, al = _split(a)
    bh, bl = _POW10_HI[j], _POW10_LO[j]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of i, zero-padded, as one uint32, for i < 10_000."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    return np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


def _digit_quads(n, count=5):
    """The last ``4 * count`` digits of each n >= 0, zero-padded, as uint32s.

    Viewed as bytes, the last axis reads the digits, most significant first:
    with five quads, ``"000"`` and the 17 digits of an n < 10**17.
    """
    quads = np.empty(n.shape + (count,), np.intp)
    for i in range(count - 1, 0, -1):
        rest = n // 10_000
        np.subtract(n, rest * 10_000, out=quads[..., i])
        n = rest
    quads[..., 0] = n
    return np.take(_quads(), quads)


def _float_digits(x):
    """The correctly rounded 17 significant digits of each float.

    Returns ``(fast, k, n)``. Where ``fast`` holds, ``|x|`` rounds to
    ``n * 10**(k - 16)`` with ``10**16 <= n < 10**17`` and ``-6 <= k <= 16``;
    elsewhere ``k`` and ``n`` are meaningless.
    """
    a = np.abs(x)
    fast = (a >= 1e-6) & (a < 1e17)  # False for nan and inf too
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    p, err = _scaled(a, k)
    # log10 may round across a power of ten: correct k by one, comparing
    # the exact pair with the ends of [1e16, 1e17).
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    k += above
    k -= below
    fast &= (k >= -6) & (k <= 16)
    redo = (below | above) & fast
    p[redo], err[redo] = _scaled(a[redo], k[redo])
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # Rounding up to 10**17 would need a double within 5e-18 (relative) below
    # a power of ten in the range; there is none, but such a value would
    # fall back.
    fast &= n < 10**17
    return fast, k, n


# A number's slot: every number is laid out in one template of 52 bytes and
# its shown mask picks the bytes of its form (sign, digits before the point,
# point, zeros after it, digits after them, exponent):
#     3      "-"               shown if x < 0
#     4-23   "000" + N         byte 6 ("0") shown if -4 <= k < 0, digit i
#                              (byte 7 + i) if i < point
#     27     "."               shown if N has digits after the point
#     28-47  "000" + N         bytes 28-30 the -k - 1 zeros after the point
#                              if -4 <= k < 0, digit i (byte 31 + i) if
#                              point <= i < significant
#     48-51  "e-0" + digit     shown if k < -4: 1.5e-05, 1e-06
# ``point`` is the number of digits before the point: k + 1 for k >= 0, 0
# for -4 <= k < 0 (written as "0."), 1 in exponent form. An integer shows
# its sign and its last ``ndigits`` digits of bytes 7-23. The masks are
# tabulated: a float's by (sign, k, significant digits), an integer's by
# (sign, digit count).
_NUMBER_WIDTH = 52
_NUMBER_CHARS = np.frombuffer(
    bytes(3) + b"-" + bytes(23) + b"." + bytes(20) + b"e-0" + bytes(1), np.uint8
)


@functools.cache
def _float_shown() -> np.ndarray:
    """A float slot's shown masks, row ((negative * 23) + k + 6) * 17 + significant - 1."""
    negative, k, significant = (
        axis.ravel()
        for axis in np.meshgrid([False, True], np.arange(-6, 17), np.arange(1, 18), indexing="ij")
    )
    exponent = k < -4
    small = (k < 0) & ~exponent
    point = np.maximum(k + 1, 0) + exponent
    i = np.arange(17)
    masks = np.zeros((k.size, _NUMBER_WIDTH), bool)
    masks[:, 3] = negative
    masks[:, 6] = small
    masks[:, 7:24] = i < point[:, None]
    masks[:, 27] = significant > point
    masks[:, 28:31] = np.arange(3) >= np.where(small, k + 4, 3)[:, None]
    masks[:, 31:48] = (i >= point[:, None]) & (i < significant[:, None])
    masks[:, 48:52] = exponent[:, None]
    return masks


@functools.cache
def _int_shown() -> np.ndarray:
    """Bytes 3-23 of an integer slot's shown masks, row negative * 17 + ndigits - 1."""
    masks = np.zeros((2, 17, 21), bool)
    masks[1, :, 0] = True
    masks[:, :, 4:] = np.arange(17) >= 16 - np.arange(17)[:, None]
    return masks.reshape(34, 21)


def _place_numbers(values, chars, shown, fields) -> None:
    """Lay a (rows, len(fields)) block of floats or integers out in their slots."""
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
        fast, k, n = _float_digits(values)
        digits = _digit_quads(n).view(np.uint8)
        significant = 17 - np.argmax(digits[..., :2:-1] != ord("0"), axis=-1)
        chars[:, fields, 4:24] = digits
        chars[:, fields, 28:48] = digits
        chars[:, fields, 51] = ord("0") - k
        row = ((values < 0) * 23 + k + 6) * 17 + significant - 1
        shown[:, fields, :_NUMBER_WIDTH] = np.take(_float_shown(), np.where(fast, row, 0), axis=0)
    else:
        fast = (values > -(10**17)) & (values < 10**17)
        n = np.abs(np.where(fast, values, 0).astype(np.int64))
        ndigits = np.searchsorted(_INT_POW10, n, side="right")  # less one
        count = int(ndigits.max(initial=0)) // 4 + 1
        chars[:, fields, 24 - 4 * count:24] = _digit_quads(n, count).view(np.uint8)
        shown[:, fields, 3:24] = np.take(_int_shown(), (values < 0) * 17 + ndigits, axis=0)
    rows, slots = np.nonzero(~fast)
    if rows.size:
        rest = values[rows, slots].tolist()
        texts = ["%.17g" % v for v in rest] if values.dtype.kind == "f" else map(str, rest)
        codes, lengths = _codes(texts)
        cols = np.asarray(fields)[slots]
        chars[rows, cols, : codes.shape[1]] = codes
        shown[rows, cols, :_NUMBER_WIDTH] = np.arange(_NUMBER_WIDTH) < lengths[:, None]
