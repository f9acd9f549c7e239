"""CSV reading and writing for curve points and surface grids.

Curve files carry ``x,y`` or ``x,y,z`` columns; surface files use the long
format ``row,col,x,y,z`` and must cover the full grid. Floats are written
with 17 significant digits so a save/load round trip is bit-exact.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .errors import IncompleteGrid, ParseError

_FLOAT_FMT = "%.17g"


def _require_finite(path, lineno: int, values) -> None:
    # float() accepts "nan" and "inf"; such a value would otherwise surface
    # only deep inside parametrization, without a line number.
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{path}: line {lineno}: non-finite value")


def save_points(path, points) -> None:
    """Write curve points as a CSV with an x,y(,z) header."""
    pts = np.asarray(points, dtype=float)
    write_csv(path, ["x", "y", "z"][: pts.shape[1]], pts.tolist())


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
    write_csv(path, ["row", "col", "x", "y", "z"], GridRows(np.asarray(grid, dtype=float)))


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


class GridRows:
    """The long-format rows ``(row, col, *point)`` of a grid of points.

    Sized, and made one grid row at a time as they are iterated, so writing a
    large grid never holds all its rows as Python objects at once.
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid

    def __len__(self) -> int:
        return self.grid.shape[0] * self.grid.shape[1]

    def __iter__(self):
        for h, line in enumerate(self.grid):
            for l, point in enumerate(line.tolist()):
                yield (h, l, *point)


def write_csv(path, header, rows) -> None:
    """Write a report table: the header, then one line per row.

    Floats get full precision and every other value its ``str``, unquoted;
    lines end in CR LF as :mod:`csv` writes them. The first row's value
    types fix one format string for every row, so each column keeps one
    type. Rows are formatted and written one at a time.
    """
    with open(Path(path), "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        rows = iter(rows)
        first = next(rows, None)
        if first is None:
            return
        line = ",".join(_FLOAT_FMT if isinstance(v, float) else "%s" for v in first) + "\r\n"
        handle.write(line % tuple(first))
        handle.writelines(line % tuple(row) for row in rows)
