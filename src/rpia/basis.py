"""Cubic B-spline basis evaluation, chord-length parametrization, knot construction.

The basis is clamped on [0, 1]: the first and last ``degree + 1`` knots are
pinned to 0 and 1, interior knots are placed by floor-interpolation into the
data parameter sequence, or by averaging it below two parameters per knot
span. Evaluation is vectorized over an array of parameters: one
``searchsorted`` finds every knot span, and the standard triangular
recurrence (de Boor / Cox) runs on columns, returning for each parameter
only the ``degree + 1`` basis values that can be nonzero there.
That ``BasisSpan`` is the collocation matrix of a fit: its products and its
gram come from the runs, without the dense matrix.

All functions here are pure; none hold state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, DuplicatePointWarning, InvalidConfig, OutOfDomain

DEGREE = 3

# Bytes of output rows that one block of ``BasisSpan.apply`` writes, and so
# the size of its one temporary (see ``tests/test_experiment.py`` for the
# traced peaks this keeps).
APPLY_CHUNK_BYTES = 1 << 15

# Parameters that one pass of ``eval_basis``'s recurrence evaluates at once.
EVAL_CHUNK = 1024


@dataclass(frozen=True)
class KnotVector:
    """Clamped, nondecreasing knot sequence on [0, 1].

    For ``n + 1`` basis functions of degree ``d = DEGREE`` the sequence has
    ``n + d + 2`` entries, the first and last ``d + 1`` of which are 0 and 1.
    """

    knots: np.ndarray

    def __post_init__(self):
        knots = np.ascontiguousarray(self.knots, dtype=float)
        object.__setattr__(self, "knots", knots)
        d = DEGREE
        if knots.ndim != 1 or knots.size < 2 * (d + 1):
            raise InvalidConfig(f"knot vector needs at least {2 * (d + 1)} entries")
        if not np.isfinite(knots).all():
            bad = int(np.flatnonzero(~np.isfinite(knots))[0])
            raise InvalidConfig(
                f"knot vector must be finite, knot {bad} is {float(knots[bad])!r}"
            )
        gaps = np.diff(knots)
        if np.any(gaps < 0.0):
            raise InvalidConfig("knot vector must be nondecreasing")
        # The recurrence divides by sums of knot gaps; a subnormal gap
        # overflows it to inf and then nan.
        subnormal = (gaps > 0.0) & (gaps < np.finfo(float).tiny)
        if subnormal.any():
            bad = int(np.flatnonzero(subnormal)[0]) + 1
            raise InvalidConfig(
                f"knot {bad} is {float(knots[bad])!r}, a subnormal gap above knot "
                f"{bad - 1}; knot gaps must be 0 or at least {float(np.finfo(float).tiny)!r}"
            )
        if np.any(knots[: d + 1] != 0.0) or np.any(knots[-(d + 1):] != 1.0):
            raise InvalidConfig("knot vector must be clamped to [0, 1]")
        interior = knots[d + 1: -(d + 1)]
        if interior.size and (interior[0] <= 0.0 or interior[-1] >= 1.0):
            raise InvalidConfig("interior knots must lie strictly inside (0, 1)")

    @property
    def n_basis(self) -> int:
        """Number of basis functions supported by this sequence."""
        return self.knots.size - DEGREE - 1


@dataclass(frozen=True)
class BasisSpan:
    """A collocation matrix ``A`` kept as the run of nonzero values in each row.

    ``start`` has shape (k,) and ``values`` shape (k, w):
    ``values[i, j]`` is entry ``(i, start[i] + j)`` of the k x ``n_basis``
    matrix, whose other entries are zero. For a B-spline basis ``w`` is
    ``degree + 1`` and some entries of a run may be zero at clamped ends; a
    dense matrix is the span with every start 0 and ``w = n_basis``.

    The products with ``A`` gather and scatter along the runs, so none of
    them forms the dense matrix; :meth:`dense` writes it.
    """

    start: np.ndarray
    values: np.ndarray
    n_basis: int

    def _columns(self) -> np.ndarray:
        return self.start[:, None] + np.arange(self.values.shape[1])

    def dense(self) -> np.ndarray:
        """The k x ``n_basis`` matrix itself."""
        matrix = np.zeros((self.start.size, self.n_basis))
        matrix[np.arange(self.start.size)[:, None], self._columns()] = self.values
        return matrix

    def apply(self, x, axis: int = 0) -> np.ndarray:
        """``A @ x`` along ``axis`` of ``x``, which has ``n_basis`` entries there.

        The output is written in blocks of rows, each under
        ``APPLY_CHUNK_BYTES``: one pass per run offset ``j`` gathers the
        entries ``start + j`` of the block's rows, scales them by
        ``values[:, j]`` and adds them into the zeroed output. Each entry is
        then ``((0 + v0 x0) + v1 x1) + ...`` in run order, as ``np.einsum``
        sums it when ``x`` has another axis with two or more entries (as
        every fit's coordinate axis does). The output keeps ``axis`` first in
        memory, so sums over it run in the same order as ``einsum``'s. The
        sums run in ``x``'s float type when it is wider than double.
        """
        x = np.asarray(x)
        x = np.moveaxis(x.astype(np.result_type(x, float), copy=False), axis, 0)
        rows = self.start.size
        out = np.zeros((rows,) + x.shape[1:], dtype=x.dtype)
        chunk = max(1, APPLY_CHUNK_BYTES // max(out.itemsize * math.prod(x.shape[1:]), 1))
        values = self.values.reshape(self.values.shape + (1,) * (x.ndim - 1))
        for lo in range(0, rows, chunk):
            block, start = out[lo: lo + chunk], self.start[lo: lo + chunk]
            for j in range(values.shape[1]):
                term = x[start + j]
                term *= values[lo: lo + chunk, j]
                block += term
        return np.moveaxis(out, 0, axis)

    def apply_transpose(self, y, axis: int = 0) -> np.ndarray:
        """``A^T @ y`` along ``axis`` of ``y``, which has k entries there.

        One scatter-add (``np.bincount``) over every (row, run entry,
        trailing entry) product.
        """
        y = np.moveaxis(np.asarray(y, dtype=float), axis, 0)
        flat = y.reshape(self.start.size, -1)
        width = flat.shape[1]
        index = self._columns()[:, :, None] * width + np.arange(width)
        products = self.values[:, :, None] * flat[:, None, :]
        out = np.bincount(index.ravel(), products.ravel(), minlength=self.n_basis * width)
        return np.moveaxis(out.reshape((self.n_basis,) + y.shape[1:]), 0, axis)

    def gram(self) -> np.ndarray:
        """``A^T A``: exactly symmetric, zero beyond the run width off the diagonal.

        Diagonal ``k`` sums, per run offset ``j``, the products
        ``values[:, j] * values[:, j + k]`` with one ``np.bincount`` each, and
        then adds those partial sums. Each entry is a sum over the few rows
        that touch it, which on collocation designs is more accurate than
        the dense ``A.T @ A`` (see ``tests/test_basis.py``).
        """
        v, n = self.values, self.n_basis
        gram = np.zeros((n, n))
        for k in range(v.shape[1]):
            diagonal = np.zeros(n - k)
            for j in range(v.shape[1] - k):
                diagonal += np.bincount(self.start + j, v[:, j] * v[:, j + k], minlength=n - k)
            i = np.arange(n - k)
            gram[i, i + k] = diagonal
            gram[i + k, i] = diagonal
        return gram


def chord_length_params(points) -> np.ndarray:
    """Normalized accumulated chord-length parameters for an ordered point list.

    Parameters
    ----------
    points : array_like, shape (m + 1, d)
        Ordered data points, d >= 1.

    Returns
    -------
    numpy.ndarray, shape (m + 1,)
        Strictly increasing parameters with first entry 0 and last entry 1.
        Each interior step is the chord length to the previous point divided
        by the total chord length.

    Raises
    ------
    DegenerateData
        If fewer than two points are given or the total chord length is zero.

    Warns
    -----
    DuplicatePointWarning
        Consecutive duplicate points give zero-length chords; the later
        parameter is nudged by one representable step to restore strict
        monotonicity.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DegenerateData("need at least two points to parametrize")
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return _normalize_chords(chords)


def surface_params(grid) -> tuple[np.ndarray, np.ndarray]:
    """Chord-length parameters for both directions of a surface grid.

    Row-direction parameters accumulate, for each row step, the summed chord
    lengths across all columns; column-direction parameters do the transpose.

    Parameters
    ----------
    grid : array_like, shape (m + 1, p + 1, d)
        Gridded data points.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        Row parameters of length m + 1 and column parameters of length p + 1,
        each spanning [0, 1].
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 3 or pts.shape[0] < 2 or pts.shape[1] < 2:
        raise DegenerateData("surface grid must be at least 2x2 points")
    row_chords = np.linalg.norm(np.diff(pts, axis=0), axis=2).sum(axis=1)
    col_chords = np.linalg.norm(np.diff(pts, axis=1), axis=2).sum(axis=0)
    return _normalize_chords(row_chords), _normalize_chords(col_chords)


def _normalize_chords(chords: np.ndarray) -> np.ndarray:
    total = float(chords.sum())
    if total <= 0.0:
        raise DegenerateData("total chord length is zero")
    params = np.empty(chords.size + 1)
    params[0] = 0.0
    np.cumsum(chords / total, out=params[1:])
    params[-1] = 1.0
    return _strictify(params)


def _strictify(params: np.ndarray) -> np.ndarray:
    if not np.any(np.diff(params) <= 0.0):
        return params
    warnings.warn(
        "duplicate consecutive points produced equal parameters; "
        "nudging the later parameter by one representable step",
        DuplicatePointWarning,
        stacklevel=3,
    )
    for j in range(1, params.size):
        if params[j] <= params[j - 1]:
            params[j] = np.nextafter(params[j - 1], np.inf)
    # Keep the right end anchored at 1; push any overflow back down.
    params[-1] = min(params[-1], 1.0)
    for j in range(params.size - 1, 0, -1):
        if params[j - 1] >= params[j]:
            params[j - 1] = np.nextafter(params[j], -np.inf)
    return params


def build_knots(params, n_ctrl_minus1: int) -> KnotVector:
    """Clamped cubic knot vector whose interior knots track the data parameters.

    With ``n1 = n_ctrl_minus1`` and ``m + 1`` parameters, ``d = (m + 1) /
    (n1 - 2)`` parameters fall in each knot span. At ``d >= 2`` interior knot
    ``j`` (for ``j = 1 .. n1 - 3``) interpolates between neighbouring
    parameters (*The NURBS Book* eq. 9.68-9.69): ``i = floor(j * d)``,
    ``frac = j * d - i``, knot ``(1 - frac) * params[i - 1] + frac * params[i]``.
    Below that such knots crowd into too few parameter gaps for a conditioned
    design, so at ``d < 2`` knot ``j`` averages ``t[j : j + 3]``, the
    parameters resampled by index to ``n1 + 1`` values (de Boor, eq. 9.8).

    Raises
    ------
    InvalidConfig
        If ``n1 < 3``, if the parameters are too few (``d < 1``), or if the
        placement degenerates onto the domain boundary.
    """
    x = np.asarray(params, dtype=float)
    n1 = int(n_ctrl_minus1)
    if n1 < 3:
        raise InvalidConfig("need n_ctrl_minus1 >= 3 for a clamped cubic basis")
    m = x.size - 1
    d = (m + 1) / (n1 - 2)
    if d < 1.0:
        raise InvalidConfig(
            f"too few parameters ({m + 1}) for {n1 + 1} control points (need d >= 1)"
        )
    knots = np.zeros(n1 + DEGREE + 2)
    knots[-(DEGREE + 1):] = 1.0
    if d < 2.0:
        t = np.interp(np.linspace(0, m, n1 + 1), np.arange(m + 1), x)
        knots[DEGREE + 1: DEGREE + n1 - 2] = [t[j: j + 3].sum() / 3 for j in range(1, n1 - 2)]
    else:
        for j in range(1, n1 - 2):
            i = int(np.floor(j * d))
            frac = j * d - i
            knots[DEGREE + j] = (1.0 - frac) * x[i - 1] + frac * x[i]
    return KnotVector(knots)


def eval_basis(knots: KnotVector, params) -> BasisSpan:
    """Evaluate, at every parameter, the basis functions that are nonzero there.

    Each parameter's span is the largest ``s`` with ``knots[s] <= x <
    knots[s + 1]`` (right-continuous); ``x = 1`` falls into the last
    nontrivial span. The values come from the triangular recurrence, run on
    blocks of ``EVAL_CHUNK`` parameters at a time, so its temporaries stay
    small however many parameters there are.

    Parameters
    ----------
    knots : KnotVector
    params : float or array_like, shape (k,)
        Parameters in [0, 1]; a scalar counts as one parameter.

    Returns
    -------
    BasisSpan
        ``degree + 1`` contiguous values per parameter, nonnegative and
        summing to 1: the collocation matrix of ``knots`` at ``params``.

    Raises
    ------
    OutOfDomain
        If any parameter lies outside [0, 1] or is nan.
    """
    x = np.atleast_1d(np.asarray(params, dtype=float))
    inside = (x >= 0.0) & (x <= 1.0)
    if not inside.all():
        bad = float(x[np.flatnonzero(~inside)[0]])
        raise OutOfDomain(f"parameter {bad!r} outside [0, 1]")
    t, d = knots.knots, DEGREE
    span = np.clip(np.searchsorted(t, x, side="right") - 1, d, t.size - d - 2)
    values = np.empty((x.size, d + 1))
    for lo in range(0, x.size, EVAL_CHUNK):
        block = slice(lo, lo + EVAL_CHUNK)
        _triangle(t, d, x[block], span[block], values[block])
    return BasisSpan(span - d, values, knots.n_basis)


def _triangle(t: np.ndarray, d: int, x: np.ndarray, span: np.ndarray, values: np.ndarray):
    """The triangular recurrence at parameters ``x`` in knot spans ``span``,
    written into ``values`` (one row per parameter)."""
    left = np.empty_like(values)
    right = np.empty_like(values)
    values[:, 0] = 1.0
    for j in range(1, d + 1):
        left[:, j] = x - t[span + 1 - j]
        right[:, j] = t[span + j] - x
        saved = 0.0
        for r in range(j):
            temp = values[:, r] / (right[:, r + 1] + left[:, j - r])
            values[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        values[:, j] = saved
