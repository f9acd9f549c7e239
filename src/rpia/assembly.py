"""Collocation matrices, difference penalties, stacked systems, column partitions.

The penalized fitting problems are carried around in their stacked
("augmented") form: the design matrix with ``sqrt(lam)`` times the penalty
matrix appended below it, and zero-padded targets. Ordinary least squares on
the stacked system is algebraically identical to the penalized problem, which
is what lets one randomized solver cover both.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import KnotVector, eval_basis
from .errors import DegenerateData, DimensionMismatch, InvalidConfig, ZeroColumnBlock


def assemble_collocation(knots: KnotVector, params) -> np.ndarray:
    """Dense matrix of basis values: entry (j, i) is basis i at parameter j.

    Rows sum to 1 and carry at most ``degree + 1`` nonzeros each: the dense
    form of ``eval_basis(knots, params)``.
    """
    return eval_basis(knots, params).dense()


def tensor_apply(a: np.ndarray, grid: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ grid[:, :, f] @ b.T`` for every coordinate ``f`` of a grid.

    The tensor product ``A P B^T`` of a surface, one coordinate at a time:
    the one place its per-coordinate loop lives.
    """
    out = np.empty((a.shape[0], b.shape[0], grid.shape[2]))
    for f in range(grid.shape[2]):
        out[:, :, f] = a @ grid[:, :, f] @ b.T
    return out


def require_finite(values: np.ndarray, name: str) -> None:
    """Raise :class:`DegenerateData` naming ``name`` if ``values`` holds nan or inf."""
    if not np.isfinite(values).all():
        raise DegenerateData(f"{name} holds non-finite values (nan or inf)")


def require_weight(lam) -> float:
    """The penalty weight as a float; :class:`InvalidConfig` unless finite and >= 0."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise InvalidConfig(f"penalty weight lam must be finite and nonnegative, got {lam!r}")
    return lam


def _require_difference(size: int, scale: float) -> None:
    if size < 2:
        raise InvalidConfig("difference matrix needs size >= 2")
    if not (math.isfinite(scale) and scale > 0.0):
        raise InvalidConfig(
            f"difference matrix scale must be finite and positive, got {float(scale)!r}"
        )


def difference_matrix(size: int, scale: float) -> np.ndarray:
    """Scaled second-order difference matrix with Dirichlet boundaries.

    ``scale * tridiag(1, -2, 1)`` of the given size; symmetric and negative
    definite, so its Gram matrix is positive definite and it is invertible.
    """
    _require_difference(size, scale)
    matrix = -2.0 * np.eye(size) + np.eye(size, k=1) + np.eye(size, k=-1)
    return scale * matrix


def difference_eigenpairs(size: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``mu`` and orthonormal eigenvectors ``U`` of :func:`difference_matrix`.

    ``difference_matrix(N, s) = U diag(mu) U^T`` in the sine (DST-I) basis:
    ``mu_k = -4 s sin^2(k pi / (2(N+1)))`` (ascending in magnitude) and
    ``U[j, k] = sqrt(2/(N+1)) sin(j k pi / (N+1))`` for ``j, k = 1..N``, with
    ``j k`` reduced modulo ``2(N+1)`` in integers first, so no sine argument
    exceeds ``2 pi`` and ``U`` stays orthogonal to a few dozen ulps.
    """
    _require_difference(size, scale)
    k = np.arange(1, size + 1)
    mu = -4.0 * scale * np.sin(k * np.pi / (2 * (size + 1))) ** 2
    phase = np.outer(k, k) % (2 * (size + 1))
    return mu, math.sqrt(2.0 / (size + 1)) * np.sin(phase * np.pi / (size + 1))


@dataclass(frozen=True)
class AugmentedCurveSystem:
    """Design matrix stacked over the scaled penalty, with zero-padded targets.

    ``stacked`` is ((m+1)+(n+1)) x (n+1) in Fortran order so column blocks
    slice to views; ``targets`` carries one column per point coordinate and is
    zero below row ``data_rows``. ``gram`` is built on first use.
    """

    stacked: np.ndarray
    targets: np.ndarray
    lam: float
    data_rows: int

    @property
    def design(self) -> np.ndarray:
        """The unpenalized top block (the plain collocation matrix)."""
        return self.stacked[: self.data_rows]

    @property
    def data(self) -> np.ndarray:
        return self.targets[: self.data_rows]

    @property
    def n_controls(self) -> int:
        return self.stacked.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """``S^T S = A^T A + lam G^T G`` of the stacked matrix ``S``; banded."""
        return self.stacked.T @ self.stacked


@dataclass(frozen=True)
class AugmentedSurfaceSystem:
    """Stacked row/column factors and zero-padded target grid.

    ``row_stacked`` is [A; sqrt(lam) Lu], ``col_stacked`` is [B; sqrt(lam) Lv],
    and ``targets`` puts the data grid in the top-left block of an otherwise
    zero array of shape (rows(A)+rows(Lu), rows(B)+rows(Lv), ncoord). The
    grams are built on first use.
    """

    row_stacked: np.ndarray
    col_stacked: np.ndarray
    targets: np.ndarray
    lam: float
    data_rows: int
    data_cols: int

    @property
    def design_u(self) -> np.ndarray:
        return self.row_stacked[: self.data_rows]

    @property
    def design_v(self) -> np.ndarray:
        return self.col_stacked[: self.data_cols]

    @property
    def data(self) -> np.ndarray:
        return self.targets[: self.data_rows, : self.data_cols]

    @property
    def n_controls(self) -> tuple[int, int]:
        return self.row_stacked.shape[1], self.col_stacked.shape[1]

    @cached_property
    def row_gram(self) -> np.ndarray:
        """``[A; sqrt(lam) Lu]^T [A; sqrt(lam) Lu]``; banded."""
        return self.row_stacked.T @ self.row_stacked

    @cached_property
    def col_gram(self) -> np.ndarray:
        """``[B; sqrt(lam) Lv]^T [B; sqrt(lam) Lv]``; banded."""
        return self.col_stacked.T @ self.col_stacked

    @cached_property
    def design_gram_u(self) -> np.ndarray:
        """``A^T A``."""
        return self.design_u.T @ self.design_u


def _stack(design, penalty, lam: float, name: str) -> np.ndarray:
    """``[design; sqrt(lam) * penalty]`` in Fortran order, so column blocks slice to views.

    The penalty must be square with one column per design column, so the
    design's rows are the stacked rows less the stacked columns.
    """
    a = np.asarray(design, dtype=float)
    g = np.asarray(penalty, dtype=float)
    cols = a.shape[1]
    if g.shape != (cols, cols):
        raise DimensionMismatch(
            f"{name} must be square of size {cols} (the design's columns), got {g.shape}"
        )
    return np.asfortranarray(np.vstack([a, math.sqrt(lam) * g]))


def augment_curve(design, penalty, data, lam: float) -> AugmentedCurveSystem:
    """Stack ``[design; sqrt(lam) * penalty]`` with zero-padded targets.

    Solving least squares on the stacked pair is identical to minimizing
    ``|design p - data|^2 + lam * |penalty p|^2``.
    """
    q = np.asarray(data, dtype=float)
    require_finite(q, "data")
    if q.ndim == 1:
        q = q[:, None]
    lam = require_weight(lam)
    stacked = _stack(design, penalty, lam, "penalty")
    rows = stacked.shape[0] - stacked.shape[1]
    if q.shape[0] != rows:
        raise DimensionMismatch(f"{q.shape[0]} target rows for {rows} design rows")
    targets = np.vstack([q, np.zeros((stacked.shape[1], q.shape[1]))])
    return AugmentedCurveSystem(stacked, targets, lam, rows)


def augment_surface(design_u, design_v, penalty_u, penalty_v, data, lam: float) -> AugmentedSurfaceSystem:
    """Stack both direction factors and zero-pad the target grid.

    The squared residual of the stacked tensor system expands into the
    four-term objective: data misfit, the two singly weighted cross penalty
    terms, and the ``lam**2`` doubly penalized term.
    """
    grid = np.asarray(data, dtype=float)
    require_finite(grid, "data")
    if grid.ndim == 2:
        grid = grid[:, :, None]
    lam = require_weight(lam)
    row_stacked = _stack(design_u, penalty_u, lam, "row penalty")
    col_stacked = _stack(design_v, penalty_v, lam, "column penalty")
    rows = row_stacked.shape[0] - row_stacked.shape[1]
    cols = col_stacked.shape[0] - col_stacked.shape[1]
    if grid.shape[:2] != (rows, cols):
        raise DimensionMismatch(
            f"data grid {grid.shape[:2]} does not match design rows ({rows}, {cols})"
        )
    targets = np.zeros((row_stacked.shape[0], col_stacked.shape[0], grid.shape[2]))
    targets[:rows, :cols] = grid
    return AugmentedSurfaceSystem(row_stacked, col_stacked, targets, lam, rows, cols)


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous column blocks with selection weights and their windows.

    Block ``t`` is the column slice ``spans[t]``, which the solvers index
    with; ``blocks[t]`` holds the same columns as an index array, for the
    oracles. The spans tile the columns in order. ``probabilities`` are the
    squared Frobenius norms of the column blocks normalized to sum to one.
    For the matrix ``M`` the partition was built from, ``hits[t]`` lists the
    rows where block ``t``'s columns have a nonzero, and ``coupled[t]`` is
    the smallest contiguous column slice holding every column that shares
    such a row with block ``t``, so the gram ``(M^T M)[:, block]`` is zero
    outside it.
    """

    spans: tuple[slice, ...]
    blocks: tuple[np.ndarray, ...]
    norms_sq: np.ndarray
    probabilities: np.ndarray
    hits: tuple[np.ndarray, ...]
    coupled: tuple[slice, ...]
    cumulative: np.ndarray = field(init=False, repr=False)
    _bounds: list = field(init=False, repr=False)
    _row_windows: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        cumulative = np.cumsum(self.probabilities)
        cumulative[-1] = 1.0
        object.__setattr__(self, "cumulative", cumulative)
        object.__setattr__(self, "_bounds", cumulative.tolist())

    def __len__(self) -> int:
        return len(self.spans)

    def block_at(self, u: float) -> int:
        """The block whose cumulative-probability interval holds ``u`` in [0, 1).

        Same answer as ``np.searchsorted(cumulative, u, side="right")``; a
        bisection on a Python list is an order of magnitude cheaper per call.
        """
        return bisect_right(self._bounds, u)

    def row_windows(self, stop: int) -> tuple[slice, ...]:
        """Per block, the smallest row slice holding its nonzeros among the
        first ``stop`` rows of ``M``; empty, at ``stop``, if it has none there.

        A block update moves ``M[:stop] @ x`` only inside the window. The
        solvers ask for their data rows on every step, so the windows are
        kept per ``stop``.
        """
        windows = self._row_windows.get(stop)
        if windows is None:
            windows = tuple(_hull(rows[rows < stop], stop) for rows in self.hits)
            self._row_windows[stop] = windows
        return windows


def _hull(indices: np.ndarray, empty_at: int = 0) -> slice:
    if not indices.size:
        return slice(empty_at, empty_at)
    return slice(int(indices[0]), int(indices[-1]) + 1)


def make_partition(matrix, block_size: int) -> BlockPartition:
    """Contiguous column blocks of ``block_size`` (ragged tail allowed).

    Selection weights are the squared Frobenius norms of the column blocks of
    ``matrix``, normalized by the total squared norm; the windows are those
    of ``matrix``'s nonzeros (see :class:`BlockPartition`).

    Raises
    ------
    ZeroColumnBlock
        If any block has zero norm (it could never be selected).
    """
    mat = np.asarray(matrix, dtype=float)
    if block_size < 1:
        raise InvalidConfig("block size must be >= 1")
    n_cols = mat.shape[1]
    spans = tuple(
        slice(start, min(start + block_size, n_cols)) for start in range(0, n_cols, block_size)
    )
    col_norms = np.einsum("ij,ij->j", mat, mat)
    norms = np.asarray([float(col_norms[span].sum()) for span in spans])
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise ZeroColumnBlock(f"column block {bad} has zero norm")
    nonzero = mat != 0.0
    hits = tuple(np.flatnonzero(nonzero[:, span].any(axis=1)) for span in spans)
    coupled = tuple(_hull(np.flatnonzero(nonzero[rows].any(axis=0))) for rows in hits)
    blocks = tuple(np.arange(span.start, span.stop) for span in spans)
    return BlockPartition(spans, blocks, norms, norms / norms.sum(), hits, coupled)
