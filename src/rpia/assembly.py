"""Collocation matrices, difference penalties, normal systems, column partitions.

A penalized fit ``min |A P - q|^2 + lam |G P|^2`` is ordinary least squares
on its stacked ("augmented") form: the design matrix with ``sqrt(lam)``
times the penalty matrix appended below it, and zero-padded targets. The
randomized solvers never touch that stack. They read the fit's normal
system in control space: the gram ``K = A^T A + lam G^T G``, the design gram
``A^T A``, the right-hand side ``A^T q`` and ``|q|^2``. A surface's normal
matrix is the Kronecker product of two such factor grams, so one
:class:`NormalSystem` holds one factor's grams (a curve) or two (a surface).
The experiment builds its fields from the B-spline spans; a dense
:class:`AugmentedCurveSystem` derives the same fields from its stack, for the
oracles and the reference tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import BasisSpan, KnotVector, eval_basis
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


def difference_span(size: int, scale: float) -> BasisSpan:
    """The rows of :func:`difference_matrix` as a :class:`BasisSpan`: three
    entries per row (two at size 2), each end row padded with a zero."""
    _require_difference(size, scale)
    width = min(size, 3)
    start = np.clip(np.arange(-1, size - 1), 0, size - width)
    offset = start[:, None] + np.arange(width) - np.arange(size)[:, None]   # column - row
    values = np.where(offset == 0, scale * -2.0, scale * (np.abs(offset) == 1))
    return BasisSpan(start, values, size)


def difference_matrix(size: int, scale: float) -> np.ndarray:
    """Scaled second-order difference matrix with Dirichlet boundaries.

    ``scale * tridiag(1, -2, 1)`` of the given size; symmetric and negative
    definite, so its Gram matrix is positive definite and it is invertible.
    The dense form of :func:`difference_span`.
    """
    return difference_span(size, scale).dense()


def difference_eigenvalues(size: int, scale: float) -> np.ndarray:
    """The eigenvalues ``mu`` of :func:`difference_matrix`, ascending in
    magnitude: ``mu_k = -4 s sin^2(k pi / (2(N+1)))`` for ``k = 1..N``."""
    _require_difference(size, scale)
    return -4.0 * scale * np.sin(np.arange(1, size + 1) * np.pi / (2 * (size + 1))) ** 2


def difference_eigenpairs(size: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``mu`` and orthonormal eigenvectors ``U`` of :func:`difference_matrix`.

    ``difference_matrix(N, s) = U diag(mu) U^T`` in the sine (DST-I) basis:
    ``mu_k = -4 s sin^2(k pi / (2(N+1)))`` (ascending in magnitude) and
    ``U[j, k] = sqrt(2/(N+1)) sin(j k pi / (N+1))`` for ``j, k = 1..N``, with
    ``j k`` reduced modulo ``2(N+1)`` in integers first, so no sine argument
    exceeds ``2 pi`` and ``U`` stays orthogonal to a few dozen ulps. Each row
    of ``U`` is gathered from a table of the ``2(N+1)`` scaled sines, so no
    N x N temporary is formed besides ``U`` itself.
    """
    mu = difference_eigenvalues(size, scale)
    period = 2 * (size + 1)
    sines = math.sqrt(2.0 / (size + 1)) * np.sin(np.arange(period) * np.pi / (size + 1))
    k = np.arange(1, size + 1)
    basis = np.empty((size, size))
    for j in k:
        basis[j - 1] = sines[j * k % period]
    return mu, basis


@dataclass(frozen=True)
class NormalSystem:
    """A penalized fit in control space: what the randomized solver reads.

    ``grams`` holds one normal matrix per direction, ``(K,)`` for a curve and
    ``(Ku, Kv)`` for a surface, with ``K = A^T A + lam G^T G`` of that
    direction's design ``A`` and penalty ``G``; a surface's stacked system
    has the normal matrix ``kron(Kv, Ku)``. ``design_grams`` holds the
    matching ``A^T A``. ``rhs`` is ``A^T q``, (n+1, ncoord), or
    ``A^T Q B``, (n1+1, n2+1, ncoord), and ``data_norm_sq`` is ``|q|^2``.
    The solver patches each design gram on the coupled windows of its gram's
    partition, so a design gram may have no nonzero outside them
    (:meth:`BlockPartition.covers`).
    """

    grams: tuple
    design_grams: tuple
    rhs: np.ndarray
    data_norm_sq: float


@dataclass(frozen=True)
class AugmentedCurveSystem:
    """Design matrix stacked over the scaled penalty, with zero-padded targets.

    ``stacked`` is ((m+1)+(n+1)) x (n+1) in Fortran order so column blocks
    slice to views; ``targets`` carries one column per point coordinate and is
    zero below row ``data_rows``. The fields of a one-direction
    :class:`NormalSystem` (``grams``, ``design_grams``, ``rhs``,
    ``data_norm_sq``) are built from the stack on first use, so the
    randomized solver runs on either.
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
    def grams(self) -> tuple:
        """``(S^T S,)``, ``S^T S = A^T A + lam G^T G`` of the stacked matrix ``S``; banded."""
        return (self.stacked.T @ self.stacked,)

    @cached_property
    def design_grams(self) -> tuple:
        """``(A^T A,)``."""
        return (self.design.T @ self.design,)

    @cached_property
    def rhs(self) -> np.ndarray:
        """``S^T`` times the zero-padded targets, which is ``A^T q``."""
        return self.stacked.T @ self.targets

    @cached_property
    def data_norm_sq(self) -> float:
        """``|q|^2``."""
        return float(np.vdot(self.data, self.data))


@dataclass(frozen=True)
class AugmentedSurfaceSystem:
    """Stacked row/column factors and zero-padded target grid.

    ``row_stacked`` is [A; sqrt(lam) Lu], ``col_stacked`` is [B; sqrt(lam) Lv],
    and ``targets`` puts the data grid in the top-left block of an otherwise
    zero array of shape (rows(A)+rows(Lu), rows(B)+rows(Lv), ncoord).
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
    """Contiguous column blocks of a gram ``K``, with selection weights and windows.

    Block ``t`` is the column slice ``spans[t]``, which the solvers index
    with; ``blocks[t]`` holds the same columns as an index array, for the
    oracles. The spans tile the columns in order. ``norms_sq[t]`` sums
    ``diag(K)`` over the block: for ``K = M^T M`` the squared Frobenius norm
    of ``M``'s column block. ``probabilities`` are those norms normalized to
    sum to one. ``coupled[t]`` is the smallest contiguous slice holding the
    block and every row where ``K[:, block]`` has a nonzero, so a block
    update moves ``K @ x`` only inside it; ``inner[t]`` is where the block
    lies within that window. The solvers patch ``A^T A @ x`` on the same
    windows, which is exact only when the design gram's nonzeros lie inside
    them (:meth:`covers`); ``run`` checks this. ``cumulative`` holds the
    running sums of ``probabilities``, the last set to exactly 1: a uniform
    ``u`` in [0, 1) draws the block ``searchsorted(cumulative, u, "right")``.
    """

    spans: tuple[slice, ...]
    blocks: tuple[np.ndarray, ...]
    norms_sq: np.ndarray
    probabilities: np.ndarray
    coupled: tuple[slice, ...]
    inner: tuple[slice, ...] = field(init=False, repr=False)
    cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        inner = tuple(
            slice(span.start - window.start, span.stop - window.start)
            for span, window in zip(self.spans, self.coupled)
        )
        cumulative = np.cumsum(self.probabilities)
        cumulative[-1] = 1.0
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "cumulative", cumulative)

    def __len__(self) -> int:
        return len(self.spans)

    def covers(self, matrix) -> bool:
        """Whether every nonzero of ``matrix[:, spans[t]]`` lies in ``coupled[t]``.

        For ``K = A^T A + lam G^T G`` with the gram and penalty gram both
        banded this holds unless an entry of ``A^T A`` at the edge of ``K``'s
        band cancels exactly.
        """
        nonzero = np.asarray(matrix) != 0.0
        return not any(
            nonzero[: window.start, span].any() or nonzero[window.stop :, span].any()
            for span, window in zip(self.spans, self.coupled)
        )


def gram_partition(gram, block_size: int) -> BlockPartition:
    """Contiguous column blocks of ``block_size`` (ragged tail allowed) of a gram.

    ``gram`` is a symmetric positive semidefinite ``K``; the selection
    weights and the coupled windows come from its diagonal and its nonzero
    pattern (see :class:`BlockPartition`).

    Raises
    ------
    ZeroColumnBlock
        If any block has zero norm (it could never be selected).
    """
    k = np.asarray(gram, dtype=float)
    if block_size < 1:
        raise InvalidConfig("block size must be >= 1")
    n_cols = k.shape[1]
    spans = tuple(
        slice(start, min(start + block_size, n_cols)) for start in range(0, n_cols, block_size)
    )
    diagonal = np.diagonal(k)
    norms = np.asarray([float(diagonal[span].sum()) for span in spans])
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise ZeroColumnBlock(f"column block {bad} has zero norm")
    # the diagonal counts as nonzero, so each window holds its own block
    nonzero = (k != 0.0) | np.eye(n_cols, dtype=bool)
    coupled = tuple(_hull(np.flatnonzero(nonzero[:, span].any(axis=1))) for span in spans)
    blocks = tuple(np.arange(span.start, span.stop) for span in spans)
    return BlockPartition(spans, blocks, norms, norms / norms.sum(), coupled)


def _hull(indices: np.ndarray) -> slice:
    return slice(int(indices[0]), int(indices[-1]) + 1)


def make_partition(matrix, block_size: int) -> BlockPartition:
    """:func:`gram_partition` of ``matrix^T matrix``: the column blocks of ``matrix``.

    Selection weights are the squared Frobenius norms of the column blocks of
    ``matrix``, normalized by the total squared norm.
    """
    mat = np.asarray(matrix, dtype=float)
    return gram_partition(mat.T @ mat, block_size)
