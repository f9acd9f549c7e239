"""Doubly randomized block iteration for the stacked tensor surface system.

Each iteration draws one row block and one column block independently (each
with probability proportional to the squared Frobenius norm of the matching
column block of its stacked factor) and updates the selected control
subgrid. With the stacked factors ``Ah = [A; sqrt(lam) Lu]`` and
``Bh = [B; sqrt(lam) Lv]`` the state keeps the block correlation
``g = Ah^T (T - Ah P Bh^T) Bh`` in control space, never the stacked
residual: a step reads ``g`` on its subgrid and patches it on the coupled
window through the factor grams ``Ku = Ah^T Ah`` and ``Kv = Bh^T Bh``. The
three point coordinates evolve under identical block draws.

The Kronecker product of the two factors is never formed; every update works
on the small factors directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import AugmentedSurfaceSystem, BlockPartition
from .driver import StoppingRule, TrajectorySample, iterate, make_rng
from .errors import DimensionMismatch


@dataclass
class SurfaceFitState:
    """Mutable iteration state; arrays are coordinate-first internally."""

    system: AugmentedSurfaceSystem
    control_grid: np.ndarray      # (ncoord, n1 + 1, n2 + 1)
    correlation: np.ndarray       # Ah^T (T - Ah P Bh^T) Bh, (ncoord, n1 + 1, n2 + 1)
    fitted_points: np.ndarray     # A P B^T, (ncoord, m + 1, p + 1)
    data: np.ndarray              # Q, (ncoord, m + 1, p + 1)
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0

    def residual_norm(self) -> float:
        """``|T - Ah P Bh^T|`` from the kept fitted points and the controls.

        With ``U = sqrt(lam) Lu`` and ``V = sqrt(lam) Lv`` the stacked
        residual's three penalty blocks sum to the control-space quadratic
        forms ``<X, (A^T A) X> + <Y, Y Kv>`` with ``X = P V^T`` and
        ``Y = U P``; the data block is ``Q - A P B^T``.
        """
        system = self.system
        grid = self.control_grid
        misfit = self.data - self.fitted_points
        x = grid @ system.col_stacked[system.data_cols:].T
        y = system.row_stacked[system.data_rows:] @ grid
        return math.sqrt(
            np.vdot(misfit, misfit)
            + np.vdot(x, system.design_gram_u @ x)
            + np.vdot(y, y @ system.col_gram)
        )


@dataclass(frozen=True)
class SurfaceFitResult:
    control_grid: np.ndarray      # (n1 + 1, n2 + 1, ncoord)
    iterations: int
    converged: bool
    stop_reason: str
    trajectory: tuple[TrajectorySample, ...] = field(default_factory=tuple)


def init_state(system: AugmentedSurfaceSystem, grid0, seed) -> SurfaceFitState:
    """Fresh state at iterate 0 with correlation and fitted points from scratch."""
    grid = np.asarray(grid0, dtype=float)
    ncoord = system.targets.shape[2]
    n_u, n_v = system.n_controls
    if grid.shape != (n_u, n_v, ncoord):
        raise DimensionMismatch(
            f"initial control grid has shape {grid.shape}, expected {(n_u, n_v, ncoord)}"
        )
    # Always a copy: with one coordinate the moved view is already contiguous,
    # and the iteration must not write into the caller's grid.
    controls = np.moveaxis(grid, -1, 0).copy()
    data = np.moveaxis(system.data, -1, 0).copy()
    state = SurfaceFitState(system, controls, None, None, data, 0, make_rng(seed))
    _refresh(state)
    return state


def select_blocks(
    state: SurfaceFitState,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
) -> tuple[int, int]:
    """Two independent categorical draws: row block first, then column block."""
    t = row_partition.block_at(state.rng.random())
    s = col_partition.block_at(state.rng.random())
    return t, s


def step(
    state: SurfaceFitState,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
) -> SurfaceFitState:
    """One randomized subgrid update, applied in place, all coordinates at once.

    The move is ``delta = g[t, s] / (|Ah[:, t]|^2 |Bh[:, s]|^2)``. The
    correlation changes only on the coupled window ``wt x ws``, by
    ``Ku[wt, t] @ delta @ Kv[s, ws]``, and the fitted points only on the
    blocks' row windows in the designs, by ``A[rows, t] @ delta @ B[cols, s]^T``.
    """
    t, s = select_blocks(state, row_partition, col_partition)
    row_block = row_partition.spans[t]
    col_block = col_partition.spans[s]
    system = state.system
    scale = row_partition.norms_sq[t] * col_partition.norms_sq[s]
    delta = state.correlation[:, row_block, col_block] / scale
    state.control_grid[:, row_block, col_block] += delta
    wt = row_partition.coupled[t]
    ws = col_partition.coupled[s]
    state.correlation[:, wt, ws] -= (
        system.row_gram[wt, row_block] @ delta @ system.col_gram[col_block, ws]
    )
    rows = row_partition.row_windows(system.data_rows)[t]
    cols = col_partition.row_windows(system.data_cols)[s]
    top = system.row_stacked[rows, row_block] @ delta @ system.col_stacked[cols, col_block].T
    state.fitted_points[:, rows, cols] += top
    state.last_move_norm = math.sqrt(np.vdot(top, top))
    state.iteration += 1
    return state


def _refresh(state: SurfaceFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift.
    system = state.system
    grid = state.control_grid
    residual = (
        np.moveaxis(system.targets, -1, 0)
        - system.row_stacked @ grid @ system.col_stacked.T
    )
    state.correlation = system.row_stacked.T @ residual @ system.col_stacked
    state.fitted_points = system.design_u @ grid @ system.design_v.T


def run(
    system: AugmentedSurfaceSystem,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
    grid0,
    stop: StoppingRule,
    seed,
    trajectory_stride: int = 10,
) -> SurfaceFitResult:
    """Iterate until the fitted surface points settle or the cap is hit.

    The change criterion uses the unpenalized fitted points
    (design_u @ P @ design_v^T over all coordinates); see
    :func:`rpia.driver.iterate`.
    """
    state = init_state(system, grid0, seed)
    converged, reason, trajectory = iterate(
        state, step, (row_partition, col_partition), _refresh, stop, trajectory_stride
    )
    return SurfaceFitResult(
        np.moveaxis(state.control_grid, 0, -1).copy(),
        state.iteration,
        converged,
        reason,
        trajectory,
    )
