"""Doubly randomized block iteration for the stacked tensor surface system.

Each iteration draws one row block and one column block independently (each
with probability proportional to the squared Frobenius norm of the matching
column block of its stacked factor), updates the selected control subgrid,
and patches the residual with the same low-rank product. The three point
coordinates evolve under identical block draws.

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
    residual: np.ndarray          # (ncoord, rows(A)+rows(Lu), rows(B)+rows(Lv))
    fitted_points: np.ndarray     # (ncoord, m + 1, p + 1)
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0


@dataclass(frozen=True)
class SurfaceFitResult:
    control_grid: np.ndarray      # (n1 + 1, n2 + 1, ncoord)
    iterations: int
    converged: bool
    stop_reason: str
    trajectory: tuple[TrajectorySample, ...] = field(default_factory=tuple)


def init_state(system: AugmentedSurfaceSystem, grid0, seed) -> SurfaceFitState:
    """Fresh state at iterate 0 with residual and fitted points from scratch."""
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
    residual = np.empty((ncoord, system.row_stacked.shape[0], system.col_stacked.shape[0]))
    fitted = np.empty((ncoord, system.data_rows, system.data_cols))
    state = SurfaceFitState(system, controls, residual, fitted, 0, make_rng(seed))
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
    """One randomized subgrid update, applied in place.

    Only the residual window ``rows[t] x rows[s]`` can change, so the update
    works on that window for all coordinates in one batched product.
    """
    t, s = select_blocks(state, row_partition, col_partition)
    row_span = row_partition.spans[t]
    col_span = col_partition.spans[s]
    row_index = row_span if row_span is not None else row_partition.blocks[t]
    col_index = col_span if col_span is not None else col_partition.blocks[s]
    row_window = row_partition.rows[t]
    col_window = col_partition.rows[s]
    system = state.system
    a = system.row_stacked[row_window, row_index]
    b = system.col_stacked[col_window, col_index]
    window = state.residual[:, row_window, col_window]
    delta = a.T @ window @ b
    delta /= row_partition.norms_sq[t] * col_partition.norms_sq[s]
    if row_span is not None and col_span is not None:
        state.control_grid[:, row_span, col_span] += delta
    else:
        rows, cols = np.ix_(row_partition.blocks[t], col_partition.blocks[s])
        state.control_grid[:, rows, cols] += delta
    move = a @ delta @ b.T
    window -= move
    # The part of the window inside the data grid moves the fitted points.
    r0 = row_window.start
    c0 = col_window.start
    top = move[:, : max(system.data_rows - r0, 0), : max(system.data_cols - c0, 0)]
    state.fitted_points[:, r0: r0 + top.shape[1], c0: c0 + top.shape[2]] += top
    state.last_move_norm = math.sqrt(np.einsum("fij,fij->", top, top))
    state.iteration += 1
    return state


def _refresh(state: SurfaceFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift.
    system = state.system
    for f in range(state.control_grid.shape[0]):
        state.residual[f] = (
            system.targets[:, :, f]
            - system.row_stacked @ state.control_grid[f] @ system.col_stacked.T
        )
        state.fitted_points[f] = (
            system.design_u @ state.control_grid[f] @ system.design_v.T
        )


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
