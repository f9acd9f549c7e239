"""Doubly randomized block iteration for a penalized tensor surface fit, in control space.

Each iteration draws one row block and one column block independently (each
with probability proportional to the squared Frobenius norm of the matching
column block of its stacked factor, ``Ah = [A; sqrt(lam) Lu]`` or
``Bh = [B; sqrt(lam) Lv]``) and updates the selected control subgrid along
the block correlation ``g = Ah^T (T - Ah P Bh^T) Bh = A^T Q B - Ku P Kv``
with the factor grams ``Ku = Ah^T Ah`` and ``Kv = Bh^T Bh``. The state
keeps only control-space arrays: ``P``, ``g``, the design image
``h = (A^T A) P (B^T B)`` and the scalar ``f^2 = |A P B^T|^2``. A step
patches ``g`` and ``h`` on the coupled window of its subgrid; neither the
stacked factors nor the fitted points are ever formed. The three point
coordinates evolve under identical block draws.

The Kronecker product of the two factors is never formed; every update works
on the small factor grams directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import BlockPartition, SurfaceNormalSystem
from .driver import FitResult, StoppingRule, iterate, make_rng
from .errors import DimensionMismatch


@dataclass
class SurfaceFitState:
    """Mutable iteration state; arrays are coordinate-first internally."""

    system: SurfaceNormalSystem
    control_grid: np.ndarray      # P, (ncoord, n1 + 1, n2 + 1)
    correlation: np.ndarray       # g = A^T Q B - Ku P Kv, same shape
    design_image: np.ndarray      # h = (A^T A) P (B^T B), same shape
    fitted_norm_sq: float         # f^2 = |A P B^T|^2
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0

    def residual_norm(self) -> float:
        """``|T - Ah P Bh^T|``, from ``|Q|^2 - <P, A^T Q B + g>`` in O(n)."""
        system = self.system
        rhs = np.moveaxis(system.rhs, -1, 0)
        cross = np.vdot(self.control_grid, rhs + self.correlation)
        return math.sqrt(max(system.data_norm_sq - cross, 0.0))


def init_state(system: SurfaceNormalSystem, grid0, seed) -> SurfaceFitState:
    """Fresh state at iterate 0 with correlation and design image from scratch."""
    grid = np.asarray(grid0, dtype=float)
    if grid.shape != system.rhs.shape:
        raise DimensionMismatch(
            f"initial control grid has shape {grid.shape}, expected {system.rhs.shape}"
        )
    # Always a copy: with one coordinate the moved view is already contiguous,
    # and the iteration must not write into the caller's grid.
    controls = np.moveaxis(grid, -1, 0).copy()
    state = SurfaceFitState(system, controls, None, None, 0.0, 0, make_rng(seed))
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

    The move is ``delta = g[t, s] / (|Ah[:, t]|^2 |Bh[:, s]|^2)``. On the
    coupled window ``wt x ws`` the correlation loses
    ``Ku[wt, t] @ delta @ Kv[s, ws]`` and the design image gains
    ``u = (A^T A)[wt, t] @ delta @ (B^T B)[s, ws]``. The fitted points move by
    ``A delta B^T``, with ``|A delta B^T|^2 = <delta, u[t, s]>``, and
    ``|A P B^T|^2`` grows by ``2 <h[t, s], delta> + |A delta B^T|^2``.
    """
    t, s = select_blocks(state, row_partition, col_partition)
    row_block = row_partition.spans[t]
    col_block = col_partition.spans[s]
    wt = row_partition.coupled[t]
    ws = col_partition.coupled[s]
    system = state.system
    scale = row_partition.norms_sq[t] * col_partition.norms_sq[s]
    delta = state.correlation[:, row_block, col_block] / scale
    state.control_grid[:, row_block, col_block] += delta
    state.correlation[:, wt, ws] -= (
        system.gram_u[wt, row_block] @ delta @ system.gram_v[col_block, ws]
    )
    image = system.design_gram_u[wt, row_block] @ delta @ system.design_gram_v[col_block, ws]
    inside = image[:, row_partition.inner[t], col_partition.inner[s]]
    move_sq = max(float(np.vdot(delta, inside)), 0.0)
    before = state.design_image[:, row_block, col_block]
    state.fitted_norm_sq += 2.0 * float(np.vdot(before, delta)) + move_sq
    state.design_image[:, wt, ws] += image
    state.last_move_norm = math.sqrt(move_sq)
    state.iteration += 1
    return state


def _refresh(state: SurfaceFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift.
    system = state.system
    grid = state.control_grid
    state.correlation = np.moveaxis(system.rhs, -1, 0) - system.gram_u @ grid @ system.gram_v
    state.design_image = system.design_gram_u @ grid @ system.design_gram_v
    state.fitted_norm_sq = float(np.vdot(grid, state.design_image))


def run(
    system: SurfaceNormalSystem,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
    grid0,
    stop: StoppingRule,
    seed,
    trajectory_stride: int = 10,
) -> FitResult:
    """Iterate until the fitted surface points settle or the cap is hit.

    The partitions are those of ``gram_u`` and ``gram_v``. The change
    criterion uses the unpenalized fitted points ``A P B^T`` over all
    coordinates; see :func:`rpia.driver.iterate`. Raises
    :class:`DimensionMismatch` if a design gram has a nonzero outside its
    partition's windows.
    """
    if not (row_partition.covers(system.design_gram_u)
            and col_partition.covers(system.design_gram_v)):
        raise DimensionMismatch("a design gram has nonzeros outside its gram's coupled windows")
    state = init_state(system, grid0, seed)
    converged, reason, trajectory = iterate(
        state, step, (row_partition, col_partition), _refresh, stop, trajectory_stride
    )
    return FitResult(
        np.moveaxis(state.control_grid, 0, -1).copy(), state.iteration, converged, reason,
        trajectory,
    )
