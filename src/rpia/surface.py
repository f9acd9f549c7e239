"""Doubly randomized block iteration for a penalized tensor surface fit, in control space.

Each iteration draws one row block and one column block independently (each
with probability proportional to the squared Frobenius norm of the matching
column block of its stacked factor, ``Ah = [A; sqrt(lam) Lu]`` or
``Bh = [B; sqrt(lam) Lv]``) and updates the selected control subgrid along
the block correlation ``g = Ah^T (T - Ah P Bh^T) Bh = A^T Q B - Ku P Kv``
with the factor grams ``Ku = Ah^T Ah`` and ``Kv = Bh^T Bh``. The state
keeps only control-space arrays, coordinate first: ``P``, ``A^T Q B``, the
scalar ``f^2 = |A P B^T|^2`` and one stacked array ``[g, h]`` of the
correlation and the design image ``h = (A^T A) P (B^T B)``. Each factor's
two grams are stacked once, as ``[-Ku, A^T A]`` and ``[Kv, B^T B]``, so a
step patches ``g`` and ``h`` on the coupled window of its subgrid with one
batched chain of two products and one in-place add; neither the stacked
factors nor the fitted points are ever formed. The three point coordinates
evolve under identical block draws.

The Kronecker product of the two factors is never formed; every update works
on the small factor grams directly.

What a step reads of its subgrid is one step-table entry: the views of
``g``, ``P`` and ``h`` on the subgrid and of ``[g, h]`` on its coupled
window, each factor's contiguous gram slab and the subgrid's scale. ``run``
keys its table by the drawn pair ``(t, s)`` and builds an entry on its first
draw, so a run holds at most one entry per step it makes, however many
block pairs the partitions have (6 561 at 401 x 401 controls in blocks of
5); the slabs are built once per factor block and shared. ``step`` draws
with two scalar draws and builds its entry with the same builder, so both
apply the one step body. The loop around the steps, with the block draws
made one chunk per refresh interval, lives in :mod:`rpia.driver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import BlockPartition, SurfaceNormalSystem
from .driver import FitResult, StepTable, StoppingRule, iterate, make_rng
from .errors import DimensionMismatch


@dataclass
class SurfaceFitState:
    """Mutable iteration state; arrays are coordinate-first internally.

    ``correlation`` and ``design_image`` are views of ``images``, so writes
    through them reach the next step.
    """

    system: SurfaceNormalSystem
    control_grid: np.ndarray      # P, (ncoord, n1 + 1, n2 + 1)
    rhs: np.ndarray               # A^T Q B, same shape
    images: np.ndarray            # [g, h] = [A^T Q B - Ku P Kv, (A^T A) P (B^T B)]
    grams_u: np.ndarray           # [-Ku, A^T A], (2, 1, n1 + 1, n1 + 1)
    grams_v: np.ndarray           # [Kv, B^T B], (2, 1, n2 + 1, n2 + 1)
    fitted_norm_sq: float         # f^2 = |A P B^T|^2
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0

    @property
    def correlation(self) -> np.ndarray:
        """``g = A^T Q B - Ku P Kv``."""
        return self.images[0]

    @property
    def design_image(self) -> np.ndarray:
        """``h = (A^T A) P (B^T B)``."""
        return self.images[1]

    def residual_norm(self) -> float:
        """``|T - Ah P Bh^T|``, from ``|Q|^2 - <P, A^T Q B + g>`` in O(n)."""
        cross = np.vdot(self.control_grid, self.rhs + self.images[0])
        return math.sqrt(max(self.system.data_norm_sq - cross, 0.0))


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
    rhs = np.ascontiguousarray(np.moveaxis(system.rhs, -1, 0))
    images = np.empty((2,) + controls.shape)
    grams_u = np.stack([-system.gram_u, system.design_gram_u])[:, None]
    grams_v = np.stack([system.gram_v, system.design_gram_v])[:, None]
    state = SurfaceFitState(
        system, controls, rhs, images, grams_u, grams_v, 0.0, 0, make_rng(seed)
    )
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


def _row(state: SurfaceFitState, partition: BlockPartition, t: int) -> tuple:
    """Row block ``t``: its span, window, inner slice, squared norm and the
    contiguous slab ``[-Ku, A^T A][:, :, wt, t]``."""
    span, window = partition.spans[t], partition.coupled[t]
    slab = np.ascontiguousarray(state.grams_u[:, :, window, span])
    return span, window, partition.inner[t], partition.norms_sq[t], slab


def _column(state: SurfaceFitState, partition: BlockPartition, s: int) -> tuple:
    """Column block ``s``: as :func:`_row`, with the slab ``[Kv, B^T B][:, :, s, ws]``."""
    span, window = partition.spans[s], partition.coupled[s]
    slab = np.ascontiguousarray(state.grams_v[:, :, span, window])
    return span, window, partition.inner[s], partition.norms_sq[s], slab


def _entry(state: SurfaceFitState, row: tuple, column: tuple) -> tuple:
    """The subgrid's step-table entry from its row and column blocks: views
    of ``g``, ``P`` and ``h`` on the subgrid and of ``[g, h]`` on its coupled
    window, both slabs, the index of the subgrid in the update, and the
    scale. The views stay live: the state's arrays are only ever written in
    place."""
    row_block, wt, inner_t, norm_t, slab_u = row
    col_block, ws, inner_s, norm_s, slab_v = column
    images = state.images
    return (
        images[0, :, row_block, col_block], state.control_grid[:, row_block, col_block],
        images[1, :, row_block, col_block], images[:, :, wt, ws], slab_u, slab_v,
        (1, slice(None), inner_t, inner_s), float(norm_t * norm_s),
    )


def _body(state: SurfaceFitState, entry: tuple) -> None:
    """One subgrid update from the subgrid's table entry (see :func:`step`)."""
    correlation, controls, image, window, slab_u, slab_v, inside, scale = entry
    delta = correlation / scale
    controls += delta
    update = slab_u @ delta @ slab_v
    move_sq = max(float(np.vdot(delta, update[inside])), 0.0)
    state.fitted_norm_sq += 2.0 * float(np.vdot(image, delta)) + move_sq
    window += update
    state.last_move_norm = math.sqrt(move_sq)
    state.iteration += 1


def step(
    state: SurfaceFitState,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
) -> SurfaceFitState:
    """One randomized subgrid update, applied in place, all coordinates at
    once, with two scalar draws.

    The move is ``delta = g[t, s] / (|Ah[:, t]|^2 |Bh[:, s]|^2)``. On the
    coupled window ``wt x ws`` one batched chain
    ``[-Ku, A^T A][wt, t] @ delta @ [Kv, B^T B][s, ws]`` gives both patches:
    the correlation gains ``-Ku[wt, t] @ delta @ Kv[s, ws]`` and the design
    image gains ``u = (A^T A)[wt, t] @ delta @ (B^T B)[s, ws]``. The fitted
    points move by ``A delta B^T``, with
    ``|A delta B^T|^2 = <delta, u[t, s]>``, and ``|A P B^T|^2`` grows by
    ``2 <h[t, s], delta> + |A delta B^T|^2``.
    """
    t, s = select_blocks(state, row_partition, col_partition)
    _body(state, _entry(state, _row(state, row_partition, t), _column(state, col_partition, s)))
    return state


def _refresh(state: SurfaceFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift. In place, so arrays
    # read through ``correlation`` and ``design_image`` stay live.
    grid = state.control_grid
    images = state.images
    np.matmul(state.grams_u @ grid, state.grams_v, out=images)
    images[0] += state.rhs
    state.fitted_norm_sq = float(np.vdot(grid, images[1]))


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
    rows = [_row(state, row_partition, t) for t in range(len(row_partition))]
    columns = [_column(state, col_partition, s) for s in range(len(col_partition))]
    table = StepTable(lambda t, s: _entry(state, rows[t], columns[s]))
    converged, reason, trajectory = iterate(
        state, _body, table, (row_partition, col_partition), _refresh, stop, trajectory_stride
    )
    return FitResult(
        np.moveaxis(state.control_grid, 0, -1).copy(), state.iteration, converged, reason,
        trajectory,
    )
