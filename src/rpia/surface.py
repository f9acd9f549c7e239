"""Doubly randomized block iteration for a penalized tensor surface fit, in control space.

Each iteration draws one row block and one column block independently (each
with probability proportional to the squared Frobenius norm of the matching
column block of its stacked factor, ``Ah = [A; sqrt(lam) Lu]`` or
``Bh = [B; sqrt(lam) Lv]``) and updates the selected control subgrid along
the block correlation ``g = Ah^T (T - Ah P Bh^T) Bh = A^T Q B - Ku P Kv``
with the factor grams ``Ku = Ah^T Ah`` and ``Kv = Bh^T Bh``; the Kronecker
product of the two is never formed. It is :mod:`rpia.driver`'s kernel over
two factors. The kernel keeps its arrays coordinate first, so this module,
the surface's entry to it, moves the coordinate axis of the start and of
``A^T Q B`` to the front on the way in, and back on the way out.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import driver
from .assembly import BlockPartition, NormalSystem
from .driver import FitResult, FitState, StoppingRule
from .errors import DimensionMismatch


def init_state(system: NormalSystem, grid0, seed) -> FitState:
    """Fresh state at iterate 0, its arrays coordinate first: (ncoord, n1 + 1, n2 + 1)."""
    grid = np.asarray(grid0, dtype=float)
    if grid.shape != system.rhs.shape:
        raise DimensionMismatch(
            f"initial control grid has shape {grid.shape}, expected {system.rhs.shape}"
        )
    # Always a copy: with one coordinate the moved view is already contiguous,
    # and the iteration must not write into the caller's grid.
    controls = np.moveaxis(grid, -1, 0).copy()
    rhs = np.ascontiguousarray(np.moveaxis(system.rhs, -1, 0))
    return driver.init_state(system, controls, rhs, seed)


def step(
    state: FitState,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
) -> FitState:
    """One randomized subgrid update, applied in place, all coordinates at
    once, with two uniform draws, row block first (see :func:`rpia.driver.step`)."""
    driver.step(state, (row_partition, col_partition))
    return state


def run(
    system: NormalSystem,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
    grid0,
    stop: StoppingRule,
    seed,
    trajectory_stride: int = 10,
) -> FitResult:
    """Iterate until the fitted surface points settle or the cap is hit.

    The partitions are those of ``Ku`` and ``Kv``. The change criterion uses
    the unpenalized fitted points ``A P B^T`` over all coordinates; see
    :func:`rpia.driver.run`. Raises :class:`DimensionMismatch` if a
    design gram has a nonzero outside its partition's windows.
    """
    state = init_state(system, grid0, seed)
    result = driver.run(system, (row_partition, col_partition), state, stop, trajectory_stride)
    return replace(result, control_points=np.moveaxis(result.control_points, 0, -1).copy())
