"""Randomized block-coordinate iteration for the stacked curve system.

Each iteration draws one column block with probability proportional to its
squared Frobenius norm, moves the corresponding control points along the
block correlation with the residual, and patches the residual incrementally.
All point coordinates share the same block draw. The loop around the steps
lives in :mod:`rpia.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import AugmentedCurveSystem, BlockPartition
from .driver import StoppingRule, TrajectorySample, iterate, make_rng
from .errors import DimensionMismatch


@dataclass
class CurveFitState:
    """Mutable iteration state: controls, residual, cached fitted points, RNG."""

    system: AugmentedCurveSystem
    control_points: np.ndarray
    residual: np.ndarray
    fitted_points: np.ndarray
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0


@dataclass(frozen=True)
class CurveFitResult:
    control_points: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    trajectory: tuple[TrajectorySample, ...] = field(default_factory=tuple)


def init_state(system: AugmentedCurveSystem, p0, seed) -> CurveFitState:
    """Fresh state at iterate 0 with the residual computed from scratch."""
    controls = np.array(p0, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    expected = (system.n_controls, system.targets.shape[1])
    if controls.shape != expected:
        raise DimensionMismatch(
            f"initial controls have shape {controls.shape}, expected {expected}"
        )
    state = CurveFitState(system, controls, None, None, 0, make_rng(seed))
    _refresh(state)
    return state


def select_block(state: CurveFitState, partition: BlockPartition) -> int:
    """Draw a block index from the partition's norm-weighted distribution."""
    return partition.block_at(state.rng.random())


def step(state: CurveFitState, partition: BlockPartition) -> CurveFitState:
    """One randomized block update, applied in place.

    Only the drawn block of control points changes; the residual and the
    cached fitted points are patched with the same column-block product,
    restricted to the block's row window ``rows[t]``.
    """
    t = select_block(state, partition)
    span = partition.spans[t]
    index = span if span is not None else partition.blocks[t]
    rows = partition.rows[t]
    cols = state.system.stacked[rows, index]
    window = state.residual[rows]
    delta = cols.T @ window
    delta /= partition.norms_sq[t]
    state.control_points[index] += delta
    move = cols @ delta
    window -= move
    top = move[: max(state.system.data_rows - rows.start, 0)]
    state.fitted_points[rows.start: rows.start + top.shape[0]] += top
    state.last_move_norm = float(np.linalg.norm(top))
    state.iteration += 1
    return state


def _refresh(state: CurveFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift.
    state.residual = state.system.targets - state.system.stacked @ state.control_points
    state.fitted_points = state.system.design @ state.control_points


def run(
    system: AugmentedCurveSystem,
    partition: BlockPartition,
    p0,
    stop: StoppingRule,
    seed,
    trajectory_stride: int = 10,
) -> CurveFitResult:
    """Iterate until the fitted points settle or the iteration cap is hit.

    Parameters
    ----------
    system, partition : the stacked problem and its column blocks.
    p0 : array_like
        Initial control points, shape (n_controls, ncoord).
    stop : StoppingRule
    seed : int or numpy.random.Generator
        Philox key for the block draws.
    trajectory_stride : int
        Record a trajectory sample every this many iterations (0 disables).
    """
    state = init_state(system, p0, seed)
    converged, reason, trajectory = iterate(
        state, step, (partition,), _refresh, stop, trajectory_stride
    )
    return CurveFitResult(
        state.control_points, state.iteration, converged, reason, trajectory
    )
