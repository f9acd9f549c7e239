"""Randomized block-coordinate iteration for the stacked curve system.

Each iteration draws one column block of the stacked matrix ``S`` with
probability proportional to its squared Frobenius norm and moves the
corresponding control points along the block correlation
``g = S^T (T - S P)``. The state keeps ``g`` in control space, never the
stacked residual ``T - S P``: a step reads ``g`` on its block and patches it
on the block's banded window through the gram ``K = S^T S``. This is the
least-squares progressive-iterative form of the iteration, randomized
coordinate descent on the normal equations. All point coordinates share the
same block draw. The loop around the steps lives in :mod:`rpia.driver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import AugmentedCurveSystem, BlockPartition
from .driver import StoppingRule, TrajectorySample, iterate, make_rng
from .errors import DimensionMismatch


@dataclass
class CurveFitState:
    """Mutable iteration state: controls, block correlation, fitted points, RNG."""

    system: AugmentedCurveSystem
    control_points: np.ndarray    # (n + 1, ncoord)
    correlation: np.ndarray       # S^T (T - S P), (n + 1, ncoord)
    fitted_points: np.ndarray     # A P, (m + 1, ncoord)
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0

    def residual_norm(self) -> float:
        """``|T - S P|`` from the kept fitted points and the controls.

        The data misfit ``|Q - A P|^2`` plus the penalty quadratic form
        ``P^T (lam G^T G) P``, evaluated through its factor ``sqrt(lam) G``.
        """
        system = self.system
        misfit = system.data - self.fitted_points
        penalty = system.stacked[system.data_rows:] @ self.control_points
        return math.sqrt(np.vdot(misfit, misfit) + np.vdot(penalty, penalty))


@dataclass(frozen=True)
class CurveFitResult:
    control_points: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    trajectory: tuple[TrajectorySample, ...] = field(default_factory=tuple)


def init_state(system: AugmentedCurveSystem, p0, seed) -> CurveFitState:
    """Fresh state at iterate 0 with the correlation computed from scratch."""
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

    The move is ``delta = g[block] / |S[:, block]|^2``. Only the drawn block
    of control points changes; the correlation is patched with
    ``K[coupled, block] @ delta`` on the block's coupled window, and the
    fitted points with ``A[rows, block] @ delta`` on its row window in the
    design.
    """
    t = select_block(state, partition)
    block = partition.spans[t]
    system = state.system
    delta = state.correlation[block] / partition.norms_sq[t]
    state.control_points[block] += delta
    coupled = partition.coupled[t]
    state.correlation[coupled] -= system.gram[coupled, block] @ delta
    rows = partition.row_windows(system.data_rows)[t]
    top = system.stacked[rows, block] @ delta
    state.fitted_points[rows] += top
    state.last_move_norm = math.sqrt(np.vdot(top, top))
    state.iteration += 1
    return state


def _refresh(state: CurveFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift.
    system = state.system
    residual = system.targets - system.stacked @ state.control_points
    state.correlation = system.stacked.T @ residual
    state.fitted_points = system.design @ state.control_points


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
