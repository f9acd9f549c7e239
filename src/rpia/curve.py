"""Randomized block-coordinate iteration for a penalized curve fit, in control space.

Each iteration draws one column block of the stacked matrix ``S = [A;
sqrt(lam) G]`` with probability proportional to its squared Frobenius norm
(the block's share of ``diag(K)``, ``K = S^T S``) and moves the
corresponding control points along the block correlation
``g = S^T (T - S P) = A^T q - K P``. This is the least-squares
progressive-iterative form of the iteration, randomized coordinate descent
on the normal equations, and it needs only n x n arrays: the state keeps the
controls ``P``, the scalar ``f^2 = |A P|^2`` and one stacked array
``[g, h]`` of the correlation and the design image ``h = A^T A P``. The two
grams that move them are stacked once too, as ``[-K, A^T A]``, so a step
patches ``g`` and ``h`` on the block's coupled window with one batched
product and one in-place add. Neither the stacked system nor the fitted
points are ever formed. All point coordinates share the same block draw.

What a step reads of its block is one step-table entry: the views of ``g``,
``P`` and ``h`` on the block and of ``[g, h]`` on its coupled window, the
contiguous gram slab, a preallocated update buffer and the block's scale.
``run`` keeps a table of these, built on first draw; ``step`` draws one
block with one scalar draw and builds its entry with the same builder, so
both apply the one step body. The loop around the steps, with the block
draws made one chunk per refresh interval, lives in :mod:`rpia.driver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import BlockPartition, CurveNormalSystem
from .driver import FitResult, StepTable, StoppingRule, iterate, make_rng
from .errors import DimensionMismatch


@dataclass
class CurveFitState:
    """Mutable iteration state: controls, correlation, design image, ``|A P|^2``, RNG.

    ``system`` is a :class:`~rpia.assembly.CurveNormalSystem` or anything
    with its fields, such as a dense
    :class:`~rpia.assembly.AugmentedCurveSystem`. ``correlation`` and
    ``design_image`` are views of ``images``, so writes through them reach
    the next step.
    """

    system: CurveNormalSystem
    control_points: np.ndarray    # P, (n + 1, ncoord)
    images: np.ndarray            # [g, h] = [A^T q - K P, A^T A P], (2, n + 1, ncoord)
    grams: np.ndarray             # [-K, A^T A], (2, n + 1, n + 1)
    fitted_norm_sq: float         # f^2 = |A P|^2
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0

    @property
    def correlation(self) -> np.ndarray:
        """``g = A^T q - K P``."""
        return self.images[0]

    @property
    def design_image(self) -> np.ndarray:
        """``h = A^T A P``."""
        return self.images[1]

    def residual_norm(self) -> float:
        """``|T - S P|``, from ``|T - S P|^2 = |q|^2 - <P, A^T q + g>`` in O(n)."""
        system = self.system
        cross = np.vdot(self.control_points, system.rhs + self.correlation)
        return math.sqrt(max(system.data_norm_sq - cross, 0.0))


def init_state(system: CurveNormalSystem, p0, seed) -> CurveFitState:
    """Fresh state at iterate 0 with the correlation and design image from scratch."""
    controls = np.array(p0, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    if controls.shape != system.rhs.shape:
        raise DimensionMismatch(
            f"initial controls have shape {controls.shape}, expected {system.rhs.shape}"
        )
    images = np.empty((2,) + controls.shape)
    grams = np.stack([-system.gram, system.design_gram])
    state = CurveFitState(system, controls, images, grams, 0.0, 0, make_rng(seed))
    _refresh(state)
    return state


def select_block(state: CurveFitState, partition: BlockPartition) -> int:
    """Draw a block index from the partition's norm-weighted distribution."""
    return partition.block_at(state.rng.random())


def _entry(state: CurveFitState, partition: BlockPartition, t: int) -> tuple:
    """Block ``t``'s step-table entry: views of ``g``, ``P`` and ``h`` on the
    block and of ``[g, h]`` on its coupled window, the contiguous slab
    ``[-K, A^T A][:, w, block]``, an update buffer with its view on the
    block, and the block's squared norm. The views stay live: the state's
    arrays are only ever written in place."""
    block, coupled = partition.spans[t], partition.coupled[t]
    images = state.images
    slab = np.ascontiguousarray(state.grams[:, coupled, block])
    update = np.empty(images[:, coupled].shape)
    return (
        images[0, block], state.control_points[block], images[1, block], images[:, coupled],
        slab, update, update[1, partition.inner[t]], float(partition.norms_sq[t]),
    )


def _body(state: CurveFitState, entry: tuple) -> None:
    """One block update from the block's table entry (see :func:`step`)."""
    correlation, controls, image, window, slab, update, inner, scale = entry
    delta = correlation / scale
    controls += delta
    np.matmul(slab, delta, out=update)
    move_sq = max(float(np.vdot(delta, inner)), 0.0)
    state.fitted_norm_sq += 2.0 * float(np.vdot(image, delta)) + move_sq
    window += update
    state.last_move_norm = math.sqrt(move_sq)
    state.iteration += 1


def step(state: CurveFitState, partition: BlockPartition) -> CurveFitState:
    """One randomized block update, applied in place, with one scalar draw.

    The move is ``delta = g[block] / |S[:, block]|^2``. Only the drawn block
    of control points changes. On the block's coupled window ``w`` one
    batched product ``[-K, A^T A][:, w, block] @ delta`` gives both patches:
    the correlation gains ``-K[w, block] @ delta`` and the design image gains
    ``u = (A^T A)[w, block] @ delta``. The fitted points move by ``A delta``,
    with ``|A delta|^2 = <delta, u[block]>``, and ``|A P|^2`` grows by
    ``2 <h[block], delta> + |A delta|^2``.
    """
    _body(state, _entry(state, partition, select_block(state, partition)))
    return state


def _refresh(state: CurveFitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift. In place, so arrays
    # read through ``correlation`` and ``design_image`` stay live.
    controls = state.control_points
    images = state.images
    np.matmul(state.grams, controls, out=images)
    images[0] += state.system.rhs
    state.fitted_norm_sq = float(np.vdot(controls, images[1]))


def run(
    system: CurveNormalSystem,
    partition: BlockPartition,
    p0,
    stop: StoppingRule,
    seed,
    trajectory_stride: int = 10,
) -> FitResult:
    """Iterate until the fitted points settle or the iteration cap is hit.

    Parameters
    ----------
    system, partition : the normal system and the column blocks of its gram.
    p0 : array_like
        Initial control points, shape (n_controls, ncoord).
    stop : StoppingRule
    seed : int or numpy.random.Generator
        Philox key for the block draws.
    trajectory_stride : int
        Record a trajectory sample every this many iterations (0 disables).

    Raises
    ------
    DimensionMismatch
        If ``design_gram`` has a nonzero outside the partition's windows.
    """
    if not partition.covers(system.design_gram):
        raise DimensionMismatch("the design gram has nonzeros outside the gram's coupled windows")
    state = init_state(system, p0, seed)
    table = StepTable(lambda t: _entry(state, partition, t))
    converged, reason, trajectory = iterate(
        state, _body, table, (partition,), _refresh, stop, trajectory_stride
    )
    return FitResult(state.control_points, state.iteration, converged, reason, trajectory)
