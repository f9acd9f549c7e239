"""Randomized block iteration for a penalized curve fit, in control space.

Each iteration draws one column block of the stacked matrix ``S = [A;
sqrt(lam) G]`` with probability proportional to its squared Frobenius norm
(the block's share of ``diag(K)``, ``K = S^T S``) and moves the
corresponding control points along the block correlation
``g = S^T (T - S P) = A^T q - K P``: the least-squares progressive-iterative
form of the iteration. It is :mod:`rpia.driver`'s kernel over one factor,
and a curve's (n + 1, ncoord) controls are already in the kernel's layout;
this module is the curve's entry to it.
"""

from __future__ import annotations

import numpy as np

from . import driver
from .assembly import BlockPartition, NormalSystem
from .driver import FitResult, FitState, StoppingRule
from .errors import DimensionMismatch


def init_state(system: NormalSystem, p0, seed) -> FitState:
    """Fresh state at iterate 0 from a copy of ``p0``; a 1-D ``p0`` is one coordinate.

    ``system`` is a one-direction :class:`~rpia.assembly.NormalSystem` or
    anything with its fields, such as a dense
    :class:`~rpia.assembly.AugmentedCurveSystem`.
    """
    controls = np.array(p0, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    if controls.shape != system.rhs.shape:
        raise DimensionMismatch(
            f"initial controls have shape {controls.shape}, expected {system.rhs.shape}"
        )
    return driver.init_state(system, controls, system.rhs, seed)


def step(state: FitState, partition: BlockPartition) -> FitState:
    """One randomized block update, applied in place, with one uniform draw
    (see :func:`rpia.driver.step`)."""
    driver.step(state, (partition,))
    return state


def run(
    system: NormalSystem,
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
        If the design gram has a nonzero outside the partition's windows.
    """
    state = init_state(system, p0, seed)
    return driver.run(system, (partition,), state, stop, trajectory_stride)
