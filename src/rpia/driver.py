"""The iteration driver shared by the randomized curve and surface solvers.

A kernel supplies a state, a step table and a step body; the driver owns
what lies around each step: the block draws, the stop rule, trajectory
sampling and the periodic refresh. The table maps a tuple of drawn block
indices (one per factor, row block first) to the kernel's precomputed
entry for that block: its views of the state's arrays, gram slabs and
scale. ``body(state, entry)`` applies one step. The driver reads only what
both kernel states offer: the fields ``fitted_norm_sq`` (``|A P|^2``, the
squared norm of the unpenalized fitted points), ``last_move_norm`` (the
norm of the last step's move of those points), ``iteration``, ``rng``, and,
at sample times, the stacked residual's norm from ``residual_norm()``. Both
kernels carry these in control space, so the driver's work per step does
not depend on the number of data points.

Randomness comes from the Philox counter-based generator seeded per fit, so
a fit is a pure function of ``(system, partitions, start, stop, seed)``.
The draws are made one chunk per refresh interval: ``rng.random(k * n)``
for ``k`` factors and the ``n`` steps to the next refresh or to the cap,
which is the same stream as ``k * n`` scalar draws. The kernels' ``step``
makes the scalar draws one at a time, so a run equals a loop of ``step``
calls bit for bit. Only the generator's state after a run differs: the
unused tail of the last chunk has been drawn. No result reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The kernels' control-space images and |A P|^2 are patched incrementally on
# every step; at this period they are recomputed from the controls to shed
# float drift.
REFRESH_EVERY = 500


@dataclass(frozen=True)
class StoppingRule:
    """Relative-change tolerance on the fitted points plus an iteration cap.

    The change is measured on the unpenalized fitted points (design times
    controls), not on the stacked residual: a step's ``|A delta|`` over the
    previous ``|A P|``, both known in control space. When the previous fitted
    points have zero norm the criterion falls back to the absolute change.

    ``patience`` is the number of consecutive iterations the criterion must
    hold before stopping. A single block update can land exactly on its own
    block's stationary point (a one-column block drawn twice with no
    overlapping update in between has exactly zero move), so a single-hit
    rule stops far from convergence; a few consecutive hits filter that out.
    """

    tol: float = 1e-8
    max_iter: int = 8000
    patience: int = 3


@dataclass(frozen=True)
class TrajectorySample:
    iteration: int
    rel_change: float
    residual_norm: float


@dataclass(frozen=True)
class FitResult:
    """A randomized fit's controls and how it stopped.

    ``control_points`` has the shape of the fit's start: (n + 1, ncoord)
    for a curve, (n1 + 1, n2 + 1, ncoord) for a surface.
    """

    control_points: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    trajectory: tuple[TrajectorySample, ...] = ()


def make_rng(seed) -> np.random.Generator:
    """Philox stream keyed by ``seed``; a Generator is used as given."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


class StepTable(dict):
    """Step entries keyed by the tuple of drawn block indices, each built on
    its first draw by ``build(*key)``, so a run holds only the entries it
    draws."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        entry = self[key] = self.build(*key)
        return entry


def draw_blocks(rng: np.random.Generator, partitions, n: int):
    """``n`` steps' block-index tuples from ``len(partitions) * n`` uniforms.

    The uniforms are interleaved, row block first, as the scalar draws of
    ``n`` steps would be, and each factor's share maps to block indices with
    one ``searchsorted``, the same answer as ``BlockPartition.block_at``.
    """
    k = len(partitions)
    draws = rng.random(k * n)
    return zip(*(
        np.searchsorted(partition.cumulative, draws[i::k], side="right").tolist()
        for i, partition in enumerate(partitions)
    ))


def iterate(state, body, table, partitions, refresh, stop: StoppingRule, trajectory_stride: int):
    """Apply ``body(state, table[blocks])`` for drawn blocks until the fitted
    points settle or the cap.

    ``refresh(state)`` recomputes the incrementally kept arrays every
    ``REFRESH_EVERY`` iterations. A trajectory sample is recorded every
    ``trajectory_stride`` iterations (0 disables). Returns
    ``(converged, stop_reason, trajectory)``.
    """
    trajectory: list[TrajectorySample] = []
    tol, patience = stop.tol, stop.patience
    quiet_steps = 0
    left = stop.max_iter
    while left > 0:
        n = min(REFRESH_EVERY - state.iteration % REFRESH_EVERY, left)
        left -= n
        for blocks in draw_blocks(state.rng, partitions, n):
            previous_norm = math.sqrt(max(state.fitted_norm_sq, 0.0))
            body(state, table[blocks])
            if previous_norm > 0.0:
                rel = state.last_move_norm / previous_norm
            else:
                rel = state.last_move_norm
            if trajectory_stride and state.iteration % trajectory_stride == 0:
                trajectory.append(TrajectorySample(state.iteration, rel, state.residual_norm()))
            quiet_steps = quiet_steps + 1 if rel < tol else 0
            if quiet_steps >= patience:
                return True, "tol", tuple(trajectory)
        if state.iteration % REFRESH_EVERY == 0:
            refresh(state)
    return False, "max_iter", tuple(trajectory)
