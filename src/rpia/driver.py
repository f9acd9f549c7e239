"""The iteration driver shared by the randomized curve and surface solvers.

A kernel supplies a state and a ``step``; the driver owns what lies around
each step: the stop rule, trajectory sampling and the periodic refresh. It
reads only what both kernel states offer: the fields ``fitted_norm_sq``
(``|A P|^2``, the squared norm of the unpenalized fitted points),
``last_move_norm`` (the norm of the last step's move of those points),
``iteration``, and, at sample times, the stacked residual's norm from
``residual_norm()``. Both kernels carry these in control space, so the
driver's work per step does not depend on the number of data points.

Randomness comes from the Philox counter-based generator seeded per fit, so
a fit is a pure function of ``(system, partitions, start, stop, seed)``.
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


def iterate(state, step, partitions, refresh, stop: StoppingRule, trajectory_stride: int):
    """Apply ``step(state, *partitions)`` until the fitted points settle or the cap.

    ``refresh(state)`` recomputes the incrementally kept arrays every
    ``REFRESH_EVERY`` iterations. A trajectory sample is recorded every
    ``trajectory_stride`` iterations (0 disables). Returns
    ``(converged, stop_reason, trajectory)``.
    """
    trajectory: list[TrajectorySample] = []
    quiet_steps = 0
    for _ in range(stop.max_iter):
        previous_norm = math.sqrt(max(state.fitted_norm_sq, 0.0))
        step(state, *partitions)
        if previous_norm > 0.0:
            rel = state.last_move_norm / previous_norm
        else:
            rel = state.last_move_norm
        if trajectory_stride and state.iteration % trajectory_stride == 0:
            trajectory.append(TrajectorySample(state.iteration, rel, state.residual_norm()))
        quiet_steps = quiet_steps + 1 if rel < stop.tol else 0
        if quiet_steps >= stop.patience:
            return True, "tol", tuple(trajectory)
        if state.iteration % REFRESH_EVERY == 0:
            refresh(state)
    return False, "max_iter", tuple(trajectory)
