"""The randomized block kernel and the iteration driver, for curves and surfaces.

The method is one iteration: draw a column block of the stacked system with
probability proportional to its squared Frobenius norm, and move those
controls along the block correlation ``g = S^T (T - S P)``. A curve's stacked
system is ``S = [A; sqrt(lam) G]``, with the normal matrix
``K = A^T A + lam G^T G``. A surface's is the Kronecker product of two
factors ``Ah = [A; sqrt(lam) Lu]`` and ``Bh = [B; sqrt(lam) Lv]``, with the
normal matrix ``kron(Kv, Ku)``, so a surface draws one block per factor (row
block first) and moves the subgrid they select by
``g[t, s] / (|Ah[:, t]|^2 |Bh[:, s]|^2)``. This is randomized block
coordinate descent on the normal equations (Leventhal and Lewis, Math. Oper.
Res. 35(3), 2010), and one kernel runs it over one factor or two.

The kernel works in control space only. Its state keeps the controls ``P``,
the scalar ``f^2``, the squared norm of the unpenalized fitted points ``A P``
(a surface: ``A P B^T``), and one stacked array ``[g, h]`` of the correlation
and the design image ``h = A^T A P`` (a surface: ``(A^T A) P (B^T B)``). The
stacked system and the fitted points are never formed. Factor 0 acts from the
left along axis -2 and factor 1, if any, from the right along axis -1: a
curve's controls are (n + 1, ncoord), a surface's (ncoord, n1 + 1, n2 + 1),
coordinate first (:mod:`rpia.surface` moves the axis on the way in and out).
Each factor's two grams are stacked once, as ``[-K, A^T A]`` for factor 0 and
``[Kv, B^T B]`` for factor 1, so a step patches ``g`` and ``h`` on its
block's coupled window with one product per factor and one in-place add. All
point coordinates share the block draws.

What a step reads of its block is one step-table entry: the views of ``g``,
``P`` and ``h`` on the block and of ``[g, h]`` on its coupled window, the
buffers of the move and of the window's update, the products that fill the
update, and the block's scale. :func:`run` keeps a :class:`StepTable` of
these, keyed by the drawn block indices, and builds an entry on its first
draw from per-factor gram slabs built once, so a run holds at most one entry
per step it makes, however many block pairs the partitions have (6 561 at
401 x 401 controls in blocks of 5). :func:`step` builds its entry with the
same builder, so both apply the one step body.

The loop in :func:`run` owns what lies around each step: the block draws,
the stop rule, trajectory sampling and the periodic refresh. It reads
``fitted_norm_sq``, ``last_move_norm`` (the norm of the last step's move of
the fitted points), ``iteration``, ``rng``, and, at sample times, the stacked
residual's norm from ``residual_norm()``, all kept in control space, so its
work per step does not depend on the number of data points.

Randomness comes from the Philox counter-based generator seeded per fit, so
a fit is a pure function of ``(system, partitions, start, stop, seed)``.
The draws are made one chunk per refresh interval: ``rng.random(k * n)``
for ``k`` factors and the ``n`` steps to the next refresh or to the cap,
which is the same stream as ``k * n`` scalar draws. :func:`step` draws its
``k`` uniforms the same way, so a run equals a loop of ``step`` calls bit for
bit. Only the generator's state after a run differs: the unused tail of the
last chunk has been drawn. No result reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# The kernel's control-space images and |A P|^2 are patched incrementally on
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
    """Philox stream seeded by ``seed`` (numpy derives its key through a
    ``SeedSequence``, so the key is not ``seed`` itself); a Generator is used
    as given."""
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
    one ``searchsorted`` over the partition's cumulative probabilities.
    """
    k = len(partitions)
    draws = rng.random(k * n)
    return zip(*(
        np.searchsorted(partition.cumulative, draws[i::k], side="right").tolist()
        for i, partition in enumerate(partitions)
    ))


@dataclass
class FitState:
    """Mutable iteration state, in the kernel's layout (see the module docstring).

    ``correlation`` and ``design_image`` are views of ``images``, so writes
    through them reach the next step.
    """

    control_points: np.ndarray    # P
    rhs: np.ndarray               # A^T q (a surface: A^T Q B), P's shape
    data_norm_sq: float           # |q|^2
    images: np.ndarray            # [g, h], (2,) + P's shape
    grams: tuple                  # per factor [-K, A^T A] or [Kv, B^T B], over the coordinates
    fitted_norm_sq: float         # f^2 = |A P|^2 (a surface: |A P B^T|^2)
    iteration: int
    rng: np.random.Generator
    last_move_norm: float = 0.0

    @property
    def correlation(self) -> np.ndarray:
        """``g = A^T q - K P`` (a surface: ``A^T Q B - Ku P Kv``)."""
        return self.images[0]

    @property
    def design_image(self) -> np.ndarray:
        """``h = A^T A P`` (a surface: ``(A^T A) P (B^T B)``)."""
        return self.images[1]

    def residual_norm(self) -> float:
        """The stacked residual's norm, from ``|q|^2 - <P, rhs + g>`` in O(n)."""
        cross = np.vdot(self.control_points, self.rhs + self.images[0])
        return math.sqrt(max(self.data_norm_sq - cross, 0.0))


def init_state(system, controls: np.ndarray, rhs: np.ndarray, seed) -> FitState:
    """Fresh state at iterate 0, with ``[g, h]`` and ``f^2`` from scratch.

    ``system`` is a :class:`~rpia.assembly.NormalSystem` or anything with its
    fields, such as a dense :class:`~rpia.assembly.AugmentedCurveSystem`.
    ``controls`` and ``rhs`` are in the kernel's layout; the state takes
    ``controls`` as its own and writes into it.
    """
    lead = (1,) * (controls.ndim - 2)
    grams = tuple(
        np.stack([-gram if axis == 0 else gram, design]).reshape((2, *lead, *gram.shape))
        for axis, (gram, design) in enumerate(zip(system.grams, system.design_grams))
    )
    images = np.empty((2, *controls.shape))
    state = FitState(controls, rhs, system.data_norm_sq, images, grams, 0.0, 0, make_rng(seed))
    _refresh(state)
    return state


def _refresh(state: FitState) -> None:
    # Recompute the incrementally maintained quantities from the controls:
    # at the start, and periodically to shed float drift. In place, so arrays
    # read through ``correlation`` and ``design_image`` stay live.
    first, *rest = state.grams
    product = first @ state.control_points
    for gram in rest:
        product = product @ gram
    images = state.images
    images[...] = product
    images[0] += state.rhs
    state.fitted_norm_sq = float(np.vdot(state.control_points, images[1]))


def _factor_block(state: FitState, axis: int, partition, t: int) -> tuple:
    """Factor ``axis``'s block ``t``: its span, coupled window, place in the
    window, squared norm, and the contiguous slab of the factor's stacked
    grams that acts on it, ``[..., window, block]`` from the left for factor
    0 and ``[..., block, window]`` from the right for factor 1."""
    span, window = partition.spans[t], partition.coupled[t]
    rows, cols = (window, span) if axis == 0 else (span, window)
    slab = np.ascontiguousarray(state.grams[axis][..., rows, cols])
    return span, window, partition.inner[t], float(partition.norms_sq[t]), slab


def _entry(state: FitState, blocks, buffers: dict) -> tuple:
    """The step-table entry of the drawn factor blocks (:func:`_factor_block`,
    one per factor): views of ``g``, ``P`` and ``h`` on the block and of
    ``[g, h]`` on its coupled window, a ``delta`` buffer, the ``(a, b, out)``
    products that take ``delta`` to the window's update, the update and its
    view on the block, and the block's scale. The views stay live: the
    state's arrays are only ever written in place.

    The buffers hold nothing from one step to the next, so entries share
    them through ``buffers``, one per role and shape: a table's memory then
    grows with its views, not with its blocks' windows."""
    def buffer(role, shape):
        if (role, shape) not in buffers:
            buffers[role, shape] = np.empty(shape)
        return buffers[role, shape]

    spans, windows, inners, norms, slabs = zip(*blocks)
    # a curve's last axis holds its coordinates
    rest = (slice(None),) * (2 - len(blocks))
    block, window, inner = ((..., *index, *rest) for index in (spans, windows, inners))
    images = state.images
    delta = buffer("delta", state.control_points[block].shape)
    update = buffer("update", images[(slice(None), *window)].shape)
    if len(slabs) == 1:
        products = ((slabs[0], delta, update),)
    else:
        middle = buffer("middle", update.shape[:-1] + delta.shape[-1:])
        products = ((slabs[0], delta, middle), (middle, slabs[1], update))
    return (
        images[0][block], state.control_points[block], images[1][block],
        images[(slice(None), *window)], delta, products, update, update[(1, *inner)],
        math.prod(norms),
    )


def _body(state: FitState, entry: tuple) -> None:
    """One block update from the block's table entry (see :func:`step`)."""
    correlation, controls, image, window, delta, products, update, inner, scale = entry
    np.divide(correlation, scale, out=delta)
    controls += delta
    for a, b, out in products:
        np.matmul(a, b, out=out)
    move_sq = max(float(np.vdot(delta, inner)), 0.0)
    state.fitted_norm_sq += 2.0 * float(np.vdot(image, delta)) + move_sq
    window += update
    state.last_move_norm = math.sqrt(move_sq)
    state.iteration += 1


def step(state: FitState, partitions) -> None:
    """One randomized block update, applied in place, with one uniform draw
    per factor.

    The move is ``delta = g[block] / scale``, the scale being the block's
    squared norm (a surface: the product of its two factor blocks' squared
    norms). Only the drawn block of control points changes. On the block's
    coupled window, the products ``[-K, A^T A][window, block] @ delta`` (a
    surface: ``... @ delta @ [Kv, B^T B][block, window]``) give both patches
    at once: the correlation's and the design image's update ``u``. The
    fitted points move by ``A delta`` (``A delta B^T``), with
    ``|A delta|^2 = <delta, u[block]>``, and ``f^2`` grows by
    ``2 <h[block], delta> + |A delta|^2``.
    """
    [drawn] = draw_blocks(state.rng, partitions, 1)
    _body(state, _entry(state, [
        _factor_block(state, axis, partition, t)
        for axis, (partition, t) in enumerate(zip(partitions, drawn))
    ], {}))


def run(system, partitions, state: FitState, stop: StoppingRule,
        trajectory_stride: int) -> FitResult:
    """Apply drawn block updates to ``state`` until the fitted points settle
    or the cap.

    ``partitions`` holds one :class:`~rpia.assembly.BlockPartition` per
    factor, of that factor's gram. The incrementally kept arrays are
    refreshed every ``REFRESH_EVERY`` iterations, and a trajectory sample is
    recorded every ``trajectory_stride`` iterations (0 disables). The
    result's controls are the state's, in the kernel's layout.

    Raises
    ------
    DimensionMismatch
        If a design gram has a nonzero outside its partition's windows.
    """
    if not all(part.covers(design) for part, design in zip(partitions, system.design_grams)):
        raise DimensionMismatch("a design gram has nonzeros outside its gram's coupled windows")
    factors = [
        [_factor_block(state, axis, partition, t) for t in range(len(partition))]
        for axis, partition in enumerate(partitions)
    ]
    buffers = {}
    table = StepTable(
        lambda *drawn: _entry(state, [f[t] for f, t in zip(factors, drawn)], buffers)
    )
    trajectory: list[TrajectorySample] = []
    tol, patience = stop.tol, stop.patience
    quiet_steps = 0
    left = stop.max_iter
    while left > 0:
        n = min(REFRESH_EVERY - state.iteration % REFRESH_EVERY, left)
        left -= n
        for drawn in draw_blocks(state.rng, partitions, n):
            previous_norm = math.sqrt(max(state.fitted_norm_sq, 0.0))
            _body(state, table[drawn])
            if previous_norm > 0.0:
                rel = state.last_move_norm / previous_norm
            else:
                rel = state.last_move_norm
            if trajectory_stride and state.iteration % trajectory_stride == 0:
                trajectory.append(TrajectorySample(state.iteration, rel, state.residual_norm()))
            quiet_steps = quiet_steps + 1 if rel < tol else 0
            if quiet_steps >= patience:
                return FitResult(
                    state.control_points, state.iteration, True, "tol", tuple(trajectory)
                )
        if state.iteration % REFRESH_EVERY == 0:
            _refresh(state)
    return FitResult(state.control_points, state.iteration, False, "max_iter", tuple(trajectory))
