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
update, the function and operands of the step's two dot products, and the
block's scale as a 0-d array (``np.divide`` by a Python float costs more
per call). :func:`run` keeps a :class:`StepTable` of these, keyed by the
drawn block indices, and builds an entry on its first draw from per-factor
gram slabs built once, so a run holds at most one entry per step it makes,
however many block pairs the partitions have (6 561 at 401 x 401 controls in
blocks of 5). Where the arrays are contiguous (a curve's), the entry holds
1-D views of the dot operands for ``ndarray.dot``, which calls the same BLAS
``ddot`` as ``np.vdot`` without its argument handling, and the window as its
two contiguous halves; a surface's strided ones keep ``np.vdot`` and one add
over the window.

Each product is a ``(function, a, b, out)`` quad. A curve's one product is
a single 2-D ``np.dot``, one BLAS call, of its slab viewed as a (2 window,
block) matrix and ``delta``, into the (2 window, ncoord) view of the update. A
surface's left factor stays one batched ``np.matmul`` into a middle buffer,
and its right factor is one 2-D ``np.dot`` per image: ``middle[i]`` viewed
as a (ncoord window, block) matrix times the factor's slab. A 2-D call skips
the batched matmul's gufunc dispatch, and each element still goes through
the routine it went through before, a gemm wherever there was one, so every
number is the same bit for bit. The left product stays batched because at a
one-column block numpy's matmul takes gemv, as the refresh's chain does,
and a 2-D gemm there rounds differently.

One loop, :func:`_steps`, holds the only copy of the step arithmetic and of
the bookkeeping around it: the stop rule and trajectory sampling. It keeps
``fitted_norm_sq``, ``iteration``, ``last_move_norm`` (the norm of the last
step's move of the fitted points), the quiet-step count and the next sample
iteration in locals, and writes them back to the state at samples, stops
and the end of its entries. :func:`run` feeds it one refresh chunk of drawn
entries at a time and refreshes between chunks; :func:`step` feeds it one
entry with the stop rule off. Everything it reads is kept in control space,
the stacked residual's norm at sample times too (``residual_norm()``), so
its work per step does not depend on the number of data points.

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
from dataclasses import dataclass, field

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
    """A fit's controls and how it stopped: a randomized fit's, or a direct
    solve's (the experiment's or a stacked oracle's), which stops with
    ``"direct"`` after no iterations.

    ``control_points`` has the shape of the fit's start: (n + 1, ncoord)
    for a curve, (n1 + 1, n2 + 1, ncoord) for a surface.
    """

    control_points: np.ndarray
    iterations: int
    stop_reason: str                  # "tol" | "max_iter" | "direct"
    trajectory: tuple[TrajectorySample, ...] = ()

    @property
    def converged(self) -> bool:
        """Whether the fit met its stop rule before ``max_iter``."""
        return self.stop_reason != "max_iter"


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
    total: np.ndarray = field(init=False, repr=False)    # buffer of rhs + g

    def __post_init__(self):
        self.total = np.empty(self.control_points.shape)

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
        cross = np.vdot(self.control_points, np.add(self.rhs, self.images[0], out=self.total))
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
    one per factor): views of ``g`` and ``P`` on the block, a ``delta``
    buffer, the ``(function, a, b, out)`` products that take ``delta`` to
    the window's update (a 2-D ``np.dot`` wherever numpy's batched matmul
    would call gemm, see the module docstring), the ``(window, update)``
    patches of ``[g, h]``, the dot function with its operands ``delta``, the
    update on the block and ``h`` on the block (contiguous ones flat), and
    the block's scale as a 0-d array. The views stay live: the state's
    arrays are only ever written in place.

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
    patch = images[(slice(None), *window)]
    delta = buffer("delta", state.control_points[block].shape)
    update = buffer("update", patch.shape)
    if len(slabs) == 1:
        # a curve's slab, [2, window, block], as one (2 window, block) matrix
        flat = (2 * update.shape[1], -1)
        products = ((np.dot, slabs[0].reshape(flat), delta, update.reshape(flat)),)
    else:
        # batched on the left, where a one-column block takes gemv as the
        # refresh's chain does; one 2-D gemm per image on the right
        middle = buffer("middle", update.shape[:-1] + delta.shape[-1:])
        products = ((np.matmul, slabs[0], delta, middle), *(
            (np.dot, middle[i].reshape(-1, middle.shape[-1]), slabs[1][i, 0],
             update[i].reshape(-1, update.shape[-1]))
            for i in range(2)
        ))
    operands = (delta, update[(1, *inner)], images[1][block])
    if all(array.flags.c_contiguous for array in operands):
        dot, operands = np.ndarray.dot, tuple(array.reshape(-1) for array in operands)
    else:
        dot = np.vdot
    patches = tuple(zip(patch, update)) if patch[0].flags.c_contiguous else ((patch, update),)
    return (
        images[0][block], state.control_points[block], delta, products,
        patches, dot, *operands, np.array(math.prod(norms)),
    )


# The stop rule of a single step: never met.
_NO_STOP = StoppingRule(tol=-math.inf)


def _steps(state: FitState, entries, stop: StoppingRule, stride: int, trajectory: list,
           quiet_steps: int) -> int:
    """Apply the block update of each entry (see :func:`step`) in turn, with
    the stop rule and trajectory sampling after each; returns the count of
    consecutive quiet steps, ``quiet_steps`` on entry.

    The entries stop early once the count reaches ``stop.patience``. A
    sample is appended to ``trajectory`` every ``stride`` iterations (0
    disables).
    """
    tol, patience = stop.tol, stop.patience
    add, divide, sqrt = np.add, np.divide, math.sqrt
    fitted_norm_sq, iteration = state.fitted_norm_sq, state.iteration
    move_norm = state.last_move_norm
    next_sample = iteration + stride - iteration % stride if stride else -1
    for correlation, controls, delta, products, patches, dot, delta_v, inner, image, \
            scale in entries:
        previous_norm = sqrt(max(fitted_norm_sq, 0.0))
        divide(correlation, scale, delta)
        add(controls, delta, controls)
        for product, a, b, out in products:
            product(a, b, out)
        move_sq = max(float(dot(delta_v, inner)), 0.0)
        fitted_norm_sq += 2.0 * float(dot(image, delta_v)) + move_sq
        for window, update in patches:
            add(window, update, window)
        move_norm = sqrt(move_sq)
        iteration += 1
        rel = move_norm / previous_norm if previous_norm > 0.0 else move_norm
        if iteration == next_sample:
            state.fitted_norm_sq, state.iteration = fitted_norm_sq, iteration
            state.last_move_norm = move_norm
            trajectory.append(TrajectorySample(iteration, rel, state.residual_norm()))
            next_sample += stride
        quiet_steps = quiet_steps + 1 if rel < tol else 0
        if quiet_steps >= patience:
            break
    state.fitted_norm_sq, state.iteration = fitted_norm_sq, iteration
    state.last_move_norm = move_norm
    return quiet_steps


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
    entry = _entry(state, [
        _factor_block(state, axis, partition, t)
        for axis, (partition, t) in enumerate(zip(partitions, drawn))
    ], {})
    _steps(state, (entry,), _NO_STOP, 0, [], 0)


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
    quiet_steps = 0
    left = stop.max_iter
    while left > 0:
        n = min(REFRESH_EVERY - state.iteration % REFRESH_EVERY, left)
        left -= n
        entries = map(table.__getitem__, draw_blocks(state.rng, partitions, n))
        quiet_steps = _steps(state, entries, stop, trajectory_stride, trajectory, quiet_steps)
        if quiet_steps >= stop.patience:
            return FitResult(state.control_points, state.iteration, "tol", tuple(trajectory))
        if state.iteration % REFRESH_EVERY == 0:
            _refresh(state)
    return FitResult(state.control_points, state.iteration, "max_iter", tuple(trajectory))
