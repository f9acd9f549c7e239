"""Shared helpers: reference basis evaluators and small random systems."""

import csv
import io
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import strategies as st

from rpia.assembly import (
    NormalSystem,
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_matrix,
)
from rpia.basis import BasisSpan, build_knots
from rpia.driver import REFRESH_EVERY, TrajectorySample
from rpia.experiment import CurveProblem, Direction, SurfaceProblem


def naive_basis_value(knots, degree, i, x):
    """Textbook two-term recursion for one basis function, 0/0 taken as 0.

    Deliberately independent of the package's triangular evaluator. Uses the
    half-open span convention, with the final knot's interval closed on the
    right so the domain endpoint is covered.
    """
    if degree == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i + 1] == knots[-1] and knots[i] < knots[i + 1]:
            return 1.0
        return 0.0
    total = 0.0
    left_den = knots[i + degree] - knots[i]
    if left_den > 0.0:
        total += (x - knots[i]) / left_den * naive_basis_value(knots, degree - 1, i, x)
    right_den = knots[i + degree + 1] - knots[i + 1]
    if right_den > 0.0:
        total += (
            (knots[i + degree + 1] - x)
            / right_den
            * naive_basis_value(knots, degree - 1, i + 1, x)
        )
    return total


def naive_all_basis(knots, degree, x):
    n_basis = len(knots) - degree - 1
    return np.array([naive_basis_value(knots, degree, i, x) for i in range(n_basis)])


def _find_span(knots: np.ndarray, degree: int, x: float) -> int:
    """Index of the knot span containing ``x`` (right-continuous convention).

    Returns the largest index ``s`` with ``knots[s] <= x < knots[s + 1]``;
    ``x`` at the right end of the domain falls into the last nontrivial span.
    """
    last = knots.size - degree - 2
    if x >= knots[last + 1]:
        return last
    span = int(np.searchsorted(knots, x, side="right")) - 1
    return max(span, degree)


def _basis_values(knots: np.ndarray, degree: int, span: int, x: float) -> np.ndarray:
    """Nonzero basis values at ``x`` via the triangular recurrence."""
    values = np.empty(degree + 1)
    left = np.empty(degree + 1)
    right = np.empty(degree + 1)
    values[0] = 1.0
    for j in range(1, degree + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            temp = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        values[j] = saved
    return values


def pointwise_basis(knots, params):
    """Per-parameter reference for ``eval_basis``: one span search and one
    scalar triangular recurrence per parameter.

    Returns the first nonzero basis index of each parameter, shape (k,), and
    its ``degree + 1`` values, shape (k, degree + 1).
    """
    t, d = knots.knots, knots.degree
    xs = [float(x) for x in np.asarray(params, dtype=float)]
    spans = [_find_span(t, d, x) for x in xs]
    values = [_basis_values(t, d, s, x) for s, x in zip(spans, xs)]
    return np.asarray(spans, dtype=int) - d, np.asarray(values).reshape(len(xs), d + 1)


def dense_rows(starts, values, n_basis):
    """Scatter each parameter's run of basis values into a full row of ``n_basis``."""
    rows = np.zeros((len(starts), n_basis))
    for row, (start, run) in enumerate(zip(starts, values)):
        rows[row, start: start + len(run)] = run
    return rows


def random_curve_system(rng, m_rows=8, n_cols=4, lam=0.3, scale=2.0):
    """Small random stacked curve system with a difference penalty."""
    design = rng.standard_normal((m_rows - n_cols, n_cols))
    penalty = difference_matrix(n_cols, scale)
    data = rng.standard_normal((m_rows - n_cols, 2))
    return augment_curve(design, penalty, data, lam)


def random_surface_system(rng, rows=(3, 3), cols=(2, 3), lam=0.2):
    """Small random stacked surface system; rows/cols give (data, control) sizes."""
    m_data, n_u = rows
    p_data, n_v = cols
    design_u = rng.standard_normal((m_data, n_u))
    design_v = rng.standard_normal((p_data, n_v))
    penalty_u = difference_matrix(n_u, 1.5)
    penalty_v = difference_matrix(n_v, 2.5)
    grid = rng.standard_normal((m_data, p_data, 3))
    return augment_surface(design_u, design_v, penalty_u, penalty_v, grid, lam)


def surface_normal_system(system):
    """The control-space fields of a stacked surface system, from its dense factors."""
    row, col = system.row_stacked, system.col_stacked
    return NormalSystem(
        (row.T @ row, col.T @ col),
        (system.design_u.T @ system.design_u, system.design_v.T @ system.design_v),
        np.stack([row.T @ t @ col for t in np.moveaxis(system.targets, -1, 0)], axis=-1),
        float(np.vdot(system.data, system.data)),
    )


def full_width_span(design):
    """A dense matrix as a span: each row one run from column 0 across every column."""
    design = np.asarray(design, dtype=float)
    return BasisSpan(np.zeros(design.shape[0], dtype=int), design, design.shape[1])


def bare_direction(design, penalty_scale):
    """A direction around a bare design and the scale of its difference
    penalty: no parameters or knots."""
    return Direction(None, None, full_width_span(design), penalty_scale)


def curve_problem(design, penalty_scale):
    """A curve problem around a bare design: no data or reference fit."""
    return CurveProblem(None, (bare_direction(design, penalty_scale),))


def surface_problem(design_u, design_v, penalty_scale):
    """A surface problem around bare designs, one penalty scale for both:
    no data or reference fit."""
    return SurfaceProblem(None, tuple(bare_direction(design, penalty_scale)
                                      for design in (design_u, design_v)))


def collocation_design(n_points, n_ctrl_minus1):
    """Cubic B-spline collocation at evenly spaced parameters: banded like a fit's."""
    params = np.linspace(0.0, 1.0, n_points)
    return assemble_collocation(build_knots(params, n_ctrl_minus1), params)


def sparse_design(rng, n_rows, n_cols, density=0.3):
    """Random design with scattered zeros; a column may be zero throughout."""
    mask = rng.random((n_rows, n_cols)) < density
    return rng.standard_normal((n_rows, n_cols)) * mask


@st.composite
def designs(draw):
    """A banded collocation or a scattered sparse design, (rows, columns) >= (4, 4)."""
    n_ctrl_minus1 = draw(st.integers(3, 10))
    n_points = draw(st.integers(n_ctrl_minus1 + 1, 30))
    if draw(st.booleans()):
        return collocation_design(n_points, n_ctrl_minus1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = sparse_design(rng, n_points, n_ctrl_minus1 + 1)
    blank = draw(st.lists(st.integers(0, n_ctrl_minus1), max_size=3))
    design[:, blank] = 0.0
    return design


@st.composite
def banded_designs(draw):
    """A cubic collocation design sampled at least twice per control, like a fit's.

    Its gram is well conditioned (below ~35 over the drawn sizes).
    """
    n_ctrl_minus1 = draw(st.integers(3, 12))
    n_points = draw(st.integers(2 * (n_ctrl_minus1 + 1), 48))
    return collocation_design(n_points, n_ctrl_minus1)


@st.composite
def penalty_weights(draw, *designs):
    """0 when every design column has a nonzero, else a positive weight.

    A design column with no nonzero then still has its penalty rows, so no
    column block of the stacked system has zero norm.
    """
    if all(np.any(design, axis=0).all() for design in designs):
        return draw(st.sampled_from([0.0, 1e-6, 0.3]))
    return draw(st.sampled_from([1e-6, 0.3]))


@st.composite
def curve_systems(draw):
    """Stacked curve system over a drawn design, two coordinates of random data."""
    design = draw(designs())
    n_cols = design.shape[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((design.shape[0], 2))
    lam = draw(penalty_weights(design))
    return augment_curve(design, difference_matrix(n_cols, 2.0), data, lam)


@st.composite
def surface_systems(draw):
    """Stacked surface system over two drawn designs, one or three coordinates."""
    design_u = draw(designs())
    design_v = draw(designs())
    ncoord = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.standard_normal((design_u.shape[0], design_v.shape[0], ncoord))
    return augment_surface(
        design_u,
        design_v,
        difference_matrix(design_u.shape[1], 1.5),
        difference_matrix(design_v.shape[1], 2.5),
        grid,
        draw(penalty_weights(design_u, design_v)),
    )


def csv_writer_bytes(header, rows) -> bytes:
    """A table as :mod:`csv` writes it, floats with 17 significant digits."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])
    return buffer.getvalue().encode()


def scalar_draw_run(state, step, partitions, refresh, stop, trajectory_stride):
    """A run as a loop of ``step`` calls, each making its own scalar draws,
    with the driver's stop rule, trajectory samples and refresh period.
    Returns ``(converged, stop_reason, trajectory)``."""
    trajectory = []
    quiet_steps = 0
    for _ in range(stop.max_iter):
        previous_norm = math.sqrt(max(state.fitted_norm_sq, 0.0))
        step(state, *partitions)
        rel = state.last_move_norm / previous_norm if previous_norm > 0.0 else state.last_move_norm
        if trajectory_stride and state.iteration % trajectory_stride == 0:
            trajectory.append(TrajectorySample(state.iteration, rel, state.residual_norm()))
        quiet_steps = quiet_steps + 1 if rel < stop.tol else 0
        if quiet_steps >= stop.patience:
            return True, "tol", tuple(trajectory)
        if state.iteration % REFRESH_EVERY == 0:
            refresh(state)
    return False, "max_iter", tuple(trajectory)


def same_stream(first, second, n_draws=8):
    """Whether two generators' next ``n_draws`` uniforms agree; neither moves."""
    copies = []
    for rng in (first, second):
        copy = np.random.Generator(np.random.Philox(0))
        copy.bit_generator.state = rng.bit_generator.state
        copies.append(copy.random(n_draws))
    return np.array_equal(*copies)


# Caps at and around the refresh period (the run's draw chunk), and one that
# is not a multiple of it; tolerances from never met to met mid-chunk.
replay_caps = st.one_of(
    st.sampled_from([REFRESH_EVERY - 1, REFRESH_EVERY, REFRESH_EVERY + 1]),
    st.integers(1, 3 * REFRESH_EVERY),
)
replay_tolerances = st.sampled_from([0.0, 1e-3, 1e-6, 1e-9])
replay_strides = st.sampled_from([0, 1, 7, 10])


def assert_close_to_scale(actual, expected, tol=1e-13):
    """Agreement to ``tol`` of the larger of 1 and the expected array's largest entry."""
    npt.assert_allclose(actual, expected, rtol=0, atol=tol * max(1.0, np.max(np.abs(expected))))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
