import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia.assembly import (
    AugmentedCurveSystem,
    NormalSystem,
    assemble_collocation,
    augment_curve,
    difference_matrix,
    gram_partition,
    make_partition,
)
from rpia.basis import build_knots, chord_length_params
from rpia import driver
from rpia.curve import StoppingRule, init_state, run, step
from rpia.datasets import rose_curve
from rpia.driver import REFRESH_EVERY, _refresh, draw_blocks
from rpia.errors import DimensionMismatch
from rpia.experiment import initial_controls_curve
from rpia.oracle import solve_curve_direct

from conftest import (
    assert_close_to_scale,
    collocation_design,
    curve_problem,
    curve_systems,
    designs,
    penalty_weights,
    random_curve_system,
    replay_caps,
    replay_strides,
    replay_tolerances,
    same_stream,
    scalar_draw_run,
)


def philox_stream(seed):
    return np.random.Generator(np.random.Philox(seed))


def correlation_of(system, controls):
    """``S^T (T - S P)`` from scratch."""
    return system.stacked.T @ (system.targets - system.stacked @ controls)


class TestInitState:
    def test_zero_start_residual_is_target(self, rng):
        system = random_curve_system(rng)
        p0 = np.zeros((system.n_controls, 2))
        state = init_state(system, p0, 7)
        npt.assert_array_equal(state.correlation, system.stacked.T @ system.targets)
        npt.assert_allclose(state.residual_norm(), np.linalg.norm(system.targets), rtol=1e-15)
        npt.assert_array_equal(state.design_image, np.zeros_like(p0))
        assert state.fitted_norm_sq == 0.0
        assert state.iteration == 0

    def test_least_squares_start_has_orthogonal_residual(self, rng):
        system = random_curve_system(rng, m_rows=12, n_cols=5, lam=0.4)
        solution = solve_curve_direct(system)
        state = init_state(system, solution.control_points, 3)
        assert np.max(np.abs(state.correlation)) < 1e-10

    def test_shape_check(self, rng):
        system = random_curve_system(rng)
        with pytest.raises(DimensionMismatch):
            init_state(system, np.zeros((system.n_controls + 1, 2)), 0)


class TestSelectBlock:
    def test_single_block_always_zero(self, rng):
        system = random_curve_system(rng)
        partition = make_partition(system.stacked, system.n_controls)
        state = init_state(system, np.zeros((system.n_controls, 2)), 11)
        assert all(blocks == (0,) for blocks in draw_blocks(state.rng, (partition,), 50))

    def test_three_to_one_frequencies(self):
        # two blocks with squared norms 3 and 1
        stacked = np.asfortranarray(
            np.diag([np.sqrt(2.0), 1.0, np.sqrt(0.5), np.sqrt(0.5)])
        )
        system = AugmentedCurveSystem(stacked, np.zeros((4, 1)), 0.0, 4)
        partition = make_partition(stacked, 2)
        npt.assert_allclose(partition.probabilities, [0.75, 0.25])
        state = init_state(system, np.zeros((4, 1)), 2024)
        draws = np.array(list(draw_blocks(state.rng, (partition,), 100_000)))[:, 0]
        freq = np.mean(draws == 0)
        assert abs(freq - 0.75) < 0.01

    def test_full_scale_partition_three_sigma(self):
        points = rose_curve(1000).points
        params = chord_length_params(points)
        knots = build_knots(params, 100)
        design = assemble_collocation(knots, params)
        system = augment_curve(design, difference_matrix(101, 1600.0), points, 1.646e-6)
        partition = make_partition(system.stacked, 5)
        assert len(partition) == 21
        n_draws = 1_000_000
        draws = np.array(list(draw_blocks(philox_stream(99), (partition,), n_draws)))[:, 0]
        counts = np.bincount(draws, minlength=21)
        expected = n_draws * partition.probabilities
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-squared on 20 degrees of freedom: 45.3 is the 99.9% point
        assert chi2 < 45.3


class TestStep:
    def test_consistent_system_fixed_point_is_bitwise(self, rng):
        design = rng.standard_normal((9, 4))
        penalty = difference_matrix(4, 1.0)
        exact = rng.standard_normal((4, 2))
        system = augment_curve(design, penalty, design @ exact, 0.0)
        # the exact solution's correlation is zero; clear init's round-off
        state = init_state(system, exact, 5)
        state.correlation[:] = 0.0
        before = state.control_points.copy()
        partition = make_partition(system.stacked, 2)
        step(state, partition)
        assert state.iteration == 1
        npt.assert_array_equal(state.control_points, before)

    def test_least_squares_point_moves_negligibly(self, rng):
        system = random_curve_system(rng, m_rows=12, n_cols=5, lam=0.3)
        solution = solve_curve_direct(system)
        state = init_state(system, solution.control_points, 5)
        partition = make_partition(system.stacked, 2)
        before = state.control_points.copy()
        for _ in range(10):
            step(state, partition)
        assert np.max(np.abs(state.control_points - before)) < 1e-10

    def test_single_block_is_full_correlation_step(self, rng):
        system = random_curve_system(rng, m_rows=10, n_cols=4, lam=0.5)
        partition = make_partition(system.stacked, 4)
        p0 = rng.standard_normal((4, 2))
        state = init_state(system, p0, 17)
        step(state, partition)
        expected = p0 + correlation_of(system, p0) / np.sum(system.stacked**2)
        npt.assert_allclose(state.control_points, expected, atol=1e-13)

    def test_matches_straight_line_reimplementation(self, rng):
        system = random_curve_system(rng, m_rows=6, n_cols=3, lam=0.2)
        partition = make_partition(system.stacked, 2)
        seed = 31
        p0 = rng.standard_normal((3, 2))
        state = init_state(system, p0, seed)
        step(state, partition)

        # independent straight-line reference, same Philox stream
        reference_rng = philox_stream(seed)
        u = reference_rng.random()
        chosen = 0
        acc = 0.0
        for idx, prob in enumerate(partition.probabilities):
            acc += prob
            if u < acc:
                chosen = idx
                break
        else:
            chosen = len(partition) - 1
        block = partition.blocks[chosen]
        residual = system.targets - system.stacked @ p0
        expected = p0.copy()
        norm_sq = 0.0
        for col in block:
            norm_sq += float(np.sum(system.stacked[:, col] ** 2))
        for col in block:
            for coord in range(2):
                numer = float(system.stacked[:, col] @ residual[:, coord])
                expected[col, coord] += numer / norm_sq
        npt.assert_allclose(state.control_points, expected, atol=1e-13)
        npt.assert_allclose(state.correlation, correlation_of(system, expected), atol=1e-12)

    def test_block_locality_bitwise(self, rng):
        system = random_curve_system(rng, m_rows=12, n_cols=6, lam=0.3)
        partition = make_partition(system.stacked, 2)
        state = init_state(system, rng.standard_normal((6, 2)), 123)
        for _ in range(25):
            before = state.control_points.copy()
            rng_snapshot = state.rng.bit_generator.state
            step(state, partition)
            replay = np.random.Generator(np.random.Philox(0))
            replay.bit_generator.state = rng_snapshot
            chosen = int(np.searchsorted(partition.cumulative, replay.random(), side="right"))
            untouched = np.setdiff1d(np.arange(6), partition.blocks[chosen])
            npt.assert_array_equal(state.control_points[untouched], before[untouched])


class TestWindowedStep:
    @settings(max_examples=60, deadline=None)
    @given(system=curve_systems(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_dense_reference_update(self, system, seed, data):
        partition = make_partition(system.stacked, data.draw(st.integers(1, 6)))
        p0 = np.random.default_rng(seed).standard_normal((system.n_controls, 2))
        state = init_state(system, p0, seed)
        design = system.design
        fitted = design @ p0
        for _ in range(8):
            controls = state.control_points.copy()
            residual = system.targets - system.stacked @ controls
            replay = philox_stream(0)
            replay.bit_generator.state = state.rng.bit_generator.state
            step(state, partition)

            # dense update over every row of the stacked matrix
            t = int(np.searchsorted(partition.cumulative, replay.random(), side="right"))
            block = partition.blocks[t]
            cols = system.stacked[:, block]
            delta = cols.T @ residual / np.sum(cols**2)
            controls[block] += delta
            move = cols @ delta
            residual -= move
            top = move[: system.data_rows]
            fitted += top
            assert_close_to_scale(state.control_points, controls)
            assert_close_to_scale(state.correlation, system.stacked.T @ residual)
            # the fitted points are kept only as their design image and norm
            assert_close_to_scale(state.design_image, design.T @ fitted)
            # a move can be pure round-off; compare it at the fitted points' scale
            scale = max(1.0, np.max(np.abs(fitted)))
            npt.assert_allclose(state.fitted_norm_sq, np.sum(fitted**2), rtol=1e-13,
                                atol=1e-13 * scale**2)
            npt.assert_allclose(state.last_move_norm, np.linalg.norm(top), rtol=1e-13,
                                atol=1e-13 * scale)


class TestGramStep:
    @settings(max_examples=60, deadline=None)
    @given(system=curve_systems(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_equals_stacked_data_space_step(self, system, seed, data):
        # one step from a random state against the textbook step on the
        # stacked residual, with the new correlation recomputed from scratch
        partition = make_partition(system.stacked, data.draw(st.integers(1, 6)))
        p0 = 3.0 * np.random.default_rng(seed).standard_normal((system.n_controls, 2))
        state = init_state(system, p0, seed)
        replay = philox_stream(0)
        replay.bit_generator.state = state.rng.bit_generator.state
        step(state, partition)

        t = int(np.searchsorted(partition.cumulative, replay.random(), side="right"))
        block = partition.blocks[t]
        cols = system.stacked[:, block]
        delta = cols.T @ (system.targets - system.stacked @ p0) / np.sum(cols**2)
        expected = p0.copy()
        expected[block] += delta
        assert_close_to_scale(state.control_points[block] - p0[block], delta, tol=1e-12)
        assert_close_to_scale(state.control_points, expected, tol=1e-12)
        assert_close_to_scale(state.correlation, correlation_of(system, expected), tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(system=curve_systems(), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(0, 30))
    def test_residual_norm_equals_stacked_residual(self, system, seed, n_steps):
        partition = make_partition(system.stacked, 2)
        p0 = np.random.default_rng(seed).standard_normal((system.n_controls, 2))
        state = init_state(system, p0, seed)
        for _ in range(n_steps):
            step(state, partition)
        truth = np.linalg.norm(system.targets - system.stacked @ state.control_points)
        npt.assert_allclose(state.residual_norm(), truth, rtol=1e-12)


    @settings(max_examples=60, deadline=None)
    @given(system=curve_systems(), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(0, 60), data=st.data())
    def test_design_image_and_fitted_norm_track_the_controls(self, system, seed, n_steps, data):
        partition = make_partition(system.stacked, data.draw(st.integers(1, 6)))
        p0 = np.random.default_rng(seed).standard_normal((system.n_controls, 2))
        state = init_state(system, p0, seed)
        for _ in range(n_steps):
            step(state, partition)
        fitted = system.design @ state.control_points
        assert_close_to_scale(state.design_image, system.design.T @ fitted, tol=1e-10)
        norm_sq = np.sum(fitted**2)
        npt.assert_allclose(state.fitted_norm_sq, norm_sq, rtol=0, atol=1e-10 * max(1.0, norm_sq))

    @settings(max_examples=60, deadline=None)
    @given(design=designs(), seed=st.integers(0, 2**32 - 1), n_steps=st.integers(0, 60),
           data=st.data())
    def test_dense_and_span_systems_give_the_same_controls(self, design, seed, n_steps, data):
        # the normal system as the experiment builds it, from the spans,
        # against the dense stacked system for the same design, penalty, data
        # and weight; a patience beyond the cap runs both exactly n_steps
        lam = data.draw(penalty_weights(design))
        block_size = data.draw(st.integers(1, 6))
        points = np.random.default_rng(seed).standard_normal((design.shape[0], 2))
        problem = curve_problem(design, 2.0)
        q, rhs = problem.right_hand_side(points)
        [direction] = problem.directions
        spans = NormalSystem(
            (direction.matrix(lam),), (direction.design_gram,), rhs, float(np.vdot(q, q))
        )
        dense = augment_curve(design, difference_matrix(design.shape[1], 2.0), points, lam)
        p0 = initial_controls_curve(points, design.shape[1] - 1)
        rule = StoppingRule(1e-8, n_steps, patience=n_steps + 1)
        got = run(spans, gram_partition(spans.grams[0], block_size), p0, rule, seed)
        want = run(dense, make_partition(dense.stacked, block_size), p0, rule, seed)
        assert got.iterations == want.iterations == n_steps
        assert_close_to_scale(got.control_points, want.control_points)


def two_product_steps(system, partition, p0, seed, n_steps):
    """The block step with one gram product for ``g`` through ``K`` and another
    for ``h`` through ``A^T A``, refreshed at the solver's period. Yields
    ``(P, g, h, |A P|^2, |A delta|)`` after each step."""
    rng = philox_stream(seed)
    [gram], [design_gram] = system.grams, system.design_grams
    controls = np.array(p0, dtype=float)
    correlation = system.rhs - gram @ controls
    image = design_gram @ controls
    norm_sq = float(np.vdot(controls, image))
    for k in range(1, n_steps + 1):
        t = int(np.searchsorted(partition.cumulative, rng.random(), side="right"))
        block, coupled = partition.spans[t], partition.coupled[t]
        delta = correlation[block] / partition.norms_sq[t]
        controls[block] += delta
        correlation[coupled] -= gram[coupled, block] @ delta
        patch = design_gram[coupled, block] @ delta
        move_sq = max(float(np.vdot(delta, patch[partition.inner[t]])), 0.0)
        norm_sq += 2.0 * float(np.vdot(image[block], delta)) + move_sq
        image[coupled] += patch
        if k % REFRESH_EVERY == 0:
            correlation = system.rhs - gram @ controls
            image = design_gram @ controls
            norm_sq = float(np.vdot(controls, image))
        yield controls, correlation, image, norm_sq, np.sqrt(move_sq)


def banded_curve_system(n, ncoord, seed, lam=1e-3):
    """The normal system of a fit of 3 n + 3 random points by n + 1 cubic
    B-spline controls: banded grams, as a fit's are."""
    design = collocation_design(3 * n + 3, n)
    penalty = difference_matrix(n + 1, 2.0)
    q = np.random.default_rng(seed).standard_normal((design.shape[0], ncoord))
    design_gram = design.T @ design
    return NormalSystem(
        (design_gram + lam * penalty.T @ penalty,), (design_gram,), design.T @ q,
        float(np.vdot(q, q)),
    )


def assert_equals_two_product_steps(system, partition, seed, n_steps):
    """``step`` calls, refreshed at the solver's period, against
    :func:`two_product_steps`, bit for bit after every step."""
    p0 = np.random.default_rng(seed).standard_normal(system.rhs.shape)
    state = init_state(system, p0, seed)
    for controls, correlation, image, norm_sq, move in two_product_steps(
        system, partition, p0, seed, n_steps
    ):
        step(state, partition)
        if state.iteration % REFRESH_EVERY == 0:
            _refresh(state)
        npt.assert_array_equal(state.control_points, controls)
        npt.assert_array_equal(state.correlation, correlation)
        npt.assert_array_equal(state.design_image, image)
        assert state.fitted_norm_sq == norm_sq
        assert state.last_move_norm == move
    assert state.iteration == n_steps


@st.composite
def normal_systems_with_partitions(draw):
    """A dense stacked system or the span-built normal system of a drawn
    design, with a partition of its gram."""
    block_size = draw(st.integers(1, 6))
    if draw(st.booleans()):
        system = draw(curve_systems())
        return system, make_partition(system.stacked, block_size)
    design = draw(designs())
    lam = draw(penalty_weights(design))
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (design.shape[0], draw(st.sampled_from([1, 2])))
    )
    problem = curve_problem(design, 2.0)
    q, rhs = problem.right_hand_side(points)
    [direction] = problem.directions
    system = NormalSystem(
        (direction.matrix(lam),), (direction.design_gram,), rhs, float(np.vdot(q, q))
    )
    return system, gram_partition(system.grams[0], block_size)


class TestFusedStep:
    @settings(max_examples=20, deadline=None)
    @given(case=normal_systems_with_partitions(), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(REFRESH_EVERY - 2, REFRESH_EVERY + 25))
    def test_equals_two_product_steps_bitwise(self, case, seed, n_steps):
        # one stacked product [-K, A^T A] @ delta patches g and h with the
        # same round-off as the two products it replaces, refresh included
        system, partition = case
        p0 = np.random.default_rng(seed).standard_normal(system.rhs.shape)
        state = init_state(system, p0, seed)
        for controls, correlation, image, norm_sq, move in two_product_steps(
            system, partition, p0, seed, n_steps
        ):
            step(state, partition)
            if state.iteration % REFRESH_EVERY == 0:
                _refresh(state)
            npt.assert_array_equal(state.control_points, controls)
            npt.assert_array_equal(state.correlation, correlation)
            npt.assert_array_equal(state.design_image, image)
            assert state.fitted_norm_sq == norm_sq
            assert state.last_move_norm == move
        assert state.iteration == n_steps

    # Where a block or the coordinate axis is one wide, numpy picks another
    # BLAS routine (gemv for a one-column operand); each case runs past two
    # refreshes.

    def test_one_coordinate_equals_two_product_steps_bitwise(self):
        system = banded_curve_system(20, 1, seed=3)
        assert_equals_two_product_steps(system, gram_partition(system.grams[0], 5), 11, 1050)

    def test_width_one_tail_block_equals_two_product_steps_bitwise(self):
        # 101 controls in blocks of 5: the last block is one column
        system = banded_curve_system(100, 2, seed=4)
        partition = gram_partition(system.grams[0], 5)
        assert partition.spans[-1] == slice(100, 101)
        assert_equals_two_product_steps(system, partition, 12, 1050)

    def test_correlation_and_design_image_stay_views_after_refresh(self, rng):
        system = random_curve_system(rng, m_rows=16, n_cols=7, lam=0.25)
        partition = make_partition(system.stacked, 3)
        state = init_state(system, rng.standard_normal((7, 2)), 8)
        for _ in range(5):
            step(state, partition)
        held = state.images
        _refresh(state)
        # the refresh writes in place: arrays read before it stay live
        assert state.images is held
        assert state.correlation.base is held
        assert state.design_image.base is held
        # a zeroed design image reaches the step: |A P|^2 grows by |A delta|^2 only
        state.design_image[:] = 0.0
        before = state.fitted_norm_sq
        step(state, partition)
        npt.assert_allclose(state.fitted_norm_sq - before, state.last_move_norm**2,
                            rtol=1e-12, atol=1e-14 * before)
        # a zeroed correlation reaches the step: the drawn block does not move
        state.correlation[:] = 0.0
        controls = state.control_points.copy()
        step(state, partition)
        npt.assert_array_equal(state.control_points, controls)
        assert state.last_move_norm == 0.0


class TestRunReplaysSteps:
    """``run`` draws its blocks one chunk per refresh interval; a loop of
    ``step`` calls, each with its own scalar draw, gives the same fit bit for
    bit."""

    def assert_run_replays_steps(self, system, partition, p0, stop, seed, stride):
        result = run(system, partition, p0, stop, seed, trajectory_stride=stride)
        state = init_state(system, p0, seed)
        converged, reason, trajectory = scalar_draw_run(
            state, step, (partition,), _refresh, stop, stride
        )
        assert (result.iterations, result.converged, result.stop_reason) == (
            state.iteration, converged, reason
        )
        npt.assert_array_equal(result.control_points, state.control_points)
        assert result.trajectory == trajectory
        # the loop's locals reach the run's state: after a stop, at the cap and
        # at a refresh edge alike
        kept = init_state(system, p0, seed)
        driver.run(system, (partition,), kept, stop, stride)
        assert (kept.iteration, kept.fitted_norm_sq, kept.last_move_norm) == (
            state.iteration, state.fitted_norm_sq, state.last_move_norm
        )
        return result

    @settings(max_examples=25, deadline=None)
    @given(case=normal_systems_with_partitions(), seed=st.integers(0, 2**32 - 1),
           max_iter=replay_caps, tol=replay_tolerances, stride=replay_strides)
    def test_run_equals_scalar_draw_steps(self, case, seed, max_iter, tol, stride):
        system, partition = case
        p0 = np.random.default_rng(seed).standard_normal(system.rhs.shape)
        self.assert_run_replays_steps(system, partition, p0, StoppingRule(tol, max_iter), seed,
                                      stride)

    @pytest.mark.parametrize("max_iter, tol, iterations", [
        (REFRESH_EVERY - 1, 0.0, REFRESH_EVERY - 1),
        (REFRESH_EVERY, 0.0, REFRESH_EVERY),
        (REFRESH_EVERY + 1, 0.0, REFRESH_EVERY + 1),
        (2 * REFRESH_EVERY + 37, 0.0, 2 * REFRESH_EVERY + 37),
        (3 * REFRESH_EVERY, 1e-7, None),
    ])
    def test_chunk_edges(self, rng, max_iter, tol, iterations):
        # caps at, one short of and one past the chunk, one that is not a
        # multiple of it, and a tolerance met in the middle of a chunk
        system = random_curve_system(rng, m_rows=30, n_cols=12, lam=0.05)
        partition = make_partition(system.stacked, 3)
        p0 = rng.standard_normal((12, 2))
        result = self.assert_run_replays_steps(
            system, partition, p0, StoppingRule(tol, max_iter), 5, 7
        )
        if iterations is None:
            assert result.stop_reason == "tol"
            assert REFRESH_EVERY < result.iterations < 3 * REFRESH_EVERY
            assert result.iterations % REFRESH_EVERY != 0
        else:
            assert (result.iterations, result.stop_reason) == (iterations, "max_iter")

    def test_run_and_step_go_through_the_one_loop(self, rng, monkeypatch):
        calls = []

        def counted(state, entries, *rest):
            calls.append(1)
            return steps(state, entries, *rest)

        steps = driver._steps
        monkeypatch.setattr(driver, "_steps", counted)
        system = random_curve_system(rng, m_rows=16, n_cols=7, lam=0.25)
        partition = make_partition(system.stacked, 3)
        state = init_state(system, rng.standard_normal((7, 2)), 8)
        for n_steps in range(1, 4):
            step(state, partition)
            assert (len(calls), state.iteration) == (n_steps, n_steps)
        calls.clear()
        # one call per refresh chunk
        result = run(system, partition, np.zeros((7, 2)),
                     StoppingRule(0.0, 2 * REFRESH_EVERY + 1), 8)
        assert (len(calls), result.iterations) == (3, 2 * REFRESH_EVERY + 1)

    def test_buffered_residual_norm_equals_the_allocating_form(self, rng):
        system = random_curve_system(rng, m_rows=16, n_cols=7, lam=0.25)
        partition = make_partition(system.stacked, 3)
        state = init_state(system, rng.standard_normal((7, 2)), 8)
        for _ in range(30):
            step(state, partition)
            cross = np.vdot(state.control_points, state.rhs + state.correlation)
            expected = math.sqrt(max(state.data_norm_sq - cross, 0.0))
            # twice: the buffer carries nothing from one call to the next
            assert state.residual_norm() == expected
            assert state.residual_norm() == expected

    def test_step_on_a_dense_system_makes_one_draw(self, rng):
        system = random_curve_system(rng, m_rows=16, n_cols=7, lam=0.25)
        partition = make_partition(system.stacked, 3)
        state = init_state(system, rng.standard_normal((7, 2)), 8)
        for _ in range(20):
            replay = philox_stream(0)
            replay.bit_generator.state = state.rng.bit_generator.state
            replay.random()
            step(state, partition)
            assert same_stream(state.rng, replay)


class TestRun:
    def test_converges_to_direct_solution_on_clean_data(self):
        points = rose_curve(60).points
        params = chord_length_params(points)
        knots = build_knots(params, 12)
        design = assemble_collocation(knots, params)
        penalty = difference_matrix(13, 10.0)
        system = augment_curve(design, penalty, points, 0.0)
        partition = make_partition(system.stacked, 5)
        p0 = np.zeros((13, 2))
        result = run(system, partition, p0, StoppingRule(1e-12, 20_000), 3)
        direct = solve_curve_direct(system).control_points
        rel = np.linalg.norm(design @ (result.control_points - direct)) / np.linalg.norm(
            design @ direct
        )
        assert rel < 1e-6

    def test_design_gram_outside_the_windows_is_refused(self):
        # a diagonal gram gives one-column windows that cannot hold the design
        # gram's coupling of columns 0 and 3
        design_gram = np.eye(4)
        design_gram[0, 3] = design_gram[3, 0] = 0.5
        system = NormalSystem((np.eye(4),), (design_gram,), np.ones((4, 1)), 4.0)
        with pytest.raises(DimensionMismatch, match="coupled windows"):
            run(system, gram_partition(np.eye(4), 1), np.zeros((4, 1)),
                StoppingRule(1e-8, 10), 0)

    def test_zero_iterations_returns_start(self, rng):
        system = random_curve_system(rng)
        p0 = rng.standard_normal((system.n_controls, 2))
        partition = make_partition(system.stacked, 2)
        result = run(system, partition, p0, StoppingRule(1e-8, 0), 4)
        npt.assert_array_equal(result.control_points, p0)
        assert result.iterations == 0
        assert not result.converged

    def test_deterministic_given_seed(self, rng):
        system = random_curve_system(rng, m_rows=14, n_cols=6, lam=0.2)
        partition = make_partition(system.stacked, 2)
        p0 = rng.standard_normal((6, 2))
        first = run(system, partition, p0, StoppingRule(1e-10, 300), 42)
        second = run(system, partition, p0, StoppingRule(1e-10, 300), 42)
        npt.assert_array_equal(first.control_points, second.control_points)
        assert first.iterations == second.iterations
        assert first.trajectory == second.trajectory
        different = run(system, partition, p0, StoppingRule(1e-10, 300), 43)
        assert not np.array_equal(first.control_points, different.control_points)

    def test_trajectory_stride(self, rng):
        system = random_curve_system(rng)
        partition = make_partition(system.stacked, 2)
        p0 = np.zeros((system.n_controls, 2))
        result = run(system, partition, p0, StoppingRule(0.0, 40), 1, trajectory_stride=10)
        assert [s.iteration for s in result.trajectory] == [10, 20, 30, 40]

    def test_zero_norm_start_uses_absolute_fallback(self, rng):
        # all-zero start and zero targets: fitted points stay zero, the
        # absolute criterion fires as soon as the patience window fills
        design = rng.standard_normal((8, 4))
        system = augment_curve(design, difference_matrix(4, 1.0), np.zeros((8, 2)), 0.5)
        partition = make_partition(system.stacked, 2)
        rule = StoppingRule(1e-8, 50, patience=3)
        result = run(system, partition, np.zeros((4, 2)), rule, 9)
        assert result.converged
        assert result.iterations == rule.patience

    def test_single_hit_patience_matches_literal_rule(self, rng):
        # patience 1 recovers the literal successive-iterate criterion
        system = random_curve_system(rng, m_rows=14, n_cols=6, lam=0.2)
        partition = make_partition(system.stacked, 2)
        p0 = rng.standard_normal((6, 2))
        result = run(system, partition, p0, StoppingRule(1e-10, 500, patience=1), 4)
        strict = run(system, partition, p0, StoppingRule(1e-10, 500, patience=3), 4)
        assert result.iterations <= strict.iterations


class TestResidualConsistency:
    def test_incremental_residual_tracks_truth_across_refresh(self, rng):
        # the kept correlation S^T r, design image A^T A P and |A P|^2, and
        # the residual norm built from them, track the truth
        system = random_curve_system(rng, m_rows=16, n_cols=7, lam=0.25)
        partition = make_partition(system.stacked, 3)
        state = init_state(system, rng.standard_normal((7, 2)), 77)
        for k in range(1, 1201):
            step(state, partition)
            if k % 500 == 0:
                _refresh(state)
            if k % 100 == 0:
                truth = correlation_of(system, state.control_points)
                gap = np.linalg.norm(state.correlation - truth)
                assert gap <= 1e-10 * max(np.linalg.norm(truth), 1.0)
                residual = np.linalg.norm(system.targets - system.stacked @ state.control_points)
                assert abs(state.residual_norm() - residual) <= 1e-10 * max(residual, 1.0)
                fitted = system.design @ state.control_points
                image = system.design.T @ fitted
                gap = np.linalg.norm(state.design_image - image)
                assert gap <= 1e-10 * max(np.linalg.norm(image), 1.0)
                norm_sq = np.sum(fitted**2)
                assert abs(state.fitted_norm_sq - norm_sq) <= 1e-10 * max(norm_sq, 1.0)


class TestMeanIterateConvergence:
    def test_mean_over_seeds_tracks_direct_solution(self, rng):
        system = random_curve_system(rng, m_rows=8, n_cols=4, lam=0.3)
        partition = make_partition(system.stacked, 2)
        direct = solve_curve_direct(system).control_points
        n_seeds = 200
        checkpoints = [10, 20, 40, 80]
        p0 = np.zeros((4, 2))
        sums = {k: np.zeros((4, 2)) for k in checkpoints}
        for seed in range(n_seeds):
            state = init_state(system, p0, seed)
            for k in range(1, checkpoints[-1] + 1):
                step(state, partition)
                if k in sums:
                    sums[k] += state.control_points
        scale = np.linalg.norm(direct)
        errors = [np.linalg.norm(sums[k] / n_seeds - direct) / scale for k in checkpoints]
        slack = 2.0 / np.sqrt(n_seeds)
        for early, late in zip(errors, errors[1:]):
            assert late <= early + slack
        assert errors[-1] < errors[0]
