import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia.assembly import (
    AugmentedSurfaceSystem,
    NormalSystem,
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_matrix,
    gram_partition,
    make_partition,
)
from rpia.basis import build_knots, surface_params
from rpia.curve import StoppingRule
from rpia.datasets import boy_surface
from rpia import curve, driver, surface
from rpia.driver import REFRESH_EVERY, StepTable, _refresh, draw_blocks
from rpia.errors import DimensionMismatch
from rpia.oracle import solve_surface_direct
from rpia.surface import init_state, run, step

from conftest import (
    assert_close_to_scale,
    collocation_design,
    designs,
    penalty_weights,
    random_surface_system,
    replay_caps,
    replay_strides,
    replay_tolerances,
    same_stream,
    scalar_draw_run,
    surface_normal_system,
    surface_systems,
)


def philox_stream(seed):
    return np.random.Generator(np.random.Philox(seed))


def stacked_residual(system, grid):
    """``T - Ah P Bh^T`` per coordinate, coordinate-first: (ncoord, rows, cols)."""
    return np.stack([
        system.targets[:, :, f] - system.row_stacked @ grid[f] @ system.col_stacked.T
        for f in range(grid.shape[0])
    ])


def correlation_of(system, grid):
    """``Ah^T (T - Ah P Bh^T) Bh`` per coordinate from scratch; ``grid`` coordinate-first."""
    return np.stack([
        system.row_stacked.T @ r @ system.col_stacked for r in stacked_residual(system, grid)
    ])


class TestInitState:
    def test_zero_start(self, rng):
        system = random_surface_system(rng)
        grid0 = np.zeros((*system.n_controls, 3))
        state = init_state(surface_normal_system(system), grid0, 1)
        for f in range(3):
            npt.assert_array_equal(
                state.correlation[f],
                system.row_stacked.T @ system.targets[:, :, f] @ system.col_stacked,
            )
        npt.assert_allclose(state.residual_norm(), np.linalg.norm(system.targets), rtol=1e-15)
        npt.assert_array_equal(state.design_image, np.zeros_like(state.control_points))
        assert state.fitted_norm_sq == 0.0
        assert state.iteration == 0

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["curve, 1-D", "curve, 1", "curve, 3", "surface"]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_never_aliases_the_start(self, kind, seed, data):
        # the state's controls are its own: steps never write into the
        # caller's start, whatever its layout (a surface: 1 or 3 coordinates)
        rng = np.random.default_rng(seed)
        if kind == "surface":
            stacked = data.draw(surface_systems())
            system = surface_normal_system(stacked)
            start = rng.standard_normal(system.rhs.shape)
            module, partitions = surface, [
                make_partition(factor, 2) for factor in (stacked.row_stacked, stacked.col_stacked)
            ]
        else:
            design = data.draw(designs())
            width = 3 if kind == "curve, 3" else 1
            system = augment_curve(
                design, difference_matrix(design.shape[1], 2.0),
                rng.standard_normal((design.shape[0], width)), data.draw(penalty_weights(design)),
            )
            start = rng.standard_normal((system.n_controls, width))
            if kind == "curve, 1-D":
                start = start[:, 0]
            module, partitions = curve, [make_partition(system.stacked, 2)]
        before = start.copy()
        state = module.init_state(system, start, seed)
        assert not np.shares_memory(state.control_points, start)
        for _ in range(5):
            module.step(state, *partitions)
        npt.assert_array_equal(start, before)

    def test_shape_check(self, rng):
        system = random_surface_system(rng)
        with pytest.raises(DimensionMismatch):
            init_state(surface_normal_system(system), np.zeros((2, 2, 3)), 0)


class TestSelectBlocks:
    def test_single_blocks(self, rng):
        system = random_surface_system(rng)
        part_u = make_partition(system.row_stacked, system.row_stacked.shape[1])
        part_v = make_partition(system.col_stacked, system.col_stacked.shape[1])
        state = init_state(surface_normal_system(system), np.zeros((*system.n_controls, 3)), 2)
        assert all(blocks == (0, 0) for blocks in draw_blocks(state.rng, (part_u, part_v), 20))

    def test_joint_frequency_product_of_marginals(self):
        # row blocks with squared norms 1:3, column blocks 1:1
        row_stacked = np.asfortranarray(
            np.diag([np.sqrt(0.5), np.sqrt(0.5), 1.0, np.sqrt(2.0)])
        )
        col_stacked = np.asfortranarray(np.diag([1.0, 1.0, 1.0, 1.0]))
        system = AugmentedSurfaceSystem(
            row_stacked, col_stacked, np.zeros((4, 4, 3)), 0.0, 4, 4
        )
        part_u = make_partition(row_stacked, 2)
        part_v = make_partition(col_stacked, 2)
        npt.assert_allclose(part_u.probabilities, [0.25, 0.75])
        npt.assert_allclose(part_v.probabilities, [0.5, 0.5])
        state = init_state(surface_normal_system(system), np.zeros((4, 4, 3)), 777)
        n_draws = 100_000
        hits = sum(blocks == (1, 0) for blocks in draw_blocks(state.rng, (part_u, part_v), n_draws))
        assert abs(hits / n_draws - 0.375) < 0.01

    def test_marginals_chi_squared_on_surface_partition(self):
        grid = boy_surface(60, 60).grid
        xs, ys = surface_params(grid)
        a = assemble_collocation(build_knots(xs, 20), xs)
        b = assemble_collocation(build_knots(ys, 20), ys)
        system = augment_surface(
            a, b, difference_matrix(21, 91.0), difference_matrix(21, 91.0), grid, 4.48e-6
        )
        part_u = make_partition(system.row_stacked, 5)
        part_v = make_partition(system.col_stacked, 5)
        assert len(part_u) == 5 and len(part_v) == 5
        n_draws = 200_000
        for part, seed in ((part_u, 5), (part_v, 6)):
            draws = np.array(list(draw_blocks(philox_stream(seed), (part,), n_draws)))[:, 0]
            counts = np.bincount(draws, minlength=len(part))
            expected = n_draws * part.probabilities
            chi2 = float(np.sum((counts - expected) ** 2 / expected))
            # chi-squared on 4 degrees of freedom: 18.5 is the 99.9% point
            assert chi2 < 18.5


class TestStep:
    def test_consistent_system_fixed_point(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 2))
        exact = rng.standard_normal((3, 2, 3))
        data = np.stack([a @ exact[:, :, f] @ b.T for f in range(3)], axis=-1)
        system = augment_surface(
            a, b, difference_matrix(3, 1.0), difference_matrix(2, 1.0), data, 0.0
        )
        state = init_state(surface_normal_system(system), exact, 3)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 1)
        before = state.control_points.copy()
        step(state, part_u, part_v)
        npt.assert_allclose(state.control_points, before, atol=1e-12)

    def test_single_block_closed_form(self, rng):
        system = random_surface_system(rng, rows=(4, 3), cols=(3, 2), lam=0.3)
        part_u = make_partition(system.row_stacked, 3)
        part_v = make_partition(system.col_stacked, 2)
        grid0 = rng.standard_normal((3, 2, 3))
        state = init_state(surface_normal_system(system), grid0, 8)
        residual0 = stacked_residual(system, np.moveaxis(grid0, -1, 0))
        step(state, part_u, part_v)
        scale = np.sum(system.row_stacked**2) * np.sum(system.col_stacked**2)
        for f in range(3):
            expected = grid0[:, :, f] + (
                system.row_stacked.T @ residual0[f] @ system.col_stacked
            ) / scale
            npt.assert_allclose(state.control_points[f], expected, atol=1e-13)

    def test_matches_straight_line_reimplementation(self, rng):
        system = random_surface_system(rng, rows=(3, 3), cols=(2, 3), lam=0.15)
        part_u = make_partition(system.row_stacked, 1)
        part_v = make_partition(system.col_stacked, 1)
        seed = 91
        grid0 = rng.standard_normal((3, 3, 3))
        state = init_state(surface_normal_system(system), grid0, seed)
        step(state, part_u, part_v)

        reference_rng = philox_stream(seed)
        u, v = reference_rng.random(), reference_rng.random()

        def pick(probabilities, draw):
            acc = 0.0
            for idx, prob in enumerate(probabilities):
                acc += prob
                if draw < acc:
                    return idx
            return len(probabilities) - 1

        t = pick(part_u.probabilities, u)
        s = pick(part_v.probabilities, v)
        a_col = system.row_stacked[:, t]
        b_col = system.col_stacked[:, s]
        scale = float(np.sum(a_col**2) * np.sum(b_col**2))
        expected = grid0.copy()
        for f in range(3):
            residual_f = system.targets[:, :, f] - system.row_stacked @ grid0[:, :, f] @ system.col_stacked.T
            expected[t, s, f] += float(a_col @ residual_f @ b_col) / scale
        got = np.moveaxis(state.control_points, 0, -1)
        npt.assert_allclose(got, expected, atol=1e-13)

    def test_block_locality_bitwise(self, rng):
        system = random_surface_system(rng, rows=(4, 4), cols=(3, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        state = init_state(surface_normal_system(system), rng.standard_normal((4, 3, 3)), 55)
        for _ in range(20):
            before = state.control_points.copy()
            snapshot = state.rng.bit_generator.state
            step(state, part_u, part_v)
            replay = philox_stream(0)
            replay.bit_generator.state = snapshot
            t = int(np.searchsorted(part_u.cumulative, replay.random(), side="right"))
            s = int(np.searchsorted(part_v.cumulative, replay.random(), side="right"))
            mask = np.ones((4, 3), dtype=bool)
            mask[np.ix_(part_u.blocks[t], part_v.blocks[s])] = False
            for f in range(3):
                npt.assert_array_equal(state.control_points[f][mask], before[f][mask])


class TestWindowedStep:
    @settings(max_examples=60, deadline=None)
    @given(system=surface_systems(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_dense_per_coordinate_reference(self, system, seed, data):
        part_u, part_v = (
            make_partition(factor, data.draw(st.integers(1, 6)))
            for factor in (system.row_stacked, system.col_stacked)
        )
        ncoord = system.targets.shape[2]
        grid0 = np.random.default_rng(seed).standard_normal((*system.n_controls, ncoord))
        state = init_state(surface_normal_system(system), grid0, seed)
        a, b = system.design_u, system.design_v
        fitted = np.stack([a @ g @ b.T for g in state.control_points])
        for _ in range(8):
            controls = state.control_points.copy()
            residual = stacked_residual(system, controls)
            replay = philox_stream(0)
            replay.bit_generator.state = state.rng.bit_generator.state
            step(state, part_u, part_v)

            # the per-coordinate update over the full stacked factors
            t = int(np.searchsorted(part_u.cumulative, replay.random(), side="right"))
            s = int(np.searchsorted(part_v.cumulative, replay.random(), side="right"))
            rows, cols = part_u.blocks[t], part_v.blocks[s]
            a_cols = system.row_stacked[:, rows]
            b_cols = system.col_stacked[:, cols]
            scale = np.sum(a_cols**2) * np.sum(b_cols**2)
            move_sq = 0.0
            for f in range(ncoord):
                delta = a_cols.T @ residual[f] @ b_cols / scale
                controls[f][np.ix_(rows, cols)] += delta
                move = a_cols @ delta @ b_cols.T
                residual[f] -= move
                top = move[: system.data_rows, : system.data_cols]
                fitted[f] += top
                move_sq += np.sum(top**2)
            assert_close_to_scale(state.control_points, controls)
            assert_close_to_scale(
                state.correlation,
                np.stack([system.row_stacked.T @ r @ system.col_stacked for r in residual]),
            )
            # the fitted points are kept only as their design image and norm
            assert_close_to_scale(state.design_image, np.stack([a.T @ x @ b for x in fitted]))
            # a move can be pure round-off; compare it at the fitted points' scale
            scale = max(1.0, np.max(np.abs(fitted)))
            npt.assert_allclose(state.fitted_norm_sq, np.sum(fitted**2), rtol=1e-13,
                                atol=1e-13 * scale**2)
            npt.assert_allclose(state.last_move_norm, np.sqrt(move_sq), rtol=1e-13,
                                atol=1e-13 * scale)


class TestGramStep:
    @settings(max_examples=60, deadline=None)
    @given(system=surface_systems(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_equals_stacked_data_space_step(self, system, seed, data):
        # one step from a random state against the textbook step on the
        # stacked residual, with the new correlation recomputed from scratch
        part_u, part_v = (
            make_partition(factor, data.draw(st.integers(1, 6)))
            for factor in (system.row_stacked, system.col_stacked)
        )
        ncoord = system.targets.shape[2]
        grid0 = 3.0 * np.random.default_rng(seed).standard_normal((*system.n_controls, ncoord))
        state = init_state(surface_normal_system(system), grid0, seed)
        replay = philox_stream(0)
        replay.bit_generator.state = state.rng.bit_generator.state
        step(state, part_u, part_v)

        t = int(np.searchsorted(part_u.cumulative, replay.random(), side="right"))
        s = int(np.searchsorted(part_v.cumulative, replay.random(), side="right"))
        cells = np.ix_(part_u.blocks[t], part_v.blocks[s])
        a_cols = system.row_stacked[:, part_u.blocks[t]]
        b_cols = system.col_stacked[:, part_v.blocks[s]]
        scale = np.sum(a_cols**2) * np.sum(b_cols**2)
        start = np.moveaxis(grid0, -1, 0)
        expected = start.copy()
        for f, r in enumerate(stacked_residual(system, start)):
            delta = a_cols.T @ r @ b_cols / scale
            assert_close_to_scale(state.control_points[f][cells] - start[f][cells], delta, tol=1e-12)
            expected[f][cells] += delta
        assert_close_to_scale(state.control_points, expected, tol=1e-12)
        assert_close_to_scale(state.correlation, correlation_of(system, expected), tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(system=surface_systems(), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(0, 30))
    def test_residual_norm_equals_stacked_residual(self, system, seed, n_steps):
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 3)
        ncoord = system.targets.shape[2]
        grid0 = np.random.default_rng(seed).standard_normal((*system.n_controls, ncoord))
        state = init_state(surface_normal_system(system), grid0, seed)
        for _ in range(n_steps):
            step(state, part_u, part_v)
        truth = np.linalg.norm(stacked_residual(system, state.control_points))
        npt.assert_allclose(state.residual_norm(), truth, rtol=1e-12)


    @settings(max_examples=60, deadline=None)
    @given(system=surface_systems(), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(0, 60), data=st.data())
    def test_design_image_and_fitted_norm_track_the_controls(self, system, seed, n_steps, data):
        part_u, part_v = (
            make_partition(factor, data.draw(st.integers(1, 6)))
            for factor in (system.row_stacked, system.col_stacked)
        )
        ncoord = system.targets.shape[2]
        grid0 = np.random.default_rng(seed).standard_normal((*system.n_controls, ncoord))
        state = init_state(surface_normal_system(system), grid0, seed)
        for _ in range(n_steps):
            step(state, part_u, part_v)
        a, b = system.design_u, system.design_v
        fitted = np.stack([a @ g @ b.T for g in state.control_points])
        assert_close_to_scale(
            state.design_image, np.stack([a.T @ x @ b for x in fitted]), tol=1e-10
        )
        norm_sq = np.sum(fitted**2)
        npt.assert_allclose(state.fitted_norm_sq, norm_sq, rtol=0, atol=1e-10 * max(1.0, norm_sq))


def two_product_steps(system, part_u, part_v, grid0, seed, n_steps):
    """The subgrid step with one product chain for ``g`` through ``Ku`` and
    ``Kv`` and another for ``h`` through ``A^T A`` and ``B^T B``, refreshed at
    the solver's period. Yields ``(P, g, h, |A P B^T|^2, |A delta B^T|,
    residual norm)`` after each step, coordinate first."""
    rng = philox_stream(seed)
    (gram_u, gram_v), (design_gram_u, design_gram_v) = system.grams, system.design_grams
    rhs = np.moveaxis(system.rhs, -1, 0)
    grid = np.moveaxis(np.asarray(grid0, dtype=float), -1, 0).copy()

    def refresh():
        correlation = rhs - gram_u @ grid @ gram_v
        image = design_gram_u @ grid @ design_gram_v
        return correlation, image, float(np.vdot(grid, image))

    correlation, image, norm_sq = refresh()
    for k in range(1, n_steps + 1):
        t = int(np.searchsorted(part_u.cumulative, rng.random(), side="right"))
        s = int(np.searchsorted(part_v.cumulative, rng.random(), side="right"))
        rows, cols = part_u.spans[t], part_v.spans[s]
        wt, ws = part_u.coupled[t], part_v.coupled[s]
        delta = correlation[:, rows, cols] / (part_u.norms_sq[t] * part_v.norms_sq[s])
        grid[:, rows, cols] += delta
        correlation[:, wt, ws] -= gram_u[wt, rows] @ delta @ gram_v[cols, ws]
        patch = design_gram_u[wt, rows] @ delta @ design_gram_v[cols, ws]
        inside = patch[:, part_u.inner[t], part_v.inner[s]]
        move_sq = max(float(np.vdot(delta, inside)), 0.0)
        norm_sq += 2.0 * float(np.vdot(image[:, rows, cols], delta)) + move_sq
        image[:, wt, ws] += patch
        if k % REFRESH_EVERY == 0:
            correlation, image, norm_sq = refresh()
        cross = np.vdot(grid, rhs + correlation)
        residual = np.sqrt(max(system.data_norm_sq - cross, 0.0))
        yield grid, correlation, image, norm_sq, np.sqrt(move_sq), residual


def banded_surface_system(n, seed, lam=1e-3):
    """The normal system of a fit of a (2 n + 2) x (2 n + 2) grid of random
    3-D points by (n + 1) x (n + 1) bicubic controls: banded grams, as a
    fit's are."""
    design = collocation_design(2 * n + 2, n)
    penalty = difference_matrix(n + 1, 2.0)
    q = np.random.default_rng(seed).standard_normal((design.shape[0], design.shape[0], 3))
    design_gram = design.T @ design
    gram = design_gram + lam * penalty.T @ penalty
    return NormalSystem(
        (gram, gram), (design_gram, design_gram),
        np.einsum("ia,ijf,jb->abf", design, q, design), float(np.vdot(q, q)),
    )


class TestFusedStep:
    @settings(max_examples=15, deadline=None)
    @given(system=surface_systems(), seed=st.integers(0, 2**32 - 1),
           n_steps=st.integers(REFRESH_EVERY - 2, REFRESH_EVERY + 25), data=st.data())
    def test_equals_two_product_steps_bitwise(self, system, seed, n_steps, data):
        # one batched chain [-Ku, A^T A] @ delta @ [Kv, B^T B] patches g and
        # h with the same round-off as the two chains it replaces, refresh
        # and residual norm included
        part_u, part_v = (
            make_partition(factor, data.draw(st.integers(1, 6)))
            for factor in (system.row_stacked, system.col_stacked)
        )
        normal = surface_normal_system(system)
        grid0 = np.random.default_rng(seed).standard_normal(normal.rhs.shape)
        state = init_state(normal, grid0, seed)
        for grid, correlation, image, norm_sq, move, residual in two_product_steps(
            normal, part_u, part_v, grid0, seed, n_steps
        ):
            step(state, part_u, part_v)
            if state.iteration % REFRESH_EVERY == 0:
                _refresh(state)
            npt.assert_array_equal(state.control_points, grid)
            npt.assert_array_equal(state.correlation, correlation)
            npt.assert_array_equal(state.design_image, image)
            assert state.fitted_norm_sq == norm_sq
            assert state.last_move_norm == move
            assert state.residual_norm() == residual
        assert state.iteration == n_steps

    def test_width_one_tail_blocks_equal_two_product_steps_bitwise(self):
        # 21 x 21 controls in blocks of 5: the last block of each factor is
        # one column, where numpy's batched product takes gemv as the
        # refresh's chain does, and a 2-D gemm would round differently
        system = banded_surface_system(20, seed=5)
        part_u, part_v = (gram_partition(gram, 5) for gram in system.grams)
        assert part_u.spans[-1] == part_v.spans[-1] == slice(20, 21)
        grid0 = np.random.default_rng(13).standard_normal(system.rhs.shape)
        state = init_state(system, grid0, 13)
        for grid, correlation, image, norm_sq, move, residual in two_product_steps(
            system, part_u, part_v, grid0, 13, 1050
        ):
            step(state, part_u, part_v)
            if state.iteration % REFRESH_EVERY == 0:
                _refresh(state)
            npt.assert_array_equal(state.control_points, grid)
            npt.assert_array_equal(state.correlation, correlation)
            npt.assert_array_equal(state.design_image, image)
            assert state.fitted_norm_sq == norm_sq
            assert state.last_move_norm == move
            assert state.residual_norm() == residual
        assert state.iteration == 1050

    def test_correlation_and_design_image_stay_views_after_refresh(self, rng):
        system = random_surface_system(rng, rows=(5, 4), cols=(4, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        state = init_state(surface_normal_system(system), rng.standard_normal((4, 3, 3)), 5)
        for _ in range(5):
            step(state, part_u, part_v)
        held = state.images
        _refresh(state)
        # the refresh writes in place: arrays read before it stay live
        assert state.images is held
        assert state.correlation.base is held
        assert state.design_image.base is held
        # a zeroed design image reaches the step: |A P B^T|^2 grows by the move only
        state.design_image[:] = 0.0
        before = state.fitted_norm_sq
        step(state, part_u, part_v)
        npt.assert_allclose(state.fitted_norm_sq - before, state.last_move_norm**2,
                            rtol=1e-12, atol=1e-14 * before)
        # a zeroed correlation reaches the step: the drawn subgrid does not move
        state.correlation[:] = 0.0
        grid = state.control_points.copy()
        step(state, part_u, part_v)
        npt.assert_array_equal(state.control_points, grid)
        assert state.last_move_norm == 0.0


@pytest.fixture(scope="module")
def small_problem():
    grid = boy_surface(16, 14).grid
    xs, ys = surface_params(grid)
    knots_u = build_knots(xs, 6)
    knots_v = build_knots(ys, 5)
    a = assemble_collocation(knots_u, xs)
    b = assemble_collocation(knots_v, ys)
    return a, b, grid


class TestResidualConsistency:
    def test_incremental_residual_tracks_truth_across_refresh(self, rng):
        # the kept correlation Ah^T R Bh, design image A^T A P B^T B and
        # |A P B^T|^2, and the residual norm built from them, track the truth
        system = random_surface_system(rng, rows=(5, 4), cols=(4, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        state = init_state(surface_normal_system(system), rng.standard_normal((4, 3, 3)), 31)
        for k in range(1, 1201):
            step(state, part_u, part_v)
            if k % 500 == 0:
                _refresh(state)
            if k % 200 == 0:
                truth = correlation_of(system, state.control_points)
                for f in range(3):
                    gap = np.linalg.norm(state.correlation[f] - truth[f])
                    assert gap <= 1e-10 * max(np.linalg.norm(truth[f]), 1.0)
                residual = np.linalg.norm(stacked_residual(system, state.control_points))
                assert abs(state.residual_norm() - residual) <= 1e-10 * max(residual, 1.0)
                a, b = system.design_u, system.design_v
                fitted = np.stack([a @ g @ b.T for g in state.control_points])
                image = np.stack([a.T @ x @ b for x in fitted])
                gap = np.linalg.norm(state.design_image - image)
                assert gap <= 1e-10 * max(np.linalg.norm(image), 1.0)
                norm_sq = np.sum(fitted**2)
                assert abs(state.fitted_norm_sq - norm_sq) <= 1e-10 * max(norm_sq, 1.0)


class TestRun:
    def test_clean_data_matches_direct_tensor_solve(self, small_problem):
        a, b, grid = small_problem
        system = augment_surface(
            a, b, difference_matrix(7, 1.0), difference_matrix(6, 1.0), grid, 0.0
        )
        part_u = make_partition(system.row_stacked, 3)
        part_v = make_partition(system.col_stacked, 3)
        grid0 = np.zeros((7, 6, 3))
        result = run(surface_normal_system(system), part_u, part_v, grid0, StoppingRule(1e-12, 30_000), 5)
        direct = solve_surface_direct(system).control_points
        num = 0.0
        den = 0.0
        for f in range(3):
            diff = a @ (result.control_points[:, :, f] - direct[:, :, f]) @ b.T
            ref = a @ direct[:, :, f] @ b.T
            num += np.sum(diff**2)
            den += np.sum(ref**2)
        assert np.sqrt(num / den) < 1e-5

    def test_design_gram_outside_the_windows_is_refused(self):
        # the column design gram couples columns 0 and 3 across the
        # one-column windows of a diagonal column gram
        design_gram_v = np.eye(4)
        design_gram_v[0, 3] = design_gram_v[3, 0] = 0.5
        system = NormalSystem(
            (np.eye(3), np.eye(4)), (np.eye(3), design_gram_v), np.ones((3, 4, 1)), 12.0
        )
        with pytest.raises(DimensionMismatch, match="coupled windows"):
            run(system, gram_partition(np.eye(3), 3), gram_partition(np.eye(4), 1),
                np.zeros((3, 4, 1)), StoppingRule(1e-8, 10), 0)

    def test_zero_iterations_returns_start(self, rng):
        system = random_surface_system(rng)
        grid0 = rng.standard_normal((*system.n_controls, 3))
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        result = run(surface_normal_system(system), part_u, part_v, grid0, StoppingRule(1e-8, 0), 4)
        npt.assert_array_equal(result.control_points, grid0)
        assert result.iterations == 0

    def test_one_coordinate_start_grid_left_unchanged(self, rng):
        system = augment_surface(
            rng.standard_normal((6, 5)), rng.standard_normal((6, 5)),
            difference_matrix(5, 1.0), difference_matrix(5, 1.0),
            rng.standard_normal((6, 6)), 0.1,
        )
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        g0 = rng.standard_normal((5, 5, 1))
        before = g0.copy()
        result = run(surface_normal_system(system), part_u, part_v, g0, StoppingRule(1e-12, 50), 6)
        assert result.iterations > 0
        npt.assert_array_equal(g0, before)

    def test_deterministic_given_seed(self, rng):
        system = random_surface_system(rng, rows=(5, 4), cols=(4, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        grid0 = rng.standard_normal((4, 3, 3))
        first = run(surface_normal_system(system), part_u, part_v, grid0, StoppingRule(1e-10, 200), 12)
        second = run(surface_normal_system(system), part_u, part_v, grid0, StoppingRule(1e-10, 200), 12)
        npt.assert_array_equal(first.control_points, second.control_points)
        assert first.iterations == second.iterations

    def test_coordinate_permutation_equivariance(self, rng):
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        lu = difference_matrix(4, 1.0)
        lv = difference_matrix(3, 1.0)
        grid = rng.standard_normal((5, 4, 3))
        perm = [2, 0, 1]
        base_system = augment_surface(a, b, lu, lv, grid, 0.1)
        perm_system = augment_surface(a, b, lu, lv, grid[:, :, perm], 0.1)
        part_u = make_partition(base_system.row_stacked, 2)
        part_v = make_partition(base_system.col_stacked, 2)
        grid0 = rng.standard_normal((4, 3, 3))
        rule = StoppingRule(1e-10, 100)
        base = run(surface_normal_system(base_system), part_u, part_v, grid0, rule, 21)
        permuted = run(
            surface_normal_system(perm_system), part_u, part_v, grid0[:, :, perm], rule, 21
        )
        npt.assert_array_equal(permuted.control_points, base.control_points[:, :, perm])


class TestRunReplaysSteps:
    """``run`` draws its block pairs one chunk per refresh interval; a loop of
    ``step`` calls, each with its own two scalar draws, gives the same fit
    bit for bit."""

    def assert_run_replays_steps(self, normal, part_u, part_v, grid0, stop, seed, stride):
        result = run(normal, part_u, part_v, grid0, stop, seed, trajectory_stride=stride)
        state = init_state(normal, grid0, seed)
        converged, reason, trajectory = scalar_draw_run(
            state, step, (part_u, part_v), _refresh, stop, stride
        )
        assert (result.iterations, result.converged, result.stop_reason) == (
            state.iteration, converged, reason
        )
        npt.assert_array_equal(result.control_points, np.moveaxis(state.control_points, 0, -1))
        assert result.trajectory == trajectory
        # the loop's locals reach the run's state: after a stop, at the cap and
        # at a refresh edge alike
        kept = init_state(normal, grid0, seed)
        driver.run(normal, (part_u, part_v), kept, stop, stride)
        assert (kept.iteration, kept.fitted_norm_sq, kept.last_move_norm) == (
            state.iteration, state.fitted_norm_sq, state.last_move_norm
        )
        return result

    @settings(max_examples=20, deadline=None)
    @given(system=surface_systems(), seed=st.integers(0, 2**32 - 1), max_iter=replay_caps,
           tol=replay_tolerances, stride=replay_strides, data=st.data())
    def test_run_equals_scalar_draw_steps(self, system, seed, max_iter, tol, stride, data):
        part_u, part_v = (
            make_partition(factor, data.draw(st.integers(1, 6)))
            for factor in (system.row_stacked, system.col_stacked)
        )
        normal = surface_normal_system(system)
        grid0 = np.random.default_rng(seed).standard_normal(normal.rhs.shape)
        self.assert_run_replays_steps(
            normal, part_u, part_v, grid0, StoppingRule(tol, max_iter), seed, stride
        )

    @pytest.mark.parametrize("max_iter, tol, iterations", [
        (REFRESH_EVERY - 1, 0.0, REFRESH_EVERY - 1),
        (REFRESH_EVERY, 0.0, REFRESH_EVERY),
        (REFRESH_EVERY + 1, 0.0, REFRESH_EVERY + 1),
        (2 * REFRESH_EVERY + 37, 0.0, 2 * REFRESH_EVERY + 37),
        (3 * REFRESH_EVERY, 1e-3, None),
    ])
    def test_chunk_edges(self, rng, max_iter, tol, iterations):
        # caps at, one short of and one past the chunk, one that is not a
        # multiple of it, and a tolerance met in the middle of a chunk
        system = random_surface_system(rng, rows=(9, 7), cols=(8, 6), lam=0.05)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 3)
        grid0 = rng.standard_normal((7, 6, 3))
        result = self.assert_run_replays_steps(
            surface_normal_system(system), part_u, part_v, grid0, StoppingRule(tol, max_iter),
            5, 7,
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
        system = random_surface_system(rng, rows=(5, 4), cols=(4, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        normal = surface_normal_system(system)
        state = init_state(normal, rng.standard_normal((4, 3, 3)), 5)
        for n_steps in range(1, 4):
            step(state, part_u, part_v)
            assert (len(calls), state.iteration) == (n_steps, n_steps)
        calls.clear()
        # one call per refresh chunk
        result = run(normal, part_u, part_v, np.zeros((4, 3, 3)),
                     StoppingRule(0.0, 2 * REFRESH_EVERY + 1), 5)
        assert (len(calls), result.iterations) == (3, 2 * REFRESH_EVERY + 1)

    def test_step_makes_two_draws(self, rng):
        system = random_surface_system(rng, rows=(5, 4), cols=(4, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        state = init_state(surface_normal_system(system), rng.standard_normal((4, 3, 3)), 5)
        for _ in range(20):
            replay = philox_stream(0)
            replay.bit_generator.state = state.rng.bit_generator.state
            replay.random(2)
            step(state, part_u, part_v)
            assert same_stream(state.rng, replay)


class TestStepTable:
    def test_a_capped_run_builds_at_most_one_entry_per_step(self, monkeypatch):
        # 401 x 401 controls in blocks of 5: 81 x 81 = 6 561 block pairs, of
        # which a 50-step run may build no more than it draws
        design = collocation_design(802, 400)
        design_gram = design.T @ design
        gram = design_gram + 1e-3 * difference_matrix(401, 1.0) @ difference_matrix(401, 1.0)
        rhs = np.random.default_rng(0).standard_normal((401, 401, 1))
        system = NormalSystem((gram, gram), (design_gram, design_gram), rhs, 1.0)
        partition = gram_partition(gram, 5)
        assert len(partition) ** 2 == 6561
        tables = []

        class RecordedTable(StepTable):
            def __init__(self, build):
                super().__init__(build)
                tables.append(self)

        monkeypatch.setattr(driver, "StepTable", RecordedTable)
        result = run(system, partition, partition, np.zeros((401, 401, 1)),
                     StoppingRule(0.0, 50), 3)
        assert result.iterations == 50
        [table] = tables
        assert 0 < len(table) <= 50
