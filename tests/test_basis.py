from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia import basis
from rpia.basis import (
    EVAL_CHUNK,
    BasisSpan,
    KnotVector,
    build_knots,
    chord_length_params,
    eval_basis,
    surface_params,
)
from rpia.datasets import rose_curve
from rpia.errors import (
    DegenerateData,
    DuplicatePointWarning,
    InvalidConfig,
    OutOfDomain,
)

from conftest import (
    assert_close_to_scale,
    dense_rows,
    full_width_span,
    naive_all_basis,
    pointwise_basis,
)


class TestChordLengthParams:
    def test_two_points(self):
        npt.assert_array_equal(chord_length_params([(0, 0), (1, 0)]), [0.0, 1.0])

    def test_three_equally_spaced(self):
        params = chord_length_params([(0, 0), (1, 0), (2, 0)])
        npt.assert_allclose(params, [0.0, 0.5, 1.0], atol=1e-15)

    def test_chords_one_and_three(self):
        # cumulative sums 0, 1/4, 1 by hand
        params = chord_length_params([(0, 0), (1, 0), (4, 0)])
        npt.assert_allclose(params, [0.0, 0.25, 1.0], atol=1e-15)

    def test_strictly_increasing_on_random_walks(self, rng):
        for _ in range(20):
            pts = np.cumsum(rng.standard_normal((30, 3)) + 0.1, axis=0)
            params = chord_length_params(pts)
            assert params[0] == 0.0 and params[-1] == 1.0
            assert np.all(np.diff(params) > 0)

    def test_duplicate_point_warns_and_stays_strict(self):
        pts = [(0, 0), (1, 0), (1, 0), (2, 0)]
        with pytest.warns(DuplicatePointWarning):
            params = chord_length_params(pts)
        assert np.all(np.diff(params) > 0)
        assert params[-1] == 1.0

    def test_duplicate_at_the_end(self):
        pts = [(0, 0), (1, 0), (2, 0), (2, 0)]
        with pytest.warns(DuplicatePointWarning):
            params = chord_length_params(pts)
        assert np.all(np.diff(params) > 0)
        assert params[-1] == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateData):
            chord_length_params([(1, 1), (1, 1), (1, 1)])
        with pytest.raises(DegenerateData):
            chord_length_params([(1, 1)])


class TestSurfaceParams:
    def test_unit_square(self):
        grid = np.array(
            [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], dtype=float
        )
        x, y = surface_params(grid)
        npt.assert_array_equal(x, [0.0, 1.0])
        npt.assert_array_equal(y, [0.0, 1.0])

    def test_uniform_rows(self):
        # 3 rows x 2 cols, rows uniformly spaced
        grid = np.zeros((3, 2, 3))
        grid[:, :, 0] = np.arange(3)[:, None]
        grid[:, :, 1] = np.arange(2)[None, :]
        x, y = surface_params(grid)
        npt.assert_allclose(x, [0.0, 0.5, 1.0], atol=1e-15)

    def test_column_heights_give_quarter(self):
        # columns at heights 0, 1, 4: every row contributes chords 1 and 3
        grid = np.zeros((3, 3, 3))
        grid[:, :, 0] = np.arange(3)[:, None]
        grid[:, :, 1] = np.array([0.0, 1.0, 4.0])[None, :]
        _, y = surface_params(grid)
        npt.assert_allclose(y, [0.0, 0.25, 1.0], atol=1e-15)

    def test_degenerate_direction(self):
        grid = np.zeros((3, 3, 3))
        grid[:, :, 1] = np.arange(3)[None, :]  # rows identical
        with pytest.raises(DegenerateData):
            surface_params(grid)


class TestBuildKnots:
    def test_full_scale_counts(self):
        params = np.linspace(0.0, 1.0, 1001)
        kv = build_knots(params, 100)
        assert kv.knots.size == 105
        assert kv.n_basis == 101
        interior = kv.knots[4:-4]
        assert interior.size == 97
        assert np.all((interior > 0.0) & (interior < 1.0))
        assert np.all(np.diff(kv.knots) >= 0.0)

    def test_bezier_like_minimum(self):
        kv = build_knots(np.linspace(0, 1, 11), 3)
        npt.assert_array_equal(kv.knots, [0] * 4 + [1] * 4)

    def test_hand_computed_interior(self):
        # m=9, n1=5, uniform params: d = 10/3
        # j=1: i=3, frac=1/3 -> (2/3) x2 + (1/3) x3 = 7/27
        # j=2: i=6, frac=2/3 -> (1/3) x5 + (2/3) x6 = 17/27
        kv = build_knots(np.linspace(0, 1, 10), 5)
        assert kv.knots.size == 10
        npt.assert_allclose(kv.knots[4:6], [7.0 / 27.0, 17.0 / 27.0], atol=1e-15)

    def test_hand_computed_averaged_interior(self):
        # m=9, n1=9: d = 10/7 < 2, and n1 + 1 = m + 1 resamples the uniform
        # params to themselves, x_k = k/9; knot j averages x_j, x_j+1, x_j+2
        kv = build_knots(np.linspace(0, 1, 10), 9)
        npt.assert_allclose(kv.knots[4:-4], np.arange(2, 8) / 9.0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(chords=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=400), data=st.data())
    def test_interpolated_rule_at_two_or_more_parameters_per_span(self, chords, data):
        # d >= 2 keeps the interpolation rule (The NURBS Book eq. 9.68-9.69)
        # bit for bit, and with it the knots of every shipped config
        params = chord_length_params(np.cumsum([0.0] + chords))
        n1 = data.draw(st.integers(3, params.size // 2 + 2))
        d = params.size / (n1 - 2)
        assert d >= 2.0
        want = np.zeros(n1 + 5)
        want[-4:] = 1.0
        for j in range(1, n1 - 2):
            i = int(np.floor(j * d))
            frac = j * d - i
            want[3 + j] = (1.0 - frac) * params[i - 1] + frac * params[i]
        assert build_knots(params, n1).knots.tobytes() == want.tobytes()

    def test_count_property(self):
        for m, n1 in [(30, 8), (51, 17), (100, 30), (12, 5)]:
            kv = build_knots(np.linspace(0, 1, m + 1), n1)
            assert kv.knots.size == n1 + 5

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            build_knots(np.linspace(0, 1, 11), 2)
        with pytest.raises(InvalidConfig):
            build_knots(np.linspace(0, 1, 4), 10)  # d < 1


def nonzeros(span, i):
    """Basis index to value for the nonzero entries of parameter ``i``'s run."""
    return {int(span.start[i]) + j: v for j, v in enumerate(span.values[i]) if v != 0.0}


@st.composite
def clamped_knots_and_params(draw):
    """Random clamped cubic knots (repeats allowed) and parameters that hit
    every knot, both floating-point neighbours of each knot, 0, 1 and a few
    interior points.

    Interior knots stay 1e-6 away from the ends, so no knot gap is subnormal
    and the recurrence's quotients stay finite.
    """
    interior = sorted(draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=12)))
    knots = KnotVector(np.array([0.0] * 4 + interior + [1.0] * 4))
    t = knots.knots
    extra = draw(st.lists(st.floats(0.0, 1.0), max_size=10))
    params = np.concatenate([
        t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), [0.0, 1.0], extra,
    ])
    return knots, np.clip(params, 0.0, 1.0)


class TestEvalBasis:
    @pytest.fixture
    def knots(self):
        return build_knots(np.linspace(0.0, 1.0, 31), 10)

    def test_clamped_left_end(self, knots):
        span = eval_basis(knots, 0.0)
        assert nonzeros(span, 0) == {0: 1.0}

    def test_clamped_right_end(self, knots):
        span = eval_basis(knots, 1.0)
        assert nonzeros(span, 0) == {knots.n_basis - 1: 1.0}

    def test_partition_of_unity(self, knots, rng):
        span = eval_basis(knots, rng.random(10_000))
        worst = np.max(np.abs(span.values.sum(axis=1) - 1.0))
        assert worst < 1e-12

    def test_local_support_and_nonnegativity(self, knots, rng):
        span = eval_basis(knots, rng.random(500))
        assert span.start.shape == (500,)
        assert span.values.shape == (500, 4)
        assert np.all(span.values >= 0.0)
        for i in range(500):
            nonzero = sorted(nonzeros(span, i))
            assert len(nonzero) <= 4
            assert nonzero == list(range(min(nonzero), max(nonzero) + 1))

    def test_against_naive_recursion(self, knots, rng):
        xs = np.concatenate([rng.random(60), [0.0, 1.0], knots.knots[4:-4][:5]])
        span = eval_basis(knots, xs)
        got = dense_rows(span.start, span.values, knots.n_basis)
        for x, row in zip(xs, got):
            npt.assert_allclose(row, naive_all_basis(knots.knots, 3, float(x)), atol=1e-13)

    def test_right_continuity_at_interior_knot(self, knots):
        x = float(knots.knots[6])  # an interior knot
        span = eval_basis(knots, [x, np.nextafter(x, 1.0)])
        assert span.start[0] == span.start[1]
        npt.assert_allclose(span.values[0], span.values[1], atol=1e-9)

    def test_out_of_domain(self, knots):
        for x in (-0.1, 1.0000001, np.nan):
            with pytest.raises(OutOfDomain):
                eval_basis(knots, x)
        with pytest.raises(OutOfDomain, match=r"parameter -0\.1 outside"):
            eval_basis(knots, [0.5, -0.1, np.nan, 2.0])

    def test_uniform_midspan_values(self):
        # Far from the clamped ends a cubic B-spline on uniform knots takes
        # the classic 1/6 (1, 4, 1) values at knots and (1/48, 23/48, 23/48,
        # 1/48) at span midpoints; verified against the naive recursion.
        kv = build_knots(np.linspace(0, 1, 41), 12)
        mid = 0.5 * (kv.knots[8] + kv.knots[9])
        span = eval_basis(kv, mid)
        expected = naive_all_basis(kv.knots, 3, mid)
        npt.assert_allclose(dense_rows(span.start, span.values, kv.n_basis)[0], expected, atol=1e-14)
        ordered = np.sort(span.values[0])
        npt.assert_allclose(ordered[0], ordered[1], atol=1e-12)
        npt.assert_allclose(ordered[2], ordered[3], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(clamped_knots_and_params())
    def test_matches_pointwise_reference_bit_for_bit(self, case):
        knots, params = case
        span = eval_basis(knots, params)
        start, values = pointwise_basis(knots, params)
        npt.assert_array_equal(span.start, start)
        assert span.values.tobytes() == values.tobytes()

    def test_blocks_of_the_recurrence_join_bit_for_bit(self, knots):
        # More parameters than one block of the recurrence takes, the last
        # block ragged: every value is the per-parameter reference's.
        params = np.linspace(0.0, 1.0, 2 * EVAL_CHUNK + EVAL_CHUNK // 2 + 1)
        span = eval_basis(knots, params)
        start, values = pointwise_basis(knots, params)
        npt.assert_array_equal(span.start, start)
        assert span.values.tobytes() == values.tobytes()


def einsum_apply(span, x, axis):
    """``A @ x`` along ``axis`` as one einsum over every row's gathered run."""
    x = np.moveaxis(x, axis, 0)
    runs = x.take(span.start[:, None] + np.arange(span.values.shape[1]), axis=0)
    return np.moveaxis(np.einsum("kw,kw...->k...", span.values, runs), 0, axis)


@st.composite
def spans_and_operands(draw):
    """A random span (some run entries exactly 0), an operand for it along
    axis 0 (0 to 2 trailing axes), 1 (one leading, 0 to 2 trailing) or -1
    (0 to 2 leading), some entries -0.0, and a byte budget for ``apply``'s
    row blocks, from one row per block up."""
    n_basis = draw(st.integers(1, 10))
    width = draw(st.integers(1, min(n_basis, 5)))
    rows = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((rows, width)) * (rng.random((rows, width)) > 0.2)
    span = BasisSpan(rng.integers(0, n_basis - width + 1, size=rows), values, n_basis)
    axis = draw(st.sampled_from([0, 1, -1]))
    sizes = st.lists(st.integers(1, 4), max_size=2)
    lead = {0: [], 1: [draw(st.integers(1, 4))], -1: draw(sizes)}[axis]
    trailing = [] if axis == -1 else draw(sizes)
    x = rng.standard_normal(lead + [n_basis] + trailing)
    x[rng.random(x.shape) < 0.1] = -0.0
    budget = draw(st.sampled_from([1, 24, 200, basis.APPLY_CHUNK_BYTES]))
    return span, x, axis, budget


class TestSpanProducts:
    """Gathers and scatter-adds along the runs against the dense matrix."""

    @settings(max_examples=300, deadline=None)
    @given(spans_and_operands())
    def test_apply_is_the_einsum_bit_for_bit(self, case):
        # Every entry is summed in run order into a zeroed output, in any row
        # block: einsum's order wherever x has another axis of two or more
        # entries, as a fit's coordinate axis is. The output keeps einsum's
        # memory layout too, so sums over it round alike.
        span, x, axis, budget = case
        with mock.patch.object(basis, "APPLY_CHUNK_BYTES", budget):
            out = span.apply(x, axis=axis)
        want = einsum_apply(span, x, axis)
        assert out.shape == want.shape
        assert np.moveaxis(out, axis, 0).flags.c_contiguous
        if any(size > 1 for i, size in enumerate(x.shape) if i != axis % x.ndim):
            assert out.tobytes() == want.tobytes()
            return
        # A lone vector: einsum sums each run across vector lanes, in an order
        # the CPU's instruction set fixes, and apply still sums in run order.
        vector, out = x.reshape(-1), out.reshape(-1)
        for i, (start, run) in enumerate(zip(span.start, span.values)):
            total = 0.0
            for j, value in enumerate(run):
                total += float(value) * float(vector[start + j])
            assert out[i].tobytes() == np.float64(total).tobytes()
        width = span.values.shape[1]
        bound = 2 * width * np.finfo(float).eps * np.abs(span.values).sum(axis=1)
        assert np.all(np.abs(out - want.reshape(-1)) <= bound * np.max(np.abs(vector)))

    @settings(max_examples=60, deadline=None)
    @given(spans_and_operands())
    def test_apply_sums_in_a_wider_float_type(self, case):
        # Sampling passes long double controls: every run-order sum stays in
        # that type.
        span, x, axis, budget = case
        wide = x.astype(np.longdouble)
        with mock.patch.object(basis, "APPLY_CHUNK_BYTES", budget):
            out = span.apply(wide, axis=axis)
        moved = np.moveaxis(wide, axis, 0)
        want = np.zeros((span.start.size,) + moved.shape[1:], dtype=np.longdouble)
        for j in range(span.values.shape[1]):
            want += span.values[:, j].reshape((-1,) + (1,) * (moved.ndim - 1)) * moved[span.start + j]
        assert out.dtype == np.longdouble
        assert out.tobytes() == np.moveaxis(want, 0, axis).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(clamped_knots_and_params(), st.sampled_from([None, 1, 3]),
           st.integers(0, 2**32 - 1))
    def test_products_match_dense(self, case, columns, seed):
        knots, params = case
        span = eval_basis(knots, params)
        dense = span.dense()
        rng = np.random.default_rng(seed)
        trailing = () if columns is None else (columns,)
        x = rng.standard_normal((knots.n_basis,) + trailing)
        y = rng.standard_normal((params.size,) + trailing)
        assert_close_to_scale(span.apply(x), dense @ x, 1e-14)
        assert_close_to_scale(span.apply_transpose(y), dense.T @ y, 1e-14)

    @settings(max_examples=40, deadline=None)
    @given(clamped_knots_and_params(), st.integers(1, 5), st.sampled_from([1, 3]),
           st.integers(0, 2**32 - 1))
    def test_products_along_either_grid_axis(self, case, other, ncoord, seed):
        knots, params = case
        span = eval_basis(knots, params)
        dense = span.dense()
        rng = np.random.default_rng(seed)
        controls = rng.standard_normal((knots.n_basis, other, ncoord))
        data = rng.standard_normal((params.size, other, ncoord))
        assert_close_to_scale(span.apply(controls), np.einsum("kn,nof->kof", dense, controls),
                              1e-14)
        assert_close_to_scale(span.apply_transpose(data),
                              np.einsum("kn,kof->nof", dense, data), 1e-14)
        swapped = controls.transpose(1, 0, 2)
        assert_close_to_scale(span.apply(swapped, axis=1),
                              np.einsum("kn,onf->okf", dense, swapped), 1e-14)
        swapped = data.transpose(1, 0, 2)
        assert_close_to_scale(span.apply_transpose(swapped, axis=1),
                              np.einsum("kn,okf->onf", dense, swapped), 1e-14)

    @settings(max_examples=60, deadline=None)
    @given(clamped_knots_and_params())
    def test_gram_is_symmetric_and_matches_dense(self, case):
        knots, params = case
        span = eval_basis(knots, params)
        dense = span.dense()
        gram = span.gram()
        assert np.array_equal(gram, gram.T)
        assert_close_to_scale(gram, dense.T @ dense, 1e-15)

    def test_full_width_span_is_the_dense_matrix(self, rng):
        matrix = rng.standard_normal((7, 4))
        span = full_width_span(matrix)
        npt.assert_array_equal(span.dense(), matrix)
        assert_close_to_scale(span.gram(), matrix.T @ matrix, 1e-15)
        assert_close_to_scale(span.apply(np.eye(4)), matrix, 1e-15)

    def test_empty_columns_stay_zero(self):
        # column 2 is in no run: its gram row and A^T y entry are zero
        span = BasisSpan(np.array([0, 3, 0]), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), 5)
        assert np.all(span.gram()[2] == 0.0)
        assert span.apply_transpose(np.ones(3))[2] == 0.0
        npt.assert_array_equal(span.apply_transpose(np.ones(3)), [6.0, 8.0, 0.0, 3.0, 4.0])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("m, n_ctrl", [(1000, 100), (20000, 400)])
    def test_gram_is_no_less_accurate_than_dense_product(self, m, n_ctrl):
        # The spectrum and every direct solve start from A^T A. Against a
        # long-double reference the span gram's worst entrywise relative
        # error must not exceed that of the dense product A.T @ A.
        params = chord_length_params(rose_curve(m).points)
        span = eval_basis(build_knots(params, n_ctrl), params)
        reference = np.zeros((span.n_basis, span.n_basis), dtype=np.longdouble)
        values = span.values.astype(np.longdouble)
        for i in range(4):
            for j in range(4):
                np.add.at(reference, (span.start + i, span.start + j), values[:, i] * values[:, j])
        nonzero = reference != 0

        def worst(gram):
            error = gram.astype(np.longdouble) - reference
            return float(np.max(np.abs(error[nonzero] / reference[nonzero])))

        dense = span.dense()
        assert worst(span.gram()) <= worst(dense.T @ dense)


class TestKnotVectorValidation:
    def test_rejects_unclamped(self):
        with pytest.raises(InvalidConfig):
            KnotVector(np.linspace(0, 1, 12))

    def test_rejects_decreasing(self):
        knots = np.array([0, 0, 0, 0, 0.6, 0.4, 1, 1, 1, 1], dtype=float)
        with pytest.raises(InvalidConfig):
            KnotVector(knots)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            knots = np.array([0, 0, 0, 0, bad, 1, 1, 1, 1], dtype=float)
            with pytest.raises(InvalidConfig, match="knot 4"):
                KnotVector(knots)

    def test_rejects_subnormal_gap(self):
        # evaluating this vector at 0 gave [inf nan nan nan] before it was refused
        knots = np.array([0, 0, 0, 0, 1e-310, 1, 1, 1, 1], dtype=float)
        with pytest.raises(InvalidConfig, match="knot 4 is 1e-310"):
            KnotVector(knots)
        pair = np.array([0, 0, 0, 0, 3e-308, 3e-308 + 5e-324, 1, 1, 1, 1], dtype=float)
        with pytest.raises(InvalidConfig, match="knot 5"):
            KnotVector(pair)

    def test_smallest_normal_gap_evaluates_finitely(self):
        tiny = np.finfo(float).tiny
        knots = KnotVector(np.array([0, 0, 0, 0, tiny, 1, 1, 1, 1], dtype=float))
        params = np.array([0.0, tiny / 2, tiny, np.nextafter(tiny, 1.0), 0.5, 1.0])
        span = eval_basis(knots, params)
        assert np.isfinite(span.values).all()
        npt.assert_allclose(span.values.sum(axis=1), 1.0, rtol=1e-15)
