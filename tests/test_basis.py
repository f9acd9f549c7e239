import numpy as np
import numpy.testing as npt
import pytest

from rpia.basis import (
    KnotVector,
    build_knots,
    chord_length_params,
    eval_basis,
    eval_curve_point,
    eval_surface_point,
    surface_params,
)
from rpia.assembly import assemble_collocation
from rpia.errors import (
    DegenerateData,
    DuplicatePointWarning,
    InvalidConfig,
    OutOfDomain,
)

from conftest import naive_all_basis


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

    def test_count_property(self):
        for m, n1 in [(30, 8), (51, 17), (100, 30), (12, 5)]:
            kv = build_knots(np.linspace(0, 1, m + 1), n1)
            assert kv.knots.size == n1 + 5

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            build_knots(np.linspace(0, 1, 11), 2)
        with pytest.raises(InvalidConfig):
            build_knots(np.linspace(0, 1, 4), 10)  # d < 1


class TestEvalBasis:
    @pytest.fixture
    def knots(self):
        return build_knots(np.linspace(0.0, 1.0, 31), 10)

    def test_clamped_left_end(self, knots):
        span = eval_basis(knots, 0.0)
        nz = {i: v for i, v in span.items() if v != 0.0}
        assert nz == {0: 1.0}

    def test_clamped_right_end(self, knots):
        span = eval_basis(knots, 1.0)
        nz = {i: v for i, v in span.items() if v != 0.0}
        assert nz == {knots.n_basis - 1: 1.0}

    def test_partition_of_unity(self, knots, rng):
        xs = rng.random(10_000)
        worst = max(abs(sum(v for _, v in eval_basis(knots, x).items()) - 1.0) for x in xs)
        assert worst < 1e-12

    def test_local_support_and_nonnegativity(self, knots, rng):
        for x in rng.random(500):
            span = eval_basis(knots, x)
            assert span.values.size == 4
            assert np.all(span.values >= 0.0)
            nonzero = [i for i, v in span.items() if v != 0.0]
            assert len(nonzero) <= 4
            assert nonzero == list(range(min(nonzero), max(nonzero) + 1))

    def test_against_naive_recursion(self, knots, rng):
        xs = np.concatenate([rng.random(60), [0.0, 1.0], knots.knots[4:-4][:5]])
        for x in xs:
            expected = naive_all_basis(knots.knots, 3, float(x))
            got = np.zeros(knots.n_basis)
            span = eval_basis(knots, float(x))
            got[span.start: span.start + 4] = span.values
            npt.assert_allclose(got, expected, atol=1e-13)

    def test_right_continuity_at_interior_knot(self, knots):
        x = float(knots.knots[6])  # an interior knot
        at = eval_basis(knots, x)
        just_right = eval_basis(knots, np.nextafter(x, 1.0))
        assert at.start == just_right.start
        npt.assert_allclose(at.values, just_right.values, atol=1e-9)

    def test_out_of_domain(self, knots):
        for x in (-0.1, 1.0000001):
            with pytest.raises(OutOfDomain):
                eval_basis(knots, x)

    def test_uniform_midspan_values(self):
        # Far from the clamped ends a cubic B-spline on uniform knots takes
        # the classic 1/6 (1, 4, 1) values at knots and (1/48, 23/48, 23/48,
        # 1/48) at span midpoints; verified against the naive recursion.
        kv = build_knots(np.linspace(0, 1, 41), 12)
        mid = 0.5 * (kv.knots[8] + kv.knots[9])
        span = eval_basis(kv, mid)
        expected = naive_all_basis(kv.knots, 3, mid)
        got = np.zeros(kv.n_basis)
        got[span.start: span.start + 4] = span.values
        npt.assert_allclose(got, expected, atol=1e-14)
        ordered = np.sort(span.values)
        npt.assert_allclose(ordered[0], ordered[1], atol=1e-12)
        npt.assert_allclose(ordered[2], ordered[3], atol=1e-12)

    def test_curve_point_evaluation(self, knots, rng):
        controls = rng.standard_normal((knots.n_basis, 2))
        for x in rng.random(20):
            direct = naive_all_basis(knots.knots, 3, float(x)) @ controls
            npt.assert_allclose(eval_curve_point(knots, controls, float(x)), direct, atol=1e-12)

    def test_surface_point_evaluation(self, knots, rng):
        knots_v = build_knots(np.linspace(0.0, 1.0, 21), 6)
        grid = rng.standard_normal((knots.n_basis, knots_v.n_basis, 3))
        for x, y in rng.random((20, 2)):
            row_u = assemble_collocation(knots, [x])
            row_v = assemble_collocation(knots_v, [y])
            direct = [(row_u @ grid[:, :, f] @ row_v.T).item() for f in range(3)]
            npt.assert_allclose(
                eval_surface_point(knots, knots_v, grid, float(x), float(y)), direct, atol=1e-12
            )


class TestKnotVectorValidation:
    def test_rejects_unclamped(self):
        with pytest.raises(InvalidConfig):
            KnotVector(np.linspace(0, 1, 12))

    def test_rejects_decreasing(self):
        knots = np.array([0, 0, 0, 0, 0.6, 0.4, 1, 1, 1, 1], dtype=float)
        with pytest.raises(InvalidConfig):
            KnotVector(knots)
