import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia.assembly import (
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_eigenpairs,
    difference_matrix,
    difference_span,
    gram_partition,
    make_partition,
    tensor_apply,
)
from rpia.basis import build_knots, chord_length_params, surface_params
from rpia.datasets import blob_curve, boy_surface, rose_curve
from rpia.errors import DegenerateData, DimensionMismatch, InvalidConfig, ZeroColumnBlock

from conftest import (
    curve_problem, curve_systems, dense_rows, designs, penalty_weights, pointwise_basis,
    surface_systems,
)


@pytest.fixture(scope="module")
def small_collocation():
    points = rose_curve(60).points
    params = chord_length_params(points)
    knots = build_knots(params, 12)
    return knots, params, assemble_collocation(knots, params)


class TestCollocation:
    def test_rows_sum_to_one(self, small_collocation):
        _, _, matrix = small_collocation
        npt.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_clamped_end_rows(self, small_collocation):
        _, _, matrix = small_collocation
        expected_first = np.zeros(matrix.shape[1])
        expected_first[0] = 1.0
        expected_last = np.zeros(matrix.shape[1])
        expected_last[-1] = 1.0
        npt.assert_array_equal(matrix[0], expected_first)
        npt.assert_array_equal(matrix[-1], expected_last)

    def test_sparsity_and_nonnegativity(self, small_collocation):
        _, _, matrix = small_collocation
        assert np.all(matrix >= 0.0)
        assert np.max(np.count_nonzero(matrix, axis=1)) <= 4

    def test_full_scale_shape(self):
        points = rose_curve(1000).points
        params = chord_length_params(points)
        knots = build_knots(params, 100)
        matrix = assemble_collocation(knots, params)
        assert matrix.shape == (1001, 101)
        assert np.max(np.count_nonzero(matrix, axis=1)) <= 4

    def test_entries_match_pointwise_evaluation(self):
        # Bit for bit against the per-parameter reference, on the shipped
        # rose, blob and boy parametrizations (both boy directions) and on
        # the 5x grids the fitted geometry is sampled at.
        boy_u, boy_v = surface_params(boy_surface(60, 60).grid)
        cases = [
            (chord_length_params(rose_curve(1000).points), 100),
            (chord_length_params(blob_curve(1000).points), 100),
            (boy_u, 20),
            (boy_v, 20),
        ]
        for params, n_ctrl_minus1 in cases:
            knots = build_knots(params, n_ctrl_minus1)
            dense = np.linspace(0.0, 1.0, 5 * (params.size - 1) + 1)
            for xs in (params, dense):
                expected = dense_rows(*pointwise_basis(knots, xs), knots.n_basis)
                assert assemble_collocation(knots, xs).tobytes() == expected.tobytes()


class TestDifferenceMatrix:
    def test_displayed_three_by_three(self):
        npt.assert_array_equal(
            difference_matrix(3, 1.0),
            [[-2, 1, 0], [1, -2, 1], [0, 1, -2]],
        )

    def test_scaled_shapes(self):
        big = difference_matrix(101, 1600.0)
        assert big.shape == (101, 101)
        assert big[0, 0] == -3200.0 and big[0, 1] == 1600.0 and big[0, 2] == 0.0
        small = difference_matrix(21, 91.0)
        assert small.shape == (21, 21)
        assert small[10, 10] == -182.0

    def test_symmetric_and_invertible(self):
        mat = difference_matrix(15, 7.0)
        npt.assert_array_equal(mat, mat.T)
        gram_eigs = np.linalg.eigvalsh(mat.T @ mat)
        assert gram_eigs.min() > 0.0

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            difference_matrix(1, 1.0)
        for scale in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig):
                difference_matrix(5, scale)


class TestDifferenceSpan:
    """The penalty's rows as a span, against the literal dense matrix."""

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(2, 60),
           scale=st.one_of(st.sampled_from([1600.0, 91.0, 1.5]), st.floats(1e-150, 1e150)),
           trailing=st.sampled_from([(), (1,), (3,), (2, 3)]), axis=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_products_match_the_literal_matrix(self, size, scale, trailing, axis, seed):
        eps = np.finfo(float).eps
        literal = scale * (np.diag(np.full(size, -2.0)) + np.diag(np.ones(size - 1), 1)
                           + np.diag(np.ones(size - 1), -1))
        assert difference_matrix(size, scale).tobytes() == literal.tobytes()
        span = difference_span(size, scale)
        assert span.values.shape == (size, min(size, 3))
        # apply: run-order sums against the dense product, to the bound of
        # tests/test_basis.py
        axis = min(axis, len(trailing))
        x = np.moveaxis(np.random.default_rng(seed).standard_normal((size,) + trailing), 0, axis)
        want = np.moveaxis(np.tensordot(literal, x, axes=(1, axis)), 0, axis)
        got = span.apply(x, axis=axis)
        assert got.shape == want.shape
        bound = 2 * span.values.shape[1] * eps * np.abs(span.values).sum(axis=1)
        error = np.moveaxis(np.abs(got - want), axis, 0).reshape(size, -1)
        assert np.all(error <= bound[:, None] * np.max(np.abs(x)))
        # gram: each entry sums at most three products of the same sign
        gram, dense = span.gram(), literal.T @ literal
        if scale in (1600.0, 91.0, 1.5):                # s * s is exact
            assert gram.tobytes() == dense.tobytes()
        else:
            assert np.all(np.abs(gram - dense) <= 4 * eps * np.abs(dense))

    def test_two_entries_per_row_at_size_two(self):
        span = difference_span(2, 3.0)
        npt.assert_array_equal(span.start, [0, 0])
        npt.assert_array_equal(span.values, [[-6.0, 3.0], [3.0, -6.0]])


class TestDifferenceEigenpairs:
    # Over N <= 1200 the closed form stays within 30 eps of orthogonal and
    # 16 eps (relative to the scale) of the matrix. Taking the sine of the
    # unreduced j k pi / (N+1) misses both bounds from N of a few dozen on.
    @settings(max_examples=40, deadline=None)
    @given(size=st.integers(2, 1200), scale=st.floats(1e-6, 1e6))
    def test_reproduces_difference_matrix(self, size, scale):
        eps = np.finfo(float).eps
        mu, basis = difference_eigenpairs(size, scale)
        assert np.all(np.diff(np.abs(mu)) > 0.0)
        npt.assert_allclose(basis.T @ basis, np.eye(size), rtol=0, atol=64 * eps)
        npt.assert_allclose((basis * mu) @ basis.T, difference_matrix(size, scale),
                            rtol=0, atol=32 * eps * scale)

    @pytest.mark.parametrize("size", [2, 3, 21, 101, 401])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 91.0, 1600.0])
    def test_bitwise_equal_to_the_dense_formulas(self, size, scale):
        # the diagonals are filled and the sines gathered from a table, with
        # the same arithmetic as the formulas over whole N x N arrays
        k = np.arange(1, size + 1)
        phase = np.outer(k, k) % (2 * (size + 1))
        basis = np.sqrt(2.0 / (size + 1)) * np.sin(phase * np.pi / (size + 1))
        dense = scale * (-2.0 * np.eye(size) + np.eye(size, k=1) + np.eye(size, k=-1))
        assert difference_eigenpairs(size, scale)[1].tobytes() == basis.tobytes()
        assert difference_matrix(size, scale).tobytes() == dense.tobytes()

    def test_invalid(self):
        with pytest.raises(InvalidConfig):
            difference_eigenpairs(1, 1.0)
        for scale in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidConfig):
                difference_eigenpairs(5, scale)


class TestAugmentCurve:
    def test_zero_weight_blocks(self, rng):
        design = rng.standard_normal((9, 4))
        penalty = difference_matrix(4, 2.0)
        data = rng.standard_normal((9, 2))
        system = augment_curve(design, penalty, data, 0.0)
        npt.assert_array_equal(system.stacked[9:], np.zeros((4, 4)))
        npt.assert_array_equal(system.targets[9:], np.zeros((4, 2)))
        npt.assert_array_equal(system.design, design)

    def test_augmentation_identity_50_instances(self, rng):
        for _ in range(50):
            m, n = rng.integers(5, 12), rng.integers(3, 5)
            design = rng.standard_normal((m, n))
            penalty = difference_matrix(n, float(rng.uniform(0.5, 3.0)))
            data = rng.standard_normal((m, 2))
            p = rng.standard_normal((n, 2))
            lam = float(rng.uniform(0.0, 2.0))
            system = augment_curve(design, penalty, data, lam)
            lhs = np.sum((system.stacked @ p - system.targets) ** 2)
            rhs = np.sum((design @ p - data) ** 2) + lam * np.sum((penalty @ p) ** 2)
            npt.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_normal_equation_equivalence(self, rng):
        design = rng.standard_normal((20, 6))
        penalty = difference_matrix(6, 1.0)
        data = rng.standard_normal((20, 2))
        lam = 0.3
        system = augment_curve(design, penalty, data, lam)
        via_stack, *_ = np.linalg.lstsq(system.stacked, system.targets, rcond=None)
        direct = np.linalg.solve(
            design.T @ design + lam * penalty.T @ penalty, design.T @ data
        )
        npt.assert_allclose(via_stack, direct, atol=1e-10)

    def test_dimension_checks(self, rng):
        design = rng.standard_normal((9, 4))
        penalty = difference_matrix(5, 1.0)
        with pytest.raises(DimensionMismatch):
            augment_curve(design, penalty, np.zeros((9, 2)), 1.0)
        with pytest.raises(DimensionMismatch):
            augment_curve(design, difference_matrix(4, 1.0), np.zeros((8, 2)), 1.0)
        with pytest.raises(InvalidConfig):
            augment_curve(design, difference_matrix(4, 1.0), np.zeros((9, 2)), -1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, rng, lam):
        with pytest.raises(InvalidConfig, match="lam"):
            augment_curve(rng.standard_normal((9, 4)), difference_matrix(4, 1.0),
                          rng.standard_normal((9, 2)), lam)

    def test_non_finite_data_rejected(self, rng):
        data = rng.standard_normal((9, 2))
        data[4, 1] = np.nan
        with pytest.raises(DegenerateData, match="data"):
            augment_curve(rng.standard_normal((9, 4)), difference_matrix(4, 1.0), data, 0.1)


class TestTensorApply:
    @pytest.mark.parametrize("ncoord", [1, 3])
    def test_matches_einsum(self, rng, ncoord):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((6, 3))
        grid = rng.standard_normal((4, 3, ncoord))
        npt.assert_allclose(
            tensor_apply(a, grid, b), np.einsum("ij,jkf,lk->ilf", a, grid, b),
            rtol=1e-12, atol=1e-12,
        )


class TestAugmentSurface:
    def test_zero_weight_reduces_to_plain_tensor(self, rng):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((6, 3))
        grid = rng.standard_normal((7, 6, 3))
        system = augment_surface(a, b, difference_matrix(4, 1.0), difference_matrix(3, 1.0), grid, 0.0)
        npt.assert_array_equal(system.row_stacked[7:], np.zeros((4, 4)))
        npt.assert_array_equal(system.col_stacked[6:], np.zeros((3, 3)))
        npt.assert_array_equal(system.data, grid)

    def test_four_term_expansion(self, rng):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((6, 3))
        lu = difference_matrix(4, 1.3)
        lv = difference_matrix(3, 0.7)
        grid = rng.standard_normal((7, 6, 3))
        lam = 0.37
        system = augment_surface(a, b, lu, lv, grid, lam)
        p = rng.standard_normal((4, 3, 3))
        lhs = 0.0
        rhs = 0.0
        for f in range(3):
            stacked_res = system.row_stacked @ p[:, :, f] @ system.col_stacked.T - system.targets[:, :, f]
            lhs += np.sum(stacked_res**2)
            rhs += np.sum((a @ p[:, :, f] @ b.T - grid[:, :, f]) ** 2)
            rhs += lam * np.sum((a @ p[:, :, f] @ lv.T) ** 2)
            rhs += lam * np.sum((lu @ p[:, :, f] @ b.T) ** 2)
            rhs += lam**2 * np.sum((lu @ p[:, :, f] @ lv.T) ** 2)
        npt.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_dimension_checks(self, rng):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((6, 3))
        with pytest.raises(DimensionMismatch):
            augment_surface(a, b, difference_matrix(3, 1.0), difference_matrix(3, 1.0),
                            np.zeros((7, 6, 3)), 0.1)
        with pytest.raises(DimensionMismatch):
            augment_surface(a, b, difference_matrix(4, 1.0), difference_matrix(3, 1.0),
                            np.zeros((6, 7, 3)), 0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, rng, lam):
        with pytest.raises(InvalidConfig, match="lam"):
            augment_surface(rng.standard_normal((7, 4)), rng.standard_normal((6, 3)),
                            difference_matrix(4, 1.0), difference_matrix(3, 1.0),
                            rng.standard_normal((7, 6, 3)), lam)

    def test_non_finite_data_rejected(self, rng):
        grid = rng.standard_normal((7, 6, 3))
        grid[2, 3, 0] = -np.inf
        with pytest.raises(DegenerateData, match="data"):
            augment_surface(rng.standard_normal((7, 4)), rng.standard_normal((6, 3)),
                            difference_matrix(4, 1.0), difference_matrix(3, 1.0), grid, 0.1)


class TestPartition:
    def test_single_block(self, rng):
        matrix = rng.standard_normal((8, 5))
        part = make_partition(matrix, 5)
        assert len(part) == 1
        npt.assert_array_equal(part.blocks[0], np.arange(5))
        npt.assert_allclose(part.probabilities, [1.0])

    def test_ragged_tail_at_full_scale(self, rng):
        matrix = rng.standard_normal((30, 101))
        part = make_partition(matrix, 5)
        assert len(part) == 21
        assert all(b.size == 5 for b in part.blocks[:-1])
        assert part.blocks[-1].size == 1

    def test_probabilities_match_columnwise_oracle(self, rng):
        matrix = rng.standard_normal((10, 6))
        part = make_partition(matrix, 2)
        col_sums = (matrix**2).sum(axis=0)
        expected = np.array(
            [col_sums[0] + col_sums[1], col_sums[2] + col_sums[3], col_sums[4] + col_sums[5]]
        )
        expected /= expected.sum()
        npt.assert_allclose(part.probabilities, expected, atol=1e-14)

    def test_distribution_invariants(self, rng):
        matrix = rng.standard_normal((12, 9))
        part = make_partition(matrix, 4)
        assert abs(part.probabilities.sum() - 1.0) < 1e-12
        assert np.all(part.probabilities > 0.0)
        covered = np.sort(np.concatenate(part.blocks))
        npt.assert_array_equal(covered, np.arange(9))

    def test_zero_column_block(self, rng):
        matrix = rng.standard_normal((6, 4))
        matrix[:, 2:] = 0.0
        with pytest.raises(ZeroColumnBlock, match="column block 1 "):
            make_partition(matrix, 2)

    @settings(max_examples=60, deadline=None)
    @given(n_cols=st.integers(1, 40), block_size=st.integers(1, 12))
    def test_spans_and_blocks_name_the_same_columns(self, n_cols, block_size):
        matrix = np.arange(1.0, 2.0 * n_cols + 1.0).reshape(2, n_cols)
        part = make_partition(matrix, block_size)
        columns = np.arange(n_cols)
        assert len(part.spans) == len(part.blocks) == len(part)
        for span, block in zip(part.spans, part.blocks):
            npt.assert_array_equal(columns[span], block)
        # the spans tile range(n) in order
        assert part.spans[0].start == 0 and part.spans[-1].stop == n_cols
        for before, after in zip(part.spans, part.spans[1:]):
            assert before.stop == after.start
        assert all(span.stop - span.start == block_size for span in part.spans[:-1])


def assert_windows_tight(matrix, partition):
    """Each block's coupled window holds every nonzero of the gram's block
    columns, and both of its ends are columns that share a row with the block."""
    gram = matrix.T @ matrix
    shared = (matrix != 0.0).T.astype(int) @ (matrix != 0.0).astype(int)
    for block, coupled in zip(partition.blocks, partition.coupled):
        assert not np.any(gram[: coupled.start, block]) and not np.any(gram[coupled.stop:, block])
        assert np.any(shared[coupled.start, block]) and np.any(shared[coupled.stop - 1, block])


class TestCoupledWindows:
    def test_coupled_windows_by_hand(self):
        # the tridiagonal penalty couples every column pair within distance 2;
        # without it, block 0 (rows 0-1) reaches columns 0-2 only
        design = np.array([[1.0, 0, 0, 0], [0.1, 0.6, 0.3, 0.0], [0, 0, 0, 1.0]])
        system = augment_curve(design, difference_matrix(4, 1.0), np.zeros((3, 1)), 1.0)
        assert make_partition(system.stacked, 2).coupled == (slice(0, 4), slice(0, 4))
        unpenalized = augment_curve(design, difference_matrix(4, 1.0), np.zeros((3, 1)), 0.0)
        part = make_partition(unpenalized.stacked, 2)
        assert part.coupled == (slice(0, 3), slice(0, 4))
        assert make_partition(unpenalized.stacked, 1).coupled == (
            slice(0, 3), slice(0, 3), slice(0, 3), slice(3, 4)
        )

    @settings(max_examples=60, deadline=None)
    @given(system=curve_systems(), block_size=st.integers(1, 6))
    def test_curve_windows_hold_every_nonzero(self, system, block_size):
        assert_windows_tight(system.stacked, make_partition(system.stacked, block_size))

    @settings(max_examples=40, deadline=None)
    @given(system=surface_systems(), block_size=st.integers(1, 6))
    def test_surface_windows_hold_every_nonzero(self, system, block_size):
        for factor in (system.row_stacked, system.col_stacked):
            assert_windows_tight(factor, make_partition(factor, block_size))


class TestGramPartition:
    @settings(max_examples=60, deadline=None)
    @given(design=designs(), data=st.data(), block_size=st.integers(1, 6))
    def test_stacked_matrix_and_span_gram_agree(self, design, data, block_size):
        # the stacked system's column blocks and those of the gram the
        # experiment forms from the spans, A^T A + lam G^T G
        lam = data.draw(penalty_weights(design))
        penalty = difference_matrix(design.shape[1], 2.0)
        stacked = augment_curve(design, penalty, np.zeros((design.shape[0], 1)), lam).stacked
        dense = make_partition(stacked, block_size)
        gram = curve_problem(design, 2.0).directions[0].matrix(lam)
        spans = gram_partition(gram, block_size)
        assert spans.spans == dense.spans and spans.coupled == dense.coupled
        npt.assert_allclose(spans.norms_sq, dense.norms_sq, rtol=1e-14)
        npt.assert_allclose(spans.probabilities, dense.probabilities, rtol=1e-14)
        # the solvers patch A^T A on these windows
        assert spans.covers(design.T @ design)

    def test_covers_by_hand(self):
        # a diagonal gram gives one-column windows; a design gram coupling
        # columns 0 and 3 reaches outside both
        part = gram_partition(np.eye(4), 1)
        assert part.coupled == (slice(0, 1), slice(1, 2), slice(2, 3), slice(3, 4))
        assert part.covers(np.diag([1.0, 2.0, 0.0, 3.0]))
        coupled = np.eye(4)
        coupled[0, 3] = coupled[3, 0] = 0.5
        assert not part.covers(coupled)
        assert gram_partition(np.eye(4), 4).covers(coupled)


class TestFullColumnRank:
    def test_stacked_smallest_singular_value_positive(self):
        points = rose_curve(120).points
        params = chord_length_params(points)
        knots = build_knots(params, 24)
        design = assemble_collocation(knots, params)
        penalty = difference_matrix(25, 1600.0)
        system = augment_curve(design, penalty, points, 1e-6)
        smallest = np.linalg.svd(system.stacked, compute_uv=False)[-1]
        assert smallest > 0.0
