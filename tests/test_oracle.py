import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia.assembly import (
    augment_curve,
    augment_surface,
    difference_matrix,
    make_partition,
)
from rpia.driver import FitResult
from rpia.errors import RankDeficient, TooLarge
from rpia.oracle import (
    GramPencil,
    band_eigen_range,
    contraction_check,
    difference_gram_range,
    expectation_map_curve,
    expectation_map_curve_closed,
    expectation_map_curve_enumerated,
    expectation_map_surface,
    expectation_map_surface_closed,
    expectation_map_surface_enumerated,
    solve_curve_direct,
    solve_surface_direct,
)

from conftest import designs, random_curve_system, random_surface_system


class TestGramPencil:
    def test_condition_bound_tracks_two_norm_condition(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        gram = u @ np.diag(np.logspace(0, 6, 8)) @ u.T
        pencil = GramPencil(gram)
        cond = pencil.condition()
        exact = np.linalg.cond(gram, 2)
        assert exact <= cond <= exact * (1.0 + 1e-8)
        npt.assert_allclose(pencil.solve(gram), np.eye(8), atol=1e-8)

    def test_refuses_singular_and_ill_conditioned(self, rng):
        # the pencil words its own refusal
        with pytest.raises(RankDeficient, match=(
            r"^the normal matrix is numerically rank deficient: "
            r"condition bound inf exceeds 1e\+12$"
        )):
            GramPencil(np.ones((4, 4))).solve(np.ones(4))
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        pencil = GramPencil(u @ np.diag(np.logspace(0, 13, 6)) @ u.T, name="the ill pencil")
        assert pencil.condition() > 1e12
        with pytest.raises(RankDeficient, match=r"^the ill pencil is numerically rank deficient"):
            pencil.solve(np.ones(6))

    def test_overstated_weyl_bound_falls_back_to_the_exact_condition(self, rng):
        # a singular design gram whose null vector the penalty barely weights:
        # Weyl's bound is far above the limit, the matrix itself is not
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        design = u @ np.diag([0.0, 1.0, 1.0, 2.0, 3.0, 4.0]) @ u.T
        penalty = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1e-6])
        pencil = GramPencil(design, penalty)
        lam = 1e-8
        low, high = pencil._design_range + lam * pencil._penalty_range
        assert high / low > 1e12
        exact = np.linalg.cond(design + lam * penalty, 2)
        cond = pencil.condition(lam)
        solution = pencil.solve(np.eye(6), lam)
        # the round-off widening of the lowest eigenvalue (~5e-15) is a
        # relative ~1e-6 of it here
        assert exact <= cond <= exact * (1.0 + 1e-5)
        matrix = design + lam * penalty
        residual = np.linalg.norm(matrix @ solution - np.eye(6))
        assert residual <= 1e-12 * np.linalg.norm(matrix) * np.linalg.norm(solution)

    def test_all_penalty_weight(self):
        # past lam g_min > a_max / eps the design changes no digit of the matrix
        design = np.diag([0.5, 1.0, 2.0, 3.0, 4.0])
        penalty = np.diag([2.0, 3.0, 4.0, 5.0, 6.0])
        pencil = GramPencil(design, penalty)
        level = pencil.all_penalty_weight()
        npt.assert_allclose(level, 4.0 / (np.finfo(float).eps * 2.0), rtol=1e-12)
        assert np.array_equal(pencil.matrix(4.0 * level), 4.0 * level * penalty)
        assert not np.array_equal(pencil.matrix(level / 8.0), level / 8.0 * penalty)
        # a penalty with a null vector has no such weight
        assert GramPencil(design, np.diag([0.0, 1.0, 1.0, 1.0, 1.0])).all_penalty_weight() == np.inf

    @settings(max_examples=200, deadline=None)
    @given(design=designs(), rows=st.integers(1, 16), lam=st.floats(0.0, 1e6),
           seed=st.integers(0, 2**32 - 1))
    def test_weyl_bound_is_at_least_the_two_norm_condition(self, design, rows, lam, seed):
        # the per-weight gate never reads a normal matrix as better conditioned
        # than it is, whatever the two grams' ranks
        penalty = np.random.default_rng(seed).standard_normal((rows, design.shape[1]))
        design_gram, penalty_gram = design.T @ design, penalty.T @ penalty
        bound = GramPencil(design_gram, penalty_gram).condition(lam)
        assert bound >= np.linalg.cond(design_gram + lam * penalty_gram, 2)


@st.composite
def banded_spd(draw):
    """``R^T R`` for an upper band ``R`` of ``width`` superdiagonals whose
    diagonal spans up to eight decades: symmetric positive definite and zero
    beyond ``width`` diagonals off its own, conditioned up to about 1e16."""
    n = draw(st.integers(2, 30))
    width = draw(st.integers(0, 4))
    decades = draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), width))
    factor[np.diag_indices(n)] = np.logspace(0.0, -decades, n)[rng.permutation(n)]
    return factor.T @ factor, width


class TestCheapRanges:
    @settings(max_examples=300, deadline=None)
    @given(gram_width=banded_spd())
    def test_band_range_brackets_the_extreme_eigenvalues(self, gram_width):
        # up to eigvalsh's own round-off at the low end, n eps |M|_2, which
        # near the bottom of the drawn conditioning reads a positive definite
        # matrix's smallest eigenvalue as negative
        gram, width = gram_width
        eigs = np.linalg.eigvalsh(gram)
        low, high = band_eigen_range(gram, width)
        assert 0.0 <= low <= eigs[0] + gram.shape[0] * np.finfo(float).eps * eigs[-1]
        assert eigs[-1] <= high
        if eigs[0] > 1e-10 * eigs[-1]:
            assert low <= eigs[0]

    def test_band_range_is_close_on_a_well_conditioned_gram(self):
        # 1 / tr(M^-1) is at least a_min / n; Gershgorin's bound is exact on
        # a diagonal matrix
        gram = np.diag([1.0, 2.0, 4.0, 8.0])
        low, high = band_eigen_range(gram, 3)
        npt.assert_allclose([low, high], [1.0 / 1.875, 8.0], rtol=1e-12)

    def test_band_range_has_no_low_end_without_a_positive_definite_factor(self):
        assert band_eigen_range(np.diag([1.0, 0.0, 1.0]), 1)[0] == 0.0
        assert band_eigen_range(np.ones((3, 3)), 2)[0] == 0.0

    @pytest.mark.parametrize("size", [2, 3, 7, 21, 101, 401])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 91.0, 1600.0])
    def test_penalty_range_brackets_the_extreme_eigenvalues(self, size, scale):
        penalty = difference_matrix(size, scale)
        eigs = np.linalg.eigvalsh(penalty.T @ penalty)
        low, high = difference_gram_range(size, scale)
        assert 0.0 < low <= eigs[0] and eigs[-1] <= high
        # widened by 16 eps of the largest eigenvalue, no more
        assert high - eigs[-1] <= 32 * np.finfo(float).eps * eigs[-1]


class TestSolveCurveDirect:
    def test_interpolation_when_square(self, rng):
        design = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        penalty = difference_matrix(5, 1.0)
        data = rng.standard_normal((5, 2))
        system = augment_curve(design, penalty, data, 0.0)
        solution = solve_curve_direct(system)
        npt.assert_allclose(design @ solution.control_points, data, atol=1e-10)

    def test_penalty_dominates_large_weight(self, rng):
        design = rng.standard_normal((15, 6))
        penalty = difference_matrix(6, 1.0)
        data = rng.standard_normal((15, 2))
        system = augment_curve(design, penalty, data, 1e10)
        solution = solve_curve_direct(system)
        assert np.linalg.norm(penalty @ solution.control_points) < 1e-4

    def test_minimality_probe(self, rng):
        system = random_curve_system(rng, m_rows=21, n_cols=6, lam=0.4)
        solution = solve_curve_direct(system)

        def objective(p):
            return float(np.sum((system.stacked @ p - system.targets) ** 2))

        base = objective(solution.control_points)
        for _ in range(100):
            perturbation = 1e-3 * rng.standard_normal(solution.control_points.shape)
            assert objective(solution.control_points + perturbation) >= base

    def test_matches_normal_equation_form(self, rng):
        design = rng.standard_normal((15, 6))
        penalty = difference_matrix(6, 2.0)
        data = rng.standard_normal((15, 2))
        lam = 0.7
        system = augment_curve(design, penalty, data, lam)
        solution = solve_curve_direct(system)
        independent = np.linalg.solve(
            design.T @ design + lam * penalty.T @ penalty, design.T @ data
        )
        npt.assert_allclose(solution.control_points, independent, rtol=1e-9, atol=1e-12)

    def test_gradient_at_minimizer(self, rng):
        system = random_curve_system(rng, m_rows=18, n_cols=5, lam=0.2)
        solution = solve_curve_direct(system)
        gradient = system.stacked.T @ (system.stacked @ solution.control_points - system.targets)
        scale = np.linalg.norm(system.stacked.T @ system.targets)
        assert np.linalg.norm(gradient) < 1e-8 * scale


class TestSolveSurfaceDirect:
    def test_exact_when_square(self, rng):
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        b = rng.standard_normal((3, 3)) + 4.0 * np.eye(3)
        grid = rng.standard_normal((4, 3, 3))
        system = augment_surface(a, b, difference_matrix(4, 1.0), difference_matrix(3, 1.0), grid, 0.0)
        solution = solve_surface_direct(system)
        for f in range(3):
            npt.assert_allclose(a @ solution.control_points[:, :, f] @ b.T, grid[:, :, f], atol=1e-9)

    def test_rank_one_recovery(self, rng):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal((6, 3))
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        true_grid = np.stack([np.outer(u, v)] * 3, axis=-1)
        data = np.stack([a @ np.outer(u, v) @ b.T] * 3, axis=-1)
        system = augment_surface(
            a, b, difference_matrix(4, 1.0), difference_matrix(3, 1.0), data, 0.0
        )
        solution = solve_surface_direct(system)
        npt.assert_allclose(solution.control_points, true_grid, atol=1e-9)

    def test_minimality_probe(self, rng):
        system = random_surface_system(rng, rows=(7, 4), cols=(6, 3), lam=0.3)
        solution = solve_surface_direct(system)

        def objective(p):
            total = 0.0
            for f in range(3):
                res = system.row_stacked @ p[:, :, f] @ system.col_stacked.T - system.targets[:, :, f]
                total += float(np.sum(res**2))
            return total

        base = objective(solution.control_points)
        for _ in range(100):
            perturbation = 1e-3 * rng.standard_normal(solution.control_points.shape)
            assert objective(solution.control_points + perturbation) >= base

    def test_normal_identity(self, rng):
        system = random_surface_system(rng, rows=(6, 3), cols=(5, 3), lam=0.25)
        solution = solve_surface_direct(system)
        a_hat, b_hat = system.row_stacked, system.col_stacked
        for f in range(3):
            lhs = a_hat.T @ a_hat @ solution.control_points[:, :, f] @ b_hat.T @ b_hat
            rhs = a_hat.T @ system.targets[:, :, f] @ b_hat
            npt.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-10)


class TestStackedOraclesShareTheGate:
    """Both stacked oracles solve through ``solve_tensor_normal``, one gated
    pencil per stacked factor, and return a direct fit's ``FitResult``."""

    def test_ill_conditioned_full_rank_curve_is_refused(self, rng):
        # full rank, but cond(S^T S) is about 1e14: the gate refuses it
        design, _ = np.linalg.qr(rng.standard_normal((20, 5)))
        design[:, -1] *= 1e-7
        data = rng.standard_normal((20, 2))
        system = augment_curve(design, difference_matrix(5, 1.0), data, 0.0)
        assert np.linalg.matrix_rank(system.stacked) == 5
        with pytest.raises(RankDeficient, match=(
            r"the stacked curve matrix is numerically rank deficient: "
            r"condition bound \S+ exceeds 1e\+12"
        )):
            solve_curve_direct(system)

    def test_ill_conditioned_surface_factor_is_named(self, rng):
        ill, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        ill[:, -1] *= 1e-7
        fine = rng.standard_normal((6, 3))
        for named, (a, b) in (("u", (ill, fine)), ("v", (fine, ill))):
            grid = rng.standard_normal((a.shape[0], b.shape[0], 3))
            system = augment_surface(
                a, b, difference_matrix(a.shape[1], 1.0), difference_matrix(b.shape[1], 1.0),
                grid, 0.0,
            )
            with pytest.raises(RankDeficient, match=(
                rf"stacked factor {named} is numerically rank deficient: "
                r"condition bound \S+ exceeds 1e\+12"
            )):
                solve_surface_direct(system)

    def test_both_oracles_return_a_direct_fit(self, rng):
        curve = solve_curve_direct(random_curve_system(rng))
        surface = solve_surface_direct(random_surface_system(rng))
        for result in (curve, surface):
            assert isinstance(result, FitResult)
            assert (result.iterations, result.stop_reason, result.converged) == (0, "direct", True)
            assert result.trajectory == ()


class TestExpectationMapCurve:
    def test_zero_maps_to_zero(self, rng):
        system = random_curve_system(rng)
        partition = make_partition(system.stacked, 2)
        z = np.zeros(system.stacked.shape[0])
        npt.assert_array_equal(expectation_map_curve(system, partition, z), z)

    def test_null_space_component_unchanged(self, rng):
        system = random_curve_system(rng)
        partition = make_partition(system.stacked, 2)
        # component orthogonal to the range of the stacked matrix
        q, _ = np.linalg.qr(system.stacked, mode="complete")
        z = q[:, system.stacked.shape[1]:] @ rng.standard_normal(
            system.stacked.shape[0] - system.stacked.shape[1]
        )
        npt.assert_allclose(expectation_map_curve(system, partition, z), z, atol=1e-12)

    def test_enumeration_matches_closed_form(self, rng):
        system = random_curve_system(rng, m_rows=8, n_cols=4, lam=0.3)
        partition = make_partition(system.stacked, 2)
        for _ in range(20):
            z = rng.standard_normal(8)
            enumerated = expectation_map_curve_enumerated(system, partition, z)
            closed = expectation_map_curve_closed(system, z)
            assert np.max(np.abs(enumerated - closed)) <= 1e-12

    def test_ragged_partition(self, rng):
        system = random_curve_system(rng, m_rows=10, n_cols=5, lam=0.1)
        partition = make_partition(system.stacked, 2)
        assert [b.size for b in partition.blocks] == [2, 2, 1]
        z = rng.standard_normal(10)
        enumerated = expectation_map_curve_enumerated(system, partition, z)
        closed = expectation_map_curve_closed(system, z)
        npt.assert_allclose(enumerated, closed, atol=1e-12)

    def test_size_cap(self, rng):
        system = random_curve_system(rng, m_rows=300, n_cols=100, lam=0.1)
        partition = make_partition(system.stacked, 1)
        with pytest.raises(TooLarge):
            expectation_map_curve_enumerated(system, partition, np.zeros(300))


class TestExpectationMapSurface:
    def test_zero_maps_to_zero(self, rng):
        system = random_surface_system(rng)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        z = np.zeros((system.row_stacked.shape[0], system.col_stacked.shape[0]))
        npt.assert_array_equal(expectation_map_surface(system, part_u, part_v, z), z)

    def test_orthogonal_rank_one_unchanged(self, rng):
        system = random_surface_system(rng)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        q, _ = np.linalg.qr(system.row_stacked, mode="complete")
        u = q[:, system.row_stacked.shape[1]:] @ rng.standard_normal(
            system.row_stacked.shape[0] - system.row_stacked.shape[1]
        )
        z = np.outer(u, rng.standard_normal(system.col_stacked.shape[0]))
        npt.assert_allclose(expectation_map_surface(system, part_u, part_v, z), z, atol=1e-12)

    def test_double_enumeration_matches_closed_form(self, rng):
        system = random_surface_system(rng, rows=(3, 3), cols=(2, 3), lam=0.2)
        part_u = make_partition(system.row_stacked, 2)
        part_v = make_partition(system.col_stacked, 2)
        for _ in range(10):
            z = rng.standard_normal((6, 5))
            enumerated = expectation_map_surface_enumerated(system, part_u, part_v, z)
            closed = expectation_map_surface_closed(system, z)
            assert np.max(np.abs(enumerated - closed)) <= 1e-12

    def test_size_cap(self, rng):
        system = random_surface_system(rng, rows=(40, 30), cols=(40, 30), lam=0.1)
        part_u = make_partition(system.row_stacked, 1)
        part_v = make_partition(system.col_stacked, 1)
        with pytest.raises(TooLarge):
            expectation_map_surface_enumerated(
                system, part_u, part_v, np.zeros((70, 70))
            )


class TestContraction:
    def test_orthonormal_columns_closed_form(self, rng):
        # orthonormal columns: the Gram matrix is the identity, the total
        # squared norm is the column count, so the radius is 1 - 1/count
        from rpia.assembly import AugmentedCurveSystem

        q, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        system = AugmentedCurveSystem(np.asfortranarray(q), np.zeros((12, 1)), 0.0, 12)
        radius = contraction_check(system)
        npt.assert_allclose(radius, 1.0 - 1.0 / 5.0, atol=1e-12)

    def test_full_rank_below_one_rank_deficient_at_one(self, rng):
        system = random_curve_system(rng, m_rows=10, n_cols=5, lam=0.2)
        assert contraction_check(system) < 1.0
        from rpia.assembly import AugmentedCurveSystem

        broken = np.array(system.stacked, order="F")
        broken[:, 2] = 0.0
        deficient = AugmentedCurveSystem(broken, system.targets, system.lam, system.data_rows)
        npt.assert_allclose(contraction_check(deficient), 1.0, atol=1e-12)

    def test_surface_radius_matches_materialized_kronecker(self, rng):
        system = random_surface_system(rng, rows=(4, 3), cols=(3, 2), lam=0.15)
        radius = contraction_check(system)
        assert radius < 1.0
        a_hat, b_hat = system.row_stacked, system.col_stacked
        big = np.eye(6) - np.kron(
            b_hat.T @ b_hat / np.sum(b_hat**2), a_hat.T @ a_hat / np.sum(a_hat**2)
        )
        expected = np.max(np.abs(np.linalg.eigvals(big)))
        npt.assert_allclose(radius, expected, atol=1e-10)

    def test_surface_size_cap(self, rng):
        system = random_surface_system(rng, rows=(40, 21), cols=(40, 21), lam=0.1)
        with pytest.raises(TooLarge):
            contraction_check(system)
