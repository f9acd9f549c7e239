import re

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpia.assembly import (
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_matrix,
    tensor_apply,
)
from rpia.basis import build_knots, chord_length_params
from rpia.datasets import NoiseSpec, add_noise, rose_curve
from rpia.errors import InsufficientSpectrum, InvalidConfig, NonConvergence, ZeroPenalty
from rpia.experiment import self_consistent_measure
from rpia.oracle import solve_curve_direct, solve_surface_direct

from conftest import banded_designs, curve_problem, designs, surface_problem
from rpia.regparam import (
    NoiseModel,
    optimal_lambda,
    self_consistent,
    spectral_decay_from_eigenvalues,
    whitened_spectrum,
)


def generalized_spectrum(design_gram, penalty_gram):
    """Reference: descending eigenvalues of ``design_gram v = rho penalty_gram v``."""
    eigs = scipy.linalg.eigh(design_gram, penalty_gram, eigvals_only=True)
    return np.sort(np.clip(eigs, 0.0, None))[::-1]


def curve_reference(design, scale):
    penalty = difference_matrix(design.shape[1], scale)
    return generalized_spectrum(design.T @ design, penalty.T @ penalty)


def surface_reference(design_u, design_v, scale_u, scale_v):
    lu = difference_matrix(design_u.shape[1], scale_u)
    lv = difference_matrix(design_v.shape[1], scale_v)
    penalty_gram = (np.kron(np.eye(lv.shape[0]), lu.T @ lu)
                    + np.kron(lv.T @ lv, np.eye(lu.shape[0])))
    return generalized_spectrum(np.kron(design_v.T @ design_v, design_u.T @ design_u),
                                penalty_gram)


def spectrum_decay(design, scale, head_count):
    """Decay fit of the whitened spectrum, from the design's Cholesky factor."""
    factor = scipy.linalg.cholesky(design.T @ design)
    return spectral_decay_from_eigenvalues(whitened_spectrum([factor], [scale]), head_count)


def squared_singular_values(matrix):
    return np.linalg.svd(matrix, compute_uv=False) ** 2


class TestWhitenedSpectrum:
    def test_matches_dense_whitening(self, rng):
        design = rng.standard_normal((8, 5))
        expected = curve_reference(design, 3.0)
        factor = scipy.linalg.cholesky(design.T @ design)
        npt.assert_allclose(whitened_spectrum([design], [3.0]), expected, rtol=1e-12)
        npt.assert_allclose(whitened_spectrum([factor], [3.0]), expected, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(design=designs(), scale=st.floats(0.1, 2000.0))
    def test_head_matches_dense_whitening(self, design, scale):
        # eigenvalues within 1e-3 of the largest: the head the decay fit reads
        assume(np.any(design))
        expected = curve_reference(design, scale)
        head = expected >= 1e-3 * expected[0]
        eigs = whitened_spectrum([design], [scale])
        npt.assert_allclose(eigs[: head.sum()], expected[head], rtol=1e-9)
        gram = design.T @ design
        if np.linalg.cond(gram) < 1e8:
            factor = scipy.linalg.cholesky(gram)
            npt.assert_allclose(whitened_spectrum([factor], [scale])[head], expected[head],
                                rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(design_u=banded_designs(), design_v=banded_designs(),
           scale_u=st.floats(0.1, 2000.0), scale_v=st.floats(0.1, 2000.0))
    def test_surface_control_space_factors_match_designs(self, design_u, design_v,
                                                         scale_u, scale_v):
        expected = surface_reference(design_u, design_v, scale_u, scale_v)
        head = expected >= 1e-3 * expected[0]
        scales = [scale_u, scale_v]
        for factors in (
            [design_u, design_v],
            [scipy.linalg.cholesky(d.T @ d) for d in (design_u, design_v)],
        ):
            got = whitened_spectrum(factors, scales)
            npt.assert_allclose(got[head], expected[head], rtol=1e-9)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e300, 1e308])
    def test_scale_outside_the_floating_range(self, rng, scale):
        design = rng.standard_normal((12, 6))
        with pytest.raises(InsufficientSpectrum, match="penalty_scale"):
            whitened_spectrum([design], [scale])
        with pytest.raises(InsufficientSpectrum, match="penalty_scale"):
            whitened_spectrum([design, design], [scale, scale])


class TestSpectralDecay:
    def test_exact_power_law(self):
        eigs = np.arange(1, 200, dtype=float) ** -3.0
        fit = spectral_decay_from_eigenvalues(eigs, 50)
        npt.assert_allclose(fit.alpha, 3.0, atol=1e-8)
        assert fit.fit_residual < 1e-12

    def test_power_law_recovery_through_matrix(self, rng):
        for alpha in (1.0, 2.0, 4.0):
            singular_values = np.arange(1, 21, dtype=float) ** (-alpha / 2.0)
            u, _ = np.linalg.qr(rng.standard_normal((40, 20)))
            v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            matrix = u @ np.diag(singular_values) @ v.T
            fit = spectral_decay_from_eigenvalues(squared_singular_values(matrix), 20)
            npt.assert_allclose(fit.alpha, alpha, atol=1e-6)

    def test_descending_nonnegative(self, rng):
        eigs = whitened_spectrum([rng.standard_normal((15, 10))], [2.0])
        assert np.all(eigs >= 0.0)
        assert np.all(np.diff(eigs) <= 0.0)

    def test_insufficient_spectrum(self, rng):
        matrix = rng.standard_normal((10, 8))
        matrix[:, 4:] = matrix[:, :4]  # rank 4
        with pytest.raises(InsufficientSpectrum):
            spectral_decay_from_eigenvalues(squared_singular_values(matrix), 6)

    def test_head_count_validation(self):
        with pytest.raises(InvalidConfig):
            spectral_decay_from_eigenvalues(np.ones(10), 2)

    def test_surface_whitened_spectrum_matches_dense_reference(self, rng):
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((8, 3))
        eigs = whitened_spectrum([a, b], [1.5, 2.0])
        npt.assert_allclose(eigs, surface_reference(a, b, 1.5, 2.0), atol=1e-10)


class TestOptimalLambda:
    def test_vanishing_noise_limit(self):
        lams = [
            optimal_lambda(2.0, NoiseModel(sigma2), 101, 5.0)
            for sigma2 in (1e-2, 1e-6, 1e-10)
        ]
        assert lams[0] > lams[1] > lams[2]
        assert lams[2] < 1e-7

    def test_large_alpha_limit(self):
        sigma2, n, pen = 0.04, 101, 7.5
        lam = optimal_lambda(1e9, NoiseModel(sigma2), n, pen)
        npt.assert_allclose(lam, sigma2 / (n * pen), rtol=1e-6)

    def test_scaling_invariance(self):
        base = optimal_lambda(3.0, NoiseModel(0.05), 101, 12.0)
        for c in (0.1, 10.0, 250.0):
            scaled = optimal_lambda(3.0, NoiseModel(0.05 * c**2), 101, 12.0 * c**2)
            npt.assert_allclose(scaled, base, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            optimal_lambda(0.0, NoiseModel(0.1), 10, 1.0)
        with pytest.raises(InvalidConfig):
            optimal_lambda(2.0, NoiseModel(0.0), 10, 1.0)
        with pytest.raises(InvalidConfig):
            optimal_lambda(2.0, NoiseModel(0.1), 10, 0.0)


class TestFullScaleEstimate:
    def test_rose_estimate_matches_documented_weight(self):
        points = rose_curve(1000).points
        params = chord_length_params(points)
        knots = build_knots(params, 100)
        design = assemble_collocation(knots, params)
        penalty = difference_matrix(101, 1600.0)
        alpha = spectrum_decay(design, 1600.0, 50).alpha
        reference = solve_curve_direct(
            augment_curve(design, penalty, points, 0.0)
        ).control_points
        sigma2 = 100.0 / points.size
        pen_n = float(np.sum((penalty @ reference) ** 2)) / 101
        lam = optimal_lambda(alpha, NoiseModel(sigma2), 101, pen_n)
        assert 1.646e-6 / 3.0 <= lam <= 1.646e-6 * 3.0


def weight_loop(problem, data, solve, alpha, eps_lambda=0.01, max_outer=50):
    """The experiment's weight loop: the problem's measure and control count."""
    return self_consistent(
        solve, self_consistent_measure(problem, data), problem.n_controls,
        alpha, eps_lambda, max_outer,
    )


def rose_desk_problem(penalty_scale):
    """Rose at m = 200 with 41 controls, plus its seed-3 noisy draw."""
    points = rose_curve(200).points
    params = chord_length_params(points)
    design = assemble_collocation(build_knots(params, 40), params)
    problem = curve_problem(design, penalty_scale)
    return problem, add_noise(points, NoiseSpec(4.0, 3))


def oracle_solve(problem, noisy):
    def solve(lam):
        system = augment_curve(problem.design, problem.penalty, noisy, lam)
        return solve_curve_direct(system).control_points
    return solve


class TestSelfConsistentCurve:
    def test_fixed_point_terminates_at_first_check(self):
        # misfit equals penalty (G c = (-1, -1) and A c - data = (-1, -1), each
        # 2 over 2), so the first update reproduces the start value
        problem = curve_problem(np.eye(2), 1.0)
        data = np.array([[2.0], [2.0]])
        fixed = np.array([[1.0], [1.0]])
        result = weight_loop(problem, data, lambda lam: fixed, alpha=2.0, eps_lambda=0.01)
        assert result.outer_iterations == 2
        npt.assert_allclose(result.lam, 2.0 ** (-2.0 / 3.0), rtol=1e-12)
        npt.assert_array_equal(result.control_points, fixed)

    def test_zero_penalty(self):
        problem = curve_problem(np.eye(2), 1.0)
        data = np.array([[2.0], [0.0]])
        start = 2.0 ** (-2.0 / 3.0)
        with pytest.raises(ZeroPenalty, match=(
            rf"outer iteration 1, weight {start:.6e} \(the loop started at {start:.6e}\)"
        )):
            weight_loop(problem, data, lambda lam: np.zeros((2, 1)), alpha=2.0)

    def test_non_convergence(self):
        problem = curve_problem(np.eye(2), 1.0)
        data = np.array([[2.0], [0.0]])
        flip = [0]

        def oscillating(lam):
            # alternate between fits whose misfit/penalty ratios differ by
            # a factor well above the convergence threshold
            flip[0] += 1
            if flip[0] % 2:
                return np.array([[0.0], [3.0]])
            return np.array([[1.0], [0.0]])

        with pytest.raises(NonConvergence):
            weight_loop(problem, data, oscillating, alpha=2.0, max_outer=6)

    def test_weight_past_the_all_penalty_level_is_named(self):
        # a loop whose weight runs off stops at the first weight past the
        # level, before solving there
        problem = curve_problem(np.eye(2), 1.0)
        data = np.array([[2.0], [0.0]])
        start = 2.0 ** (-2.0 / 3.0)
        solved = []

        def solve(lam):
            solved.append(lam)
            return np.array([[0.0], [1e-3 / lam]])

        with pytest.raises(NonConvergence, match=(
            r"diverged at outer iteration (\d+): weight (\S+) passed 1\.000000e\+06, "
            rf"beyond which the fit is all penalty \(the loop started at {start:.6e}\)"
        )) as refused:
            self_consistent(solve, self_consistent_measure(problem, data), problem.n_controls,
                            2.0, max_weight=1e6)
        weight = float(re.search(r"weight (\S+) passed", str(refused.value))[1])
        assert weight > 1e6 >= max(solved)

    def test_non_positive_eps_lambda(self):
        with pytest.raises(InvalidConfig, match="eps_lambda"):
            self_consistent(lambda lam: None, None, 4, 2.0, eps_lambda=0.0)

    def test_desk_scale_convergence(self):
        problem, noisy = rose_desk_problem(91.0)
        alpha = spectrum_decay(problem.design, problem.directions[0].penalty_scale, 30).alpha
        result = weight_loop(problem, noisy, oracle_solve(problem, noisy), alpha, 0.01)
        assert result.lam > 0.0
        assert result.outer_iterations <= 15
        lams = [it.lam for it in result.iterates]
        # settles: the last relative change is below the threshold
        assert abs(lams[-1] - lams[-2]) <= 0.01 * lams[-2]

    def test_divergent_start_hits_zero_penalty(self):
        # with a strong penalty scale the prior-free start lies outside the
        # fixed point's basin: the weight blows up until the penalized fit
        # flattens completely
        problem, noisy = rose_desk_problem(1600.0)
        with pytest.raises((ZeroPenalty, NonConvergence)):
            weight_loop(problem, noisy, oracle_solve(problem, noisy), 4.28, 0.01)


class TestSelfConsistentSurface:
    def test_fixed_point_terminates_at_first_check(self):
        eye = np.eye(2)
        problem = surface_problem(eye, eye, 0.5)
        data = np.ones((2, 2, 1))
        data[0, 0, 0] = 2.0
        fixed = np.ones((2, 2, 1))
        # misfit 1/4; L = 0.5 tridiag(1, -2, 1) maps each row and column of
        # ones to (-0.5, -0.5), so the penalty terms are each 1/4, the ratio is
        # 1/2 and the update gives (1/2 / 4)^(alpha/(alpha+1)) with n = 4
        result = weight_loop(problem, data, lambda lam: fixed, alpha=1.0, eps_lambda=1.0)
        assert result.outer_iterations == 2
        second = result.iterates[1]
        assert (second.misfit, second.penalty) == (0.25, 0.5)
        npt.assert_allclose(result.lam, (0.5 / 4.0) ** 0.5, rtol=1e-12)

    def test_noiseless_weight_decays(self, rng):
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal((7, 3))
        lu = difference_matrix(4, 1.0)
        lv = difference_matrix(3, 1.0)
        exact = rng.standard_normal((4, 3, 3))
        data = tensor_apply(a, exact, b)

        def solve(lam):
            return solve_surface_direct(
                augment_surface(a, b, lu, lv, data, lam)
            ).control_points

        with pytest.raises(NonConvergence):
            # exact data: the misfit collapses every round, so the weight
            # keeps shrinking instead of settling
            weight_loop(surface_problem(a, b, 1.0), data, solve, 2.0, 1e-6, max_outer=8)

