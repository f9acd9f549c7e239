import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpia import experiment
from rpia.assembly import augment_curve, augment_surface, difference_matrix
from rpia.basis import BasisSpan
from rpia.config import ExperimentConfig, SweepGrid, load_config
from rpia.datasets import NoiseSpec, add_noise, fit_error
from rpia.errors import InvalidConfig, RankDeficient
from rpia.experiment import (
    build_problem,
    estimate_lambda,
    initial_controls_curve,
    initial_controls_surface,
    run_experiment,
    sample_fitted_curve,
    sample_fitted_surface,
    sweep_lambda,
    write_outputs,
    write_sweep_outputs,
)
from rpia.oracle import solve_curve_direct, solve_surface_direct
from rpia.pointsio import load_grid

from conftest import (
    banded_designs,
    collocation_design,
    csv_writer_bytes,
    curve_problem,
    surface_problem,
)


def desk_curve_config(**overrides):
    base = dict(
        problem="curve",
        generator="rose",
        m=120,
        n_ctrl=20,
        block_size=5,
        lam=1e-6,
        noise_amplitude=2.0,
        penalty_scale=91.0,
        tolerance=1e-8,
        max_iter=400,
        seeds=(0, 1, 2),
        head_count=15,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def desk_surface_config(**overrides):
    base = dict(
        problem="surface",
        generator="boy",
        m=14,
        p=12,
        n_ctrl=5,
        n_ctrl_v=4,
        block_size=2,
        block_size_v=2,
        lam=1e-6,
        noise_amplitude=2.0,
        penalty_scale=10.0,
        tolerance=1e-8,
        max_iter=300,
        seeds=(0, 1),
        head_count=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Per-seed iteration counts and control points recorded before the curve
# and surface solvers were folded onto one driver; any change to the step
# arithmetic, the RNG draw order, the stop rule or the refresh shows here.
PINS = json.loads((Path(__file__).parent / "data" / "desk_pins.json").read_text())

PINNED_CONFIGS = {
    "curve_fixed": lambda: desk_curve_config(),
    "surface_fixed": lambda: desk_surface_config(),
    "curve_tol": lambda: desk_curve_config(tolerance=1e-5, max_iter=3000),
    "surface_tol": lambda: desk_surface_config(tolerance=1e-4, max_iter=3000),
    "curve_self_consistent_rpia": lambda: desk_curve_config(
        lam="self-consistent", inner_solver="rpia"
    ),
    "surface_self_consistent_rpia": lambda: desk_surface_config(
        lam="self-consistent", inner_solver="rpia"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_pinned_iterations_and_controls(name):
    result = run_experiment(PINNED_CONFIGS[name]())
    pinned = PINS[name]
    for outcome in result.outcomes:
        seed = str(outcome.seed)
        assert outcome.iterations == pinned["iterations"][seed]
        npt.assert_allclose(
            np.ravel(outcome.control_points), pinned["control_points"][seed],
            rtol=1e-12, atol=0,
        )


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", sorted(PINS["estimate"]))
def test_pinned_estimate(name):
    # Alpha and the rule weight of a shipped config, recorded before the
    # spectrum moved from the data-space whitened design to control space.
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    lam, info = estimate_lambda(build_problem(cfg), cfg)
    pinned = PINS["estimate"][name]
    npt.assert_allclose(info["alpha"], pinned["alpha"], rtol=1e-9)
    npt.assert_allclose(lam, pinned["lambda"], rtol=1e-9)


@pytest.mark.parametrize("name", sorted(PINS["self_consistent"]))
def test_pinned_weight_loop(name):
    # Per-seed outer iterations and final weights of a shipped self-consistent
    # config (direct inner solver), recorded before the control-space solves.
    result = run_experiment(load_config(CONFIG_DIR / f"{name}.yaml"))
    pinned = PINS["self_consistent"][name]
    npt.assert_allclose(result.report.spectral_alpha, pinned["alpha"], rtol=1e-9)
    for outcome in result.outcomes:
        seed = str(outcome.seed)
        assert outcome.iterations == pinned["outer_iterations"][seed]
        npt.assert_allclose(outcome.lam, pinned["lambda"][seed], rtol=1e-9)


def test_estimate_and_direct_paths_form_no_data_space_matrix(monkeypatch):
    # The estimate, the reference solve, the direct inner solver and the
    # fitted points work on spans and control-space matrices only: no dense
    # collocation, no stacked system, no m x n whitening.
    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} was built")
        return refused

    spectrum_calls = []
    whitened_spectrum = experiment.whitened_spectrum

    def square_factors_only(design_factors, penalty_scales):
        for factor in design_factors:
            assert factor.shape[0] == factor.shape[1], "data-space factor"
        spectrum_calls.append(len(design_factors))
        return whitened_spectrum(design_factors, penalty_scales)

    monkeypatch.setattr(BasisSpan, "dense", refuse("a dense collocation matrix"))
    monkeypatch.setattr(experiment, "assemble_collocation", refuse("a dense collocation matrix"))
    monkeypatch.setattr(experiment, "augment_curve", refuse("a stacked (m+n) x n system"))
    monkeypatch.setattr(experiment, "augment_surface", refuse("a stacked (m+n) x n system"))
    monkeypatch.setattr(experiment, "whitened_spectrum", square_factors_only)
    for name, directions in (("rose", 1), ("boy_a40", 2)):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        problem = build_problem(cfg)
        spectrum_calls.clear()
        lam, _ = estimate_lambda(problem, cfg)
        assert lam > 0.0
        assert spectrum_calls == [directions], "the estimate skipped the checked spectrum"
        noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, 0))
        controls = problem.solve_direct(noisy, lam)
        assert problem.fitted(controls).shape == problem.clean.shape
    for name in ("rose_adaptive", "boy_a40_adaptive"):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml").with_overrides(seeds=(0, 1))
        result = run_experiment(cfg)
        assert [o.seed for o in result.outcomes] == [0, 1]


def _relative_gap(actual, expected):
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


class TestControlSpaceDirect:
    @settings(max_examples=60, deadline=None)
    @given(design=banded_designs(), lam=st.floats(0.0, 1e3),
           scale=st.floats(0.5, 50.0), seed=st.integers(0, 2**32 - 1))
    def test_curve_matches_stacked_oracle(self, design, lam, scale, seed):
        penalty = difference_matrix(design.shape[1], scale)
        data = np.random.default_rng(seed).standard_normal((design.shape[0], 2))
        got = curve_problem(design, scale).solve_direct(data, lam)
        want = solve_curve_direct(augment_curve(design, penalty, data, lam)).control_points
        assert _relative_gap(got, want) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(design_u=banded_designs(), design_v=banded_designs(), lam=st.floats(0.0, 1e3),
           scale=st.floats(0.5, 50.0), ncoord=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_surface_matches_stacked_oracle(self, design_u, design_v, lam, scale, ncoord, seed):
        lu = difference_matrix(design_u.shape[1], scale)
        lv = difference_matrix(design_v.shape[1], scale)
        grid = np.random.default_rng(seed).standard_normal(
            (design_u.shape[0], design_v.shape[0], ncoord)
        )
        got = surface_problem(design_u, design_v, scale).solve_direct(grid, lam)
        want = solve_surface_direct(
            augment_surface(design_u, design_v, lu, lv, grid, lam)
        ).control_points
        assert _relative_gap(got, want) <= 1e-10

    def test_empty_design_column_at_small_weight(self, rng):
        # a design column with no nonzero leaves the design gram singular, so
        # Weyl's bound (about 2e12 here) overstates the true condition (about
        # 1.4e9); the gate then checks the matrix itself and takes the
        # control-space route for both problem kinds
        design = collocation_design(40, 10)
        design[:, 4] = 0.0
        penalty = difference_matrix(11, 1.0)
        lam = 5e-10
        curve = curve_problem(design, 1.0)
        assert curve.normal.condition(lam) <= 1e10
        data = rng.standard_normal((40, 2))
        want = solve_curve_direct(augment_curve(design, penalty, data, lam)).control_points
        assert _relative_gap(curve.solve_direct(data, lam), want) <= 1e-10
        design_v = collocation_design(20, 5)
        penalty_v = difference_matrix(6, 1.0)
        grid = rng.standard_normal((40, 20, 3))
        got = surface_problem(design, design_v, 1.0).solve_direct(grid, lam)
        want = solve_surface_direct(
            augment_surface(design, design_v, penalty, penalty_v, grid, lam)
        ).control_points
        assert _relative_gap(got, want) <= 1e-10

    def test_ill_conditioned_curve_takes_the_stacked_route(self, rng):
        # a gram condition near 1e14 fails the Cholesky gate; the stacked
        # least-squares fallback still solves the well-posed problem
        u, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        design = u @ np.diag([1.0, 1e-2, 1e-4, 1e-7])
        penalty = difference_matrix(4, 1.0)
        data = rng.standard_normal((12, 2))
        got = curve_problem(design, 1.0).solve_direct(data, 0.0)
        want, *_ = np.linalg.lstsq(design, data, rcond=None)
        assert _relative_gap(got, want) <= 1e-6

    def test_ill_conditioned_surface_is_rank_deficient(self, rng):
        u, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        design_u = u @ np.diag([1.0, 1e-2, 1e-4, 1e-7])
        design_v = rng.standard_normal((6, 3))
        problem = surface_problem(design_u, design_v, 1.0)
        with pytest.raises(RankDeficient):
            problem.solve_direct(rng.standard_normal((12, 6, 3)), 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("make", [desk_curve_config, desk_surface_config])
    def test_rejects_bad_weight(self, make, lam):
        problem = build_problem(make())
        with pytest.raises(InvalidConfig, match="lam"):
            problem.solve_direct(problem.clean, lam)


class TestProblemMeasures:
    def test_curve_weight_measure_by_hand(self):
        # fitted points A c = (1, 2, 1) against data (1, 2, 3): misfit 4 over
        # 3 points; G c = (-1, -1): penalty 2 over 2 controls
        design = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        problem = curve_problem(design, 1.0)
        measure = experiment.self_consistent_measure(problem, np.array([[1.0], [2.0], [3.0]]))
        misfit, penalty = measure(np.array([[1.0], [1.0]]))
        npt.assert_allclose([misfit, penalty], [4.0 / 3.0, 1.0], rtol=1e-15)

    def test_surface_weight_measure_by_hand(self):
        # identity factors on a 2 x 2 grid of ones: misfit (1 - 2)^2 over 4
        # points; L = 0.5 tridiag(1, -2, 1) maps each row and column of ones to
        # (-0.5, -0.5), so each singly weighted penalty term is 1 over n = 4
        eye = np.eye(2)
        problem = surface_problem(eye, eye, 0.5)
        data = np.ones((2, 2, 1))
        data[0, 0, 0] = 2.0
        controls = np.ones((2, 2, 1))
        measure = experiment.self_consistent_measure(problem, data)
        assert measure(controls) == (0.25, 0.5)

    def test_surface_penalty_drops_the_doubly_weighted_term(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((5, 4))
        lu = difference_matrix(3, 1.5)
        lv = difference_matrix(4, 1.5)
        controls = rng.standard_normal((3, 4, 3))
        expected = sum(
            np.sum((a @ controls[:, :, f] @ lv.T) ** 2)
            + np.sum((lu @ controls[:, :, f] @ b.T) ** 2)
            for f in range(3)
        ) / 12
        got = surface_problem(a, b, 1.5).penalty_norm2(controls)
        npt.assert_allclose(got, expected, rtol=1e-13)

    @pytest.mark.parametrize("make", [desk_curve_config, desk_surface_config])
    def test_relative_error_measures_fitted_geometry(self, make, rng):
        problem = build_problem(make())
        reference = problem.reference_controls
        controls = reference + 0.01 * rng.standard_normal(reference.shape)
        if reference.ndim == 2:
            delta = problem.design @ (controls - reference)
            ref_geometry = problem.design @ reference
        else:
            delta = np.einsum("ij,jkf,lk->ilf", problem.design_u, controls - reference,
                              problem.design_v)
            ref_geometry = np.einsum("ij,jkf,lk->ilf", problem.design_u, reference,
                                     problem.design_v)
        expected = np.linalg.norm(delta) / np.linalg.norm(ref_geometry)
        got = experiment._relative_error(problem, controls)
        npt.assert_allclose(got, expected, rtol=1e-9)
        assert experiment._relative_error(problem, reference) == 0.0


class TestInitialControls:
    def test_curve_rule_indices(self):
        data = np.arange(22).reshape(11, 2).astype(float)
        controls = initial_controls_curve(data, 4)
        # floor(10 * i / 4) for i = 0..4 -> rows 0, 2, 5, 7, 10
        npt.assert_array_equal(controls, data[[0, 2, 5, 7, 10]])

    def test_surface_rule_indices(self):
        grid = np.arange(5 * 7 * 3, dtype=float).reshape(5, 7, 3)
        controls = initial_controls_surface(grid, 2, 3)
        npt.assert_array_equal(controls, grid[np.ix_([0, 2, 4], [0, 2, 4, 6])])


class TestRunExperiment:
    def test_report_is_reproducible_apart_from_wall_time(self):
        cfg = desk_curve_config()
        first = run_experiment(cfg).report.to_dict()
        second = run_experiment(cfg).report.to_dict()

        def strip(d):
            d = json.loads(json.dumps(d))
            d.pop("wall_time_total")
            for row in d["per_seed"]:
                row.pop("wall_time")
            return json.dumps(d, sort_keys=True)

        assert strip(first) == strip(second)

    def test_seed_permutation_invariance(self):
        cfg = desk_curve_config(seeds=(0, 1, 2))
        permuted = desk_curve_config(seeds=(2, 0, 1))
        base_report = run_experiment(cfg).report
        perm_report = run_experiment(permuted).report
        assert base_report.mean_fit_error == perm_report.mean_fit_error
        assert base_report.std_fit_error == perm_report.std_fit_error
        base_errors = {r["seed"]: r["fit_error"] for r in base_report.per_seed}
        perm_errors = {r["seed"]: r["fit_error"] for r in perm_report.per_seed}
        assert base_errors == perm_errors

    def test_zero_iterations_echoes_initial_error(self):
        cfg = desk_curve_config(max_iter=0, seeds=(5,))
        result = run_experiment(cfg)
        problem = result.problem
        noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, 5))
        p0 = initial_controls_curve(noisy, cfg.n_ctrl)
        expected = fit_error(problem.design @ p0, problem.design @ problem.reference_controls)
        npt.assert_allclose(result.report.mean_fit_error, expected, rtol=1e-12)

    def test_estimate_mode_records_ingredients(self):
        result = run_experiment(desk_curve_config(lam="estimate"))
        info = result.report.estimate_info
        assert info is not None
        assert info["alpha"] > 0
        assert result.report.lambda_used > 0
        for row in result.report.per_seed:
            assert row["lambda"] == result.report.lambda_used

    def test_self_consistent_mode_records_trajectories(self):
        # penalty scale chosen so the prior-free start lies inside the
        # weight iteration's basin at this desk scale
        result = run_experiment(
            desk_curve_config(lam="self-consistent", seeds=(0, 1), penalty_scale=20.0)
        )
        for row in result.report.per_seed:
            assert "lambda_trajectory" in row
            assert row["lambda_trajectory"][0]["k"] == 1
            assert row["lambda"] > 0
            assert row["converged"] is True  # direct inner solves always converge

    def test_self_consistent_reports_capped_inner_solve(self, tmp_path):
        # Every randomized inner solve stops at max_iter, the last one too.
        result = run_experiment(
            desk_curve_config(lam="self-consistent", inner_solver="rpia", max_iter=5, seeds=(0,))
        )
        write_outputs(result, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["per_seed"][0]["converged"] is False
        seed_line = (tmp_path / "summary.txt").read_text().splitlines()[-1]
        assert seed_line.split()[-1] == "False"

    def test_surface_runs_end_to_end(self):
        result = run_experiment(desk_surface_config())
        assert result.report.mean_fit_error >= 0.0
        assert len(result.report.per_seed) == 2


class TestEstimate:
    def test_estimate_matches_manual_composition(self):
        cfg = desk_curve_config()
        problem = build_problem(cfg)
        lam, info = estimate_lambda(problem, cfg)
        from rpia.regparam import NoiseModel, optimal_lambda

        manual = optimal_lambda(
            info["alpha"],
            NoiseModel(info["sigma2"], info["epsilon_norm2"]),
            info["n_controls"],
            info["penalty_norm2"],
        )
        npt.assert_allclose(lam, manual, rtol=1e-12)


class TestSweep:
    def test_degenerate_single_point_grid(self):
        cfg = desk_curve_config(seeds=(0,))
        object.__setattr__(cfg, "lam", SweepGrid(1e-6, 1e-6, 1))
        report, _ = sweep_lambda(cfg)
        assert len(report.lambdas) == 1
        rows = report.rows()
        assert len(rows) == 2  # the grid row plus the estimate marker row
        assert rows[-1][3] == 1

    def test_small_grid_orders_rows(self, tmp_path):
        cfg = desk_curve_config(seeds=(0, 1))
        object.__setattr__(cfg, "lam", SweepGrid(1e-8, 1e-4, 3))
        report, _ = sweep_lambda(cfg)
        assert report.lambdas == sorted(report.lambdas)
        name = write_sweep_outputs(report, tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "lambda,mean_error,std_error,is_estimated_optimal"
        assert len(lines) == 5

    def test_fits_sample_no_trajectory(self, monkeypatch):
        # the table reads only fit errors, so no fit pays for trajectory samples
        strides = []
        solve = experiment.CurveProblem.solve_randomized

        def recording(self, data, lam, cfg, seed, stride):
            strides.append(stride)
            return solve(self, data, lam, cfg, seed, stride)

        monkeypatch.setattr(experiment.CurveProblem, "solve_randomized", recording)
        sweep_lambda(desk_curve_config(lam=SweepGrid(1e-8, 1e-5, 2), seeds=(0, 1)))
        assert strides == [0] * 6


class TestOutputs:
    def test_curve_bundle(self, tmp_path):
        result = run_experiment(desk_curve_config(seeds=(0, 1)))
        files = write_outputs(result, tmp_path)
        assert set(files) == {
            "report.json", "summary.txt", "trajectory.csv", "fitted_curve.csv"
        }
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["lambda_used"] == 1e-6
        fitted = np.loadtxt(tmp_path / "fitted_curve.csv", delimiter=",", skiprows=1)
        assert fitted.shape == (5 * 120 + 1, 3)  # param, x, y
        trajectory = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert trajectory[0] == "seed,iteration,rel_change,residual_norm"
        assert len(trajectory) > 1

    def test_fitted_curve_sampling_density(self):
        result = run_experiment(desk_curve_config(seeds=(0,)))
        dense, points = sample_fitted_curve(result.problem, result.outcomes[0].control_points)
        assert dense.size == 5 * 120 + 1
        assert points.shape == (dense.size, 2)

    def test_surface_bundle(self, tmp_path):
        result = run_experiment(desk_surface_config(seeds=(0,)))
        files = write_outputs(result, tmp_path)
        assert "fitted_surface.csv" in files
        grid = load_grid(tmp_path / "fitted_surface.csv")
        assert grid.shape == (5 * 14 + 1, 5 * 12 + 1, 3)


class TestCsvBytes:
    """Every table the bundles hold is byte for byte what :mod:`csv` writes."""

    def trajectory_rows(self, result):
        return [
            (outcome.seed, sample.iteration, sample.rel_change, sample.residual_norm)
            for outcome in result.outcomes for sample in outcome.trajectory
        ]

    def test_curve_bundle_tables(self, tmp_path):
        result = run_experiment(desk_curve_config(seeds=(0, 1)))
        write_outputs(result, tmp_path)
        header = ["seed", "iteration", "rel_change", "residual_norm"]
        assert (tmp_path / "trajectory.csv").read_bytes() == csv_writer_bytes(
            header, self.trajectory_rows(result)
        )
        first = min(result.outcomes, key=lambda o: o.seed)
        dense, points = sample_fitted_curve(result.problem, first.control_points)
        rows = [(float(t), *map(float, pt)) for t, pt in zip(dense, points)]
        assert (tmp_path / "fitted_curve.csv").read_bytes() == csv_writer_bytes(
            ["param", "x", "y"], rows
        )

    def test_surface_bundle_tables(self, tmp_path):
        result = run_experiment(desk_surface_config(seeds=(0,)))
        write_outputs(result, tmp_path)
        header = ["seed", "iteration", "rel_change", "residual_norm"]
        assert (tmp_path / "trajectory.csv").read_bytes() == csv_writer_bytes(
            header, self.trajectory_rows(result)
        )
        _, _, sampled = sample_fitted_surface(result.problem, result.outcomes[0].control_points)
        rows = [
            (h, l, *map(float, sampled[h, l]))
            for h in range(sampled.shape[0]) for l in range(sampled.shape[1])
        ]
        assert (tmp_path / "fitted_surface.csv").read_bytes() == csv_writer_bytes(
            ["row", "col", "x", "y", "z"], rows
        )

    def test_sweep_table(self, tmp_path):
        report, _ = sweep_lambda(desk_curve_config(lam=SweepGrid(1e-8, 1e-5, 3), seeds=(0,)))
        write_sweep_outputs(report, tmp_path)
        header = ["lambda", "mean_error", "std_error", "is_estimated_optimal"]
        assert (tmp_path / "sweep.csv").read_bytes() == csv_writer_bytes(header, report.rows())
