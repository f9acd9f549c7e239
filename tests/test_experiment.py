import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from rpia.config import ExperimentConfig, SweepGrid
from rpia.datasets import NoiseSpec, add_noise, fit_error
from rpia.experiment import (
    build_problem,
    estimate_lambda,
    initial_controls_curve,
    initial_controls_surface,
    run_experiment,
    sample_fitted_curve,
    sweep_lambda,
    write_outputs,
    write_sweep_outputs,
)
from rpia.pointsio import load_grid


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

    def test_lambda_echo_matches(self):
        result = run_experiment(desk_curve_config())
        for row in result.report.per_seed:
            assert row["lambda"] == row["lambda_echo"]

    def test_zero_iterations_echoes_initial_error(self):
        cfg = desk_curve_config(max_iter=0, seeds=(5,))
        result = run_experiment(cfg)
        problem = result.problem
        noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, 5))
        p0 = initial_controls_curve(noisy, cfg.n_ctrl)
        expected = fit_error(problem.design, p0, problem.reference_controls)
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
