"""Experiment orchestration: data, weight selection, multi-seed fits, reports.

A run proceeds: generate or load the geometry, parametrize the clean data,
evaluate the collocation (as spans) once, pick the smoothing weight (fixed,
rule-estimated, or self-consistent per seed), fit each seed's noisy draw
independently, and aggregate the relative fit errors.

Randomness bookkeeping: the noise draw for seed ``s`` uses the Philox stream
with key ``s``; the solver's block draws use the same key jumped one stride,
so the two never overlap. Everything downstream is a pure function of the
config, which is what makes report files byte-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import curve as curve_solver
from . import surface as surface_solver
from .assembly import (
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_matrix,
    make_partition,
    require_finite,
    require_weight,
    tensor_apply,
)
from .basis import (
    BasisSpan,
    KnotVector,
    build_knots,
    chord_length_params,
    eval_basis,
    surface_params,
)
from .config import ExperimentConfig, SweepGrid
from .datasets import (
    NoiseSpec,
    add_noise,
    blob_curve,
    boy_surface,
    fit_error,
    rose_curve,
)
from .driver import StoppingRule
from .errors import InvalidConfig
from .oracle import GramPencil, solve_curve_direct, solve_tensor_normal
from .pointsio import GridRows, load_grid, load_points, write_csv
from .regparam import (
    NoiseModel,
    SelfConsistentResult,
    optimal_lambda,
    self_consistent,
    spectral_decay_from_eigenvalues,
    whitened_spectrum,
)


def solver_rng(seed: int) -> np.random.Generator:
    """Block-draw stream for one fit: the seed's Philox stream, jumped once."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(1))


def initial_controls_curve(data: np.ndarray, n_ctrl: int) -> np.ndarray:
    """Seed every control point from the data: index ``floor(m * i / n1)``."""
    m = data.shape[0] - 1
    idx = (m * np.arange(n_ctrl + 1)) // n_ctrl
    return data[idx].copy()


def initial_controls_surface(grid: np.ndarray, n_u: int, n_v: int) -> np.ndarray:
    """Surface analogue: subsample the data grid at floor-spaced indices."""
    m = grid.shape[0] - 1
    p = grid.shape[1] - 1
    rows = (m * np.arange(n_u + 1)) // n_u
    cols = (p * np.arange(n_v + 1)) // n_v
    return grid[np.ix_(rows, cols)].copy()


def _stop_rule(cfg: ExperimentConfig) -> StoppingRule:
    return StoppingRule(cfg.tolerance, cfg.max_iter)


# The two problem kinds answer the same questions, so the experiment code
# below never asks which kind it holds. Their methods reach library functions
# through this module's globals at call time, so replacing a module attribute
# (to trace or to stub a layer) reaches every call.
#
# Each problem keeps its collocation matrices as the spans ``eval_basis``
# returns, and its penalties as their scale. The design grams, the right-hand
# sides and the fitted points come from the spans; the spectrum (from the
# design grams' Cholesky factors) and every direct solve (``numpy.linalg``,
# gated by the problem's ``GramPencil``) work on n x n matrices. The dense
# designs are built on first use, by the stacked systems of the randomized
# fits and the ill-conditioned fallback only.


@dataclass(frozen=True)
class CurveProblem:
    clean: np.ndarray
    params: np.ndarray
    knots: KnotVector
    basis: BasisSpan                         # A, the collocation at params
    penalty_scale: float                     # s in G = s tridiag(1, -2, 1)

    @cached_property
    def penalty(self) -> np.ndarray:         # G
        return difference_matrix(self.n_controls, self.penalty_scale)

    @cached_property
    def design(self) -> np.ndarray:
        """``A`` as a dense matrix."""
        return self.basis.dense()

    @cached_property
    def design_gram(self) -> np.ndarray:
        """``A^T A``."""
        return self.basis.gram()

    @cached_property
    def normal(self) -> GramPencil:
        """``A^T A + lam G^T G`` at any weight, with its condition gate."""
        return GramPencil(self.design_gram, self.penalty.T @ self.penalty)

    @cached_property
    def reference_controls(self) -> np.ndarray:
        """The unpenalized least-squares fit of the clean data."""
        return self.solve_direct(self.clean, 0.0)

    @property
    def n_controls(self) -> int:
        return self.basis.n_basis

    def solve_randomized(self, data, lam: float, cfg: ExperimentConfig, seed: int, stride: int):
        """Stack the system at ``lam``, partition it and run the randomized
        solver from controls seeded by the data: (controls, result)."""
        system = augment_curve(self.design, self.penalty, data, lam)
        result = curve_solver.run(
            system, make_partition(system.stacked, cfg.block_size),
            initial_controls_curve(data, cfg.n_ctrl), _stop_rule(cfg), solver_rng(seed),
            trajectory_stride=stride,
        )
        return result.control_points, result

    def direct_solver(self, data):
        """The weight-to-minimizer map for one data set: ``lam`` to the solution
        of ``(A^T A + lam G^T G) P = A^T q``, with ``A^T q`` formed once.

        A normal matrix that fails the condition gate takes the stacked
        least-squares route of :func:`solve_curve_direct` instead.
        """
        q = np.asarray(data, dtype=float)
        require_finite(q, "data")
        rhs = self.basis.apply_transpose(q)

        def solve(lam: float) -> np.ndarray:
            lam = require_weight(lam)
            solution, _ = self.normal.solve(rhs, lam)
            if solution is None:
                system = augment_curve(self.design, self.penalty, q, lam)
                return solve_curve_direct(system).control_points
            return solution
        return solve

    def solve_direct(self, data, lam: float) -> np.ndarray:
        """Penalized minimizer at one weight (see :meth:`direct_solver`)."""
        return self.direct_solver(data)(lam)

    def fitted(self, controls) -> np.ndarray:
        return self.basis.apply(controls)

    def penalty_norm2(self, controls) -> float:
        return float(np.sum((self.penalty @ controls) ** 2)) / self.n_controls

    def spectrum(self, head_count: int):
        factor = np.linalg.cholesky(self.design_gram, upper=True)
        eigs = whitened_spectrum([factor], [self.penalty_scale])
        return spectral_decay_from_eigenvalues(eigs, head_count)

    def write_fitted(self, out: Path, controls) -> str:
        dense, points = sample_fitted_curve(self, controls)
        header = ["param"] + ["x", "y", "z"][: points.shape[1]]
        write_csv(
            out / "fitted_curve.csv",
            header,
            [(float(t), *map(float, pt)) for t, pt in zip(dense, points)],
        )
        return "fitted_curve.csv"


@dataclass(frozen=True)
class SurfaceProblem:
    clean: np.ndarray
    params_u: np.ndarray
    params_v: np.ndarray
    knots_u: KnotVector
    knots_v: KnotVector
    basis_u: BasisSpan                       # A, the collocation at params_u
    basis_v: BasisSpan                       # B, the collocation at params_v
    penalty_scale: float                     # s of both difference penalties

    @cached_property
    def penalty_u(self) -> np.ndarray:       # Lu
        return difference_matrix(self.basis_u.n_basis, self.penalty_scale)

    @cached_property
    def penalty_v(self) -> np.ndarray:       # Lv
        return difference_matrix(self.basis_v.n_basis, self.penalty_scale)

    @cached_property
    def design_u(self) -> np.ndarray:
        """``A`` as a dense matrix."""
        return self.basis_u.dense()

    @cached_property
    def design_v(self) -> np.ndarray:
        """``B`` as a dense matrix."""
        return self.basis_v.dense()

    @cached_property
    def design_gram_u(self) -> np.ndarray:
        """``A^T A``."""
        return self.basis_u.gram()

    @cached_property
    def design_gram_v(self) -> np.ndarray:
        """``B^T B``."""
        return self.basis_v.gram()

    @cached_property
    def normal_u(self) -> GramPencil:
        """``A^T A + lam Lu^T Lu`` at any weight, with its condition gate."""
        return GramPencil(self.design_gram_u, self.penalty_u.T @ self.penalty_u)

    @cached_property
    def normal_v(self) -> GramPencil:
        """``B^T B + lam Lv^T Lv`` at any weight, with its condition gate."""
        return GramPencil(self.design_gram_v, self.penalty_v.T @ self.penalty_v)

    @cached_property
    def reference_controls(self) -> np.ndarray:
        """The unpenalized least-squares fit of the clean data."""
        return self.solve_direct(self.clean, 0.0)

    @property
    def n_controls(self) -> int:
        return self.basis_u.n_basis * self.basis_v.n_basis

    def solve_randomized(self, data, lam: float, cfg: ExperimentConfig, seed: int, stride: int):
        """Stack both factors at ``lam``, partition them and run the randomized
        solver from controls seeded by the data: (controls, result)."""
        system = augment_surface(
            self.design_u, self.design_v, self.penalty_u, self.penalty_v, data, lam
        )
        result = surface_solver.run(
            system,
            make_partition(system.row_stacked, cfg.block_size),
            make_partition(system.col_stacked, cfg.block_size_v or cfg.block_size),
            initial_controls_surface(data, cfg.n_ctrl, cfg.n_ctrl_v),
            _stop_rule(cfg), solver_rng(seed), trajectory_stride=stride,
        )
        return result.control_grid, result

    def direct_solver(self, data):
        """The weight-to-minimizer map for one data grid: two factor solves
        against ``A^T Q B``, which is formed once."""
        grid = np.asarray(data, dtype=float)
        require_finite(grid, "data")
        if grid.ndim == 2:
            grid = grid[:, :, None]
        rhs = self.basis_v.apply_transpose(self.basis_u.apply_transpose(grid), axis=1)

        def solve(lam: float) -> np.ndarray:
            return solve_tensor_normal(self.normal_u, self.normal_v, rhs, require_weight(lam))[0]
        return solve

    def solve_direct(self, data, lam: float) -> np.ndarray:
        """Penalized minimizer at one weight (see :meth:`direct_solver`)."""
        return self.direct_solver(data)(lam)

    def fitted(self, controls) -> np.ndarray:
        """``A P B^T`` for every coordinate."""
        return self.basis_v.apply(self.basis_u.apply(controls), axis=1)

    def penalty_norm2(self, controls) -> float:
        """Count-normalized ``|A P Lv^T|^2 + |Lu P B^T|^2`` over all coordinates.

        Only the two singly weighted penalty terms of the stacked objective
        count: the doubly weighted ``lam**2`` term ``|Lu P Lv^T|^2`` is dropped,
        so the self-consistent balance has no weight on its right-hand side.
        """
        cross_u = self.basis_u.apply(np.einsum("ujf,vj->uvf", controls, self.penalty_v))
        cross_v = self.basis_v.apply(np.einsum("ui,ijf->ujf", self.penalty_u, controls), axis=1)
        return (float(np.sum(cross_u**2)) + float(np.sum(cross_v**2))) / self.n_controls

    def spectrum(self, head_count: int):
        grams = (self.design_gram_u, self.design_gram_v)
        factors = [np.linalg.cholesky(gram, upper=True) for gram in grams]
        eigs = whitened_spectrum(factors, [self.penalty_scale] * 2)
        return spectral_decay_from_eigenvalues(eigs, head_count)

    def write_fitted(self, out: Path, controls) -> str:
        _, _, sampled = sample_fitted_surface(self, controls)
        write_csv(out / "fitted_surface.csv", ["row", "col", "x", "y", "z"], GridRows(sampled))
        return "fitted_surface.csv"


def load_dataset(cfg: ExperimentConfig) -> np.ndarray:
    """Clean geometry for a config: generated, or loaded from CSV."""
    if cfg.generator == "rose":
        return rose_curve(cfg.m).points
    if cfg.generator == "blob":
        return blob_curve(cfg.m).points
    if cfg.generator == "boy":
        return boy_surface(cfg.m, cfg.p).grid
    if cfg.problem == "surface":
        return load_grid(cfg.input_path)
    return load_points(cfg.input_path)


def build_problem(cfg: ExperimentConfig) -> Union[CurveProblem, SurfaceProblem]:
    """Parametrize the clean data and evaluate the seed-independent matrices.

    The collocation matrices are kept as spans (no dense m x n matrix). The
    reference controls, the unpenalized least-squares fit of the clean data
    that every reported error is relative to, are solved on first use.
    """
    clean = load_dataset(cfg)
    if cfg.problem == "curve":
        params = chord_length_params(clean)
        knots = build_knots(params, cfg.n_ctrl)
        return CurveProblem(clean, params, knots, eval_basis(knots, params), cfg.penalty_scale)
    params_u, params_v = surface_params(clean)
    knots_u = build_knots(params_u, cfg.n_ctrl)
    knots_v = build_knots(params_v, cfg.n_ctrl_v)
    return SurfaceProblem(
        clean, params_u, params_v, knots_u, knots_v,
        eval_basis(knots_u, params_u), eval_basis(knots_v, params_v), cfg.penalty_scale,
    )


def problem_spectrum(problem, head_count: int):
    """Decay-rate fit of the whitened design spectrum for either problem kind.

    Computed in control space, from the Cholesky factors of the problem's
    design grams and the closed-form eigenpairs of its difference penalties.
    """
    return problem.spectrum(head_count)


def estimate_lambda(problem, cfg: ExperimentConfig) -> tuple[float, dict]:
    """Rule-estimated weight from the clean problem plus its ingredients."""
    decay = problem_spectrum(problem, cfg.head_count)
    clean = problem.clean
    sigma2 = NoiseSpec(cfg.noise_amplitude, 0).per_entry_variance(clean.size)
    residual = problem.fitted(problem.reference_controls) - clean
    n_count = problem.n_controls
    noise = NoiseModel(sigma2, float(np.sum(residual**2)))
    pen_n = problem.penalty_norm2(problem.reference_controls)
    lam = optimal_lambda(decay, noise, n_count, pen_n)
    info = {
        "alpha": decay.alpha,
        "alpha_fit_residual": decay.fit_residual,
        "head_count": decay.head_count,
        "sigma2": sigma2,
        "epsilon_norm2": noise.epsilon_norm2,
        "penalty_norm2": pen_n,
        "n_controls": n_count,
    }
    return lam, info


@dataclass
class SeedOutcome:
    seed: int
    lam: float
    fit_err: float
    iterations: int
    converged: bool
    stop_reason: str                  # "tol" | "max_iter" | "direct"
    wall_time: float
    control_points: np.ndarray
    trajectory: tuple = ()
    lambda_iterates: Optional[tuple] = None


def _relative_error(problem, controls) -> float:
    """Fit error of ``controls`` against the clean reference fit, in geometry space."""
    return fit_error(problem.fitted(controls), problem.fitted(problem.reference_controls))


def self_consistent_measure(problem, data):
    """The weight loop's measure: controls to their (misfit, penalty) pair.

    The misfit is ``|fitted(c) - data|^2`` over the data point count (m+1
    for curves, (m+1)(p+1) for surfaces), the penalty is the problem's
    count-normalized ``penalty_norm2(c)``.
    """
    n_points = data.size // data.shape[-1]

    def measure(controls):
        misfit = float(np.sum((problem.fitted(controls) - data) ** 2)) / n_points
        return misfit, problem.penalty_norm2(controls)
    return measure


def _fit_fixed(problem, cfg, lam: float, seed: int, noisy) -> SeedOutcome:
    start = time.perf_counter()
    controls, result = problem.solve_randomized(noisy, lam, cfg, seed, cfg.trajectory_stride)
    return SeedOutcome(
        seed, lam, _relative_error(problem, controls), result.iterations,
        result.converged, result.stop_reason, time.perf_counter() - start, controls,
        result.trajectory,
    )


def _inner_solver(problem, cfg, seed: int, noisy):
    """The weight-to-controls map the self-consistent loop solves with.

    Also returns a one-entry list that holds how the latest solve stopped,
    ``(converged, stop_reason)``: the randomized solver's, or ``(True,
    "direct")`` for a direct solve.
    """
    stopped = [(True, "direct")]
    if cfg.inner_solver == "direct":
        solve = problem.direct_solver(noisy)
    else:
        def solve(lam: float) -> np.ndarray:
            controls, result = problem.solve_randomized(noisy, lam, cfg, seed, 0)
            stopped[0] = (result.converged, result.stop_reason)
            return controls
    return solve, stopped


def _fit_self_consistent(problem, cfg, seed: int, noisy, alpha: float) -> SeedOutcome:
    start = time.perf_counter()
    solve, stopped = _inner_solver(problem, cfg, seed, noisy)
    sc: SelfConsistentResult = self_consistent(
        solve, self_consistent_measure(problem, noisy), problem.n_controls,
        alpha, cfg.eps_lambda,
    )
    converged, reason = stopped[0]
    return SeedOutcome(
        seed, sc.lam, _relative_error(problem, sc.control_points),
        sc.outer_iterations, converged, reason, time.perf_counter() - start,
        sc.control_points, lambda_iterates=sc.iterates,
    )


def run_seed(problem, cfg: ExperimentConfig, lam_choice, seed: int, alpha=None) -> SeedOutcome:
    """Fit one noisy draw end to end."""
    noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, seed))
    if lam_choice == "self-consistent":
        return _fit_self_consistent(problem, cfg, seed, noisy, alpha)
    return _fit_fixed(problem, cfg, float(lam_choice), seed, noisy)


def _run_seeds(problem, cfg, lam_choice, alpha=None) -> list[SeedOutcome]:
    return [run_seed(problem, cfg, lam_choice, seed, alpha) for seed in cfg.seeds]


def capped_count(outcomes) -> int:
    """How many of the fits stopped at ``max_iter`` before meeting the tolerance."""
    return sum(o.stop_reason == "max_iter" for o in outcomes)


def _aggregate(outcomes: list[SeedOutcome]) -> tuple[float, float]:
    # Aggregate in seed-sorted order so the statistics are independent of
    # the order the seeds were listed or finished.
    errors = np.asarray([o.fit_err for o in sorted(outcomes, key=lambda o: o.seed)])
    return float(errors.mean()), float(errors.std())


@dataclass
class FitReport:
    """Aggregated result of a multi-seed experiment, JSON-serializable."""

    problem: str
    generator: str
    lambda_mode: str
    lambda_used: float
    mean_fit_error: float
    std_fit_error: float
    seeds: list
    per_seed: list
    spectral_alpha: Optional[float] = None
    estimate_info: Optional[dict] = None
    wall_time_total: float = 0.0

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "generator": self.generator,
            "lambda_mode": self.lambda_mode,
            "lambda_used": self.lambda_used,
            "mean_fit_error": self.mean_fit_error,
            "std_fit_error": self.std_fit_error,
            "seeds": list(self.seeds),
            "spectral_alpha": self.spectral_alpha,
            "estimate_info": self.estimate_info,
            "per_seed": self.per_seed,
            "wall_time_total": self.wall_time_total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    problem: Union[CurveProblem, SurfaceProblem]
    outcomes: list
    report: FitReport


def _per_seed_entry(outcome: SeedOutcome) -> dict:
    entry = {
        "seed": outcome.seed,
        "lambda": outcome.lam,
        "fit_error": outcome.fit_err,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "stop_reason": outcome.stop_reason,
        "wall_time": outcome.wall_time,
        "trajectory": [
            [s.iteration, s.rel_change, s.residual_norm] for s in outcome.trajectory
        ],
    }
    if outcome.lambda_iterates is not None:
        entry["lambda_trajectory"] = [
            {"k": it.k, "lambda": it.lam, "misfit": it.misfit, "penalty": it.penalty}
            for it in outcome.lambda_iterates
        ]
    return entry


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute a configured experiment: one fit per seed, aggregated."""
    if isinstance(cfg.lam, SweepGrid):
        raise InvalidConfig("run_experiment does not take sweep grids; use sweep_lambda")
    start = time.perf_counter()
    problem = build_problem(cfg)
    alpha = None
    estimate_info = None
    if cfg.lam == "estimate":
        lam_choice, estimate_info = estimate_lambda(problem, cfg)
        mode = "estimate"
        alpha = estimate_info["alpha"]
    elif cfg.lam == "self-consistent":
        decay = problem_spectrum(problem, cfg.head_count)
        alpha = decay.alpha
        lam_choice = "self-consistent"
        mode = "self-consistent"
    else:
        lam_choice = float(cfg.lam)
        mode = "fixed"
    outcomes = _run_seeds(problem, cfg, lam_choice, alpha)
    mean_err, std_err = _aggregate(outcomes)
    # One weight serves every seed unless each seed found its own; the mean
    # of equal floats can be an ulp off the weight itself.
    if mode == "self-consistent":
        lambda_used = float(np.mean([o.lam for o in sorted(outcomes, key=lambda o: o.seed)]))
    else:
        lambda_used = float(lam_choice)
    report = FitReport(
        problem=cfg.problem,
        generator=cfg.generator,
        lambda_mode=mode,
        lambda_used=lambda_used,
        mean_fit_error=mean_err,
        std_fit_error=std_err,
        seeds=list(cfg.seeds),
        per_seed=[_per_seed_entry(o) for o in outcomes],
        spectral_alpha=alpha,
        estimate_info=estimate_info,
        wall_time_total=time.perf_counter() - start,
    )
    return ExperimentResult(cfg, problem, outcomes, report)


@dataclass
class SweepReport:
    lambdas: list
    mean_errors: list
    std_errors: list
    lambda_estimate: float
    estimate_mean_error: float
    estimate_std_error: float
    estimate_info: dict
    fits: int                         # seed fits over the grid and the estimate row
    capped_fits: int                  # of those, how many stopped at max_iter

    def rows(self):
        table = [
            (lam, mean, std, 0)
            for lam, mean, std in zip(self.lambdas, self.mean_errors, self.std_errors)
        ]
        table.append(
            (self.lambda_estimate, self.estimate_mean_error, self.estimate_std_error, 1)
        )
        return table


def sweep_lambda(cfg: ExperimentConfig) -> tuple[SweepReport, Union[CurveProblem, SurfaceProblem]]:
    """One multi-seed fit batch per grid point, plus the rule-estimate row.

    The same seeds (hence the same noise draws) are reused at every grid
    point, so the error curve varies only through the weight. Each batch is
    a fixed-weight run of the config; the table reads only fit errors, so
    the fits sample no trajectory.
    """
    if not isinstance(cfg.lam, SweepGrid):
        raise InvalidConfig("sweep_lambda needs a sweep grid in the lambda field")
    problem = build_problem(cfg)
    lam_est, info = estimate_lambda(problem, cfg)

    def batch(lam: float) -> list[SeedOutcome]:
        return _run_seeds(problem, replace(cfg, lam=lam, trajectory_stride=0), lam)

    lambdas = list(cfg.lam.values())
    means, stds = [], []
    capped = 0
    for lam in lambdas:
        outcomes = batch(float(lam))
        mean_err, std_err = _aggregate(outcomes)
        means.append(mean_err)
        stds.append(std_err)
        capped += capped_count(outcomes)
    est_outcomes = batch(float(lam_est))
    est_mean, est_std = _aggregate(est_outcomes)
    report = SweepReport(
        [float(v) for v in lambdas], means, stds, float(lam_est), est_mean, est_std, info,
        (len(lambdas) + 1) * len(cfg.seeds), capped + capped_count(est_outcomes),
    )
    return report, problem


def sample_fitted_curve(problem: CurveProblem, controls: np.ndarray, density: int = 5):
    """Fitted curve sampled at ``density`` times the data density."""
    m = problem.clean.shape[0] - 1
    dense = np.linspace(0.0, 1.0, density * m + 1)
    design_dense = assemble_collocation(problem.knots, dense)
    return dense, design_dense @ controls


def sample_fitted_surface(problem: SurfaceProblem, control_grid: np.ndarray, density: int = 5):
    """Fitted surface sampled at ``density`` times the data density per direction."""
    m = problem.clean.shape[0] - 1
    p = problem.clean.shape[1] - 1
    dense_u = np.linspace(0.0, 1.0, density * m + 1)
    dense_v = np.linspace(0.0, 1.0, density * p + 1)
    a_dense = assemble_collocation(problem.knots_u, dense_u)
    b_dense = assemble_collocation(problem.knots_v, dense_v)
    return dense_u, dense_v, tensor_apply(a_dense, control_grid, b_dense)


def _summary_text(result: ExperimentResult) -> str:
    report = result.report
    lines = [
        f"problem:        {report.problem} ({report.generator})",
        f"lambda mode:    {report.lambda_mode}",
        f"lambda used:    {report.lambda_used:.6e}",
        f"mean fit error: {report.mean_fit_error:.6f}",
        f"std fit error:  {report.std_fit_error:.6f}",
    ]
    if report.spectral_alpha is not None:
        lines.append(f"spectral alpha: {report.spectral_alpha:.4f}")
    lines.append("")
    lines.append("seed   lambda        fit_error   iterations  converged")
    for entry in report.per_seed:
        lines.append(
            f"{entry['seed']:<6d} {entry['lambda']:<13.6e} "
            f"{entry['fit_error']:<11.6f} {entry['iterations']:<11d} "
            f"{str(entry['converged']):<5s}"
        )
    lines.append("")
    return "\n".join(lines)


def write_outputs(result: ExperimentResult, out_dir) -> list[str]:
    """Write the report bundle; returns the file names written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    (out / "report.json").write_text(result.report.to_json() + "\n")
    written.append("report.json")
    (out / "summary.txt").write_text(_summary_text(result))
    written.append("summary.txt")

    rows = []
    for outcome in result.outcomes:
        for sample in outcome.trajectory:
            rows.append(
                (outcome.seed, sample.iteration, sample.rel_change, sample.residual_norm)
            )
    write_csv(out / "trajectory.csv", ["seed", "iteration", "rel_change", "residual_norm"], rows)
    written.append("trajectory.csv")

    first = min(result.outcomes, key=lambda o: o.seed)
    written.append(result.problem.write_fitted(out, first.control_points))
    return written


def write_sweep_outputs(report: SweepReport, out_dir) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "sweep.csv",
        ["lambda", "mean_error", "std_error", "is_estimated_optimal"],
        report.rows(),
    )
    return "sweep.csv"
