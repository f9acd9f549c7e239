"""Experiment orchestration: data, weight selection, multi-seed fits, reports.

A run proceeds: generate or load the geometry, parametrize the clean data,
evaluate the collocation (as spans) once, pick the smoothing weight (fixed,
rule-estimated, or self-consistent per seed), fit each seed's noisy draw
independently, and aggregate the relative fit errors.

Randomness bookkeeping: the noise draw for seed ``s`` uses ``Philox(s)``,
whose key numpy derives from ``s`` through a ``SeedSequence``; the solver's
block draws use ``Philox(key=s)``, the key ``s`` itself, jumped once (moved
on as if 2**128 numbers had been drawn). The two are different streams, and
their first draws differ. Everything downstream is a pure function of the
config, which is what makes report files byte-reproducible.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import curve as curve_solver
from . import surface as surface_solver
from .assembly import (
    NormalSystem,
    augment_curve,
    difference_span,
    gram_partition,
    require_finite,
    require_weight,
)
from .basis import (
    APPLY_CHUNK_BYTES,
    BasisSpan,
    KnotVector,
    build_knots,
    chord_length_params,
    eval_basis,
    surface_params,
)
from .config import ExperimentConfig, SweepGrid
from .datasets import SAMPLERS, NoiseSpec, add_noise, fit_error, generate
from .driver import FitResult, StoppingRule
from .errors import InvalidConfig, OutOfRange, RankDeficient
from .oracle import (
    COND_LIMIT,
    GramPencil,
    band_eigen_range,
    difference_gram_range,
    solve_curve_direct,
    solve_tensor_normal,
)
from .pointsio import Table, load_grid, load_points, save_grid, write_csv
from .regparam import (
    NoiseModel,
    optimal_lambda,
    self_consistent,
    spectral_decay_from_eigenvalues,
    whitened_spectrum,
)


def solver_rng(seed: int) -> np.random.Generator:
    """Block-draw stream for one fit: Philox keyed by the seed itself, jumped once."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(1))


def initial_controls(data: np.ndarray, bounds) -> np.ndarray:
    """Seed every control point from the data, one floor-spaced subsample per
    axis: with ``n = bounds[axis]`` (``n + 1`` controls) and ``m + 1`` data
    points along the axis, the indices ``floor(m * i / n)`` for ``i = 0..n``."""
    picks = [
        (m * np.arange(n + 1)) // n for m, n in zip(np.subtract(data.shape, 1), bounds)
    ]
    return data[np.ix_(*picks)]


def initial_controls_curve(data: np.ndarray, n_ctrl: int) -> np.ndarray:
    """:func:`initial_controls` for a curve with ``n_ctrl + 1`` control points."""
    return initial_controls(data, [n_ctrl])


# A fit is the tensor product of one curve fit per parameter direction: a
# curve has one direction, a surface two (u along array axis 0, v along axis
# 1), and a trailing axis holds the point coordinates. The normal matrix is
# ``kron(Kv, Ku)``, so every operation below is one direction's matrix
# applied along that direction's axis, and the experiment code never asks
# which kind of problem it holds (Currie, Durban & Eilers, JRSS B 68, 2006).
# The methods reach library functions through this module's globals at call
# time, so replacing a module attribute (to trace or to stub a layer) reaches
# every call.
#
# Each direction keeps its collocation ``A`` and its penalty ``G`` as spans
# (``eval_basis``, ``difference_span``), and one set of span products gives
# the grams, the right-hand sides, the fitted points and the penalty norms.
# The spectrum (from the design grams' Cholesky factors), every direct solve
# (``numpy.linalg``, gated by each direction's ``GramPencil``) and every
# randomized fit (on a control-space normal system) work on n x n matrices.
# The gate reads O(n) bounds from the band of ``A^T A`` and the closed-form
# spectrum of the penalty, so at weight 0 no eigensolver runs and ``G^T G``
# is not formed. No dense ``A`` or ``G`` is kept; the problems' ``design*``
# and ``penalty*`` attributes write them on each read.


@dataclass(frozen=True)
class Direction:
    """One parameter direction of a fit: its collocation and difference penalty."""

    params: np.ndarray
    knots: KnotVector
    basis: BasisSpan                         # A, the collocation at params
    penalty_scale: float                     # s in G = s tridiag(1, -2, 1)

    @cached_property
    def penalty_span(self) -> BasisSpan:     # G
        return difference_span(self.basis.n_basis, self.penalty_scale)

    @cached_property
    def design_gram(self) -> np.ndarray:
        """``A^T A``."""
        return self.basis.gram()

    @cached_property
    def normal(self) -> GramPencil:
        """``A^T A + lam G^T G`` at any weight, with its condition gate on
        cheap eigenvalue ranges (:class:`_DirectionPencil`)."""
        return _DirectionPencil(self)


class _DirectionPencil(GramPencil):
    """A direction's pencil, gated on bounds that cost O(n): the design
    gram's from its band (:func:`~rpia.oracle.band_eigen_range`, ``degree``
    diagonals on either side), the penalty gram's in closed form
    (:func:`~rpia.oracle.difference_gram_range`). ``G^T G`` is formed when a
    positive weight first asks for a normal matrix, and the eigensolver runs
    only where a bound exceeds the limit."""

    def __init__(self, direction: Direction):
        self.design = direction.design_gram
        self.direction = direction

    @cached_property
    def penalty(self) -> np.ndarray:
        """``G^T G``, refused when it leaves the floating-point range."""
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.direction.penalty_span.gram()
        if not np.isfinite(gram).all():
            raise OutOfRange(
                f"penalty_scale {self.direction.penalty_scale:g} puts the penalty gram "
                "outside the floating-point range"
            )
        return gram

    @cached_property
    def _design_range(self) -> np.ndarray:
        return band_eigen_range(self.design, self.direction.basis.values.shape[1] - 1)

    @cached_property
    def _penalty_range(self) -> np.ndarray:
        return difference_gram_range(self.direction.basis.n_basis, self.direction.penalty_scale)


@dataclass(frozen=True)
class TensorProblem:
    """A penalized tensor-product fit over one direction (a curve) or two (a surface).

    The subclasses add the curve's fallback for an ill-conditioned normal
    matrix and the fitted-geometry file.
    """

    clean: np.ndarray
    directions: tuple[Direction, ...]

    @cached_property
    def reference_controls(self) -> np.ndarray:
        """The unpenalized least-squares fit of the clean data."""
        return self.solve_direct(self.clean, 0.0)

    @cached_property
    def reference_fitted(self) -> np.ndarray:
        """The reference controls' fitted points: what every fit error is measured against."""
        return self.fitted(self.reference_controls)

    @property
    def n_controls(self) -> int:
        return math.prod(d.basis.n_basis for d in self.directions)

    def right_hand_side(self, data) -> tuple[np.ndarray, np.ndarray]:
        """The data as a float array with a coordinate axis, and ``A^T q`` (a
        surface: ``A^T Q B``), which every solve for it reads."""
        q = np.asarray(data, dtype=float)
        require_finite(q, "data")
        if q.ndim == len(self.directions):
            q = q[..., None]
        rhs = q
        for axis, direction in enumerate(self.directions):
            rhs = direction.basis.apply_transpose(rhs, axis=axis)
        return q, rhs

    def fitted(self, controls) -> np.ndarray:
        """``A P`` (a surface: ``A P B^T``) for every coordinate."""
        points = controls
        for axis, direction in enumerate(self.directions):
            points = direction.basis.apply(points, axis=axis)
        return points

    def penalty_norm2(self, controls) -> float:
        """Count-normalized sum, over the directions, of the squared norm of the
        controls with that direction's penalty along its axis and the other
        directions' designs along theirs: ``|G P|^2`` for a curve,
        ``|Lu P B^T|^2 + |A P Lv^T|^2`` for a surface, over all coordinates.

        Only singly weighted penalty terms count: a surface's doubly weighted
        ``lam**2`` term ``|Lu P Lv^T|^2`` is dropped, so the self-consistent
        balance has no weight on its right-hand side.
        """
        total = 0.0
        for axis, direction in enumerate(self.directions):
            term = direction.penalty_span.apply(controls, axis=axis)
            for other, design in enumerate(self.directions):
                if other != axis:
                    term = design.basis.apply(term, axis=other)
            total += float(np.sum(term**2))
        return total / self.n_controls

    def _normal_matrices(self, lam: float) -> list:
        """Each direction's normal matrix at weight ``lam``, ``[K]`` or ``[Ku, Kv]``.

        Refused unless the fit's normal matrix, ``K`` or ``kron(Kv, Ku)``, has a
        finite trace (``tr Ku tr Kv``): the sum of the solver's selection weights,
        and a bound on every entry of a positive semidefinite matrix.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            matrices = [direction.normal.matrix(lam) for direction in self.directions]
            trace = math.prod(float(np.trace(matrix)) for matrix in matrices)
        if not math.isfinite(trace):
            scale = max(direction.penalty_scale for direction in self.directions)
            raise OutOfRange(
                f"weight {lam:g} with penalty_scale {scale:g} puts the normal "
                "matrix outside the floating-point range"
            )
        return matrices

    def randomized_solver(self, data, cfg: ExperimentConfig, seed: int, stride: int):
        """The randomized solver's weight-to-fit map for one data set: ``lam`` to
        (controls, result) on the normal system at ``lam``, starting from
        controls seeded by the data. ``A^T q`` and ``|q|^2`` are formed once."""
        q, rhs = self.right_hand_side(data)
        norm_sq = float(np.vdot(q, q))
        start = initial_controls(q, [d.basis.n_basis - 1 for d in self.directions])
        block_sizes = (cfg.block_size, cfg.block_size_v or cfg.block_size)
        stop = StoppingRule(cfg.tolerance, cfg.max_iter)

        def solve(lam: float):
            grams = self._normal_matrices(require_weight(lam))
            partitions = [gram_partition(g, size) for g, size in zip(grams, block_sizes)]
            design_grams = tuple(direction.design_gram for direction in self.directions)
            system = NormalSystem(tuple(grams), design_grams, rhs, norm_sq)
            # looked up at call time, so a wrapped ``run`` sees every fit
            solver = (curve_solver, surface_solver)[len(self.directions) - 1]
            result = solver.run(
                system, *partitions, start, stop, solver_rng(seed),
                trajectory_stride=stride,
            )
            return result.control_points, result
        return solve

    def direct_solver(self, data):
        """The weight-to-minimizer map for one data set: ``lam`` to (controls,
        result), the controls solving the normal equations at ``lam``, one
        direction's solve per axis against ``A^T q`` (or ``A^T Q B``), which is
        formed once. A direct solve always meets its equations: its result
        stops with ``"direct"`` after no iterations.

        A normal matrix that fails its condition gate goes to
        :meth:`_ill_conditioned`, with the failing direction's axis and
        condition bound.
        """
        q, rhs = self.right_hand_side(data)
        pencils = [direction.normal for direction in self.directions]

        def solve(lam: float):
            lam = require_weight(lam)
            solution, cond, failed = solve_tensor_normal(pencils, rhs, lam)
            if solution is None:
                solution = self._ill_conditioned(q, lam, failed, cond)
            return solution, FitResult(solution, 0, True, "direct")
        return solve

    def _ill_conditioned(self, data: np.ndarray, lam: float, axis: int, cond: float) -> np.ndarray:
        raise self._rank_deficient(lam, axis, cond)

    def _rank_deficient(self, lam: float, axis: int, cond: float) -> RankDeficient:
        return RankDeficient(
            f"the normal matrix of {self._where(axis)} is numerically rank deficient at "
            f"weight {lam:g}: condition bound {cond:.3g} exceeds {COND_LIMIT:g}, "
            f"{self._sizes(axis)}"
        )

    def _where(self, axis: int) -> str:
        return "the curve" if len(self.directions) == 1 else f"direction {'uv'[axis]}"

    def _sizes(self, axis: int) -> str:
        basis = self.directions[axis].basis
        return f"{basis.start.size} data points for {basis.n_basis} controls"

    def solve_direct(self, data, lam: float) -> np.ndarray:
        """Penalized minimizer at one weight (see :meth:`direct_solver`)."""
        return self.direct_solver(data)(lam)[0]

    def spectrum(self, head_count: int):
        """Decay fit of the whitened design spectrum, from each direction's
        Cholesky factor of ``A^T A``.

        A design gram with no Cholesky factor is refused as singular. One
        that has a factor must still pass the solves' condition gate at
        weight 0, so no spectrum is returned where the reference solve is
        refused. The factors go to the spectrum as a generator, each formed
        when it is taken, so the spectrum can release each once it is used.
        The gate runs after the SVD, so an eigensolve in its fallback leaves
        no workspace in the heap under the SVD's.
        """
        factors = (self._design_factor(axis) for axis in range(len(self.directions)))
        eigs = whitened_spectrum(factors, [d.penalty_scale for d in self.directions])
        for axis, direction in enumerate(self.directions):
            cond = direction.normal.condition(0)
            if not cond <= COND_LIMIT:
                raise self._rank_deficient(0.0, axis, cond)
        return spectral_decay_from_eigenvalues(eigs, head_count)

    def _design_factor(self, axis: int) -> np.ndarray:
        """The upper Cholesky factor of direction ``axis``'s design gram."""
        try:
            return np.linalg.cholesky(self.directions[axis].design_gram, upper=True)
        except np.linalg.LinAlgError:
            raise RankDeficient(
                f"the design gram of {self._where(axis)} is singular: {self._sizes(axis)}"
            ) from None


def _dense_attribute(axis: int, span: str) -> property:
    """The dense form of direction ``axis``'s span ``span``, written on each read."""
    return property(lambda problem: getattr(problem.directions[axis], span).dense())


class CurveProblem(TensorProblem):
    design = _dense_attribute(0, "basis")           # A
    penalty = _dense_attribute(0, "penalty_span")   # G

    def _ill_conditioned(self, data: np.ndarray, lam: float, axis: int, cond: float) -> np.ndarray:
        """The minimizer by the stacked least-squares route of :func:`solve_curve_direct`."""
        system = augment_curve(self.design, self.penalty, data, lam)
        return solve_curve_direct(system).control_points

    def write_fitted(self, out: Path, controls) -> str:
        [dense], points = sample_fitted(self, controls)
        header = ["param"] + ["x", "y", "z"][: points.shape[1]]
        write_csv(out / "fitted_curve.csv", header, Table(dense, *points.T))
        return "fitted_curve.csv"


class SurfaceProblem(TensorProblem):
    design_u = _dense_attribute(0, "basis")             # A
    design_v = _dense_attribute(1, "basis")             # B
    penalty_u = _dense_attribute(0, "penalty_span")     # Lu
    penalty_v = _dense_attribute(1, "penalty_span")     # Lv

    def write_fitted(self, out: Path, controls) -> str:
        _, sampled = sample_fitted(self, controls)
        save_grid(out / "fitted_surface.csv", sampled)
        return "fitted_surface.csv"


def load_dataset(cfg: ExperimentConfig) -> np.ndarray:
    """Clean geometry for a config: generated, or loaded from CSV."""
    if cfg.generator in SAMPLERS:
        return generate(cfg.generator, cfg.m, cfg.p)
    if cfg.problem == "surface":
        return load_grid(cfg.input_path)
    return load_points(cfg.input_path)


def build_problem(cfg: ExperimentConfig) -> TensorProblem:
    """Parametrize the clean data and evaluate the seed-independent matrices.

    Each direction's knots and collocation spans are built alike (no dense
    m x n matrix). The reference controls, the unpenalized least-squares fit
    of the clean data that every reported error is relative to, are solved
    on first use.
    """
    clean = load_dataset(cfg)
    if cfg.problem == "curve":
        kind, params, sizes = CurveProblem, [chord_length_params(clean)], [cfg.n_ctrl]
    else:
        kind, params, sizes = SurfaceProblem, surface_params(clean), [cfg.n_ctrl, cfg.n_ctrl_v]
    directions = []
    for grid, n_ctrl in zip(params, sizes):
        knots = build_knots(grid, n_ctrl)
        directions.append(Direction(grid, knots, eval_basis(knots, grid), cfg.penalty_scale))
    return kind(clean, tuple(directions))


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
    residual = problem.reference_fitted - clean
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
    return fit_error(problem.fitted(controls), problem.reference_fitted)


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


def run_seed(problem, cfg: ExperimentConfig, lam_choice, seed: int, alpha=None) -> SeedOutcome:
    """Fit one noisy draw end to end: at the weight ``lam_choice``, or, for
    ``"self-consistent"``, at the weight the loop settles on for this draw.

    Every fit of the draw goes through its one weight-to-fit map, randomized
    or direct. A self-consistent seed reports its outer iterations and how
    its last inner solve stopped: the randomized solver's stop, or
    ``"direct"``.
    """
    noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, seed))
    start = time.perf_counter()
    adaptive = lam_choice == "self-consistent"
    if adaptive and cfg.inner_solver == "direct":
        fit = problem.direct_solver(noisy)
    else:
        fit = problem.randomized_solver(noisy, cfg, seed, 0 if adaptive else cfg.trajectory_stride)
    results = []                      # each fit's result, latest last

    def solve(lam: float) -> np.ndarray:
        controls, result = fit(lam)
        results.append(result)
        return controls
    if adaptive:
        max_weight = min(direction.normal.all_penalty_weight() for direction in problem.directions)
        sc = self_consistent(
            solve, self_consistent_measure(problem, noisy), problem.n_controls,
            alpha, cfg.eps_lambda, max_weight=max_weight,
        )
        lam, iterations, iterates = sc.lam, sc.outer_iterations, sc.iterates
    else:
        lam, iterates = float(lam_choice), None
        solve(lam)
        iterations = results[-1].iterations
    last = results[-1]                # the seed's fit, in the weight loop too
    controls = last.control_points
    return SeedOutcome(
        seed, lam, _relative_error(problem, controls), iterations, last.converged,
        last.stop_reason, time.perf_counter() - start, controls, last.trajectory, iterates,
    )


def capped_count(outcomes) -> int:
    """How many of the fits stopped at ``max_iter`` before meeting the tolerance."""
    return sum(o.stop_reason == "max_iter" for o in outcomes)


def _aggregate(errors) -> tuple[float, float]:
    # The errors come in seed-sorted order, so the statistics do not depend
    # on the order the seeds were listed in.
    errors = np.asarray(errors)
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


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    problem: TensorProblem
    outcomes: list
    report: FitReport


def _per_seed_entry(outcome: SeedOutcome) -> dict:
    """The seed's scalars and weight iterates; its samples go to trajectory.csv."""
    entry = {
        "seed": outcome.seed,
        "lambda": outcome.lam,
        "fit_error": outcome.fit_err,
        "iterations": outcome.iterations,
        "converged": outcome.converged,
        "stop_reason": outcome.stop_reason,
        "wall_time": outcome.wall_time,
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
    alpha = estimate_info = None
    lam_choice = mode = cfg.lam
    if cfg.lam == "estimate":
        lam_choice, estimate_info = estimate_lambda(problem, cfg)
        alpha = estimate_info["alpha"]
    elif cfg.lam == "self-consistent":
        alpha = problem_spectrum(problem, cfg.head_count).alpha
    else:
        lam_choice, mode = float(cfg.lam), "fixed"
    outcomes = [run_seed(problem, cfg, lam_choice, seed, alpha) for seed in cfg.seeds]
    ordered = sorted(outcomes, key=lambda o: o.seed)
    mean_err, std_err = _aggregate([o.fit_err for o in ordered])
    # One weight serves every seed unless each seed found its own; the mean
    # of equal floats can be an ulp off the weight itself.
    if mode == "self-consistent":
        lambda_used = float(np.mean([o.lam for o in ordered]))
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


def sweep_lambda(cfg: ExperimentConfig) -> tuple[SweepReport, TensorProblem]:
    """The seeds' fit errors at every grid point, plus the rule-estimate row.

    The same seeds (hence the same noise draws) are reused at every grid
    point, so the error curve varies only through the weight: each seed's
    randomized weight-to-fit map, with ``A^T q`` and the start formed once,
    is called at every weight. The table reads only fit errors, so the fits
    sample no trajectory.
    """
    if not isinstance(cfg.lam, SweepGrid):
        raise InvalidConfig("sweep_lambda needs a sweep grid in the lambda field")
    problem = build_problem(cfg)
    lam_est, info = estimate_lambda(problem, cfg)
    fits = [
        problem.randomized_solver(
            add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, seed)), cfg, seed, 0
        )
        for seed in sorted(cfg.seeds)
    ]
    lambdas = [float(v) for v in cfg.lam.values()]
    means, stds = [], []
    capped = 0
    for lam in lambdas + [float(lam_est)]:
        results = [fit(lam)[1] for fit in fits]
        mean_err, std_err = _aggregate(
            [_relative_error(problem, result.control_points) for result in results]
        )
        means.append(mean_err)
        stds.append(std_err)
        capped += capped_count(results)
    report = SweepReport(
        lambdas, means[:-1], stds[:-1], float(lam_est), means[-1], stds[-1], info,
        len(means) * len(fits), capped,
    )
    return report, problem


def sample_fitted(problem: TensorProblem, controls: np.ndarray, density: int = 5):
    """Fitted geometry sampled at ``density`` times the data density per
    direction: the sample parameters of each direction, and the points.

    Each direction's basis is evaluated as spans at its sample parameters and
    applied along its axis, as :meth:`TensorProblem.fitted` applies the
    fit's, so no dense collocation matrix is formed. The sums run in
    ``np.longdouble`` and each coordinate is rounded to double once, so
    where long double is wider than double (x86: a 64-bit significand) a
    sample lies within about half an ulp of the exact product; run-order sums
    in double lie several times further from it. The points are computed in
    blocks of the first direction's samples, each under ``APPLY_CHUNK_BYTES``
    in extended precision, so only the double output is held whole.
    """
    params = [np.linspace(0.0, 1.0, density * (size - 1) + 1)
              for size in problem.clean.shape[: len(problem.directions)]]
    first, *rest = [eval_basis(direction.knots, grid)
                    for direction, grid in zip(problem.directions, params)]
    extended = np.asarray(controls, dtype=np.longdouble)
    points = np.empty(tuple(grid.size for grid in params) + extended.shape[len(params):])
    row_bytes = np.dtype(np.longdouble).itemsize * math.prod(points.shape[1:])
    chunk = max(1, APPLY_CHUNK_BYTES // row_bytes)
    for lo in range(0, points.shape[0], chunk):
        rows = slice(lo, lo + chunk)
        block = BasisSpan(first.start[rows], first.values[rows], first.n_basis).apply(extended)
        for axis, basis in enumerate(rest, start=1):
            block = basis.apply(block, axis=axis)
        points[rows] = block
    return params, points


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


def _non_finite_path(value, path: str):
    """The path below ``path`` of the first non-finite float in ``value``, a
    report's JSON tree, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path} is {value!r}"
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{path}[{k}]", item) for k, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_path(item, where) for where, item in items)), None)


def _non_finite_field(report: dict):
    """Where a report's first non-finite value sits: a seed's field if any
    seed has one, else the report's field; None if every value is finite."""
    for entry in report["per_seed"]:
        found = _non_finite_path(entry, "")
        if found:
            return f"seed {entry['seed']}'s {found}"
    return _non_finite_path(report, "")


def write_outputs(result: ExperimentResult, out_dir) -> list[str]:
    """Write the report bundle; returns the file names written.

    Raises
    ------
    OutOfRange
        If a report value is not finite, which JSON cannot hold; nothing is
        written then.
    """
    report = asdict(result.report)
    where = _non_finite_field(report)
    if where:
        raise OutOfRange(f"the report holds a non-finite value: {where}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    # streamed: json.dumps would hold every chunk of the indented text at once
    with open(out / "report.json", "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2, allow_nan=False)
        handle.write("\n")
    del report                        # not held through the larger writes below
    written.append("report.json")
    (out / "summary.txt").write_text(_summary_text(result))
    written.append("summary.txt")

    # The fitted geometry is written first: on a surface the sampled grid is
    # the write phase's largest array, and the numpy code the table writer
    # pages in would otherwise sit on top of it.
    first = min(result.outcomes, key=lambda o: o.seed)
    fitted = result.problem.write_fitted(out, first.control_points)
    samples = [(o.seed, sample) for o in result.outcomes for sample in o.trajectory]
    table = Table(
        np.array([seed for seed, _ in samples], dtype=int),
        np.array([sample.iteration for _, sample in samples], dtype=int),
        np.array([sample.rel_change for _, sample in samples], dtype=float),
        np.array([sample.residual_norm for _, sample in samples], dtype=float),
    )
    write_csv(out / "trajectory.csv", ["seed", "iteration", "rel_change", "residual_norm"], table)
    written += ["trajectory.csv", fitted]
    return written


def write_sweep_outputs(report: SweepReport, out_dir) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "sweep.csv",
        ["lambda", "mean_error", "std_error", "is_estimated_optimal"],
        Table(*map(np.array, zip(*report.rows()))),
    )
    return "sweep.csv"
