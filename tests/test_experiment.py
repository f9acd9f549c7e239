import functools
import json
import math
from dataclasses import asdict
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpia.curve
import rpia.surface
from rpia import assembly, experiment
from rpia.assembly import (
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_matrix,
)
from rpia.basis import BasisSpan
from rpia.config import ExperimentConfig, SweepGrid, load_config
from rpia.datasets import NoiseSpec, add_noise, fit_error
from rpia.errors import InvalidConfig, RankDeficient
from rpia.experiment import (
    build_problem,
    estimate_lambda,
    initial_controls,
    initial_controls_curve,
    run_experiment,
    sample_fitted,
    sweep_lambda,
    write_outputs,
    write_sweep_outputs,
)
from rpia.oracle import (
    COND_LIMIT,
    GramPencil,
    solve_curve_direct,
    solve_surface_direct,
    solve_tensor_normal,
)
from rpia.pointsio import load_grid

from conftest import (
    assert_close_to_scale,
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


@pytest.fixture
def no_data_space_matrix(monkeypatch):
    """Make every builder of a dense collocation or penalty matrix or a stacked
    (m+n) x n system raise, wherever the experiment could reach it. Both
    factors of a direction are spans, and ``difference_matrix`` writes its
    span's dense form, so refusing ``BasisSpan.dense`` refuses both."""
    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"{what} was built")
        return refused

    monkeypatch.setattr(BasisSpan, "dense", refuse("a dense collocation or penalty matrix"))
    for module in (assembly, experiment):
        monkeypatch.setattr(module, "assemble_collocation",
                            refuse("a dense collocation matrix"), raising=False)
        for name in ("augment_curve", "augment_surface"):
            monkeypatch.setattr(module, name, refuse("a stacked (m+n) x n system"),
                                raising=False)


def test_estimate_and_direct_paths_form_no_data_space_matrix(no_data_space_matrix, monkeypatch):
    # The estimate, the reference solve, the direct inner solver and the
    # fitted points work on spans and control-space matrices only: no dense
    # collocation, no stacked system, no m x n whitening.
    spectrum_calls = []
    whitened_spectrum = experiment.whitened_spectrum

    def square_factors_only(design_factors, penalty_scales):
        # the factors may come one at a time (a generator), so each is
        # checked as the spectrum takes it, and counted once it has used all
        checked = []

        def each_checked():
            for factor in design_factors:
                assert factor.shape[0] == factor.shape[1], "data-space factor"
                checked.append(factor.shape)
                yield factor
        eigs = whitened_spectrum(each_checked(), penalty_scales)
        spectrum_calls.append(len(checked))
        return eigs

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


def test_randomized_fits_form_no_data_space_matrix(no_data_space_matrix):
    # Fixed-weight fits and randomized inner solves of the weight loop run on
    # control-space normal systems built from the spans.
    configs = [
        load_config(CONFIG_DIR / "rose.yaml").with_overrides(seeds=(0, 1), max_iter=200),
        load_config(CONFIG_DIR / "boy_a40.yaml").with_overrides(seeds=(0,), max_iter=200),
        PINNED_CONFIGS["curve_self_consistent_rpia"]().with_overrides(seeds=(0,)),
        PINNED_CONFIGS["surface_self_consistent_rpia"]().with_overrides(seeds=(0,)),
    ]
    for cfg in configs:
        assert all(o.iterations > 0 for o in run_experiment(cfg).outcomes)


def test_bundles_form_no_data_space_matrix(no_data_space_matrix, tmp_path):
    # Writing the bundle samples the fitted geometry through spans as well.
    for cfg, fitted in ((desk_curve_config(seeds=(0,)), "fitted_curve.csv"),
                        (desk_surface_config(seeds=(0,)), "fitted_surface.csv")):
        result = run_experiment(cfg)
        assert fitted in write_outputs(result, tmp_path / cfg.problem)


def test_the_reference_fit_is_computed_once_per_problem(monkeypatch):
    # The estimate and every seed's fit error read the same fitted points
    # of the clean reference fit.
    reference_fits = []
    fitted = experiment.TensorProblem.fitted

    def counting(self, controls):
        if vars(self).get("reference_controls") is controls:
            reference_fits.append(controls)
        return fitted(self, controls)

    monkeypatch.setattr(experiment.TensorProblem, "fitted", counting)
    result = run_experiment(desk_curve_config(lam="estimate", seeds=(0, 1, 2)))
    assert len(reference_fits) == 1
    problem = result.problem
    assert problem.reference_fitted.tobytes() == fitted(
        problem, problem.reference_controls
    ).tobytes()


def dense_sample(problem, controls, density=5, dtype=float):
    """The fitted geometry at ``density`` times the data density per direction,
    through each direction's dense collocation matrix, in ``dtype``."""
    points = np.asarray(controls, dtype=dtype)
    for axis, direction in enumerate(problem.directions):
        params = np.linspace(0.0, 1.0, density * (problem.clean.shape[axis] - 1) + 1)
        matrix = assemble_collocation(direction.knots, params).astype(dtype)
        points = np.moveaxis(np.tensordot(matrix, points, axes=(1, axis)), 0, axis)
    return points


def penalized_fits(name):
    """The problem of a shipped config, and the clean reference fit followed by
    each seed's direct fit: at the config's weight, or, for a self-consistent
    config, at the weight the seed's iteration converged to."""
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    if cfg.lam == "self-consistent":
        result = run_experiment(cfg)
        problem = result.problem
        fits = [outcome.control_points for outcome in result.outcomes]
    else:
        problem = build_problem(cfg)
        fits = [problem.solve_direct(add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, seed)),
                                     cfg.lam)
                for seed in cfg.seeds]
    return problem, [problem.reference_controls] + fits


SHIPPED_FITS = ["rose", "blob", "boy_a40", "boy_a100",
                "rose_adaptive", "blob_adaptive", "boy_a40_adaptive", "boy_a100_adaptive"]


@pytest.mark.parametrize("name", SHIPPED_FITS)
def test_sampled_geometry_matches_the_dense_product(name):
    # The samples are rounded once from extended-precision sums, where the
    # dense product went through BLAS: they agree to 4e-16 of the coordinate
    # scale on the clean reference fit and every seed's penalized fit.
    problem, fits = penalized_fits(name)
    for controls in fits:
        _, points = sample_fitted(problem, controls)
        assert_close_to_scale(points, dense_sample(problem, controls), 4e-16)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="long double is no wider than double on this platform")
@pytest.mark.parametrize("name", ["rose", "boy_a40_adaptive"])
def test_sampled_geometry_is_rounded_once(name):
    # Each sampled coordinate is the extended-precision product rounded to
    # double: within half an ulp of it, plus the round-off of the sums and of
    # the reference, each at most ten roundings of 2**-64 of the scale.
    problem, fits = penalized_fits(name)
    for controls in fits:
        _, points = sample_fitted(problem, controls)
        exact = dense_sample(problem, controls, dtype=np.longdouble)
        error = np.abs(points - exact)
        bound = np.spacing(np.abs(exact.astype(float))) / 2 + 2e-18 * np.max(np.abs(exact))
        assert np.all(error <= bound)


@pytest.mark.parametrize("name, bound_mib", [("rose", 0.5), ("boy_a40", 2.45)])
def test_sampling_the_fitted_geometry_stays_small(name, bound_mib):
    # Python-traced peak of one sampling. Through a dense collocation matrix
    # per direction rose's read 4.40 MiB; boy_a40's 301 x 301 x 3 output
    # alone is 2.07 MiB, and an einsum over gathered runs read 11.0 MiB.
    problem = build_problem(load_config(CONFIG_DIR / f"{name}.yaml"))
    controls = problem.reference_controls
    tracemalloc.start()
    try:
        sample_fitted(problem, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_estimating_the_weight_stays_small():
    # Python-traced peak of spectrum-large's estimate (rose, m = 20000,
    # n_ctrl = 400): the design gram, the whitened matrix and the SVD's copy
    # of it are 3.7 MiB. With the Cholesky factor, the sine basis and the
    # basis's integer phases also alive, and the gate's eigensolve, it read
    # 6.26 MiB.
    cfg = load_config(CONFIG_DIR / "rose.yaml").with_overrides(m=20000, n_ctrl=400)
    problem = build_problem(cfg)
    tracemalloc.start()
    try:
        estimate_lambda(problem, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_the_penalty_norm_stays_small_at_two_thousand_controls():
    # Python-traced peak of the first penalty norm at rose m = 20000,
    # n_ctrl = 2000, the penalty's span included: the dense 2001 x 2001
    # difference matrix and its tensordot read 30.6 MiB.
    problem = build_problem(
        load_config(CONFIG_DIR / "rose.yaml").with_overrides(m=20000, n_ctrl=2000)
    )
    controls = np.random.default_rng(0).standard_normal((problem.n_controls, 2))
    tracemalloc.start()
    try:
        problem.penalty_norm2(controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIG_DIR.glob("*.yaml")))
def test_cheap_gate_ranges_bracket_the_eigenvalues(name):
    # Each direction's gate reads O(n) bounds: they hold the design and
    # penalty grams' extreme eigenvalues, and the design's low end stays
    # within 25x of a_min, far inside the condition limit.
    for direction in build_problem(load_config(CONFIG_DIR / f"{name}.yaml")).directions:
        pencil = direction.normal
        for (low, high), gram in ((pencil._design_range, direction.design_gram),
                                  (pencil._penalty_range, pencil.penalty)):
            eigs = np.linalg.eigvalsh(gram)
            assert 0.0 < low <= eigs[0] and eigs[-1] <= high
        assert pencil._design_range[0] >= np.linalg.eigvalsh(direction.design_gram)[0] / 25


def test_the_gate_runs_no_eigensolver(monkeypatch):
    # The estimate, its reference solve and a direct solve at the estimated
    # weight pass the condition gate on the cheap ranges alone.
    def refused(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    for name in ("rose", "boy_a40"):
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        problem = build_problem(cfg)
        lam, _ = estimate_lambda(problem, cfg)
        noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, 0))
        assert np.isfinite(problem.solve_direct(noisy, lam)).all()


def test_the_divergence_guard_is_finite_at_two_thousand_controls():
    # Widened by n eps |G^T G|, the eigensolver's range of the penalty gram
    # reached below 0 at rose n_ctrl = 2000 (penalty_scale 1600), and the
    # weight loop's guard read inf; the closed form's low end is 1.54e-5.
    cfg = load_config(CONFIG_DIR / "rose.yaml").with_overrides(m=20000, n_ctrl=2000)
    pencil = build_problem(cfg).directions[0].normal
    assert pencil.condition(0) <= COND_LIMIT
    assert math.isfinite(pencil.all_penalty_weight())


BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"


@pytest.mark.full_scale
@pytest.mark.parametrize("workload, name", [("rose-fit", "rose"), ("boy-fit", "boy_a40")])
def test_benchmark_pool_seeds_keep_their_recorded_fits(workload, name):
    # The benchmark's output check (perfbench/check.py) on every noise seed
    # of the workload's pool: exact iteration counts, and fit errors to its
    # relative tolerance of 1e-6.
    recorded = json.loads(BASELINE.read_text())["workloads"][workload]["per_seed"]
    seeds = tuple(sorted(int(seed) for seed in recorded))
    cfg = load_config(CONFIG_DIR / f"{name}.yaml").with_overrides(
        seeds=seeds, trajectory_stride=0
    )
    for outcome in run_experiment(cfg).outcomes:
        want = recorded[str(outcome.seed)]
        assert outcome.iterations == want["iterations"], f"seed {outcome.seed}"
        npt.assert_allclose(outcome.fit_err, want["fit_error"], rtol=1e-6)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_reads_the_frozen_problem_attributes(monkeypatch):
    # The benchmark computes every run's direct-solve gaps from these problem
    # attributes (perfbench/invocation.py): a missing or changed one would
    # otherwise show only as a failed benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from invocation import direct_gaps

    names = {"curve": [("design", "penalty")],
             "surface": [("design_u", "penalty_u"), ("design_v", "penalty_v")]}
    for cfg in (desk_curve_config(seeds=(0, 1)), desk_surface_config(seeds=(0,))):
        result = run_experiment(cfg)
        problem = result.problem
        # the stacked route over the frozen attributes agrees with the
        # problem's own control-space direct solve
        want = []
        for outcome in result.outcomes:
            noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, outcome.seed))
            want.append(_relative_gap(outcome.control_points,
                                      problem.solve_direct(noisy, outcome.lam)))
        npt.assert_allclose(direct_gaps(result), want, rtol=1e-8)
        for (design, penalty), direction in zip(names[cfg.problem], problem.directions):
            npt.assert_array_equal(
                getattr(problem, design), assemble_collocation(direction.knots, direction.params)
            )
            npt.assert_array_equal(
                getattr(problem, penalty),
                difference_matrix(direction.basis.n_basis, cfg.penalty_scale),
            )


@pytest.mark.parametrize("make, kind", [(desk_curve_config, "curve"),
                                        (desk_surface_config, "surface")])
def test_benchmark_sees_every_randomized_fit(monkeypatch, make, kind):
    # The benchmark times the solvers by wrapping rpia.curve.run and
    # rpia.surface.run (perfbench/tracer.py): a fit that reached the kernel
    # some other way would leave its curve.* or surface.* layer reading 0.
    calls = {"curve": [], "surface": []}
    for name, module in (("curve", rpia.curve), ("surface", rpia.surface)):
        def recording(*args, _run=module.run, _calls=calls[name], **kwargs):
            result = _run(*args, **kwargs)
            _calls.append(result.iterations)
            return result
        monkeypatch.setattr(module, "run", recording)
    cfg = make(max_iter=50)
    outcomes = run_experiment(cfg).outcomes
    assert calls[kind] == [o.iterations for o in outcomes] and len(outcomes) == len(cfg.seeds)
    assert calls["surface" if kind == "curve" else "curve"] == []


@pytest.mark.parametrize("lam", [1e-6, "self-consistent"])
def test_benchmark_sees_one_seed_call_per_seed(monkeypatch, lam):
    # The benchmark splits set-up from seed time at the first call of
    # rpia.experiment.run_seed (perfbench/invocation.py), which it wraps as a
    # module attribute: every seed of a run, fixed or self-consistent, must
    # reach it there, once.
    calls = []
    run_seed = experiment.run_seed

    def recording(problem, cfg, lam_choice, seed, alpha=None):
        calls.append((seed, lam_choice))
        return run_seed(problem, cfg, lam_choice, seed, alpha)

    monkeypatch.setattr(experiment, "run_seed", recording)
    cfg = desk_curve_config(lam=lam, seeds=(2, 0, 1), penalty_scale=20.0)
    outcomes = run_experiment(cfg).outcomes
    assert calls == [(seed, lam) for seed in cfg.seeds]
    assert [o.seed for o in outcomes] == list(cfg.seeds)


def test_direct_self_consistent_seed_reports_a_direct_stop():
    # The direct map returns its controls with a FitResult, as the randomized
    # map does, so run_seed records both alike: no iterations, no samples.
    cfg = desk_curve_config(lam="self-consistent", seeds=(0,), penalty_scale=20.0)
    problem = build_problem(cfg)
    controls, result = problem.direct_solver(problem.clean)(1e-6)
    assert result.control_points is controls
    assert (result.iterations, result.converged, result.stop_reason) == (0, True, "direct")
    alpha = problem.spectrum(cfg.head_count).alpha
    outcome = experiment.run_seed(problem, cfg, "self-consistent", 0, alpha)
    assert outcome.stop_reason == "direct"
    assert outcome.converged is True
    assert outcome.trajectory == ()
    assert len(outcome.lambda_iterates) >= 2


@pytest.mark.parametrize("seed", [0, 7])
def test_noise_and_solver_streams(seed):
    # The noise draw seeds Philox through a SeedSequence, so its key is not
    # the seed; the solver keys Philox with the seed itself and jumps it once.
    noise = np.random.Philox(seed).state["state"]
    npt.assert_array_equal(
        noise["key"], np.random.Philox(np.random.SeedSequence(seed)).state["state"]["key"]
    )
    assert not np.array_equal(noise["key"], [seed, 0])
    draw = np.random.Generator(np.random.Philox(seed)).standard_normal((6, 2))
    npt.assert_array_equal(add_noise(np.zeros((6, 2)), NoiseSpec(1.0, seed)),
                           draw / np.linalg.norm(draw))
    solver = experiment.solver_rng(seed).bit_generator.state["state"]
    jumped = np.random.Philox(key=seed).jumped(1).state["state"]
    npt.assert_array_equal(solver["key"], [seed, 0])
    npt.assert_array_equal(solver["counter"], jumped["counter"])
    first_noise = np.random.Generator(np.random.Philox(seed)).random(4)
    assert not np.array_equal(experiment.solver_rng(seed).random(4), first_noise)


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
        assert curve.directions[0].normal.condition(lam) <= 1e10
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
        # the refusal names the direction that fails the gate, either one
        u, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        ill = u @ np.diag([1.0, 1e-2, 1e-4, 1e-7])
        fine = rng.standard_normal((6, 3))
        for named, designs in (("u", [ill, fine]), ("v", [fine, ill])):
            problem = surface_problem(*designs, 1.0)
            data = rng.standard_normal((len(designs[0]), len(designs[1]), 3))
            with pytest.raises(RankDeficient, match=(
                rf"the normal matrix of direction {named} is numerically rank deficient at "
                r"weight 0: condition bound \S+ exceeds 1e\+12, 12 data points for 4 controls"
            )):
                problem.solve_direct(data, 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("make", [desk_curve_config, desk_surface_config])
    def test_rejects_bad_weight(self, make, lam):
        problem = build_problem(make())
        with pytest.raises(InvalidConfig, match="lam"):
            problem.solve_direct(problem.clean, lam)


def kron_all(matrices):
    """The dense matrix of ``matrices[i]`` applied along axis ``i`` of a tensor,
    acting on its column-major ``vec``: ``A`` for one, ``kron(B, A)`` for two."""
    return functools.reduce(lambda acc, matrix: np.kron(matrix, acc), matrices)


def vec(tensor):
    """Column-major ``vec`` of each coordinate slice of a tensor: (size, ncoord)."""
    return tensor.reshape(-1, tensor.shape[-1], order="F")


def refined_solve(matrix, rhs):
    """``matrix^-1 rhs`` for a well-posed system, accurate to near double
    precision whatever its condition: double LU solves refined against residuals
    taken in extended precision. A plain double solve of a Kronecker normal
    matrix (condition up to ~4e7 at weight 100) errs by up to ~3e-10 relative,
    while the axis-by-axis solves stay within ~1e-13 of this reference."""
    wide = np.asarray(matrix, dtype=np.longdouble)
    rhs = np.asarray(rhs, dtype=np.longdouble)
    narrow = wide.astype(float)
    solution = np.linalg.solve(narrow, rhs.astype(float)).astype(np.longdouble)
    for _ in range(3):
        solution += np.linalg.solve(narrow, (rhs - wide @ solution).astype(float))
    return solution.astype(float)


class TestTensorProblem:
    """The one problem over one direction (a curve) or two (a surface),
    against dense Kronecker references."""

    @settings(max_examples=60, deadline=None)
    @given(designs=st.lists(banded_designs(), min_size=1, max_size=2),
           scale=st.floats(0.5, 50.0), lam=st.sampled_from([0.0, 1e-6, 0.3, 100.0]),
           ncoord=st.sampled_from([1, 3]), blank=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_operations_match_dense_kronecker(self, designs, scale, lam, ncoord, blank, seed):
        rng = np.random.default_rng(seed)
        if blank:
            # an empty column in the last direction leaves its normal matrix
            # singular at weight 0, so the condition gate fails
            designs[-1][:, rng.integers(designs[-1].shape[1])] = 0.0
            lam = 0.0
        make = curve_problem if len(designs) == 1 else surface_problem
        problem = make(*designs, scale)
        penalties = [difference_matrix(design.shape[1], scale) for design in designs]
        data = rng.standard_normal(tuple(d.shape[0] for d in designs) + (ncoord,))
        controls = rng.standard_normal(tuple(d.shape[1] for d in designs) + (ncoord,))
        design = kron_all(designs)

        q, rhs = problem.right_hand_side(data)
        npt.assert_array_equal(q, data)
        assert_close_to_scale(vec(rhs), design.T @ vec(data))
        if ncoord == 1:
            npt.assert_array_equal(problem.right_hand_side(data[..., 0])[1], rhs)
        assert_close_to_scale(vec(problem.fitted(controls)), design @ vec(controls))

        # each direction's penalty along its axis, the other designs along theirs
        terms = [
            kron_all([penalties[i] if j == i else d for j, d in enumerate(designs)])
            for i in range(len(designs))
        ]
        want = sum(np.sum((term @ vec(controls)) ** 2) for term in terms) / problem.n_controls
        npt.assert_allclose(problem.penalty_norm2(controls), want, rtol=1e-12)

        pencils = [GramPencil(d.T @ d, g.T @ g) for d, g in zip(designs, penalties)]
        # the Kronecker products in extended precision, so the reference
        # system is the one the axis-by-axis solves hold
        normal = kron_all([pencil.matrix(lam).astype(np.longdouble) for pencil in pencils])
        solution, cond, failed = solve_tensor_normal(pencils, rhs, lam)
        if blank:
            assert solution is None and not cond <= 1e12
            assert failed == min(
                axis for axis, pencil in enumerate(pencils) if not pencil.condition(lam) <= 1e12
            )
            # a surface names the direction that failed; a curve's stacked
            # least-squares fallback finds the rank deficiency itself
            named = f"direction {'uv'[failed]}" if len(designs) == 2 else "rank"
            with pytest.raises(RankDeficient, match=named):
                problem.solve_direct(data, lam)
            return
        assert failed is None
        assert cond == max(pencil.condition(lam) for pencil in pencils)
        want = refined_solve(normal, vec(rhs))
        assert _relative_gap(vec(solution), want) <= 1e-10
        wide_design = kron_all([d.astype(np.longdouble) for d in designs])
        want = refined_solve(normal, wide_design.T @ vec(data).astype(np.longdouble))
        assert _relative_gap(vec(problem.solve_direct(data, lam)), want) <= 1e-10

    @pytest.mark.parametrize("axis, named", [(0, "direction u"), (1, "direction v")])
    def test_singular_design_gram_names_its_direction(self, axis, named):
        designs = [collocation_design(12, 4), collocation_design(10, 3)]
        designs[axis][:, 2] = 0.0
        rows, cols = designs[axis].shape
        with pytest.raises(RankDeficient, match=(
            f"design gram of {named} is singular: {rows} data points for {cols} controls"
        )):
            surface_problem(*designs, 1.0).spectrum(3)


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
        controls = initial_controls(grid, [2, 3])
        npt.assert_array_equal(controls, grid[np.ix_([0, 2, 4], [0, 2, 4, 6])])


class TestRunExperiment:
    def test_report_is_reproducible_apart_from_wall_time(self):
        cfg = desk_curve_config()
        first = asdict(run_experiment(cfg).report)
        second = asdict(run_experiment(cfg).report)

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
        assert set(report["per_seed"][0]) == SEED_SCALARS | {"lambda_trajectory"}
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
        # the table reads only fit errors, so no fit pays for trajectory
        # samples; each seed's one weight-to-fit map serves every weight
        strides = []
        solver = experiment.CurveProblem.randomized_solver

        def recording(self, data, cfg, seed, stride):
            strides.append(stride)
            return solver(self, data, cfg, seed, stride)

        monkeypatch.setattr(experiment.CurveProblem, "randomized_solver", recording)
        sweep_lambda(desk_curve_config(lam=SweepGrid(1e-8, 1e-5, 2), seeds=(0, 1)))
        assert strides == [0, 0]


# The keys of a per-seed entry in report.json: the seed's scalars only. Its
# trajectory samples are in trajectory.csv alone.
SEED_SCALARS = {
    "seed", "lambda", "fit_error", "iterations", "converged", "stop_reason", "wall_time"
}


def assert_one_copy_of_the_samples(result, out_dir):
    """Each per-seed entry of report.json holds the seed's scalars, and
    trajectory.csv every sample of every seed, in seed order."""
    report = json.loads((out_dir / "report.json").read_text())
    for entry in report["per_seed"]:
        assert set(entry) == SEED_SCALARS
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "seed,iteration,rel_change,residual_norm"
    rows = [line.split(",") for line in lines[1:]]
    expected = [
        (outcome.seed, sample.iteration)
        for outcome in result.outcomes for sample in outcome.trajectory
    ]
    assert [(int(seed), int(iteration)) for seed, iteration, *_ in rows] == expected
    assert {seed for seed, _ in expected} == set(result.config.seeds)


class TestOutputs:
    def test_curve_bundle(self, tmp_path):
        result = run_experiment(desk_curve_config(seeds=(0, 1)))
        files = write_outputs(result, tmp_path)
        assert set(files) == {
            "report.json", "summary.txt", "trajectory.csv", "fitted_curve.csv"
        }
        text = (tmp_path / "report.json").read_text()
        assert text == json.dumps(asdict(result.report), sort_keys=True, indent=2) + "\n"
        assert json.loads(text)["lambda_used"] == 1e-6
        fitted = np.loadtxt(tmp_path / "fitted_curve.csv", delimiter=",", skiprows=1)
        assert fitted.shape == (5 * 120 + 1, 3)  # param, x, y
        assert_one_copy_of_the_samples(result, tmp_path)

    def test_fitted_curve_sampling_density(self):
        result = run_experiment(desk_curve_config(seeds=(0,)))
        [dense], points = sample_fitted(result.problem, result.outcomes[0].control_points)
        assert dense.size == 5 * 120 + 1
        assert points.shape == (dense.size, 2)

    def test_surface_bundle(self, tmp_path):
        result = run_experiment(desk_surface_config(seeds=(0, 1)))
        files = write_outputs(result, tmp_path)
        assert "fitted_surface.csv" in files
        grid = load_grid(tmp_path / "fitted_surface.csv")
        assert grid.shape == (5 * 14 + 1, 5 * 12 + 1, 3)
        assert_one_copy_of_the_samples(result, tmp_path)


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
        [dense], points = sample_fitted(result.problem, first.control_points)
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
        _, sampled = sample_fitted(result.problem, result.outcomes[0].control_points)
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
        lines = (tmp_path / "sweep.csv").read_bytes().split(b"\r\n")[1:-1]
        flags = [line.rsplit(b",", 1)[1] for line in lines]
        assert flags == [b"0", b"0", b"0", b"1"]  # the integer column, as %s wrote it

    def test_empty_trajectory_writes_the_header_only(self, tmp_path):
        result = run_experiment(desk_curve_config(seeds=(0,), trajectory_stride=0))
        write_outputs(result, tmp_path)
        assert (tmp_path / "trajectory.csv").read_bytes() == csv_writer_bytes(
            ["seed", "iteration", "rel_change", "residual_norm"], []
        )
