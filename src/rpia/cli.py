"""Command-line front end.

Subcommands mirror the experiment pipeline: ``fit`` runs a configured
multi-seed experiment, ``sweep`` scans a weight grid, ``estimate-lambda``
prints the rule-based weight, ``self-consistent`` runs the prior-free loop,
``spectrum`` dumps the whitened-design spectrum, ``gen-data`` writes example
datasets. A ``--config`` YAML file supplies defaults; flags override.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .config import (
    FILE_KEYS,
    GENERATORS,
    INNER_SOLVERS,
    PROBLEMS,
    SweepGrid,
    config_from_mapping,
    read_config,
)
from .datasets import SAMPLERS, NoiseSpec, add_noise, generate, require_amplitude
from .errors import FittingError, IncompleteGrid, InvalidConfig, ParseError
from .experiment import (
    build_problem,
    capped_count,
    estimate_lambda,
    problem_spectrum,
    run_experiment,
    sweep_lambda,
    write_outputs,
    write_sweep_outputs,
)
from .pointsio import Table, save_grid, save_points, write_csv

_CONFIG_ERRORS = (InvalidConfig,)
_IO_ERRORS = (ParseError, IncompleteGrid, OSError)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map library errors onto the documented exit codes.

    Every library error that is neither a config nor an I/O error is a
    numerical failure.
    """

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _CONFIG_ERRORS as exc:
            _fail(EXIT_CONFIG, str(exc))
        except _IO_ERRORS as exc:
            _fail(EXIT_IO, str(exc))
        except FittingError as exc:
            _fail(EXIT_NUMERICAL, str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _parse_seed_list(raw: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise InvalidConfig(f"cannot parse seed list {raw!r}") from None
    if not seeds:
        raise InvalidConfig(f"seeds must be a nonempty list, got {raw!r}")
    return seeds


_SHARED_OPTIONS = [
    click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                 help="YAML config supplying defaults."),
    click.option("--problem", type=click.Choice(PROBLEMS), default=None),
    click.option("--generator", type=click.Choice(GENERATORS), default=None),
    click.option("--input", "input_path", type=click.Path(), default=None,
                 help="CSV dataset when generator is 'file'."),
    click.option("--m", type=int, default=None, help="Data index bound (m+1 points)."),
    click.option("--p", type=int, default=None, help="Second-direction data bound (surfaces)."),
    click.option("--n-ctrl", type=int, default=None, help="Control index bound (n1)."),
    click.option("--n-ctrl-v", type=int, default=None, help="Second-direction control bound (n2)."),
    click.option("--block-size", type=int, default=None),
    click.option("--noise-amplitude", type=float, default=None),
    click.option("--penalty-scale", type=float, default=None),
    click.option("--tolerance", type=float, default=None),
    click.option("--max-iter", type=int, default=None),
    click.option("--seeds", type=str, default=None, help="Comma-separated seed list."),
    click.option("--head-count", type=int, default=None),
    click.option("--eps-lambda", type=float, default=None),
    click.option("--inner-solver", type=click.Choice(INNER_SOLVERS), default=None),
]


def _with_shared_options(fn):
    for option in reversed(_SHARED_OPTIONS):
        fn = option(fn)
    return fn


def _merged_config(config_path, seeds, **flags):
    """The config file's mapping with the given flags over it, built once, so
    that defaults which follow other fields (the seed list follows the
    problem kind) see the flags too."""
    mapping = read_config(config_path) if config_path is not None else {}
    if seeds is not None:
        flags["seeds"] = _parse_seed_list(seeds)
    mapping.update({FILE_KEYS.get(k, k): v for k, v in flags.items() if v is not None})
    return config_from_mapping(mapping)


def _warn_capped(capped: int, fits: int, max_iter: int) -> None:
    """One stderr line when any randomized fit stopped at its iteration cap."""
    if capped:
        click.echo(
            f"warning: {capped} of {fits} fits stopped at max_iter={max_iter} "
            "before meeting the tolerance",
            err=True,
        )


@click.group()
def main():
    """Noisy B-spline curve and surface fitting with randomized block iteration."""


@main.command()
@_with_shared_options
@click.option("--lambda", "lam", type=str, default=None,
              help="Weight: a number, 'estimate', or 'self-consistent'.")
@click.option("--out", "out_dir", type=click.Path(), default="rpia-out",
              show_default=True, help="Output directory for the report bundle.")
@_guarded
def fit(config_path, seeds, lam, out_dir, **overrides):
    """Run a multi-seed fitting experiment and write the report bundle."""
    cfg = _merged_config(config_path, seeds, lam=lam, **overrides)
    if isinstance(cfg.lam, SweepGrid):
        raise InvalidConfig("the fit command does not take sweep grids; use sweep")
    result = run_experiment(cfg)
    files = write_outputs(result, out_dir)
    _warn_capped(capped_count(result.outcomes), len(result.outcomes), cfg.max_iter)
    report = result.report
    click.echo(
        f"lambda={report.lambda_used:.6e} mean_error={report.mean_fit_error:.6g} "
        f"std={report.std_fit_error:.6g} seeds={len(report.seeds)}"
    )
    click.echo(f"wrote {', '.join(files)} to {out_dir}")


@main.command("sweep")
@_with_shared_options
@click.option("--lo", type=float, default=None, help="Grid lower endpoint.")
@click.option("--hi", type=float, default=None, help="Grid upper endpoint.")
@click.option("--points", type=int, default=None, help="Grid point count.")
@click.option("--out", "out_dir", type=click.Path(), default="rpia-out",
              show_default=True)
@_guarded
def sweep(config_path, seeds, lo, hi, points, out_dir, **overrides):
    """Scan a logarithmic weight grid and write sweep.csv."""
    cfg = _merged_config(config_path, seeds, **overrides)
    grid = cfg.lam if isinstance(cfg.lam, SweepGrid) else None
    if lo is not None or hi is not None or points is not None:
        base = grid or SweepGrid(1e-9, 1e-3, 25)
        grid = SweepGrid(
            lo if lo is not None else base.lo,
            hi if hi is not None else base.hi,
            points if points is not None else base.points,
        )
    if grid is None:
        raise InvalidConfig("sweep needs a grid: config lambda.sweep or --lo/--hi/--points")
    cfg = replace(cfg, lam=grid)
    report, _ = sweep_lambda(cfg)
    name = write_sweep_outputs(report, out_dir)
    _warn_capped(report.capped_fits, report.fits, cfg.max_iter)
    best = int(np.argmin(report.mean_errors))
    click.echo(
        f"estimate lambda={report.lambda_estimate:.6e} "
        f"(mean_error={report.estimate_mean_error:.6g}); "
        f"grid minimum at lambda={report.lambdas[best]:.6e} "
        f"(mean_error={report.mean_errors[best]:.6g})"
    )
    click.echo(f"wrote {name} to {out_dir}")


@main.command("estimate-lambda")
@_with_shared_options
@_guarded
def estimate_lambda_cmd(config_path, seeds, **overrides):
    """Print the rule-estimated weight and its ingredients."""
    cfg = _merged_config(config_path, seeds, **overrides)
    problem = build_problem(cfg)
    lam, info = estimate_lambda(problem, cfg)
    click.echo(f"lambda_estimate = {lam:.6e}")
    for key in ("alpha", "sigma2", "penalty_norm2", "n_controls", "epsilon_norm2"):
        click.echo(f"{key} = {info[key]:.6g}")


@main.command("self-consistent")
@_with_shared_options
@click.option("--out", "out_dir", type=click.Path(), default="rpia-out",
              show_default=True)
@_guarded
def self_consistent_cmd(config_path, seeds, out_dir, **overrides):
    """Run the prior-free weight iteration per seed and write the bundle."""
    cfg = _merged_config(config_path, seeds, **overrides)
    cfg = replace(cfg, lam="self-consistent")
    result = run_experiment(cfg)
    files = write_outputs(result, out_dir)
    _warn_capped(capped_count(result.outcomes), len(result.outcomes), cfg.max_iter)
    report = result.report
    click.echo(
        f"lambda={report.lambda_used:.6e} mean_error={report.mean_fit_error:.6g} "
        f"(alpha={report.spectral_alpha:.4f})"
    )
    click.echo(f"wrote {', '.join(files)} to {out_dir}")


@main.command()
@_with_shared_options
@click.option("--out", "out_dir", type=click.Path(), default="rpia-out",
              show_default=True)
@_guarded
def spectrum(config_path, seeds, out_dir, **overrides):
    """Write the whitened-design spectrum and print the fitted decay rate."""
    cfg = _merged_config(config_path, seeds, **overrides)
    problem = build_problem(cfg)
    decay = problem_spectrum(problem, cfg.head_count)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eigenvalues = decay.eigenvalues
    write_csv(out / "spectrum.csv", ["k", "eigenvalue"],
              Table(np.arange(1, eigenvalues.size + 1), eigenvalues))
    click.echo(
        f"alpha = {decay.alpha:.4f} over {decay.head_count} leading eigenvalues "
        f"(log-log fit rms {decay.fit_residual:.4f})"
    )
    click.echo(f"wrote spectrum.csv to {out_dir}")


@main.command("gen-data")
@click.option("--generator", type=click.Choice(list(SAMPLERS)), required=True)
@click.option("--m", type=int, required=True)
@click.option("--p", type=int, default=None, help="Required for surface generators.")
@click.option("--noise-amplitude", type=float, default=None,
              help="Optionally perturb the sample before writing.")
@click.option("--noise-seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@_guarded
def gen_data(generator, m, p, noise_amplitude, noise_seed, out_path):
    """Write one of the example datasets as CSV."""
    surface = SAMPLERS[generator][0] == "surface"
    if not surface and p is not None:
        raise InvalidConfig(f"--p sizes a surface's second direction; "
                            f"the curve generator {generator!r} cannot take it")
    for flag, size in (("--m", m), ("--p", p if surface else 1)):
        if size is None or size < 1:
            raise InvalidConfig(f"{flag} must be a positive integer, got {size}")
    data = generate(generator, m, p)
    if noise_amplitude is not None:
        require_amplitude("--noise-amplitude", noise_amplitude)
        if noise_seed < 0:
            raise InvalidConfig(f"--noise-seed must be nonnegative, got {noise_seed}")
        data = add_noise(data, NoiseSpec(noise_amplitude, noise_seed))
    (save_grid if surface else save_points)(out_path, data)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
