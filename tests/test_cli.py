import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rpia
from rpia import cli, errors, pointsio
from rpia.cli import main
from rpia.config import load_config
from rpia.datasets import boy_surface, rose_curve
from rpia.experiment import ExperimentResult, FitReport, build_problem, problem_spectrum
from rpia.pointsio import load_points, save_grid, save_points

from conftest import csv_writer_bytes


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

LIBRARY_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.FittingError)),
    key=lambda cls: cls.__name__,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_desk_config(path, **extra):
    lines = [
        "problem: curve",
        "generator: rose",
        "m: 120",
        "n_ctrl: 20",
        "block_size: 5",
        "lambda: 1.0e-6",
        "noise_amplitude: 2.0",
        "penalty_scale: 91.0",
        "max_iter: 300",
        "seeds: [0, 1]",
        "head_count: 15",
    ]
    for key, value in extra.items():
        lines.append(f"{key}: {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGenData:
    def test_rose_csv(self, runner, tmp_path):
        out = tmp_path / "rose.csv"
        result = runner.invoke(main, ["gen-data", "--generator", "rose", "--m", "50", "--out", str(out)])
        assert result.exit_code == 0, result.output
        points = load_points(out)
        assert points.shape == (51, 2)

    def test_boy_requires_p(self, runner, tmp_path):
        out = tmp_path / "boy.csv"
        result = runner.invoke(main, ["gen-data", "--generator", "boy", "--m", "5", "--out", str(out)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, flag", [
        (["--generator", "rose", "--m", "10", "--noise-amplitude", "nan"], "--noise-amplitude"),
        (["--generator", "rose", "--m", "10", "--noise-amplitude", "inf"], "--noise-amplitude"),
        (["--generator", "rose", "--m", "10", "--noise-amplitude", "0"], "--noise-amplitude"),
        (["--generator", "rose", "--m", "10", "--noise-amplitude", "1",
          "--noise-seed", "-1"], "--noise-seed"),
        (["--generator", "rose", "--m", "-1"], "--m"),
        (["--generator", "blob", "--m", "0"], "--m"),
        (["--generator", "boy", "--m", "5", "--p", "0"], "--p"),
        (["--generator", "boy", "--m", "5", "--p", "-1"], "--p"),
        (["--generator", "boy", "--m", "-1", "--p", "5"], "--m"),
        (["--generator", "rose", "--m", "4", "--p", "7"], "--p"),
        (["--generator", "rose", "--m", "10", "--noise-amplitude", "1e155"], "--noise-amplitude"),
    ])
    def test_bad_sizes_and_noise_are_refused(self, runner, tmp_path, args, flag):
        out = tmp_path / "data.csv"
        result = runner.invoke(main, ["gen-data", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ") and flag in result.output
        assert not out.exists()

    def test_noisy_output(self, runner, tmp_path):
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        for path, extra in ((clean, []), (noisy, ["--noise-amplitude", "1.0"])):
            result = runner.invoke(
                main,
                ["gen-data", "--generator", "blob", "--m", "40", "--out", str(path)] + extra,
            )
            assert result.exit_code == 0
        delta = load_points(noisy) - load_points(clean)
        assert abs(np.linalg.norm(delta) - 1.0) < 1e-12


class TestFit:
    def test_fit_bundle(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert report["lambda_mode"] == "fixed"
        assert (out_dir / "fitted_curve.csv").exists()

    def test_flag_overrides(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        out_dir = tmp_path / "out"
        result = runner.invoke(
            main,
            ["fit", "--config", str(cfg), "--lambda", "0", "--seeds", "3",
             "--out", str(out_dir)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert report["lambda_used"] == 0.0
        assert report["seeds"] == [3]

    def test_config_error_exit_code(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("problem: volume\n")
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_non_finite_config_float_exit_code(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml", tolerance=".nan")
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "tolerance" in result.output

    @pytest.mark.parametrize("field, value", [
        ("max_iter", "100.0"), ("m", '"abc"'), ("seeds", '["x"]'), ("seeds", "[true, 2.7]"),
        ("lambda", "true"), ("tolerance", "yes"),
    ])
    def test_wrongly_typed_config_value_exit_code(self, runner, tmp_path, field, value):
        cfg = write_desk_config(tmp_path / "cfg.yaml", **{field: value})
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert field in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seeds", ["-1", "", " , "])
    def test_bad_seed_flag_exit_code(self, runner, tmp_path, seeds):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        result = runner.invoke(
            main, ["fit", "--config", str(cfg), "--seeds", seeds, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "seeds" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_repeated_seed_exit_code(self, runner, tmp_path, how):
        if how == "flag":
            cfg = write_desk_config(tmp_path / "cfg.yaml")
            extra = ["--seeds", "0,0"]
        else:
            cfg = write_desk_config(tmp_path / "cfg.yaml", seeds="[1, 0, 1]")
            extra = []
        result = runner.invoke(
            main, ["fit", "--config", str(cfg), "--out", str(tmp_path / "o")] + extra
        )
        assert result.exit_code == 2
        assert "seeds must not repeat" in result.output
        assert not (tmp_path / "o").exists()

    def test_numerical_error_exit_code(self, runner, tmp_path):
        data = tmp_path / "degenerate.csv"
        data.write_text("x,y\n" + "1.0,1.0\n" * 12)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "problem: curve\ngenerator: file\ninput: " + str(data)
            + "\nm: 11\nn_ctrl: 4\nlambda: 0.0\nseeds: [0]\n"
        )
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 3

    def test_io_error_exit_code(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "problem: curve\ngenerator: file\ninput: "
            + str(tmp_path / "missing.csv")
            + "\nm: 10\nn_ctrl: 4\nlambda: 0.0\nseeds: [0]\n"
        )
        result = runner.invoke(main, ["fit", "--config", str(cfg)])
        assert result.exit_code == 4

    def test_zero_block_size_v_exit_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "fit", "--problem", "surface", "--generator", "boy", "--m", "6", "--p", "5",
            "--n-ctrl", "3", "--n-ctrl-v", "3", "--block-size-v", "0",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "block_size_v" in result.output

    def test_surface_keys_in_a_curve_config_exit_code(self, runner, tmp_path):
        # p, n_ctrl_v and block_size_v size a surface's second direction; a
        # curve fit would drop them, so the config is refused
        cfg = write_desk_config(tmp_path / "cfg.yaml", p=5, n_ctrl_v=9, block_size_v=7)
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error: p " in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, key", [
        ("--p", "p"), ("--n-ctrl-v", "n_ctrl_v"), ("--block-size-v", "block_size_v"),
    ])
    def test_surface_option_on_a_curve_config_exit_code(self, runner, tmp_path, option, key):
        result = runner.invoke(main, [
            "fit", "--config", str(CONFIG_DIR / "rose.yaml"), option, "10",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert f"error: {key} " in result.output

    @pytest.mark.parametrize("error", LIBRARY_ERRORS, ids=lambda cls: cls.__name__)
    def test_every_library_error_maps_to_its_exit_code(self, runner, monkeypatch, error):
        def failing_build(cfg):
            raise error("stubbed failure")

        monkeypatch.setattr(cli, "build_problem", failing_build)
        result = runner.invoke(main, ["estimate-lambda"])
        expected = {errors.InvalidConfig: 2, errors.ParseError: 4, errors.IncompleteGrid: 4}
        assert result.exit_code == expected.get(error, 3)
        assert "error: stubbed failure" in result.output

    @pytest.mark.parametrize("kind", ["curve", "surface"])
    def test_non_finite_input_exit_code(self, runner, tmp_path, kind):
        data = tmp_path / "data.csv"
        if kind == "curve":
            save_points(data, rose_curve(11).points)
            sizes = "m: 11\nn_ctrl: 4\n"
        else:
            save_grid(data, boy_surface(6, 5).grid)
            sizes = "m: 6\np: 5\nn_ctrl: 3\nn_ctrl_v: 3\n"
        lines = data.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1] + ["nan" if kind == "curve" else "inf"])
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"problem: {kind}\ngenerator: file\ninput: {data}\n{sizes}lambda: 0.0\nseeds: [0]\n"
        )
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert result.exit_code == 4
        assert "line 4: non-finite value" in result.output


SMALL_SURFACE = ["--generator", "boy", "--m", "20", "--p", "20", "--n-ctrl", "6",
                 "--n-ctrl-v", "6", "--lambda", "1e-4", "--max-iter", "20"]


class TestConfigMerge:
    """The flags go over the config file's keys before the config is built,
    so the default seed list follows the problem kind the flags set."""

    def fitted_seeds(self, runner, tmp_path, args):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["fit", *args, "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        return json.loads((out_dir / "report.json").read_text())["seeds"]

    def test_surface_from_flags_fits_the_surface_default_seeds(self, runner, tmp_path):
        args = ["--problem", "surface", *SMALL_SURFACE]
        assert self.fitted_seeds(runner, tmp_path, args) == [0, 1, 2]

    def test_curve_config_made_a_surface_fits_the_surface_default_seeds(self, runner, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("problem: curve\ngenerator: rose\nm: 120\nn_ctrl: 20\nlambda: 1.0e-6\n")
        args = ["--config", str(cfg), "--problem", "surface", *SMALL_SURFACE]
        assert self.fitted_seeds(runner, tmp_path, args) == [0, 1, 2]

    @pytest.mark.parametrize("config_seeds, flag, want", [
        (None, "4,5", [4, 5]),
        ("[5]", None, [5]),
        ("[5]", "4,5", [4, 5]),
    ])
    def test_given_seeds_win(self, runner, tmp_path, config_seeds, flag, want):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("problem: curve\ngenerator: rose\n"
                       + (f"seeds: {config_seeds}\n" if config_seeds else ""))
        args = ["--config", str(cfg), "--problem", "surface", *SMALL_SURFACE]
        if flag:
            args += ["--seeds", flag]
        assert self.fitted_seeds(runner, tmp_path, args) == want

    def test_input_and_lambda_flags_override_the_config_file(self, runner, tmp_path):
        # the file's input names no file and its lambda is a number
        data = tmp_path / "rose.csv"
        save_points(data, rose_curve(60).points)
        cfg = write_desk_config(tmp_path / "cfg.yaml", input="missing.csv")
        cfg.write_text(cfg.read_text().replace("generator: rose", "generator: file"))
        args = ["--config", str(cfg), "--input", str(data), "--lambda", "estimate",
                "--seeds", "0"]
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["fit", *args, "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        assert json.loads((out_dir / "report.json").read_text())["lambda_mode"] == "estimate"

    @pytest.mark.parametrize("key", ["input_path", "lam"])
    def test_field_names_are_not_file_keys(self, runner, tmp_path, key):
        # a file key read under two names kept whichever came last, so the
        # file's input_path beat --input and the run failed on a missing file
        data = tmp_path / "rose.csv"
        save_points(data, rose_curve(60).points)
        value = {"input_path": "missing.csv", "lam": "2.0e-6"}[key]
        cfg = write_desk_config(tmp_path / "cfg.yaml", **{key: value})
        cfg.write_text(cfg.read_text().replace("generator: rose", "generator: file"))
        args = ["--config", str(cfg), "--input", str(data), "--seeds", "0"]
        result = runner.invoke(main, ["fit", *args, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"unknown config key '{key}'" in result.output


class TestOtherCommands:
    def test_estimate_lambda(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        result = runner.invoke(main, ["estimate-lambda", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "lambda_estimate" in result.output
        assert "alpha" in result.output

    def test_spectrum(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["spectrum", "--config", str(cfg), "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        lines = (out_dir / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "k,eigenvalue"
        assert len(lines) == 22  # header plus the 21 whitened eigenvalues

    def test_spectrum_table_matches_csv_writer(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["spectrum", "--config", str(cfg), "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        config = load_config(cfg)
        decay = problem_spectrum(build_problem(config), config.head_count)
        rows = [(k + 1, float(v)) for k, v in enumerate(decay.eigenvalues)]
        assert (out_dir / "spectrum.csv").read_bytes() == csv_writer_bytes(
            ["k", "eigenvalue"], rows
        )

    def test_sweep(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        out_dir = tmp_path / "out"
        result = runner.invoke(
            main,
            ["sweep", "--config", str(cfg), "--lo", "1e-8", "--hi", "1e-5",
             "--points", "3", "--seeds", "0", "--out", str(out_dir)],
        )
        assert result.exit_code == 0, result.output
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_self_consistent(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml", penalty_scale=20.0)
        out_dir = tmp_path / "out"
        result = runner.invoke(
            main, ["self-consistent", "--config", str(cfg), "--out", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert report["lambda_mode"] == "self-consistent"
        assert "lambda_trajectory" in report["per_seed"][0]


class TestWriteCsvRowCounts:
    """The benchmark counts ``pointsio.rows_written`` as ``len`` of
    :func:`rpia.pointsio.write_csv`'s third argument; for every table a
    command writes, that must be the file's count of data lines."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # Wrapped as the benchmark's tracer wraps it: every rpia module's
        # name for the function is replaced.
        original = pointsio.write_csv
        calls = []

        def counting(*args, **kwargs):
            original(*args, **kwargs)
            calls.append((Path(args[0]), len(args[2])))

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "rpia" or name.startswith("rpia.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_every_table_counts_its_data_lines(self, runner, tmp_path, calls):
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        quiet = write_desk_config(tmp_path / "quiet.yaml", trajectory_stride=0)
        surface = ["--problem", "surface", "--generator", "boy", "--m", "6", "--p", "5",
                   "--n-ctrl", "3", "--n-ctrl-v", "3", "--max-iter", "200", "--seeds", "0"]
        commands = {
            "curve": ["fit", "--config", str(cfg)],
            "quiet": ["fit", "--config", str(quiet), "--seeds", "0"],
            "surface": ["fit", *surface],
            "sweep": ["sweep", "--config", str(cfg), "--lo", "1e-8", "--hi", "1e-5",
                      "--points", "3", "--seeds", "0"],
            "spectrum": ["spectrum", "--config", str(cfg)],
        }
        for name, command in commands.items():
            result = runner.invoke(main, [*command, "--out", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
        for generator, size in ("rose", ["--m", "30"]), ("boy", ["--m", "6", "--p", "5"]):
            out = str(tmp_path / f"{generator}.csv")
            result = runner.invoke(main, ["gen-data", "--generator", generator, *size, "--out", out])
            assert result.exit_code == 0, result.output
        written = sorted(str(path.relative_to(tmp_path)) for path, _ in calls)
        assert written == sorted([
            "curve/trajectory.csv", "curve/fitted_curve.csv",
            "quiet/trajectory.csv", "quiet/fitted_curve.csv",
            "surface/trajectory.csv", "surface/fitted_surface.csv",
            "sweep/sweep.csv", "spectrum/spectrum.csv", "rose.csv", "boy.csv",
        ])
        for path, rows in calls:
            lines = path.read_bytes().split(b"\r\n")
            assert lines[-1] == b""
            assert rows == len(lines) - 2, path  # less the header and the final CR LF
            if path == tmp_path / "quiet" / "trajectory.csv":
                assert rows == 0  # no trajectory samples: the header only


def run_cli_process(args):
    """``rpia`` in a fresh process, with this checkout's package first on the path.

    A fresh process sees what LAPACK prints on the process's own stderr (a
    bad argument, DLASCL) and Python's warnings as a user would, neither of
    which CliRunner captures.
    """
    package_root = str(Path(rpia.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    return subprocess.run(
        [sys.executable, "-m", "rpia.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestNumericalFailuresSayWhere:
    @pytest.mark.parametrize("scale", ["1e-300", "1e300"])
    def test_penalty_scale_outside_the_floating_range(self, scale):
        proc = run_cli_process(
            ["estimate-lambda", "--config", str(CONFIG_DIR / "rose.yaml"), "--penalty-scale", scale]
        )
        assert proc.returncode == 3, proc.stderr
        assert f"error: penalty_scale {float(scale):g} " in proc.stderr
        for noise in ("RuntimeWarning", "DLASCL"):
            assert noise not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("kind, option, value, named", [
        ("curve", "--penalty-scale", "1e200", "penalty_scale 1e+200 "),
        ("curve", "--lambda", "1e303", "weight 1e+303 with penalty_scale 91 "),
        ("surface", "--penalty-scale", "1e200", "penalty_scale 1e+200 "),
        ("surface", "--lambda", "1e300", "weight 1e+300 with penalty_scale 91 "),
    ])
    def test_normal_matrix_outside_the_floating_range(self, tmp_path, kind, option, value, named):
        # a fixed-weight fit is refused before any arithmetic on an overflowing
        # penalty gram, or on a normal matrix whose trace (the solver's total
        # selection weight) overflows: at 1e303 every entry of K is finite, at
        # 1e300 both surface factors are
        if kind == "curve":
            cfg = write_desk_config(tmp_path / "cfg.yaml")
        else:
            cfg = CONFIG_DIR / "boy_a40.yaml"
        proc = run_cli_process(
            ["fit", "--config", str(cfg), "--seeds", "0", option, value,
             "--out", str(tmp_path / "out")]
        )
        assert proc.returncode == 3, proc.stderr
        assert f"error: {named}" in proc.stderr
        assert "RuntimeWarning" not in proc.stdout + proc.stderr

    @pytest.mark.parametrize("command, config, amplitude", [
        ("fit", "rose.yaml", "1e155"),
        ("estimate-lambda", "rose.yaml", "1e300"),
        ("self-consistent", "rose_adaptive.yaml", "1e200"),
    ])
    def test_noise_amplitude_whose_square_overflows(self, runner, tmp_path, command, config,
                                                    amplitude):
        # past sqrt(max double) the noise energy overflows: fit wrote Infinity
        # into report.json, estimate-lambda raised OverflowError squaring the
        # amplitude, and self-consistent blamed a NaN weight
        args = [command, "--config", str(CONFIG_DIR / config), "--noise-amplitude", amplitude]
        if command != "estimate-lambda":
            args += ["--seeds", "0", "--out", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: noise_amplitude must be positive and at most ")
        assert not (tmp_path / "out").exists()

    def test_large_finite_error_prints_in_short_form(self, tmp_path):
        # just under the amplitude limit the fit error is about 1e152: the
        # fixed-point format printed it with 150 digits
        proc = run_cli_process(
            ["fit", "--config", str(CONFIG_DIR / "rose.yaml"), "--seeds", "0",
             "--noise-amplitude", "1.3e154", "--out", str(tmp_path / "out")]
        )
        assert proc.returncode == 0, proc.stderr
        [token] = re.findall(r"mean_error=(\S+)", proc.stdout)
        assert math.isfinite(float(token))
        assert len(token) <= 12

    def test_weight_loop_refuses_an_overflowed_measure(self, tmp_path):
        # just under the amplitude limit a randomized fit's misfit and
        # penalty both overflow: inf / inf gave the loop a NaN weight, which
        # exited 2 as a configuration error
        proc = run_cli_process(
            ["self-consistent", "--config", str(CONFIG_DIR / "rose_adaptive.yaml"),
             "--seeds", "0", "--inner-solver", "rpia", "--noise-amplitude", "1.3e154",
             "--out", str(tmp_path / "out")]
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error: the fit at outer iteration 1, weight " in proc.stderr
        assert "has misfit inf and penalty inf" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_non_finite_report_value(self, runner, tmp_path, monkeypatch):
        # JSON has no Infinity: the seed and field are named, nothing is written
        def stubbed(cfg):
            entry = {"seed": 7, "lambda": 1e-6, "fit_error": math.inf, "iterations": 1,
                     "converged": True, "stop_reason": "tol", "wall_time": 0.1}
            report = FitReport("curve", "rose", "fixed", 1e-6, math.inf, math.nan, [7], [entry])
            return ExperimentResult(cfg, None, [], report)

        monkeypatch.setattr(cli, "run_experiment", stubbed)
        out_dir = tmp_path / "out"
        cfg = write_desk_config(tmp_path / "cfg.yaml")
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(out_dir)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: the report holds a non-finite value: "
                                        "seed 7's fit_error is inf")
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize("command, sizes, counts", [
        ("spectrum", ["--m", "100", "--n-ctrl", "100"], "101 data points for 101 controls"),
        ("estimate-lambda", ["--m", "99", "--n-ctrl", "100"], "100 data points for 101 controls"),
    ])
    def test_singular_design_gram(self, tmp_path, command, sizes, counts):
        # the spectrum's Cholesky factor of the design gram does not exist
        out = ["--out", str(tmp_path / "out")] if command == "spectrum" else []
        proc = run_cli_process([command, "--config", str(CONFIG_DIR / "rose.yaml"), *sizes, *out])
        assert proc.returncode == 3, proc.stderr
        assert f"error: the design gram of the curve is singular: {counts}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_ill_conditioned_surface_direction(self):
        # 21 rows for 21 controls along u pass the spectrum's Cholesky, but
        # the reference solve's condition gate refuses that direction
        proc = run_cli_process([
            "estimate-lambda", "--config", str(CONFIG_DIR / "boy_a40.yaml"),
            "--m", "20", "--n-ctrl", "20", "--n-ctrl-v", "10",
        ])
        assert proc.returncode == 3, proc.stderr
        assert re.search(
            r"error: the normal matrix of direction u is numerically rank deficient at "
            r"weight 0: condition bound \S+ exceeds 1e\+12, 21 data points for 21 controls",
            proc.stderr,
        ), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_diverging_weight_loop_names_the_all_penalty_level(self, runner, tmp_path):
        # on the desk config the direct weight loop runs off from its
        # prior-free start; it stops once the weight passes the level where
        # the fit is all penalty, long before the penalty norm underflows
        cfg = write_desk_config(tmp_path / "cfg.yaml", inner_solver="direct")
        result = runner.invoke(
            main, ["self-consistent", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 3
        found = re.search(
            r"error: weight iteration diverged at outer iteration (\d+): weight (\S+) "
            r"passed (\S+), beyond which the fit is all penalty "
            r"\(the loop started at (\S+)\)", result.output,
        )
        assert found, result.output
        outer = int(found[1])
        weight, level, start = map(float, found.groups()[1:])
        assert outer > 1 and weight > level > 1e6 * start > 0.0
        assert level < 1e30

    @pytest.mark.parametrize("n_ctrl, controls", [("99", 100), ("88", 89)])
    def test_spectrum_refuses_a_design_the_solves_refuse(self, tmp_path, n_ctrl, controls):
        # the design gram has a Cholesky factor, but the spectrum now passes
        # it through the solves' condition gate: at n_ctrl 99 it used to
        # write a spectrum (alpha about 4.1) that estimate-lambda and fit refuse
        out_dir = tmp_path / "out"
        proc = run_cli_process([
            "spectrum", "--config", str(CONFIG_DIR / "rose.yaml"), "--m", "100",
            "--n-ctrl", n_ctrl, "--out", str(out_dir),
        ])
        assert proc.returncode == 3, proc.stderr
        found = re.search(
            r"error: the normal matrix of the curve is numerically rank deficient at weight 0: "
            rf"condition bound (\S+) exceeds 1e\+12, 101 data points for {controls} controls",
            proc.stderr,
        )
        assert found, proc.stderr
        assert float(found[1]) > 1e12
        assert "Traceback" not in proc.stderr
        assert not (out_dir / "spectrum.csv").exists()


CAPPED_WARNING = "fits stopped at max_iter=20 before meeting the tolerance"


class TestStopReasons:
    """Each seed's stop reason is in report.json; a capped seed warns once on stderr."""

    @pytest.mark.parametrize("command, extra, reason", [
        ("fit", [], "max_iter"),
        ("self-consistent", ["--inner-solver", "rpia"], "max_iter"),
        ("self-consistent", [], "direct"),
    ])
    def test_report_and_warning(self, runner, tmp_path, command, extra, reason):
        cfg = write_desk_config(tmp_path / "cfg.yaml", max_iter=20, penalty_scale=20.0)
        out_dir = tmp_path / "out"
        result = runner.invoke(
            main, [command, "--config", str(cfg), "--out", str(out_dir)] + extra
        )
        assert result.exit_code == 0, result.output
        per_seed = json.loads((out_dir / "report.json").read_text())["per_seed"]
        assert [entry["stop_reason"] for entry in per_seed] == [reason, reason]
        if reason == "max_iter":
            assert result.stderr.count("warning:") == 1
            assert f"2 of 2 {CAPPED_WARNING}" in result.stderr
        else:
            assert result.stderr == ""
        assert "stop_reason" not in (out_dir / "summary.txt").read_text()

    def test_converged_fit_stops_on_tolerance_without_warning(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml", max_iter=100000)
        out_dir = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--config", str(cfg), "--out", str(out_dir)])
        assert result.exit_code == 0, result.output
        per_seed = json.loads((out_dir / "report.json").read_text())["per_seed"]
        assert [entry["stop_reason"] for entry in per_seed] == ["tol", "tol"]
        assert result.stderr == ""

    def test_sweep_warns_once(self, runner, tmp_path):
        cfg = write_desk_config(tmp_path / "cfg.yaml", max_iter=20)
        result = runner.invoke(
            main,
            ["sweep", "--config", str(cfg), "--lo", "1e-8", "--hi", "1e-5",
             "--points", "3", "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert result.stderr.count("warning:") == 1
        # three grid weights and the estimate row, two seeds each
        assert f"8 of 8 {CAPPED_WARNING}" in result.stderr
