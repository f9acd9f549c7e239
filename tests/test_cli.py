import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rpia
from rpia import cli, errors
from rpia.cli import main
from rpia.config import load_config
from rpia.datasets import boy_surface, rose_curve
from rpia.experiment import build_problem, problem_spectrum
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


class TestNumericalFailuresSayWhere:
    @pytest.mark.parametrize("scale", ["1e-300", "1e300"])
    def test_penalty_scale_outside_the_floating_range(self, scale):
        # a fresh process, because LAPACK reports a bad argument (DLASCL) on
        # the process's own stderr, which CliRunner does not capture
        package_root = str(Path(rpia.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "rpia.cli", "estimate-lambda",
             "--config", str(CONFIG_DIR / "rose.yaml"), "--penalty-scale", scale],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 3, proc.stderr
        assert f"error: penalty_scale {float(scale):g} " in proc.stderr
        for noise in ("RuntimeWarning", "DLASCL"):
            assert noise not in proc.stdout + proc.stderr

    def test_vanished_penalty_names_the_outer_iteration(self, runner, tmp_path):
        # on the desk config the direct weight loop runs off from its
        # prior-free start until the fit is all penalty and its norm underflows
        cfg = write_desk_config(tmp_path / "cfg.yaml", inner_solver="direct")
        result = runner.invoke(
            main, ["self-consistent", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 3
        found = re.search(
            r"error: penalty norm of the fit vanished at outer iteration (\d+), "
            r"weight (\S+) \(the loop started at (\S+)\)", result.output,
        )
        assert found, result.output
        outer, weight, start = int(found[1]), float(found[2]), float(found[3])
        assert outer > 1 and weight > 1e6 * start > 0.0


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
