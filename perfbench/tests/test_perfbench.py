"""Tests of the benchmark itself: smoke runs, the output check, and the tracer.

    python3 -m pytest perfbench/tests -q

The smoke runs start real `rpia` processes and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # the program under test, as run.py gives it

from check import ESTIMATE_FILE, check_bundle, check_estimate, load_baseline  # noqa: E402
from run import PER_LAYER, PRINTED_ONLY, child_env, metric_units  # noqa: E402
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import LAYERS, Layer, Tracer  # noqa: E402
from workloads import WORKLOADS, noise_seeds  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _invoke(tmp_path, workload="rose-fit", seeds="0,1", trace=False):
    out, result = tmp_path / "bundle", tmp_path / "result.json"
    command = [sys.executable, str(HERE / "invocation.py"), "--workload", workload,
               "--seeds", seeds, "--out", str(out), "--result", str(result),
               "--t0", repr(time.monotonic())]
    if trace:
        command.append("--trace")
    subprocess.run(command, cwd=ROOT, env=child_env(), check=True, timeout=170)
    return out, json.loads(result.read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(name in proc.stdout for name in PRINTED_ONLY)


def test_smoke_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "rose-fit", "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    assert list(result["metrics"]) == list(metric_units("per_layer"))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["curve.iterations"] > 0 and metrics["curve.run_s"] > 0
    assert metrics["surface.iterations"] == 0


def test_check_accepts_the_bundle_and_rejects_tampering(tmp_path):
    out, payload = _invoke(tmp_path)
    recorded = load_baseline()["workloads"]["rose-fit"]
    seeds, gaps, shape = (0, 1), payload["direct_gaps"], payload["shape"]
    assert check_bundle(out, shape, seeds, gaps, recorded) == []

    pristine = (out / "report.json").read_text()
    for field, change in (("iterations", lambda v: v + 1), ("fit_error", lambda v: v * 1.001)):
        report = json.loads(pristine)
        report["per_seed"][0][field] = change(report["per_seed"][0][field])
        (out / "report.json").write_text(json.dumps(report))
        problems = check_bundle(out, shape, seeds, gaps, recorded)
        assert any(field in p for p in problems), problems
    (out / "report.json").write_text("{not json")
    assert check_bundle(out, shape, seeds, gaps, recorded)
    (out / "report.json").write_text(pristine)

    assert check_bundle(out, shape, seeds, [gaps[0] * 2, gaps[1]], recorded)
    with open(out / "trajectory.csv", "a") as handle:
        handle.write("0,1,not-a-number,1\n")
    assert check_bundle(out, shape, seeds, gaps, recorded)
    (out / "fitted_curve.csv").unlink()
    assert check_bundle(out, shape, seeds, gaps, recorded)


def test_check_rejects_a_tampered_estimate(tmp_path):
    out, _ = _invoke(tmp_path, workload="spectrum-large", seeds="")
    recorded = load_baseline()["workloads"]["spectrum-large"]
    assert check_estimate(out, recorded) == []

    pristine = json.loads((out / ESTIMATE_FILE).read_text())
    for key in ("lambda", "alpha"):
        (out / ESTIMATE_FILE).write_text(json.dumps({**pristine, key: pristine[key] * 1.001}))
        problems = check_estimate(out, recorded)
        assert len(problems) == 1 and key in problems[0], problems
    (out / ESTIMATE_FILE).write_text(json.dumps({"lambda": pristine["lambda"]}))
    assert check_estimate(out, recorded)
    (out / ESTIMATE_FILE).unlink()
    assert check_estimate(out, recorded)


def test_traced_self_times_add_up_to_traced_wall_time(tmp_path):
    _, payload = _invoke(tmp_path, trace=True)
    total_self = sum(self_s for _, self_s in payload["self_times"])
    assert total_self == pytest.approx(payload["traced_wall_s"], rel=1e-9)
    assert all(self_s >= 0 for _, self_s in payload["self_times"])
    assert payload["layers"]["oracle.direct_calls"] == 1  # the clean reference solve
    # Only the set-up collocation counts, not write_outputs' curve sampling:
    # rose.yaml has m = 1000, so 1001 data points.
    assert payload["layers"]["assembly.collocation_rows"] == 1001


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    root = tracer.open("process", 0.0)
    outer = tracer.open("outer", 1.0)
    tracer.record("inner", 2.0, 5.0)
    tracer.close(outer, 7.0)
    tracer.close(root, 10.0)
    assert [s.self_s for s in tracer.spans] == [4.0, 3.0, 3.0]
    assert tracer.total("outer") == 6.0
    assert tracer.total("inner", within="outer") == 3.0
    assert tracer.total("inner", within="elsewhere") == 0.0


def test_missing_functions_are_reported_absent_and_unwrapping_restores():
    import rpia.experiment

    original = rpia.experiment.run_seed
    tracer = Tracer()
    absent = tracer.install((
        Layer("gone", "rpia.curve", "no_such_function"),
        Layer("gone", "rpia.no_such_module", "run"),
        Layer("experiment.run_seed", "rpia.experiment", "run_seed"),
    ))
    try:
        assert absent == ["rpia.curve.no_such_function", "rpia.no_such_module.run"]
        assert rpia.experiment.run_seed is not original
    finally:
        tracer.uninstall()
    assert rpia.experiment.run_seed is original


def test_every_layer_function_exists_at_this_commit():
    import rpia.cli  # noqa: F401

    tracer = Tracer()
    try:
        assert tracer.install(LAYERS) == []
    finally:
        tracer.uninstall()


def test_slowdown_is_the_mean_probe_time_inside_the_interval():
    probe = SpeedProbe()
    probe.samples = [(1.0, REFERENCE_S), (2.0, 2 * REFERENCE_S), (3.0, 4 * REFERENCE_S)]
    assert probe.slowdown(1.5, 3.0) == pytest.approx(3.0)
    assert probe.slowdown(0.0, 10.0) == pytest.approx(7 / 3)
    # No sample inside: every sample so far.
    assert probe.slowdown(2.1, 2.2) == pytest.approx(7 / 3)


def test_probe_samples_until_stopped():
    with SpeedProbe() as probe:
        time.sleep(0.3)
    assert not probe._thread.is_alive()
    count = len(probe.samples)
    assert count >= 3 and all(cpu_s > 0 for _, cpu_s in probe.samples)
    time.sleep(0.1)
    assert len(probe.samples) == count


def test_noise_seeds_follow_the_workload_seed():
    workload = WORKLOADS["rose-fit"]
    config_seeds = tuple(range(10))
    assert noise_seeds(workload, config_seeds, None) == config_seeds
    picks = {noise_seeds(workload, config_seeds, seed) for seed in range(20)}
    assert len(picks) == 20
    for pick in picks:
        assert len(pick) == workload.seeds_per_run and set(pick) <= set(workload.pool)
    assert noise_seeds(workload, config_seeds, 3) == noise_seeds(workload, config_seeds, 3)


def test_every_pool_seed_has_a_recorded_baseline():
    recorded = load_baseline()["workloads"]
    for name, workload in WORKLOADS.items():
        if workload.command == "estimate-lambda":
            assert not workload.pool and "lambda" in recorded[name]["estimate"]
        else:
            assert set(recorded[name]["per_seed"]) == {str(s) for s in workload.pool}


def test_every_per_layer_metric_has_a_pairing():
    assert list(PER_LAYER) == list(metric_units("per_layer"))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = _bench("--workload", "rose-fit", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
