"""Benchmark entry point: a closed loop of fresh `rpia` processes, one client.

    python3 perfbench/run.py --workload rose-fit --seed 3 --seconds 20 --trace 0

Run from the repository root. It pins itself, and so the program, to one
CPU. For ``--seconds`` seconds it starts one process at a time
(invocation.py), waits for it, checks its output bundle against
baseline.json, and starts the next. Once three have run, it starts
no process that would, at the median pace so far, end after the window; it
never starts one after the window. At least one process runs (two with
tracing). The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The lines before it give the machine, every metric with its
unit, and each failed check. The exit code is 0 only if every output check
passed.

The time metrics are at reference machine speed: each process's times
are divided by the CPU's slowdown sampled while it ran (speed.py). The
measured times are printed too.

With ``--trace 1`` traced and untraced processes alternate: per-layer values
are medians over the traced ones, and ``trace.overhead_s`` is the traced
median wall time minus the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_bundle, check_estimate, load_baseline, summarize  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, noise_seeds  # noqa: E402

# BLAS threads for the program: one, as it runs pinned to one CPU (see main).
BLAS_THREADS = 1

# Each process must end well inside the 180 s a whole run may take.
INVOCATION_TIMEOUT_S = 120

# A median needs a few samples: inside the window, this many processes
# start even if the last one may end a little after it.
MIN_PROCESSES = 3

# Printed with the end-to-end metrics but left out of the JSON result line.
# The next four do not apply to estimate-lambda, which fits no seed (and
# the gap is exactly 0 on rose-adaptive); fail_ratio is 0 on a correct run.
# The last three are the measured times and the slowdown they were divided by.
PRINTED_ONLY = {
    "seed_fit_s": "s",
    "iterations_total": "count",
    "fit_error_mean": "ratio",
    "direct_gap_max": "ratio",
    "fail_ratio": "ratio",
    "wall_measured_s": "s",
    "setup_measured_s": "s",
    "slowdown": "ratio",
}

# What each per-layer metric should move, as "metric @ workloads".
PER_LAYER = {
    "cli.import_s": "setup_s @ all",
    "config.load_s": "setup_s @ all",
    "datasets.generate_s": "setup_s @ all",
    "datasets.noise_s": "seed_fit_s @ fitting workloads",
    "basis.params_s": "setup_s @ all",
    "basis.knots_s": "setup_s @ all",
    "assembly.collocation_s": "setup_s @ spectrum-large",
    "assembly.collocation_rows": "setup_s @ spectrum-large",
    "assembly.augment_s": "seed_fit_s @ rose-adaptive, rose-fit",
    "assembly.augment_calls": "seed_fit_s @ rose-adaptive, rose-fit",
    "assembly.partition_s": "seed_fit_s @ rose-fit, boy-fit",
    "oracle.direct_s": "wall_s @ rose-adaptive; setup_s @ spectrum-large",
    "oracle.direct_calls": "wall_s @ rose-adaptive",
    "regparam.whiten_s": "setup_s, peak_rss_mb @ spectrum-large",
    "regparam.eig_s": "setup_s @ spectrum-large",
    "regparam.spectrum_s": "setup_s @ spectrum-large, rose-adaptive",
    "regparam.estimate_s": "setup_s @ spectrum-large",
    "regparam.sc_self_s": "wall_s @ rose-adaptive",
    "regparam.sc_outer_iterations": "wall_s @ rose-adaptive",
    "curve.run_s": "wall_s, seed_fit_s @ rose-fit",
    "curve.iterations": "wall_s, seed_fit_s @ rose-fit",
    "curve.us_per_iter": "seed_fit_s @ rose-fit",
    "curve.capped_seeds": "seed_fit_s @ rose-fit",
    "curve.converged_ratio": "iterations_total @ rose-fit",
    "surface.run_s": "wall_s, seed_fit_s @ boy-fit",
    "surface.iterations": "wall_s, seed_fit_s @ boy-fit",
    "surface.us_per_iter": "seed_fit_s @ boy-fit",
    "surface.capped_seeds": "seed_fit_s @ boy-fit",
    "pointsio.write_s": "wall_s @ boy-fit, less @ rose-fit",
    "pointsio.rows_written": "wall_s @ boy-fit",
    "pointsio.bytes_written": "wall_s @ boy-fit",
    "experiment.build_problem_s": "setup_s @ all",
    "experiment.run_seed_self_s": "seed_fit_s @ fitting workloads",
    "trace.overhead_s": "(traced minus untraced wall_s)",
}


def metric_units(kind: str) -> dict:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json,
    the metrics the JSON result line reports with --trace 0 and 1."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def machine(nproc, cpu, loadavg_before) -> dict:
    """The machine and software a result was measured on."""
    info = {
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": None,
        "caches": {},
        "blas_threads_requested": BLAS_THREADS,
        "loadavg_before": loadavg_before,
        "loadavg_after": list(os.getloadavg()),
    }
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                None,
            )
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "configs").glob("*.yaml")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    return info


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(workload, seeds, work: Path, index: int, trace: bool, recorded: dict,
           probe: SpeedProbe) -> dict:
    """One process, start to exit, then the output check. Never raises."""
    out, result = work / f"bundle{index}", work / f"result{index}.json"
    command = [
        sys.executable, str(HERE / "invocation.py"), "--workload", workload.name,
        "--seeds", ",".join(map(str, seeds)), "--out", str(out), "--result", str(result),
    ]
    if trace:
        command.append("--trace")
    env = child_env()
    t0 = time.monotonic()
    command += ["--t0", repr(t0)]
    record = {"trace": trace, "problems": []}
    estimate = workload.command == "estimate-lambda"
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=INVOCATION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record["problems"].append(f"process exceeded {INVOCATION_TIMEOUT_S} s")
        return record
    t1 = time.monotonic()
    record["elapsed_s"] = t1 - t0
    record["slowdown"] = probe.slowdown(t0, t1)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        record["problems"].append(f"exit {proc.returncode}: {' | '.join(tail)}")
        return record
    try:
        payload = json.loads(result.read_text())
        record.update(payload)
        if estimate:
            record["problems"] += check_estimate(out, recorded)
        else:
            record["problems"] += check_bundle(
                out, payload["shape"], seeds, payload["direct_gaps"], recorded
            )
        if not record["problems"] and not estimate:
            record.update(summarize(out, payload["direct_gaps"]))
    except (OSError, ValueError, KeyError) as exc:
        record["problems"].append(f"result unreadable: {exc!r}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result.unlink(missing_ok=True)
    return record


def closed_loop(workload, seeds, seconds: float, trace: bool, recorded: dict) -> list:
    records = []
    start = time.monotonic()
    # Scratch space inside the checkout: the benchmark writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp, \
            SpeedProbe() as probe:
        work = Path(tmp)
        while True:
            traced = trace and len(records) % 2 == 0
            records.append(invoke(workload, seeds, work, len(records), traced, recorded, probe))
            if trace and len(records) < 2:
                continue
            elapsed = time.monotonic() - start
            pace = statistics.median(r.get("elapsed_s", 0.0) for r in records)
            if elapsed >= seconds or (
                len(records) >= MIN_PROCESSES and elapsed + pace > seconds
            ):
                break
    return records


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else float("nan")


def end_to_end(records) -> dict:
    good = [r for r in records if not r["problems"]]
    at_reference = [
        {key: r[key] / r["slowdown"] for key in ("wall_s", "setup_s")} for r in good
    ]
    seed_times = [t / r["slowdown"] for r in good for t in r["seed_times_s"]]
    return {
        "wall_s": _median(at_reference, "wall_s"),
        "setup_s": _median(at_reference, "setup_s"),
        "seed_fit_s": statistics.median(seed_times) if seed_times else float("nan"),
        "peak_rss_mb": _median(good, "peak_rss_mb"),
        "iterations_total": _median(good, "iterations_total"),
        "fit_error_mean": _median(good, "fit_error_mean"),
        "direct_gap_max": max((r["direct_gap_max"] for r in good if "direct_gap_max" in r),
                              default=float("nan")),
        "fail_ratio": (len(records) - len(good)) / len(records),
        "wall_measured_s": _median(good, "wall_s"),
        "setup_measured_s": _median(good, "setup_s"),
        "slowdown": _median(good, "slowdown"),
    }


def per_layer(records, names) -> dict:
    traced = [r for r in records if r["trace"] and not r["problems"]]
    untraced = [r for r in records if not r["trace"] and not r["problems"]]
    values = {
        name: statistics.median(r["layers"][name] for r in traced) if traced else float("nan")
        for name in names
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rpia benchmark: one workload, one run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; picks the noise seeds (default: the config's)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rpia" / "__init__.py").is_file():
        print(f"error: no rpia sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    loadavg_before = list(os.getloadavg())
    # One CPU for the harness, its speed probe and the program, which
    # inherits the affinity: the probe samples the CPU the program runs on.
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[args.workload]
    baseline = load_baseline()
    recorded = baseline["workloads"][workload.name]
    import yaml  # the program's own dependency, only to read the config's seed list

    config_seeds = yaml.safe_load((ROOT / workload.config).read_text())["seeds"]
    seeds = noise_seeds(workload, config_seeds, args.seed)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=False,
                   capture_output=True)

    records = closed_loop(workload, seeds, args.seconds, bool(args.trace), recorded)
    failed = sum(1 for r in records if r["problems"])
    info = machine(len(cpus), cpu, loadavg_before)
    ok = next((r for r in records if "blas" in r), {})
    for key in ("blas", "python", "numpy", "scipy"):
        info[key] = ok.get(key)
    print(f"workload {workload.name}: noise seeds {list(seeds)}, {len(records)} processes, "
          f"{failed} failed")
    print("machine " + json.dumps(info, sort_keys=True))
    absent = sorted({name for r in records for name in r.get("absent", [])})
    if absent:
        print("absent layers: " + ", ".join(absent))
    for index, record in enumerate(records):
        for problem in record["problems"]:
            print(f"FAILED process {index}: {problem}")

    if args.trace:
        units = metric_units("per_layer")
        values = per_layer(records, units)
        for name, value in values.items():
            print(f"{name:32s} {value:14.6g} {units[name]:6s} moves {PER_LAYER[name]}")
    else:
        values = end_to_end(records)
        reported = metric_units("end_to_end")
        units = {**reported, **PRINTED_ONLY}
        for name, value in values.items():
            shown = f"{value:14.6g}" if math.isfinite(value) else f"{'n/a':>14s}"
            print(f"{name:32s} {shown} {units[name]}")
        values = {name: values[name] for name in reported}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
