"""One closed-loop request: a fresh process runs one workload and exits.

    python3 perfbench/invocation.py --workload rose-fit --seeds 0,1 \
        --out DIR --result FILE --t0 MONOTONIC [--trace]

It makes the calls the `rpia` subcommand makes (config load, then
run_experiment and write_outputs, or build_problem and estimate_lambda)
and writes a JSON result to FILE. `estimate-lambda` prints its weight and
ingredients; here they go, at full precision, to ``estimate.json`` in DIR.
``--t0`` is the parent's monotonic clock just before it started this
process, so ``wall_s`` and ``setup_s`` include interpreter start-up and the
import of `rpia.cli`. Everything after the last output file is written (the
direct-solve gap, the result file) is outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from dataclasses import replace
from pathlib import Path

from check import ESTIMATE_FILE
from tracer import LAYERS, SEED_LAYER, Tracer, clock, layer_metrics
from workloads import WORKLOADS


def direct_gaps(result) -> list:
    """Relative distance of each seed's controls from the direct solve at its weight."""
    import numpy as np
    from rpia.assembly import augment_curve, augment_surface
    from rpia.datasets import NoiseSpec, add_noise
    from rpia.experiment import CurveProblem
    from rpia.oracle import solve_curve_direct, solve_surface_direct

    cfg, problem = result.config, result.problem
    gaps = []
    for outcome in sorted(result.outcomes, key=lambda o: o.seed):
        noisy = add_noise(problem.clean, NoiseSpec(cfg.noise_amplitude, outcome.seed))
        if isinstance(problem, CurveProblem):
            system = augment_curve(problem.design, problem.penalty, noisy, outcome.lam)
            direct = solve_curve_direct(system).control_points
        else:
            system = augment_surface(
                problem.design_u, problem.design_v,
                problem.penalty_u, problem.penalty_v, noisy, outcome.lam,
            )
            direct = solve_surface_direct(system).control_points
        fitted = np.asarray(outcome.control_points).reshape(direct.shape)
        gaps.append(float(np.linalg.norm(fitted - direct) / np.linalg.norm(direct)))
    return gaps


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build, thread count from the library."""
    import ctypes

    import numpy as np

    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)

    tracer = Tracer()
    root = tracer.open("process", args.t0)
    import_start = clock()
    import rpia.cli  # noqa: F401  the import `rpia <subcommand>` pays
    from rpia import config as rpia_config
    from rpia import experiment
    tracer.record("cli.import", import_start, clock())
    absent = tracer.install(LAYERS if args.trace else (SEED_LAYER,))
    if f"{SEED_LAYER.module}.{SEED_LAYER.attr}" in absent:
        raise SystemExit("rpia.experiment.run_seed is gone: set-up and seed time need a new boundary")

    cfg = rpia_config.load_config(workload.config)
    cfg = cfg.with_overrides(seeds=seeds or None, **workload.overrides)
    if workload.command == "self-consistent":
        cfg = replace(cfg, lam="self-consistent")
    if workload.command == "estimate-lambda":
        problem = experiment.build_problem(cfg)
        lam, info = experiment.estimate_lambda(problem, cfg)
        setup_end = clock()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / ESTIMATE_FILE).write_text(json.dumps({"lambda": lam, **info}))
        result = None
    else:
        result = experiment.run_experiment(cfg)
        experiment.write_outputs(result, args.out)
    end = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.close(root, end)
    tracer.uninstall()

    seed_spans = [s for s in tracer.spans if s.name == SEED_LAYER.span]
    if seed_spans:
        setup_end = seed_spans[0].start
    payload = {
        "shape": {"problem": cfg.problem, "m": cfg.m, "p": cfg.p},
        "wall_s": end - args.t0,
        "setup_s": setup_end - args.t0,
        "seed_times_s": [s.duration for s in seed_spans],
        "peak_rss_mb": peak_rss_mb,
        "direct_gaps": direct_gaps(result) if result is not None else [],
        "absent": absent,
        "blas": blas_info(),
        "python": sys.version.split()[0],
        "numpy": __import__("numpy").__version__,
        "scipy": __import__("scipy").__version__,
    }
    if args.trace:
        payload["layers"] = layer_metrics(tracer)
        payload["self_times"] = [[s.name, s.self_s] for s in tracer.spans]
        payload["traced_wall_s"] = tracer.spans[root].duration
    Path(args.result).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
