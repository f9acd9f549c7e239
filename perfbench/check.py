"""Output checks: one invocation's output against the values recorded at the seed commit.

A fitting run passes only if, for every noise seed it fitted,
  * the iteration count (block iterations, or outer weight iterations for
    the self-consistent loop) equals the recorded count exactly;
  * the fit error, the weight and the direct-solve gap agree with the
    recorded values to a relative ``RTOL`` (the gap also to ``GAP_ATOL``);
and the spectral exponent alpha agrees to ``RTOL``, the report's mean error
and weight agree with the per-seed values, and every bundle file exists and
parses. An `estimate-lambda` run passes only if its weight and every
ingredient (alpha, the noise variance, the residual and penalty norms, the
counts) agree with the recorded values to ``RTOL``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Loose enough for reordered floating-point sums, tight enough that any
# change of algorithm or stopping behaviour shows.
RTOL = 1e-6
GAP_ATOL = 1e-10

BASELINE = Path(__file__).with_name("baseline.json")

# What an estimate-lambda invocation writes: the weight and its ingredients.
ESTIMATE_FILE = "estimate.json"


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text())


def _close(value, expected, rtol=RTOL, atol=0.0) -> bool:
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and abs(value - expected) <= rtol * abs(expected) + atol
    )


def _csv_rows(path: Path, *headers: list) -> list:
    """Numeric rows of a CSV whose header is one of ``headers``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header not in headers:
            raise ValueError(f"{path.name}: unexpected header {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            values = [float(v) for v in row]
            if len(values) != len(header) or not all(map(math.isfinite, values)):
                raise ValueError(f"{path.name}: line {lineno} is malformed")
            rows.append(values)
    return rows


def read_report(out_dir) -> dict:
    return json.loads((Path(out_dir) / "report.json").read_text())


def check_bundle(out_dir, cfg_shape: dict, seeds, gaps, recorded: dict) -> list:
    """Problems found in one bundle; an empty list means the output is correct.

    ``cfg_shape`` holds ``problem``, ``m`` and ``p`` of the run's config;
    ``recorded`` is the workload's entry in ``baseline.json``.
    """
    out = Path(out_dir)
    problems = []
    try:
        report = read_report(out)
    except (OSError, ValueError) as exc:
        return [f"report.json: {exc}"]

    per_seed = {entry.get("seed"): entry for entry in report.get("per_seed", [])}
    if sorted(per_seed) != sorted(seeds) or report.get("seeds") != list(seeds):
        return [f"report.json: seeds {report.get('seeds')} != requested {list(seeds)}"]
    expected_seeds = recorded["per_seed"]
    for seed, gap in zip(sorted(seeds), gaps):
        want = expected_seeds.get(str(seed))
        if want is None:
            problems.append(f"seed {seed}: no recorded baseline")
            continue
        got = per_seed[seed]
        if got.get("iterations") != want["iterations"]:
            problems.append(
                f"seed {seed}: iterations {got.get('iterations')} != {want['iterations']}"
            )
        for key in ("fit_error", "lambda"):
            if not _close(got.get(key), want[key]):
                problems.append(f"seed {seed}: {key} {got.get(key)!r} != {want[key]!r}")
        if not _close(gap, want["direct_gap"], atol=GAP_ATOL):
            problems.append(f"seed {seed}: direct gap {gap!r} != {want['direct_gap']!r}")

    errors = [per_seed[s].get("fit_error") for s in sorted(seeds)]
    lambdas = [per_seed[s].get("lambda") for s in sorted(seeds)]
    if all(isinstance(v, (int, float)) for v in errors + lambdas):
        if not _close(report.get("mean_fit_error"), sum(errors) / len(errors)):
            problems.append("report.json: mean_fit_error disagrees with its per-seed errors")
        if not _close(report.get("lambda_used"), sum(lambdas) / len(lambdas)):
            problems.append("report.json: lambda_used disagrees with its per-seed weights")
    alpha, want_alpha = report.get("spectral_alpha"), recorded.get("alpha")
    if (want_alpha is None) != (alpha is None) or (
        want_alpha is not None and not _close(alpha, want_alpha)
    ):
        problems.append(f"report.json: spectral_alpha {alpha!r} != {want_alpha!r}")

    try:
        summary = (out / "summary.txt").read_text()
        if "mean fit error:" not in summary:
            problems.append("summary.txt: no mean fit error line")
        rows = _csv_rows(out / "trajectory.csv", ["seed", "iteration", "rel_change", "residual_norm"])
        if any(int(row[0]) not in seeds for row in rows):
            problems.append("trajectory.csv: rows for seeds that were not run")
        m, p = cfg_shape["m"], cfg_shape["p"]
        if cfg_shape["problem"] == "curve":
            fitted = _csv_rows(
                out / "fitted_curve.csv", ["param", "x", "y"], ["param", "x", "y", "z"]
            )
            expected_rows = 5 * m + 1
        else:
            fitted = _csv_rows(out / "fitted_surface.csv", ["row", "col", "x", "y", "z"])
            expected_rows = (5 * m + 1) * (5 * p + 1)
        if len(fitted) != expected_rows:
            problems.append(f"fitted points: {len(fitted)} rows, expected {expected_rows}")
    except (OSError, ValueError) as exc:
        problems.append(str(exc))
    return problems


def check_estimate(out_dir, recorded: dict) -> list:
    """Problems found in one estimate-lambda output; empty means it is correct.

    ``recorded`` is the workload's entry in ``baseline.json``.
    """
    try:
        got = json.loads((Path(out_dir) / ESTIMATE_FILE).read_text())
    except (OSError, ValueError) as exc:
        return [f"{ESTIMATE_FILE}: {exc}"]
    want = recorded["estimate"]
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"{ESTIMATE_FILE}: not the recorded set of keys {sorted(want)}"]
    return [
        f"{ESTIMATE_FILE}: {key} {got[key]!r} != {want[key]!r}"
        for key in sorted(want)
        if not _close(got[key], want[key])
    ]


def summarize(out_dir, gaps) -> dict:
    """The report-derived end-to-end values of one invocation."""
    report = read_report(out_dir)
    return {
        "iterations_total": sum(e["iterations"] for e in report["per_seed"]),
        "fit_error_mean": report["mean_fit_error"],
        "direct_gap_max": max(gaps),
    }
