"""Record the values the output check compares against.

    python3 perfbench/record_baseline.py [--workload NAME]

Runs every noise seed of each fitting workload's pool once (an
estimate-lambda workload once), at the current commit, and writes
``baseline.json``. Run it only on the commit the benchmark is anchored to:
a baseline recorded on a changed program checks nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from check import BASELINE, ESTIMATE_FILE, read_report
from run import HERE, ROOT, child_env
from workloads import WORKLOADS


def record(workload) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out, result = Path(tmp) / "bundle", Path(tmp) / "result.json"
        subprocess.run(
            [sys.executable, str(HERE / "invocation.py"), "--workload", workload.name,
             "--seeds", ",".join(map(str, workload.pool)), "--out", str(out),
             "--result", str(result), "--t0", repr(time.monotonic())],
            cwd=ROOT, env=child_env(), check=True,
        )
        if workload.command == "estimate-lambda":
            return {"estimate": json.loads((out / ESTIMATE_FILE).read_text())}
        payload = json.loads(result.read_text())
        report = read_report(out)
    per_seed = {}
    for entry, gap in zip(sorted(report["per_seed"], key=lambda e: e["seed"]),
                          payload["direct_gaps"]):
        per_seed[str(entry["seed"])] = {
            "iterations": entry["iterations"],
            "fit_error": entry["fit_error"],
            "lambda": entry["lambda"],
            "direct_gap": gap,
        }
    return {"alpha": report["spectral_alpha"], "per_seed": per_seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"workloads": {}}
    for name in args.workload or sorted(WORKLOADS):
        baseline["workloads"][name] = record(WORKLOADS[name])
        print(f"recorded {name}")
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
