"""rpia runs on numpy alone: no command path imports scipy.

scipy stays a test dependency, as an independent reference. The check runs
in a fresh interpreter, since this test process has imported scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The CLI's import, then fixed-weight fits with their output bundle and the
# rule estimate on desk-size configs of both problem kinds, then the
# self-consistent weight loop with the direct inner solver on both kinds
# (the curve at the shipped rose_adaptive size, where the loop settles).
SCRIPT = """
import sys, tempfile
import rpia.cli
from rpia.config import ExperimentConfig
from rpia.experiment import build_problem, estimate_lambda, run_experiment, write_outputs

curve = dict(problem="curve", generator="rose", m=120, n_ctrl=20, block_size=5,
             lam=1e-6, noise_amplitude=2.0, penalty_scale=91.0, max_iter=400,
             seeds=(0, 1), head_count=15)
surface = dict(problem="surface", generator="boy", m=14, p=12, n_ctrl=5, n_ctrl_v=4,
               block_size=2, lam=1e-6, noise_amplitude=2.0,
               penalty_scale=10.0, max_iter=300, seeds=(0,), head_count=10)
adaptive_curve = dict(curve, m=1000, n_ctrl=100, noise_amplitude=10.0,
                      penalty_scale=1600.0, seeds=(0,), head_count=50)
with tempfile.TemporaryDirectory() as out:
    for base in (curve, surface):
        cfg = ExperimentConfig(**base)
        write_outputs(run_experiment(cfg), out)
        estimate_lambda(build_problem(cfg), cfg)
for base in (adaptive_curve, surface):
    run_experiment(ExperimentConfig(**dict(base, lam="self-consistent", inner_solver="direct")))
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_no_scipy_at_runtime():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
