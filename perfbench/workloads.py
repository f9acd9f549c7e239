"""The benchmark's workloads and the mapping from a workload seed to noise seeds.

Each workload is one `rpia` subcommand on one shipped config. The benchmark
never edits the configs: it loads them and overrides fields in memory, the
way the CLI's flags do. Why each workload is there is said in
``BENCHMARK.json``.

The workload seed picks which noise draws the program fits. Every fitting
workload has a pool of noise seeds whose per-seed results were recorded at
the seed commit (`baseline.json`), so any workload seed can be checked
exactly. With no workload seed the shipped config's own seeds are used.
`estimate-lambda` draws no noise: its input is the config alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                       # the rpia subcommand this mirrors
    config: str                        # shipped config, relative to the repo root
    overrides: dict = field(default_factory=dict)
    seeds_per_run: int = 0             # 0: the subcommand fits no seed
    pool: tuple = ()                   # noise seeds with recorded baselines


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rose-fit", "fit", "configs/rose.yaml",
                 seeds_per_run=10, pool=tuple(range(40))),
        Workload("boy-fit", "fit", "configs/boy_a40.yaml",
                 seeds_per_run=3, pool=tuple(range(12))),
        Workload("rose-adaptive", "self-consistent", "configs/rose_adaptive.yaml",
                 seeds_per_run=10, pool=tuple(range(40))),
        Workload("spectrum-large", "estimate-lambda", "configs/rose.yaml",
                 overrides={"m": 20000, "n_ctrl": 400}),
    )
}


def noise_seeds(workload: Workload, config_seeds, seed: Optional[int]) -> tuple:
    """Noise seeds for one run: the config's own, or a seeded pick from the pool.

    The pick ranks the pool by a hash of ``(seed, noise seed)``, so it does
    not depend on Python's ``random`` implementation. A workload that fits
    no seed gets none.
    """
    if seed is None:
        chosen = tuple(config_seeds)[: workload.seeds_per_run]
    else:
        ranked = sorted(
            workload.pool,
            key=lambda s: hashlib.sha256(f"{seed}:{s}".encode()).hexdigest(),
        )
        chosen = ranked[: workload.seeds_per_run]
    return tuple(sorted(chosen))
