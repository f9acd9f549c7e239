"""Experiment configuration: schema, validation, YAML loading."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np
import yaml

from .datasets import SAMPLERS, require_amplitude
from .errors import InvalidConfig


# The allowed values of the choice fields; the CLI options offer the same.
PROBLEMS = ("curve", "surface")
GENERATORS = (*SAMPLERS, "file")
INNER_SOLVERS = ("direct", "rpia")

# The config-file key of each field whose name differs from it. A field is
# read under its file key alone: its name is an unknown key in a file.
FILE_KEYS = {"lam": "lambda", "input_path": "input"}

# Integer fields; those in the second tuple may also be left unset (None),
# and are the second direction's sizes, which only a surface may set.
_INTEGER_FIELDS = ("m", "n_ctrl", "block_size", "max_iter", "head_count", "trajectory_stride")
_OPTIONAL_INTEGER_FIELDS = ("p", "n_ctrl_v")


# bool is an int subclass, but ``true`` is neither a count nor a weight.
def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_positive(name: str, value: float) -> None:
    if not _is_real(value):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    # ``not value > 0`` also catches nan, which every ordered comparison fails.
    if not (value > 0.0 and math.isfinite(value)):
        raise InvalidConfig(f"{name} must be positive and finite, got {value!r}")


_CURVE_DEFAULT_SEEDS = tuple(range(10))
_SURFACE_DEFAULT_SEEDS = tuple(range(3))


@dataclass(frozen=True)
class SweepGrid:
    """Logarithmically spaced grid of candidate smoothing weights."""

    lo: float
    hi: float
    points: int

    def __post_init__(self):
        require_positive("sweep grid lo", self.lo)
        require_positive("sweep grid hi", self.hi)
        if self.hi < self.lo:
            raise InvalidConfig("sweep grid needs 0 < lo <= hi")
        if not _is_integer(self.points):
            raise InvalidConfig(f"sweep grid points must be an integer, got {self.points!r}")
        if self.points < 1:
            raise InvalidConfig("sweep grid needs at least 1 point")

    def values(self) -> np.ndarray:
        return np.logspace(np.log10(self.lo), np.log10(self.hi), self.points)


# What the ``lambda`` config field may hold: an explicit weight, one of the
# two data-driven modes, or a sweep grid.
LambdaChoice = Union[float, str, SweepGrid]

_LAMBDA_MODES = ("estimate", "self-consistent")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "curve"                   # curve | surface
    generator: str = "rose"                  # rose | blob | boy | file
    input_path: Optional[str] = None
    m: int = 1000
    p: Optional[int] = None
    n_ctrl: int = 100                        # control index bound in u (n1)
    n_ctrl_v: Optional[int] = None           # control index bound in v (n2)
    block_size: int = 5
    lam: LambdaChoice = 0.0
    noise_amplitude: float = 10.0
    penalty_scale: float = 1600.0
    tolerance: float = 1e-8
    max_iter: int = 8000
    seeds: tuple[int, ...] = ()
    head_count: int = 50
    eps_lambda: float = 0.01
    inner_solver: str = "direct"             # direct | rpia
    trajectory_stride: int = 10

    def __post_init__(self):
        for name in _INTEGER_FIELDS + _OPTIONAL_INTEGER_FIELDS:
            value = getattr(self, name)
            if not (_is_integer(value) or (value is None and name in _OPTIONAL_INTEGER_FIELDS)):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if self.problem not in PROBLEMS:
            raise InvalidConfig(f"unknown problem {self.problem!r}")
        if self.generator not in GENERATORS:
            raise InvalidConfig(f"unknown generator {self.generator!r}")
        # An integer would be opened as a file descriptor.
        if self.input_path is not None and not isinstance(self.input_path, (str, os.PathLike)):
            raise InvalidConfig(f"input must be a file path, got {self.input_path!r}")
        if self.generator == "file" and not self.input_path:
            raise InvalidConfig("generator 'file' requires input")
        if self.generator in SAMPLERS:
            kind = SAMPLERS[self.generator][0]
            if self.problem != kind:
                raise InvalidConfig(f"generator {self.generator!r} produces {kind} data")
        if self.m < 1:
            raise InvalidConfig("m must be positive")
        if self.n_ctrl < 3:
            raise InvalidConfig("n_ctrl must be at least 3")
        if self.block_size < 1:
            raise InvalidConfig("block_size must be positive")
        if self.problem == "surface":
            if (self.p or 0) < 1 or (self.n_ctrl_v or 0) < 3:
                raise InvalidConfig("surface runs need positive p and n_ctrl_v >= 3")
        else:
            for name in _OPTIONAL_INTEGER_FIELDS:
                if getattr(self, name) is not None:
                    raise InvalidConfig(f"{name} sizes a surface's second direction; "
                                        "a curve config cannot set it")
        if isinstance(self.lam, str) and self.lam not in _LAMBDA_MODES:
            raise InvalidConfig(
                f"lambda must be a number, a sweep grid, or one of {_LAMBDA_MODES}"
            )
        if isinstance(self.lam, SweepGrid) and self.lam.points < 2:
            raise InvalidConfig("configured sweep grids need at least 2 points")
        if not isinstance(self.lam, (str, SweepGrid)) and not (
            _is_real(self.lam) and math.isfinite(self.lam) and self.lam >= 0.0
        ):
            raise InvalidConfig(f"lambda must be a finite nonnegative number, got {self.lam!r}")
        require_positive("noise_amplitude", self.noise_amplitude)
        require_amplitude("noise_amplitude", self.noise_amplitude)
        require_positive("penalty_scale", self.penalty_scale)
        require_positive("tolerance", self.tolerance)
        if self.max_iter < 0:
            raise InvalidConfig("max_iter must be nonnegative")
        if self.head_count < 3:
            raise InvalidConfig("head_count must be at least 3")
        require_positive("eps_lambda", self.eps_lambda)
        if self.inner_solver not in INNER_SOLVERS:
            raise InvalidConfig(f"inner_solver must be one of {INNER_SOLVERS}")
        if self.trajectory_stride < 0:
            raise InvalidConfig("trajectory_stride must be nonnegative")
        for k, seed in enumerate(self.seeds):
            if not (_is_integer(seed) and seed >= 0):
                raise InvalidConfig(f"seeds must be non-negative integers, got {seed!r}")
            # A repeated seed would fit the same noise draw twice and count it
            # twice in the mean and spread of the fit errors.
            if seed in self.seeds[:k]:
                raise InvalidConfig(f"seeds must not repeat, got {seed!r} twice")
        if not self.seeds:
            default = (
                _SURFACE_DEFAULT_SEEDS if self.problem == "surface" else _CURVE_DEFAULT_SEEDS
            )
            object.__setattr__(self, "seeds", default)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        provided = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **provided) if provided else self


def _parse_weight(name: str, raw) -> float:
    """A weight given as a number or as a numeric string (``1e-6`` is a string
    to YAML, and the CLI passes strings); a bool is neither."""
    if isinstance(raw, str):
        try:
            return float(raw)
        except ValueError:
            raise InvalidConfig(f"cannot interpret {name} value {raw!r}") from None
    if not _is_real(raw):
        raise InvalidConfig(f"{name} must be a real number, got {raw!r}")
    return float(raw)


def _parse_lambda(raw) -> LambdaChoice:
    if isinstance(raw, str) and raw in _LAMBDA_MODES:
        return raw
    if isinstance(raw, dict):
        sweep = raw.get("sweep")
        if not isinstance(sweep, dict):
            raise InvalidConfig("lambda mapping must contain a 'sweep' entry")
        try:
            return SweepGrid(
                _parse_weight("sweep grid lo", sweep["lo"]),
                _parse_weight("sweep grid hi", sweep["hi"]),
                sweep["points"],
            )
        except KeyError as exc:
            raise InvalidConfig(f"sweep grid missing key {exc}") from None
    return _parse_weight("lambda", raw)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a validated config from a parsed YAML/JSON mapping."""
    if not isinstance(mapping, dict):
        raise InvalidConfig("config root must be a mapping")
    names = {FILE_KEYS.get(f.name, f.name): f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if key not in names:
            raise InvalidConfig(f"unknown config key {key!r}")
        kwargs[names[key]] = value
    if "lam" in kwargs:
        kwargs["lam"] = _parse_lambda(kwargs["lam"])
    if "seeds" in kwargs:
        seeds = kwargs["seeds"]
        if not isinstance(seeds, (list, tuple)) or not seeds:
            raise InvalidConfig("seeds must be a nonempty list")
        kwargs["seeds"] = tuple(seeds)
    return ExperimentConfig(**kwargs)


def read_config(path) -> dict:
    """Parse a YAML config file into its mapping of config keys (an empty
    file is an empty mapping); :func:`config_from_mapping` builds it."""
    try:
        with open(path) as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise InvalidConfig(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be a mapping")
    return raw


def load_config(path) -> ExperimentConfig:
    """Parse a YAML config file into a validated :class:`ExperimentConfig`."""
    return config_from_mapping(read_config(path))
