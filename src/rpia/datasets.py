"""Synthetic example geometries, the Gaussian noise model, and the fit error.

The noise model adds an i.i.d. standard normal draw rescaled to a prescribed
total Frobenius energy, so the perturbation magnitude is exact by
construction rather than in expectation. Draws use the Philox counter-based
generator, which makes every dataset a pure function of ``(shape, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import require_finite
from .errors import InvalidConfig, SingularSample, ZeroReference

_ROOT2 = np.sqrt(2.0)

# The largest noise amplitude whose square, the noise energy, is a finite double.
MAX_NOISE_AMPLITUDE = math.sqrt(np.finfo(float).max)


def require_amplitude(name: str, amplitude: float) -> None:
    """Refuse a noise amplitude that is not positive or whose square overflows."""
    # ``not 0 < amplitude`` also catches nan, which every ordered comparison fails.
    if not 0.0 < amplitude <= MAX_NOISE_AMPLITUDE:
        raise InvalidConfig(
            f"{name} must be positive and at most {MAX_NOISE_AMPLITUDE:.6g}, "
            f"so that its square is finite, got {amplitude!r}"
        )


@dataclass(frozen=True)
class SampledCurve:
    """Planar sample points plus the generator they came from."""

    points: np.ndarray
    generator_tag: str


@dataclass(frozen=True)
class SampledSurface:
    """Gridded 3-d sample points plus the generator they came from."""

    grid: np.ndarray
    generator_tag: str


@dataclass(frozen=True)
class NoiseSpec:
    """Total perturbation energy and the seed of the draw."""

    amplitude: float
    seed: int

    def __post_init__(self):
        require_amplitude("noise amplitude", self.amplitude)
        if self.seed < 0:
            raise InvalidConfig(f"noise seed must be nonnegative, got {self.seed!r}")

    def per_entry_variance(self, n_entries: int) -> float:
        """Variance each scalar entry receives when the energy is spread out."""
        return self.amplitude**2 / n_entries


def rose_curve(m: int) -> SampledCurve:
    """Rose-type curve ``r = sin(theta/4)`` sampled at m + 1 uniform angles.

    The angle runs over [0, 8*pi], so the radius completes one full sine
    cycle (two large petals traced through the origin).
    """
    theta = np.linspace(0.0, 8.0 * np.pi, m + 1)
    r = np.sin(theta / 4.0)
    points = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return SampledCurve(points, "rose")


def blob_curve(m: int) -> SampledCurve:
    """Blob-shaped curve ``r = 1 + 2 cos(2t + 1/2) + 2 cos(3t + 1/2)`` on [0, 2*pi]."""
    theta = np.linspace(0.0, 2.0 * np.pi, m + 1)
    r = 1.0 + 2.0 * np.cos(2.0 * theta + 0.5) + 2.0 * np.cos(3.0 * theta + 0.5)
    points = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return SampledCurve(points, "blob")


def boy_surface(m: int, p: int) -> SampledSurface:
    """Boy-surface parametrization sampled on an (m+1) x (p+1) grid over [-pi, pi]^2.

    Raises
    ------
    SingularSample
        If a grid point lands within 1e-9 of the shared denominator's zero
        set. The standard grids stay well clear of it.
    """
    t = np.linspace(-np.pi, np.pi, m + 1)[:, None]
    s = np.linspace(-np.pi, np.pi, p + 1)[None, :]
    denom = _ROOT2 - np.sin(2.0 * t) * np.sin(3.0 * s)
    if np.min(np.abs(denom)) < 1e-9:
        raise SingularSample("grid point hits the parametrization's singular set")
    cos_t = np.cos(t)
    x = (2.0 / 3.0) * (cos_t * np.cos(2.0 * t) + _ROOT2 * np.sin(t) * np.cos(s)) * cos_t / denom
    y = (2.0 / 3.0) * (cos_t * np.sin(2.0 * t) - _ROOT2 * np.sin(t) * np.sin(s)) * cos_t / denom
    z = _ROOT2 * cos_t * cos_t / denom
    grid = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    return SampledSurface(grid, "boy")


# Each generator's problem kind and sampling function. :func:`generate` looks
# the function up in this module's globals at call time, so a replaced (say,
# a traced) attribute reaches every call.
SAMPLERS = {
    "rose": ("curve", "rose_curve"),
    "blob": ("curve", "blob_curve"),
    "boy": ("surface", "boy_surface"),
}


def generate(name: str, m: int, p: Optional[int] = None) -> np.ndarray:
    """The clean sample of the generator ``name``: a curve's ``(m+1, 2)``
    points, or a surface's ``(m+1, p+1, 3)`` grid."""
    kind, function = SAMPLERS[name]
    sample = globals()[function]
    return sample(m).points if kind == "curve" else sample(m, p).grid


def add_noise(data, spec: NoiseSpec) -> np.ndarray:
    """Data plus a normalized Gaussian perturbation of exact total energy.

    The draw is element-wise standard normal over the full array, rescaled so
    its Frobenius norm equals ``spec.amplitude`` exactly.
    """
    clean = np.asarray(data, dtype=float)
    require_finite(clean, "data")
    rng = np.random.Generator(np.random.Philox(spec.seed))
    draw = rng.standard_normal(clean.shape)
    return clean + spec.amplitude * draw / np.linalg.norm(draw)


def fit_error(fitted, reference) -> float:
    """Relative distance ``|F - F_ref|_F / |F_ref|_F`` between two fitted geometries.

    ``fitted`` and ``reference`` are the fitted points of two fits (a curve's
    ``A p``, a surface's ``A P B^T``); the all-coordinate Frobenius norm makes
    the value comparable across planar and spatial data.
    """
    fitted = np.asarray(fitted, dtype=float)
    reference = np.asarray(reference, dtype=float)
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0.0:
        raise ZeroReference("reference geometry has zero norm")
    return float(np.linalg.norm(fitted - reference) / ref_norm)
