"""Noisy B-spline fitting by randomized block iteration with Tikhonov smoothing.

The package splits into: basis evaluation and parametrization (`basis`),
problem assembly (`assembly`), the randomized solvers (`curve`, `surface`)
and the iteration driver they share (`driver`), the smoothing-weight
machinery (`regparam`), deterministic reference solvers (`oracle`), example
geometries and the noise model (`datasets`), and the experiment harness
behind the CLI (`config`, `experiment`, `pointsio`, `cli`).
"""

from .assembly import (
    AugmentedCurveSystem,
    AugmentedSurfaceSystem,
    BlockPartition,
    assemble_collocation,
    augment_curve,
    augment_surface,
    difference_eigenpairs,
    difference_matrix,
    make_partition,
    tensor_apply,
)
from .basis import (
    BasisSpan,
    KnotVector,
    build_knots,
    chord_length_params,
    eval_basis,
    surface_params,
)
from .curve import CurveFitResult
from .datasets import (
    NoiseSpec,
    SampledCurve,
    SampledSurface,
    add_noise,
    blob_curve,
    boy_surface,
    fit_error,
    rose_curve,
)
from .driver import StoppingRule
from .oracle import (
    DirectSolution,
    contraction_check,
    expectation_map_curve,
    expectation_map_surface,
    solve_curve_direct,
    solve_surface_direct,
)
from .regparam import (
    LambdaIterate,
    NoiseModel,
    SelfConsistentResult,
    SpectralDecayFit,
    optimal_lambda,
    self_consistent,
    spectral_decay_from_eigenvalues,
    whitened_spectrum,
)
from .surface import SurfaceFitResult

__version__ = "0.1.0"

__all__ = [
    "AugmentedCurveSystem",
    "AugmentedSurfaceSystem",
    "BasisSpan",
    "BlockPartition",
    "CurveFitResult",
    "DirectSolution",
    "KnotVector",
    "LambdaIterate",
    "NoiseModel",
    "NoiseSpec",
    "SampledCurve",
    "SampledSurface",
    "SelfConsistentResult",
    "SpectralDecayFit",
    "StoppingRule",
    "SurfaceFitResult",
    "add_noise",
    "assemble_collocation",
    "augment_curve",
    "augment_surface",
    "blob_curve",
    "boy_surface",
    "build_knots",
    "chord_length_params",
    "contraction_check",
    "difference_eigenpairs",
    "difference_matrix",
    "eval_basis",
    "expectation_map_curve",
    "expectation_map_surface",
    "fit_error",
    "make_partition",
    "optimal_lambda",
    "rose_curve",
    "self_consistent",
    "solve_curve_direct",
    "solve_surface_direct",
    "spectral_decay_from_eigenvalues",
    "surface_params",
    "tensor_apply",
    "whitened_spectrum",
]
