"""Choosing the smoothing weight from spectral decay, plus the prior-free loop.

The estimate rests on the whitened operator ``Q = A G^{-1}`` (design matrix
times inverse penalty). The spectrum of ``Q^T Q`` is that of the generalized
control-space problem ``A^T A v = rho G^T G v``, and it is computed there,
from the n x n Cholesky factor of ``A^T A`` and the closed-form sine
eigenbasis of the difference penalty (:func:`whitened_spectrum`, one routine
for curves and surfaces), so nothing of data-space size is formed. When the
eigenvalues decay like ``k**(-alpha)``, balancing the bias and variance
terms of the mean squared error gives

    lam ** (1 + 1/alpha) = sigma^2 * n^{-1} * |G p_ref|_n^{-2}

with the count-normalized norm ``|v|_d^2 = |v|^2 / d``. The self-consistent
loop (:func:`self_consistent`) replaces the unknown noise level and reference
penalty norm by the current fit's misfit and penalty, iterating the same
balance to a fixed point. It is the same loop for curves and surfaces: the
caller supplies the fit's (misfit, penalty) measure, which the problem types
of :mod:`rpia.experiment` derive from their fitted points and penalty norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import difference_eigenpairs
from .errors import InsufficientSpectrum, InvalidConfig, NonConvergence, ZeroPenalty

# Relative eigenvalue floor: anything below this multiple of the largest
# eigenvalue is numerical zero and would corrupt the log-log regression.
_EIG_FLOOR = 1e-14


@dataclass(frozen=True)
class SpectralDecayFit:
    """Sorted spectrum with its fitted power-law decay exponent."""

    eigenvalues: np.ndarray
    alpha: float
    head_count: int
    fit_residual: float


@dataclass(frozen=True)
class NoiseModel:
    """Per-entry noise variance and (optional) model-error energy."""

    sigma2: float
    epsilon_norm2: float = 0.0

    def __post_init__(self):
        if self.sigma2 < 0.0 or self.epsilon_norm2 < 0.0:
            raise InvalidConfig("noise model terms must be nonnegative")


@dataclass(frozen=True)
class LambdaIterate:
    """One outer iteration of the self-consistent loop."""

    k: int
    lam: float
    misfit: Optional[float] = None
    penalty: Optional[float] = None


@dataclass(frozen=True)
class SelfConsistentResult:
    lam: float
    control_points: np.ndarray
    iterates: tuple[LambdaIterate, ...]

    @property
    def outer_iterations(self) -> int:
        return len(self.iterates)


def whitened_spectrum(design_factors, penalty_scales) -> np.ndarray:
    """Descending spectrum of ``Q^T Q`` for the whitened design ``Q = A G^{-1}``.

    One design factor (any ``F`` with ``F^T F`` the design gram, such as its
    n x n Cholesky factor) and one penalty scale per direction, ``u`` then
    ``v`` for a surface. With ``difference_matrix(n, s) = U diag(mu) U^T``
    (:func:`~rpia.assembly.difference_eigenpairs`) the eigenvalues of
    ``A^T A v = rho G^T G v`` are the squared singular values of ``(F U) / |mu|``;
    for a surface, of ``kron(Fv Uv, Fu Uu) / hypot.outer(|mu_v|, |mu_u|)``, as
    ``Uv (x) Uu`` diagonalizes ``I (x) Lu^2 + Lv^2 (x) I``. Singular values of
    a factor keep twice a Gram eigensolve's relative digits in the small head.

    Raises
    ------
    InsufficientSpectrum
        If a penalty scale takes the spectrum out of the normal floating-point range.
    """
    scales = ", ".join(dict.fromkeys(f"{float(s):g}" for s in penalty_scales))
    out_of_range = InsufficientSpectrum(
        f"penalty_scale {scales} puts the whitened spectrum outside the floating-point range"
    )
    # the empty product: kron with [[1]] and hypot with 0 keep a curve's F U and |mu| exact
    whitened, weights = np.ones((1, 1)), np.zeros(1)
    for factor, scale in zip(design_factors, penalty_scales):
        mu, basis = difference_eigenpairs(factor.shape[1], scale)
        if not (np.isfinite(mu) & (mu != 0.0)).all():
            raise out_of_range
        whitened = np.kron(np.asarray(factor, dtype=float) @ basis, whitened)
        weights = np.hypot.outer(np.abs(mu), weights).ravel()
    with np.errstate(over="ignore"):
        whitened = whitened / weights
        if not np.isfinite(whitened).all():
            raise out_of_range
        singular = np.linalg.svd(whitened, compute_uv=False)
        eigs = singular**2
    # a positive singular value whose square is not a normal double has lost digits
    if not (np.isfinite(eigs).all() and (eigs >= np.finfo(float).tiny)[singular > 0.0].all()):
        raise out_of_range
    return eigs


def spectral_decay_from_eigenvalues(eigenvalues, head_count: int) -> SpectralDecayFit:
    """Fit ``log rho_k ~ -alpha log k`` over the leading eigenvalues.

    Eigenvalues below ``1e-14`` times the largest one are discarded before
    the fit; if fewer than ``head_count`` survive the spectrum is too short.
    """
    if head_count < 3:
        raise InvalidConfig("need head_count >= 3 for a meaningful decay fit")
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    if eigs.size == 0 or eigs[0] <= 0.0:
        raise InsufficientSpectrum("spectrum has no positive eigenvalues")
    usable = eigs[eigs > _EIG_FLOOR * eigs[0]]
    if usable.size < head_count:
        raise InsufficientSpectrum(
            f"only {usable.size} positive eigenvalues for head_count={head_count}"
        )
    head = usable[:head_count]
    log_k = np.log(np.arange(1, head_count + 1, dtype=float))
    log_rho = np.log(head)
    coeffs, residuals, *_ = np.linalg.lstsq(
        np.column_stack([log_k, np.ones(head_count)]), log_rho, rcond=None
    )
    alpha = -float(coeffs[0])
    if residuals.size:
        rms = float(np.sqrt(residuals[0] / head_count))
    else:
        fitted = coeffs[0] * log_k + coeffs[1]
        rms = float(np.sqrt(np.mean((log_rho - fitted) ** 2)))
    return SpectralDecayFit(eigs, alpha, head_count, rms)


def optimal_lambda(
    decay: SpectralDecayFit | float,
    noise: NoiseModel,
    n_controls: int,
    penalty_norm2: float,
) -> float:
    """Bias-variance balancing weight for a measured decay exponent.

    ``penalty_norm2`` is the count-normalized squared penalty norm of the
    reference controls. The balance constant is taken as 1, so the value is
    an order-of-magnitude estimate rather than a sharp optimum.
    """
    alpha = decay.alpha if isinstance(decay, SpectralDecayFit) else float(decay)
    if alpha <= 0.0:
        raise InvalidConfig("decay exponent must be positive")
    if noise.sigma2 <= 0.0:
        raise InvalidConfig("noise variance must be positive")
    if n_controls <= 0 or penalty_norm2 <= 0.0:
        raise InvalidConfig("control count and penalty norm must be positive")
    base = noise.sigma2 / (n_controls * penalty_norm2)
    return float(base ** (alpha / (alpha + 1.0)))


def self_consistent(
    solve: Callable[[float], np.ndarray],
    measure: Callable[[np.ndarray], tuple[float, float]],
    n_count: int,
    alpha: float,
    eps_lambda: float = 0.01,
    max_outer: int = 50,
) -> SelfConsistentResult:
    """Prior-free fixed-point iteration for the smoothing weight.

    Starts from ``lam_1 ** (1 + 1/alpha) = 1/n`` (no data knowledge at all),
    then repeatedly solves the penalized fit at the current weight and
    rebalances from the fit's own misfit and penalty:

        lam_{k+1} ** (1 + 1/alpha) = (misfit / penalty) / n

    with ``n = n_count`` controls. Stops when successive weights agree to
    ``eps_lambda`` relatively, and returns the fit at the last weight.

    ``solve`` maps a weight to the fitted control points (any solver whose
    output approximates the penalized minimizer works); ``measure`` maps
    controls to their count-normalized ``(misfit, penalty)`` pair.

    Raises
    ------
    ZeroPenalty
        If a fit's penalty vanishes (the update is undefined); the message
        names the outer iteration, its weight and the starting weight.
    NonConvergence
        If the weights have not settled after ``max_outer`` fits.
    """
    if eps_lambda <= 0.0:
        raise InvalidConfig("eps_lambda must be positive")
    lam = float(n_count ** (-alpha / (alpha + 1.0)))
    controls = solve(lam)
    iterates = [LambdaIterate(1, lam)]
    for k in range(2, max_outer + 1):
        misfit, pen = measure(controls)
        if pen <= 0.0:
            raise ZeroPenalty(
                f"penalty norm of the fit vanished at outer iteration {k - 1}, "
                f"weight {lam:.6e} (the loop started at {iterates[0].lam:.6e})"
            )
        lam_next = float((misfit / (pen * n_count)) ** (alpha / (alpha + 1.0)))
        iterates.append(LambdaIterate(k, lam_next, misfit, pen))
        converged = abs(lam_next - lam) <= eps_lambda * lam
        lam = lam_next
        controls = solve(lam)
        if converged:
            return SelfConsistentResult(lam, controls, tuple(iterates))
    raise NonConvergence(
        f"weight iteration did not settle within {max_outer} outer iterations"
    )
