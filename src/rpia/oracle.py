"""Deterministic reference computations backing the stochastic solver tests.

Everything here is a slow-but-sure alternative path: dense normal-equation
solves of the stacked systems, exhaustive expectations of one randomized
step, and spectral-radius checks. The solvers are tested against these,
never the other way round. The Cholesky condition gate (``gram_factor``) and
the two-factor tensor solve (``solve_tensor_normal``) also serve the
experiment's control-space direct solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .assembly import (
    AugmentedCurveSystem,
    AugmentedSurfaceSystem,
    BlockPartition,
    tensor_apply,
)
from .errors import RankDeficient, TooLarge

# Beyond this condition estimate the Cholesky route is abandoned: for a
# rank-revealing least-squares solve (curves) or a RankDeficient error
# (surfaces).
_COND_LIMIT = 1e12

# Size caps for the exhaustive reference computations.
_EXPECTATION_CAP = 10_000
_KRONECKER_CAP = 400


@dataclass(frozen=True)
class DirectSolution:
    """Minimizer of a penalized least-squares objective plus diagnostics.

    ``condition_estimate`` is LAPACK's 1-norm condition estimate ``1/rcond``
    of the normal matrix (the larger of the two factors' for surfaces).
    """

    control_points: np.ndarray
    objective: float
    condition_estimate: float


def gram_factor(gram: np.ndarray):
    """Cholesky factor of a symmetric normal matrix and its condition estimate.

    Returns ``(factor, cond)``: ``factor`` is a ``cho_factor`` pair for
    ``cho_solve``, and ``cond`` is ``1/rcond`` in the 1-norm from LAPACK's
    ``dpocon``. ``factor`` is None when the Cholesky factorization fails or
    ``cond`` exceeds the limit; the caller then takes its fallback route.
    """
    try:
        factor = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError:
        return None, np.inf
    rcond, _ = scipy.linalg.lapack.dpocon(
        factor[0], np.linalg.norm(gram, 1), uplo="L" if factor[1] else "U"
    )
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not cond <= _COND_LIMIT:
        return None, cond
    return factor, cond


def _solve_normal(stacked: np.ndarray, rhs_matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``stacked^T stacked X = stacked^T rhs`` stably.

    Uses a Cholesky factorization while the normal matrix is comfortably
    positive definite, otherwise falls back to a rank-revealing least-squares
    factorization of the stacked matrix itself.
    """
    factor, cond = gram_factor(stacked.T @ stacked)
    if factor is not None:
        return scipy.linalg.cho_solve(factor, stacked.T @ rhs_matrix), cond
    solution, _, rank, _ = np.linalg.lstsq(stacked, rhs_matrix, rcond=None)
    if rank < stacked.shape[1]:
        raise RankDeficient(
            f"stacked matrix has rank {rank} < {stacked.shape[1]} columns"
        )
    return solution, cond


def solve_tensor_normal(gram_u: np.ndarray, gram_v: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``gram_u P[:, :, f] gram_v = rhs[:, :, f]`` for every coordinate ``f``.

    Two Cholesky solves per coordinate; no Kronecker product is ever formed.
    Returns the solution and the larger condition estimate of the two grams.

    Raises
    ------
    RankDeficient
        If either gram fails the Cholesky condition gate.
    """
    factor_u, cond_u = gram_factor(gram_u)
    factor_v, cond_v = gram_factor(gram_v)
    if factor_u is None or factor_v is None:
        raise RankDeficient("a stacked factor is numerically rank deficient")
    solution = np.empty_like(rhs, dtype=float)
    for f in range(rhs.shape[2]):
        half = scipy.linalg.cho_solve(factor_u, rhs[:, :, f])
        solution[:, :, f] = scipy.linalg.cho_solve(factor_v, half.T).T
    return solution, max(cond_u, cond_v)


def solve_curve_direct(system: AugmentedCurveSystem) -> DirectSolution:
    """Exact minimizer of the stacked curve system via the normal equations."""
    solution, cond = _solve_normal(system.stacked, system.targets)
    residual = system.stacked @ solution - system.targets
    return DirectSolution(solution, float(np.sum(residual**2)), cond)


def solve_surface_direct(system: AugmentedSurfaceSystem) -> DirectSolution:
    """Exact minimizer of the stacked tensor system, one coordinate at a time.

    Each coordinate slice solves
    ``gram_u P gram_v = row_stacked^T targets col_stacked`` by
    :func:`solve_tensor_normal`.
    """
    a_hat = system.row_stacked
    b_hat = system.col_stacked
    rhs = tensor_apply(a_hat.T, system.targets, b_hat.T)
    solution, cond = solve_tensor_normal(a_hat.T @ a_hat, b_hat.T @ b_hat, rhs)
    residual = tensor_apply(a_hat, solution, b_hat) - system.targets
    return DirectSolution(solution, float(np.sum(residual**2)), cond)


def _check_expectation_cap(n_blocks: int, dimension: int) -> None:
    if n_blocks * dimension > _EXPECTATION_CAP:
        raise TooLarge(
            f"{n_blocks} blocks x dimension {dimension} exceeds the "
            f"exhaustive-expectation cap {_EXPECTATION_CAP}"
        )


def expectation_map_curve_enumerated(
    system: AugmentedCurveSystem, partition: BlockPartition, z: np.ndarray
) -> np.ndarray:
    """One-step expectation by summing every block outcome with its weight."""
    z = np.asarray(z, dtype=float)
    _check_expectation_cap(len(partition), z.shape[0])
    out = np.zeros_like(z)
    for prob, norm_sq, block in zip(
        partition.probabilities, partition.norms_sq, partition.blocks
    ):
        cols = system.stacked[:, block]
        stepped = z - cols @ (cols.T @ z) / norm_sq
        out += prob * stepped
    return out


def expectation_map_curve_closed(system: AugmentedCurveSystem, z: np.ndarray) -> np.ndarray:
    """Closed form of the same expectation: project by the full stacked matrix."""
    z = np.asarray(z, dtype=float)
    total = float(np.sum(system.stacked**2))
    return z - system.stacked @ (system.stacked.T @ z) / total


def expectation_map_curve(
    system: AugmentedCurveSystem, partition: BlockPartition, z: np.ndarray
) -> np.ndarray:
    """Expected next residual-space iterate.

    Evaluates both the exhaustive enumeration and the closed form, checks
    them against each other, and returns the closed form.
    """
    enumerated = expectation_map_curve_enumerated(system, partition, z)
    closed = expectation_map_curve_closed(system, z)
    gap = float(np.max(np.abs(enumerated - closed)))
    if gap > 1e-10:
        raise AssertionError(f"expectation routes disagree by {gap:.3e}")
    return closed


def expectation_map_surface_enumerated(
    system: AugmentedSurfaceSystem,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
    z: np.ndarray,
) -> np.ndarray:
    """Double enumeration over row and column block choices."""
    z = np.asarray(z, dtype=float)
    _check_expectation_cap(len(row_partition) * len(col_partition), z.size)
    out = np.zeros_like(z)
    for p_u, norm_u, block_u in zip(
        row_partition.probabilities, row_partition.norms_sq, row_partition.blocks
    ):
        a_cols = system.row_stacked[:, block_u]
        for p_v, norm_v, block_v in zip(
            col_partition.probabilities, col_partition.norms_sq, col_partition.blocks
        ):
            b_cols = system.col_stacked[:, block_v]
            correction = a_cols @ (a_cols.T @ z @ b_cols) @ b_cols.T / (norm_u * norm_v)
            out += p_u * p_v * (z - correction)
    return out


def expectation_map_surface_closed(system: AugmentedSurfaceSystem, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    a_hat = system.row_stacked
    b_hat = system.col_stacked
    scale = float(np.sum(a_hat**2)) * float(np.sum(b_hat**2))
    return z - a_hat @ (a_hat.T @ z @ b_hat) @ b_hat.T / scale


def expectation_map_surface(
    system: AugmentedSurfaceSystem,
    row_partition: BlockPartition,
    col_partition: BlockPartition,
    z: np.ndarray,
) -> np.ndarray:
    """Expected next tensor iterate; both routes computed and cross-checked."""
    enumerated = expectation_map_surface_enumerated(system, row_partition, col_partition, z)
    closed = expectation_map_surface_closed(system, z)
    gap = float(np.max(np.abs(enumerated - closed)))
    if gap > 1e-10:
        raise AssertionError(f"expectation routes disagree by {gap:.3e}")
    return closed


def contraction_check(system) -> float:
    """Spectral radius of the expected iteration matrix.

    For curve systems this is ``rho(I - S^T S / |S|_F^2)`` with ``S`` the
    stacked matrix; for surface systems it is the radius of the Kronecker
    form, evaluated through the eigenvalue products of the two factors
    (capped at small control counts). Full-rank systems give a radius
    strictly below 1; a zero column block pins it at exactly 1.
    """
    if isinstance(system, AugmentedCurveSystem):
        gram = system.stacked.T @ system.stacked
        eigs = scipy.linalg.eigvalsh(gram)
        total = float(np.trace(gram))
        return float(np.max(np.abs(1.0 - eigs / total)))
    if isinstance(system, AugmentedSurfaceSystem):
        n_u, n_v = system.n_controls
        if n_u * n_v > _KRONECKER_CAP:
            raise TooLarge(
                f"Kronecker radius check capped at {_KRONECKER_CAP} controls, "
                f"got {n_u * n_v}"
            )
        gram_u = system.row_stacked.T @ system.row_stacked
        gram_v = system.col_stacked.T @ system.col_stacked
        eig_u = scipy.linalg.eigvalsh(gram_u) / float(np.trace(gram_u))
        eig_v = scipy.linalg.eigvalsh(gram_v) / float(np.trace(gram_v))
        products = np.outer(eig_u, eig_v).ravel()
        return float(np.max(np.abs(1.0 - products)))
    raise TypeError(f"unsupported system type {type(system).__name__}")
