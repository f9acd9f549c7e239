"""Deterministic reference computations backing the stochastic solver tests.

Everything here is a slow-but-sure alternative path: dense normal-equation
solves of the stacked systems, exhaustive expectations of one randomized
step, and spectral-radius checks. The solvers are tested against these,
never the other way round. The normal-matrix pencil (``GramPencil``) rules
on every direct solve: it refuses a weight past the floating-point range or
a failed condition gate, in its own words. The axis-by-axis tensor solve
over pencils (``solve_tensor_normal``) serves both stacked solves, one pencil
per stacked factor, which return a direct fit's ``FitResult``, as the
experiment's direct solves do. The experiment's parameter directions are
pencils themselves, gated on the cheap eigenvalue bounds of their banded
grams (:func:`band_eigen_range`, :func:`difference_gram_range`); at weight 0
the gate decides both the direct solves and the whitened spectrum.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .assembly import (
    AugmentedCurveSystem,
    AugmentedSurfaceSystem,
    BlockPartition,
    difference_eigenvalues,
    tensor_apply,
)
from .driver import FitResult
from .errors import OutOfRange, RankDeficient, TooLarge

# Beyond this bound on the 2-norm condition number of a normal matrix a
# direct solve raises RankDeficient: a curve's as a surface's, the stacked
# oracles' as the experiment's.
COND_LIMIT = 1e12

# Size caps for the exhaustive reference computations.
_EXPECTATION_CAP = 10_000
_KRONECKER_CAP = 400


def eigen_range(gram: np.ndarray) -> np.ndarray:
    """``[low, high]``: bounds on the eigenvalues of a symmetric matrix.

    ``eigvalsh`` is backward stable, so each computed eigenvalue lies within
    a small multiple of ``n eps |gram|_2`` of an exact one; both ends are
    widened by that much.
    """
    eigs = np.linalg.eigvalsh(gram)
    slack = gram.shape[0] * np.finfo(float).eps * max(-eigs[0], eigs[-1])
    return np.array([eigs[0] - slack, eigs[-1] + slack])


def band_eigen_range(gram: np.ndarray, width: int) -> np.ndarray:
    """``[low, high]``: bounds on the eigenvalues of a symmetric positive
    semidefinite matrix that is zero beyond ``width`` diagonals on either
    side of its own, in O(n width^2).

    ``high`` is Gershgorin's bound, the largest absolute row sum over the band.
    ``low`` is ``1 / tr(gram^-1)``: the trace is the sum of the reciprocal
    eigenvalues, so its reciprocal lies below the smallest one. The inverse's
    diagonal comes from a band ``L D L^T`` factor and Takahashi's recurrence
    for the inverse on the factor's pattern (Erisman & Tinney, CACM 18(3),
    1975). The factor is the exact one of a matrix within about
    ``(width + 1)^2 eps |gram|_2`` of ``gram``, so the trace is good to about
    that times the condition number ``cond <= high tr(gram^-1)``: ``low`` is
    shrunk by ``4 (width + 1)^2 eps cond`` of itself, and ``high`` grown by
    the row sums' round-off. ``low`` is 0 where that shrinking reaches it or
    a pivot of the factor is not positive, as for a singular matrix.
    """
    n = gram.shape[0]
    eps = np.finfo(float).eps
    bands = [np.diagonal(gram, k) for k in range(min(width, n - 1) + 1)]
    rows = np.abs(bands[0])
    for k, band in enumerate(bands[1:], start=1):
        rows[:-k] += np.abs(band)
        rows[k:] += np.abs(band)
    high = float(rows.max()) * (1.0 + len(bands) * 2 * eps)
    trace = _inverse_trace([band.tolist() for band in bands])
    slack = 4 * len(bands) ** 2 * eps * high * trace
    return np.array([(1.0 - slack) / trace if slack < 1.0 else 0.0, high])


def _inverse_trace(bands: list) -> float:
    """``tr(M^-1)`` of the symmetric band matrix with ``bands[k][i] = M[i, i + k]``,
    or inf when a pivot of its ``L D L^T`` factor is not positive."""
    n, w = len(bands[0]), len(bands) - 1
    pivots = [0.0] * n
    factor = [[0.0] * (w + 1) for _ in range(n)]      # factor[j][k] = L[j, j - k]
    for j in range(n):
        row = factor[j]
        for k in range(min(j, w), 0, -1):
            i = j - k
            total = bands[k][i]
            for far in range(k + 1, min(j, w) + 1):
                total -= row[far] * factor[i][far - k] * pivots[j - far]
            row[k] = total / pivots[i]
        pivot = bands[0][j]
        for k in range(1, min(j, w) + 1):
            pivot -= row[k] * row[k] * pivots[j - k]
        if not pivot > 0.0:
            return np.inf
        pivots[j] = pivot
    # Takahashi: Z = D^-1 L^-1 + (I - L^T) Z, solved upward on the band of Z
    inverse = [[0.0] * (w + 1) for _ in range(n)]     # inverse[i][k] = Z[i, i + k]
    trace = 0.0
    for i in range(n - 1, -1, -1):
        reach = min(w, n - 1 - i)
        below = [factor[i + t][t] for t in range(reach + 1)]    # L[i + t, i]
        for k in range(1, reach + 1):
            inverse[i][k] = -sum(
                below[t] * inverse[min(t, k) + i][abs(t - k)] for t in range(1, reach + 1)
            )
        inverse[i][0] = 1.0 / pivots[i] - sum(
            below[t] * inverse[i][t] for t in range(1, reach + 1)
        )
        trace += inverse[i][0]
    return trace


def difference_gram_range(size: int, scale: float) -> np.ndarray:
    """``[low, high]``: bounds on the eigenvalues of ``G^T G`` for
    ``G = difference_matrix(size, scale)``, in closed form.

    The eigenvalues are ``mu_k^2`` (:func:`~rpia.assembly.difference_eigenvalues`).
    Both ends are widened by ``16 eps mu_max^2``: the closed form's own
    round-off (about ``10 eps`` of each ``mu_k^2``) plus that of forming
    ``G^T G`` as the penalty span's ``gram()``. Each of its entries sums, per
    diagonal, at most three nonzero products of one sign, each ``1``, ``2`` or
    ``4`` times the rounded ``s^2``, so it is rounded at most three times and
    lies within ``1.5 eps`` (to first order) of the exact entry, relative to
    that entry. As ``|G^T G| = |G|^T |G|`` entry by entry and
    ``|G| = s tridiag(1, 2, 1)`` has 2-norm ``|mu_max|``, the computed gram
    lies within ``1.5 eps mu_max^2`` of the exact one in norm: with the closed
    form's, under ``12 eps mu_max^2``.
    """
    mu = difference_eigenvalues(size, scale)
    with np.errstate(over="ignore"):
        low, high = mu[0] ** 2, mu[-1] ** 2
    slack = 16 * np.finfo(float).eps * high
    return np.array([low - slack, high + slack])


def _ratio(eigen_bounds: np.ndarray) -> float:
    low, high = eigen_bounds
    return float(high / low) if low > 0.0 else np.inf


class GramPencil:
    """The normal matrices ``design_gram + lam * penalty_gram`` of one penalized
    fit, and the one ruling on a direct solve of them.

    Both grams are symmetric positive semidefinite; with no penalty the
    pencil is the one matrix ``design_gram`` (weight 0 only). A weight is
    refused first (``OutOfRange``) where the trace, a bound on every entry,
    leaves the floating-point range; it is read from the grams' cached traces,
    so no matrix is formed for it. The condition gate is Weyl's bound: every
    eigenvalue of the sum lies in
    ``[a_min + lam g_min, a_max + lam g_max]``. It reads one range of bounds
    per gram, computed once, the penalty's only when a positive weight asks,
    so the gate costs O(1) per weight and a solve is one LU solve. Here both
    ranges are the grams' eigenvalues (:func:`eigen_range`); a subclass that
    knows cheaper bounds overrides ``_design_range`` and ``_penalty_range``,
    as the experiment's directions do. Where a bound exceeds the limit it is
    checked against the matrix's own eigenvalues: a loose range can overstate
    the condition, and where the two grams' low eigenvectors differ (a design
    gram that is singular or nearly so) so can Weyl's bound, by orders of
    magnitude. The design gram's eigenvalues are computed once
    (``_design_eigen_range``), so every weight-0 gate of one pencil shares
    one eigensolve. A failed gate refuses the solve (``RankDeficient``), for
    a curve as for a surface; the pencil words both refusals (``name``).
    """

    def __init__(self, design_gram: np.ndarray, penalty_gram: Optional[np.ndarray] = None,
                 name: str = "the normal matrix"):
        self.design_gram = design_gram
        self.penalty_gram = penalty_gram
        self.name = name

    @cached_property
    def _design_eigen_range(self) -> np.ndarray:
        return eigen_range(self.design_gram)

    @cached_property
    def _design_range(self) -> np.ndarray:
        return self._design_eigen_range

    @cached_property
    def _penalty_range(self) -> np.ndarray:
        return eigen_range(self.penalty_gram)

    @cached_property
    def _design_trace(self) -> float:
        with np.errstate(over="ignore"):         # inf past the range, refused unwarned
            return float(np.trace(self.design_gram))

    @cached_property
    def _penalty_trace(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.trace(self.penalty_gram))

    def matrix(self, lam: float = 0.0) -> np.ndarray:
        return self.design_gram + lam * self.penalty_gram if lam else self.design_gram

    def trace(self, lam: float = 0.0) -> float:
        """``tr(design_gram + lam penalty_gram)``, from the grams' cached traces."""
        return self._design_trace + lam * self._penalty_trace if lam else self._design_trace

    def out_of_range(self, lam: float) -> OutOfRange:
        return OutOfRange(f"{self.name} has a normal matrix outside the floating-point range")

    def rank_deficient(self, lam: float, cond: float) -> RankDeficient:
        return RankDeficient(f"{self.name} is numerically rank deficient: condition "
                             f"bound {cond:.3g} exceeds {COND_LIMIT:g}")

    def condition(self, lam: float = 0.0) -> float:
        """Upper bound on the 2-norm condition number at weight ``lam``:
        Weyl's bound over the two ranges, or the exact eigenvalue ratio
        (widened by round-off) where that exceeds the limit; infinite when
        neither shows the matrix positive definite."""
        if not np.isfinite(self.trace(lam)):
            raise self.out_of_range(lam)
        if not lam:
            bound = _ratio(self._design_range)
            return bound if bound <= COND_LIMIT else _ratio(self._design_eigen_range)
        bound = _ratio(self._design_range + lam * self._penalty_range)
        if bound <= COND_LIMIT:
            return bound
        return _ratio(eigen_range(self.matrix(lam)))

    def gate(self, lam: float = 0.0) -> None:
        """Refuse weight ``lam`` unless a direct solve of its matrix may run."""
        cond = self.condition(lam)
        if not cond <= COND_LIMIT:
            raise self.rank_deficient(lam, cond)

    def all_penalty_weight(self) -> float:
        """The weight past which the matrix is all penalty in floating point:
        beyond it ``lam g_min > a_max / eps``, so adding the design changes no
        eigenvalue of ``lam * penalty``. Read from the two ranges, so it is at
        least that weight. Infinite when the penalty's range does not show it
        positive definite."""
        low = self._penalty_range[0]
        if not low > 0.0:
            return np.inf
        return float(self._design_range[1] / (np.finfo(float).eps * low))

    def solve(self, rhs: np.ndarray, lam: float = 0.0) -> np.ndarray:
        """``X`` with ``(design_gram + lam penalty_gram) X = rhs``, past the :meth:`gate`."""
        self.gate(lam)
        return np.linalg.solve(self.matrix(lam), rhs)


def solve_tensor_normal(pencils, rhs: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Solve for ``P`` whose product with ``K_i`` along every axis ``i`` is ``rhs``.

    ``K_i`` is pencil ``i`` at weight ``lam``: ``K P = rhs`` for one pencil,
    ``Ku P Kv = rhs`` (the system ``kron(Kv, Ku) vec P = vec rhs``) for two.
    Axes past the pencils (the point coordinates) ride along. One LU solve
    per pencil covers every coordinate, and no Kronecker product is ever
    formed. The first pencil whose gate fails raises its refusal.
    """
    solution = rhs
    for axis, pencil in enumerate(pencils):
        moved = np.moveaxis(solution, axis, 0)
        flat = pencil.solve(moved.reshape(moved.shape[0], -1), lam)
        solution = np.moveaxis(flat.reshape(moved.shape), 0, axis)
    return np.ascontiguousarray(solution)


def _solve_stacked(factors, rhs: np.ndarray, names) -> FitResult:
    """The direct fit whose controls times ``S_i^T S_i`` along every axis ``i``
    are ``rhs``: one :class:`GramPencil` per stacked factor ``S_i``, named ``names``."""
    with np.errstate(over="ignore", invalid="ignore"):    # the pencil refuses such a gram
        pencils = [GramPencil(s.T @ s, name=name) for s, name in zip(factors, names)]
    return FitResult(solve_tensor_normal(pencils, rhs), 0, "direct")


def solve_curve_direct(system: AugmentedCurveSystem) -> FitResult:
    """Exact minimizer of the stacked curve system via the normal equations
    ``S^T S P = S^T targets``.

    Raises
    ------
    OutOfRange, RankDeficient
        If ``S^T S`` leaves the floating-point range, or fails the condition gate.
    """
    stacked = system.stacked
    return _solve_stacked([stacked], stacked.T @ system.targets, ["the stacked curve matrix"])


def solve_surface_direct(system: AugmentedSurfaceSystem) -> FitResult:
    """Exact minimizer of the stacked tensor system, one coordinate at a time.

    Each coordinate slice solves
    ``gram_u P gram_v = row_stacked^T targets col_stacked`` by
    :func:`solve_tensor_normal`.

    Raises
    ------
    OutOfRange, RankDeficient
        If either gram leaves the floating-point range, or fails the condition gate.
    """
    a_hat, b_hat = system.row_stacked, system.col_stacked
    rhs = tensor_apply(a_hat.T, system.targets, b_hat.T)
    return _solve_stacked([a_hat, b_hat], rhs, ["stacked factor u", "stacked factor v"])


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
        eigs = np.linalg.eigvalsh(gram)
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
        eig_u = np.linalg.eigvalsh(gram_u) / float(np.trace(gram_u))
        eig_v = np.linalg.eigvalsh(gram_v) / float(np.trace(gram_v))
        products = np.outer(eig_u, eig_v).ravel()
        return float(np.max(np.abs(1.0 - products)))
    raise TypeError(f"unsupported system type {type(system).__name__}")
