"""Least-squares and kernel-regularized estimators with exact error formulas.

These are the adversary's tools: the plain least-squares estimate, the
regularized variant, their exact error covariance / mean-square-error
matrices under moving-average masking noise, and the reduction of the error
trace to a small quadratic form in the MA filter coefficients.  The noise
designers in :mod:`firpriv.design` optimize against these formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ConditioningError, DimensionError, ParameterError, SingularKernelError
from .lti import (
    _LAPACK, BandedFilterMatrix, FirModel, _check_count, _check_finite, _samples, _windows,
    build_regressor,
)

# SciPy's LAPACK wrappers, which lti loads without importing scipy.linalg.
dpotrf, dpotrs = _LAPACK.dpotrf, _LAPACK.dpotrs

#: Solves are rejected only when the normal-equation condition estimate exceeds this.  They
#: are unrefined, so their relative error grows as about eps * cond(R'R): on random (200, 9)
#: records, tr inv(R'R) erred by 7e-13 at 1e4, 9e-10 at 1e7 and 1.1e-5 at 1e11 (50-digit mpmath).
CONDITION_LIMIT = 1e12

#: Largest fraction of a Monte Carlo run's random instances that may fail ``CONDITION_LIMIT``.
FAILURE_BUDGET = 0.01

#: Kernel eigenvalues at or below this fraction of the largest are treated as null.
KERNEL_NULL_TOL = 1e-10


@dataclass(frozen=True)
class LsEstimate:
    """Coefficient estimate and the norm of the fit residual."""

    h_hat: np.ndarray
    residual_norm: float


@dataclass(frozen=True)
class Kernel:
    """Regularization kernel: positive definite matrix K, its ``inverse`` and weight eta > 0."""

    matrix: np.ndarray
    eta: float
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = np.asarray(self.matrix, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionError(f"kernel must be square, got shape {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ParameterError("kernel matrix contains non-finite entries")
        scale = np.linalg.norm(k)
        if scale > 0 and np.max(np.abs(k - k.T)) > 1e-10 * scale:
            raise ParameterError("kernel matrix must be symmetric")
        object.__setattr__(self, "matrix", (k + k.T) / 2.0)
        eigs, vecs = np.linalg.eigh(self.matrix)
        if eigs[0] < -1e-10 * max(scale, 1.0):
            raise ParameterError(f"kernel must be positive semidefinite, min eig {eigs[0]:.3e}")
        null = eigs <= KERNEL_NULL_TOL * max(eigs[-1], 0.0)
        if np.any(null):
            raise SingularKernelError(
                f"kernel is numerically singular ({int(null.sum())} null directions)"
            )
        _check_finite("eta", self.eta, 0.0, strict=True)
        inv = (vecs / eigs) @ vecs.T
        object.__setattr__(self, "inverse", (inv + inv.T) / 2.0)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ErrorReport:
    """Symmetric error matrix (covariance or MSE) together with its trace."""

    matrix: np.ndarray
    trace: float
    adversary: str  # "LS" or "RLS"


@dataclass(frozen=True)
class TraceQuadratic:
    """Error trace as a quadratic in the MA filter coefficients.

    For every coefficient vector ``l`` of the advertised length,
    ``l @ matrix @ l + offset`` equals the exact error trace of the matching
    estimator under the MA masking-noise model.  Both parts must be finite.
    """

    matrix: np.ndarray
    offset: float
    adversary: str = "LS"

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"quadratic matrix must be square, got shape {mat.shape}")
        if not (np.all(np.isfinite(mat)) and math.isfinite(self.offset)):
            raise ParameterError(f"quadratic must be finite, got offset {self.offset}")

    def evaluate(self, l) -> float:
        l = np.asarray(l, dtype=float)
        return float(l @ self.matrix @ l + self.offset)

    @property
    def n_l(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class RecordQuadratic(TraceQuadratic):
    """Trace quadratic of one fixed input record, with the analysis behind it.

    ``estimator_map`` is the (N, n_h) map E with ``h_hat = E' y``: the
    transpose of the estimator's gain C.  ``bias`` is the squared bias
    ``||h - C R h||^2`` (zero for LS) and ``noise_gain`` is ``tr(C C')``, so
    ``offset == bias + sigma2 * noise_gain``.
    """

    estimator_map: Optional[np.ndarray] = None
    bias: float = 0.0
    noise_gain: float = 0.0


def _condition_numbers(mats: np.ndarray) -> np.ndarray:
    """Condition numbers ``lambda_max / lambda_min`` of symmetric matrices.

    Works on one matrix or a stack.  A numerically singular or indefinite
    matrix (smallest eigenvalue at or below zero) or a non-finite one, such as
    an overflowed Gram, counts as an infinite condition number.
    """
    finite = np.all(np.isfinite(mats), axis=(-2, -1), keepdims=True)
    eigs = np.linalg.eigvalsh(np.where(finite, mats, 0.0))
    low, high = eigs[..., 0], eigs[..., -1]
    return np.divide(high, low, out=np.full(np.shape(low), np.inf), where=low > 0)


def _screened_inverse(grams: np.ndarray):
    """``(good, inverses)``: ``_condition_numbers <= CONDITION_LIMIT`` and the accepted inverses.

    For Gram matrices (positive semidefinite but for rounding), the Frobenius
    product ``|G| |inv G| >= |lambda|_max / |lambda|_min``, and a rounding-level
    eigenvalue of either sign puts it far over the limit; a matrix whose product is
    100 times under the limit needs no eigenvalue solve.  If inverting the stack
    fails, it is tested exactly first.
    """
    try:
        inverses = np.linalg.inv(grams)
    except np.linalg.LinAlgError:
        good = _condition_numbers(grams) <= CONDITION_LIMIT
        return good, np.linalg.inv(grams[good])
    squares = np.einsum("bij,bij->b", grams, grams) * np.einsum("bij,bij->b", inverses, inverses)
    good = squares <= (CONDITION_LIMIT / 100) ** 2
    if not good.all():
        rest = ~good
        good[rest] = _condition_numbers(grams[rest]) <= CONDITION_LIMIT
        inverses = inverses[good]
    return good, inverses


def _screened_maps(records: np.ndarray, n_h: int):
    """``(good, R, gram_inv, A)``: a (b, N) record stack screened, with LS maps ``A = R inv(R'R)``.

    ``R``, ``gram_inv`` and ``A`` cover the accepted records (``R`` is a view if all are).
    Grams and maps are ``einsum``s: matmuls round differently and move the random design.
    """
    R = build_regressor(records, n_h)
    good, gram_inv = _screened_inverse(np.einsum("bij,bik->bjk", R, R))
    if not good.all():
        R = R[good]
    return good, R, gram_inv, np.einsum("bij,bjk->bik", R, gram_inv)


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """Symmetric Toeplitz matrices with first column ``c``, over its last axis.

    C-ordered, so each matrix of a stack is one contiguous block, as a lone
    matrix is: a product with it then rounds the same in a stack as alone.
    """
    idx = np.arange(c.shape[-1])
    return np.ascontiguousarray(c[..., np.abs(idx[:, np.newaxis] - idx)])


def _spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD system by one unrefined Cholesky solve, with an error of about eps * cond.

    A failed factorization or a non-finite (out of range) solution raises
    :class:`ConditioningError` with the matrix's condition number.
    """
    # cho_factor/cho_solve wrap these routines with costly per-call checks.
    factor, info = dpotrf((mat + mat.T) / 2.0, overwrite_a=True, clean=False)
    # Each column solves alone, so blocks change no bit; a right-hand side of 1,024 or
    # more entries can wake SciPy's OpenBLAS worker, which then stalls calls by ~16 ms.
    step = max(1, 1020 // len(rhs))
    x = np.hstack([dpotrs(factor, rhs[:, j:j + step])[0] for j in range(0, rhs.shape[1], step)])
    if info != 0 or not np.all(np.isfinite(x)):
        condition = float(_condition_numbers(mat))
        raise ConditioningError(
            f"Cholesky solve failed (LAPACK info {info}, condition estimate {condition:.3e})",
            condition=condition,
        )
    return x


def _gram_solve(mats: np.ndarray, rhs, what: str) -> np.ndarray:
    """Screen a stack of normal matrices, then solve each by :func:`_spd_solve` for its ``rhs``.

    The screen is :func:`_screened_inverse`'s and the only rejection of a
    solve in floating-point range; the first record it rejects raises
    :class:`ConditioningError` with that record's condition number.
    """
    good, _ = _screened_inverse(mats)
    if not good.all():
        k = int(np.argmin(good))
        condition = float(_condition_numbers(mats[k]))
        raise ConditioningError(
            f"{what} rejected (record {k}): condition estimate {condition:.3e} "
            f"exceeds {CONDITION_LIMIT:.0e}",
            condition=condition,
        )
    return np.stack([_spd_solve(mat, b) for mat, b in zip(mats, rhs)])


def _regressor_stack(R):
    """The regressors as a contiguous (b, N, n_h) stack, and whether one (N, n_h) was given.

    Contiguous records let stacked matmuls run each record through the same
    BLAS calls as a single (N, n_h) regressor, so results do not depend on b.
    """
    Rm = np.ascontiguousarray(R, dtype=float)
    return (Rm[np.newaxis], True) if Rm.ndim == 2 else (Rm, False)


def _estimate(R, y, estimator_map) -> LsEstimate:
    """``h_hat = E'y`` on ``E = estimator_map(R)``; a non-finite result raises ConditioningError."""
    Rm = np.asarray(R, dtype=float)
    yv = _samples(y)
    if yv.size != Rm.shape[0]:
        raise DimensionError(f"output length {yv.size} != regressor rows {Rm.shape[0]}")
    h_hat = estimator_map(Rm).T @ yv
    residual_norm = float(np.linalg.norm(yv - Rm @ h_hat))
    if not (np.all(np.isfinite(h_hat)) and math.isfinite(residual_norm)):
        raise ConditioningError("estimate or its fit residual is not finite")
    return LsEstimate(h_hat=h_hat, residual_norm=residual_norm)


def ls_estimate(R, y) -> LsEstimate:
    """Ordinary least-squares coefficient estimate ``E'y`` on the map ``E = R inv(R'R)``.

    Rejects only instances whose normal-equation condition estimate exceeds
    ``CONDITION_LIMIT``; the map carries :func:`ls_gram_inverse`'s eps * cond error.
    """
    return _estimate(R, y, lambda Rm: Rm @ ls_gram_inverse(Rm))


def ls_gram_inverse(R) -> np.ndarray:
    """Condition-checked inverse of the normal-equation matrix ``R'R``.

    ``R`` is one regressor (N, n_h) or a stack (b, N, n_h), giving one
    inverse or a stack of them.  Its trace is the LS noise gain
    ``tr(inv(R'R))`` and ``R @ inverse`` is the estimator map
    (``h_hat = (R @ inverse)' y``).  Rejects only instances whose condition
    estimate exceeds ``CONDITION_LIMIT``; an accepted inverse is one unrefined
    Cholesky solve, with a relative error of about eps * cond(R'R).
    """
    Rs, single = _regressor_stack(R)
    grams = np.swapaxes(Rs, 1, 2) @ Rs
    inverses = _gram_solve(grams, [np.eye(Rs.shape[-1])] * len(Rs), "normal-equation matrix")
    inverses = (inverses + np.swapaxes(inverses, 1, 2)) / 2.0
    return inverses[0] if single else inverses


def ls_covariance(R, noise_matrix=None, sigma2: float = 0.0) -> ErrorReport:
    """Exact covariance ``sigma2 E'E + (L'E)'(L'E)`` of the least-squares estimate.

    E is the record's estimator map ``R inv(R'R)`` from :func:`analyze_records`
    and L the :class:`BandedFilterMatrix` ``noise_matrix`` (None: zero).  It takes
    O(N*m*n_h); the dense band is never built.
    """
    return _error_report(R, noise_matrix, sigma2)


def ls_trace_quadratic(R, sigma2: float, n_l: int):
    """Reduce the LS error trace to a quadratic in the MA filter coefficients.

    The quadratic's matrix is symmetric Toeplitz: entry (a, b) is the sum of
    the |a-b|-offset diagonal of ``E = R inv(R'R) inv(R'R) R'``.  Computing it
    this way costs O(n_l * N * n_h) and never materializes the huge Kronecker
    product that defines it.  One regressor (N, n_h) gives one quadratic and a
    stack (b, N, n_h) a list of b, one per record.  See :func:`analyze_records`.
    """
    quads = analyze_records(R, sigma2, n_l)
    return quads[0] if np.ndim(R) == 2 else quads


def rls_gain(R, kernel: Kernel) -> np.ndarray:
    """The linear map C with h_hat = C y for the regularized estimator.

    ``R`` is one regressor (N, n_h), giving C of shape (n_h, N), or a stack
    (b, N, n_h), giving (b, n_h, N).  Every record's regularized normal
    matrix ``R'R + eta inv(K)`` (``inv(K)`` is ``kernel.inverse``) must pass
    ``CONDITION_LIMIT``, the only rejection, and its unrefined gain errs by about eps * cond.
    """
    Rs, single = _regressor_stack(R)
    if kernel.size != Rs.shape[-1]:
        raise DimensionError(f"kernel size {kernel.size} != coefficient count {Rs.shape[-1]}")
    Rt = np.swapaxes(Rs, -1, -2)
    mats = Rt @ Rs + kernel.eta * kernel.inverse
    gains = _gram_solve(mats, Rt, "regularized normal matrix")
    return gains[0] if single else gains


def rls_estimate(R, y, kernel: Kernel) -> LsEstimate:
    """Kernel-regularized least-squares estimate.

    Minimizes ``||y - R h||^2 + eta * h' inv(K) h`` as ``C y`` on the gain C of
    :func:`rls_gain`.
    """
    return _estimate(R, y, lambda Rm: rls_gain(Rm, kernel).T)


def rls_mse(
    R, h_true: FirModel, kernel: Kernel, noise_matrix=None, sigma2: float = 0.0
) -> ErrorReport:
    """Exact MSE matrix ``b b' + sigma2 E'E + (L'E)'(L'E)`` of the regularized estimate.

    E is the record's estimator map C' from :func:`analyze_records` and
    ``b = h - E'(R h)`` the regularization bias, which depends on the true
    coefficients; L and the cost are as in :func:`ls_covariance`.
    """
    return _error_report(R, noise_matrix, sigma2, kernel, h_true)


def _error_report(R, noise_matrix, sigma2: float, kernel=None, h_true=None) -> ErrorReport:
    """One record's error matrix from its estimator map E.

    ``L'E`` is the full convolution of E's columns with the reversed filter.
    """
    Rm = np.asarray(R, dtype=float)
    if Rm.ndim != 2:
        raise DimensionError(f"need one (N, n_h) regressor, got shape {Rm.shape}")
    if noise_matrix is not None and not isinstance(noise_matrix, BandedFilterMatrix):
        raise ParameterError(f"noise_matrix must be a BandedFilterMatrix, got {type(noise_matrix)}")
    if noise_matrix is not None and noise_matrix.n_samples != Rm.shape[0]:
        raise DimensionError(
            f"noise matrix rows {noise_matrix.n_samples} != regressor rows {Rm.shape[0]}"
        )
    E = analyze_records(Rm, sigma2, 1, kernel, h_true)[0].estimator_map
    err = sigma2 * (E.T @ E)
    if kernel is not None:
        bias_vec = _samples(h_true) - E.T @ (Rm @ _samples(h_true))
        err = err + np.outer(bias_vec, bias_vec)
    coeffs = np.zeros(1) if noise_matrix is None else noise_matrix.coeffs  # none: zero filter
    LtE = _windows(E.T, coeffs.size, trailing=coeffs.size - 1) @ coeffs[::-1]
    err = err + LtE @ LtE.T
    err = (err + err.T) / 2.0
    return ErrorReport(err, float(np.trace(err)), "LS" if kernel is None else "RLS")


def rls_trace_quadratic(
    R,
    h_true: FirModel,
    kernel: Kernel,
    sigma2: float,
    n_l: int,
):
    """Reduce the regularized-estimator MSE trace to a quadratic in ``l``.

    Same Toeplitz construction, and the same one-quadratic or list result, as
    :func:`ls_trace_quadratic` with ``E = C'C``; the offset collects the bias
    term and the measurement-noise term, neither of which depends on the MA
    filter.  See :func:`analyze_records`.
    """
    quads = analyze_records(R, sigma2, n_l, kernel, h_true)
    return quads[0] if np.ndim(R) == 2 else quads


def analyze_records(
    R,
    sigma2: float,
    n_l: int,
    kernel: Optional[Kernel] = None,
    h_true=None,
) -> List[RecordQuadratic]:
    """Exact error analysis of fixed input records, one gain solve per record.

    ``R`` is one regressor (N, n_h) or a stack (b, N, n_h) of equal-length
    records; the result holds one :class:`RecordQuadratic` per record, at
    measurement-noise variance ``sigma2``.  Without a kernel the adversary is
    plain LS, whose estimator map is ``R inv(R'R)`` (:func:`ls_gram_inverse`)
    and which has no bias; with one it is the regularized estimator with
    gain C (:func:`rls_gain`), whose bias needs ``h_true``.  Everything else
    is derived from the map: the noise gain ``tr(C C')``, the squared bias
    ``||h - C R h||^2`` and the first ``n_l`` diagonal sums of ``C'C``, which
    define the Toeplitz trace quadratic.  Every record's normal matrix is
    screened and solved, unrefined, by ``_gram_solve``: the map errs by about
    eps * cond, and any record over ``CONDITION_LIMIT`` fails the whole call.
    """
    _check_count("n_l", n_l)
    _check_finite("sigma2", sigma2, 0.0)
    Rs, _ = _regressor_stack(R)
    if kernel is None:
        gram_inv = ls_gram_inverse(Rs)
        estimator_map = Rs @ gram_inv
        noise_gain = np.trace(gram_inv, axis1=1, axis2=2)
        bias = np.zeros(len(Rs))
    else:
        if h_true is None:
            raise ParameterError("the regularized analysis requires h_true")
        h = _samples(h_true)
        if h.size != Rs.shape[-1]:
            raise DimensionError(f"h_true length {h.size} != coefficient count {Rs.shape[-1]}")
        gain = rls_gain(Rs, kernel)
        estimator_map = np.swapaxes(gain, 1, 2)
        # Stacked matmuls and sums repeat each record's own BLAS arithmetic.
        bias_vec = h - (gain @ (Rs @ h)[:, :, np.newaxis])[:, :, 0]
        bias = (bias_vec[:, np.newaxis] @ bias_vec[:, :, np.newaxis]).ravel()
        noise_gain = np.sum(gain * gain, axis=(1, 2))
    n = Rs.shape[1]
    # Offset-d diagonal sum of C'C: the sum over t of E[t] . E[t + d], zero
    # for d >= N.  The sum runs in the map's memory order, as a per-record
    # np.sum would: the sign of an antisymmetric top eigenvector of the
    # quadratic, and so of a designed filter, is decided by these rounding bits.
    sums = np.zeros((len(Rs), n_l))
    for d in range(min(n_l, n)):
        sums[:, d] = np.sum(estimator_map[:, : n - d] * estimator_map[:, d:], axis=(1, 2))
    matrices = _toeplitz(sums)
    return [
        RecordQuadratic(
            matrix=matrices[k],
            offset=float(bias[k] + sigma2 * noise_gain[k]),
            adversary="LS" if kernel is None else "RLS",
            estimator_map=estimator_map[k],
            bias=float(bias[k]),
            noise_gain=float(noise_gain[k]),
        )
        for k in range(len(Rs))
    ]


def stable_spline_kernel(n_h: int, beta: float) -> np.ndarray:
    """Stable spline kernel: entry (i, j) is beta**max(i, j) with 1-based indices."""
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    _check_count("n_h", n_h)
    idx = np.arange(1, n_h + 1)
    return beta ** np.maximum.outer(idx, idx)
