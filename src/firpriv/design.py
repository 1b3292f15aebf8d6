"""Optimal masking-noise filter designers.

Given the quadratic reduction of the adversary's error trace (see
:mod:`firpriv.estimators`), every designer here is an eigenvalue problem:

* variance-capped output design: scale the top eigenvector of the quadratic's
  matrix to spend the whole budget;
* weighted output design: closed-form threshold rule on the top eigenvalue;
* variance-capped input design: same after whitening by the plant's
  convolution Gram matrix;
* random-input design: same as the output design with the Monte Carlo
  estimate of the expected quadratic.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    BudgetError,
    DimensionError,
    ParameterError,
    RankError,
    RedrawBudgetError,
)
from .estimators import (
    FAILURE_BUDGET,
    Kernel,
    TraceQuadratic,
    _screened_inverse,
    _toeplitz,
    analyze_records,
)
from .lti import FirModel, _check_finite, _samples, build_regressor, convolution_matrix
from .rng import stream

logger = logging.getLogger(__name__)

#: Relative eigenvalue gap below which the top eigenspace is flagged repeated.
EIGEN_GAP_TOL = 1e-9

#: Relative eigenvalue floor of the plant Gram matrix for input-channel design.
GRAM_RANK_TOL = 1e-10


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a noise-filter design.

    ``predicted_trace`` is the adversary's error trace at the returned filter;
    ``lambda_y`` is the total stationary output-noise variance and ``rho`` its
    ratio to the unmasked noise floor.
    """

    l_star: np.ndarray
    predicted_trace: float
    lambda_y: float
    rho: float
    active_constraint: bool
    top_eigenvalue: float = 0.0
    degenerate_objective: bool = False
    degenerate_top_eigenspace: bool = False
    weighted_cost: Optional[float] = None
    predicted_ratio: Optional[float] = None


def _tie_break_sign(v: np.ndarray) -> np.ndarray:
    """Scale so the entry of largest magnitude is positive (ties: lowest index)."""
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _top_eigenpair(mat: np.ndarray):
    sym = (mat + mat.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    lam1 = float(eigvals[-1])
    v1 = _tie_break_sign(eigvecs[:, -1])
    degenerate = False
    if eigvals.size > 1 and lam1 > 0:
        degenerate = (lam1 - float(eigvals[-2])) < EIGEN_GAP_TOL * lam1
    return lam1, v1, degenerate


def _check_quadratic(quadratic: TraceQuadratic) -> TraceQuadratic:
    mat = np.asarray(quadratic.matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"quadratic matrix must be square, got shape {mat.shape}")
    return quadratic


def _check_budget(sigma2: float, gamma1: float) -> None:
    _check_finite("sigma2", sigma2, 0.0, strict=True)  # the designs report lambda_y / sigma2
    if not gamma1 > sigma2:  # NaN fails too
        raise BudgetError(f"gamma1={gamma1} must strictly exceed sigma2={sigma2}")
    _check_finite("gamma1", gamma1)


def _unmasked(offset: float, sigma2: float, n_l: int, lam1: float) -> DesignResult:
    """The capped designs' result for a numerically zero objective: no masking filter."""
    return DesignResult(
        l_star=np.zeros(n_l),
        predicted_trace=offset,
        lambda_y=sigma2,
        rho=1.0,
        active_constraint=False,
        top_eigenvalue=max(lam1, 0.0),
        degenerate_objective=True,
    )


def design_output_capped(quadratic, sigma2: float, gamma1: float) -> DesignResult:
    """Maximize the error trace over MA filters with total variance capped.

    The optimum points along the top eigenvector of the quadratic's matrix and
    spends the whole budget: ``||l*||^2 = gamma1 - sigma2``.
    """
    quad = _check_quadratic(quadratic)
    _check_budget(sigma2, gamma1)
    lam1, v1, degenerate = _top_eigenpair(quad.matrix)
    if lam1 <= 0.0:
        # Numerically zero objective: any feasible filter is as good as none.
        return _unmasked(quad.offset, sigma2, quad.n_l, lam1)
    l_star = math.sqrt(gamma1 - sigma2) * v1
    lambda_y = float(l_star @ l_star) + sigma2
    return DesignResult(
        l_star=l_star,
        predicted_trace=quad.evaluate(l_star),
        lambda_y=lambda_y,
        rho=lambda_y / sigma2,
        active_constraint=True,
        top_eigenvalue=lam1,
        degenerate_top_eigenspace=degenerate,
    )


def design_output_weighted(quadratic, gamma2: float, sigma2: Optional[float] = None) -> DesignResult:
    """Minimize inverse error trace plus a weighted output-variance penalty.

    The minimizer is zero when the top eigenvalue is at most
    ``gamma2 * offset**2``; otherwise it points along the top eigenvector with
    squared norm ``1/sqrt(gamma2 * lam1) - offset/lam1``.
    """
    quad = _check_quadratic(quadratic)
    _check_finite("gamma2", gamma2, 0.0, strict=True)
    if quad.offset <= 0:
        raise ParameterError(f"quadratic offset must be > 0, got {quad.offset}")
    if sigma2 is not None:
        _check_finite("sigma2", sigma2, 0.0, strict=True)
    lam1, v1, degenerate = _top_eigenpair(quad.matrix)
    c = quad.offset
    if lam1 <= gamma2 * c * c:
        l_star = np.zeros(quad.n_l)
        cost = 1.0 / c
        active = False
    else:
        norm_sq = 1.0 / math.sqrt(gamma2 * lam1) - c / lam1
        l_star = math.sqrt(norm_sq) * v1
        cost = 1.0 / quad.evaluate(l_star) + gamma2 * norm_sq
        active = True
    noise_power = float(l_star @ l_star)
    lambda_y = noise_power + sigma2 if sigma2 is not None else float("nan")
    rho = lambda_y / sigma2 if sigma2 is not None else float("nan")
    return DesignResult(
        l_star=l_star,
        predicted_trace=quad.evaluate(l_star),
        lambda_y=lambda_y,
        rho=rho,
        active_constraint=active,
        top_eigenvalue=max(lam1, 0.0),
        degenerate_top_eigenspace=degenerate,
        weighted_cost=cost,
    )


def _gram_inv_sqrt(gram: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh((gram + gram.T) / 2.0)
    top = float(eigvals[-1])
    if top <= 0 or float(eigvals[0]) <= GRAM_RANK_TOL * top:
        raise RankError(
            f"plant Gram matrix is numerically singular "
            f"(min/max eigenvalue ratio {eigvals[0] / max(top, 1e-300):.3e})"
        )
    clipped = np.maximum(eigvals, 1e-12 * top)
    return (eigvecs / np.sqrt(clipped)) @ eigvecs.T


def design_input_capped(
    r,
    h: FirModel,
    sigma2: float,
    gamma1: float,
    n_l: int,
    kernel: Optional[Kernel] = None,
) -> DesignResult:
    """Variance-capped design for noise injected at the plant input.

    The filter's output-variance contribution is ``||conv(h, l)||^2``, so the
    cap constrains ``l' H'H l`` with H the plant's convolution matrix.  The
    problem whitens to an ordinary eigenproblem; the returned filter satisfies
    the cap with equality.  The adversary is plain LS, or the regularized
    estimator when a ``kernel`` is given.
    """
    h_vec = _samples(h)
    n_f = h_vec.size + n_l - 1
    quad_f = analyze_records(build_regressor(r, h_vec.size), sigma2, n_f, kernel, h_vec)[0]
    return _design_input(quad_f, h_vec, sigma2, gamma1, n_l)


def _design_input(
    quad_f: TraceQuadratic, h_vec: np.ndarray, sigma2: float, gamma1: float, n_l: int
) -> DesignResult:
    """Input design from the record's quadratic in the filter ``conv(h, l)``."""
    _check_budget(sigma2, gamma1)
    Hmat = convolution_matrix(h_vec, n_l)
    m_prime = Hmat.T @ quad_f.matrix @ Hmat
    inv_sqrt = _gram_inv_sqrt(Hmat.T @ Hmat)
    whitened = inv_sqrt @ m_prime @ inv_sqrt
    lam1, eta, degenerate = _top_eigenpair(whitened)
    if lam1 <= 0.0:
        return _unmasked(quad_f.offset, sigma2, n_l, lam1)
    l_star = math.sqrt(gamma1 - sigma2) * (inv_sqrt @ eta)
    f_star = np.convolve(h_vec, l_star)
    lambda_y = float(f_star @ f_star) + sigma2
    quad = TraceQuadratic(matrix=m_prime, offset=quad_f.offset, adversary=quad_f.adversary)
    return DesignResult(
        l_star=l_star,
        predicted_trace=quad.evaluate(l_star),
        lambda_y=lambda_y,
        rho=lambda_y / sigma2,
        active_constraint=True,
        top_eigenvalue=lam1,
        degenerate_top_eigenspace=degenerate,
    )


@dataclass(frozen=True)
class RandomInputModel:
    """Distribution of the adversary's experiment: record length and input law.

    ``lengths``/``probabilities`` give the finite support of the record
    length; each input record is i.i.d. standard Gaussian.  ``theta`` length
    draws and ``vartheta`` input draws per length define the Monte Carlo budget.
    """

    lengths: np.ndarray
    probabilities: np.ndarray
    theta: int
    vartheta: int

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=int)
        probs = np.asarray(self.probabilities, dtype=float)
        if lengths.ndim != 1 or probs.shape != lengths.shape:
            raise DimensionError("lengths and probabilities must be 1-D and equal length")
        if np.any(lengths < 1):
            raise ParameterError("all support lengths must be >= 1")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ParameterError("probabilities must be nonnegative and sum to 1")
        if self.theta < 1 or self.vartheta < 1:
            raise ParameterError("theta and vartheta must be >= 1")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def uniform_gaussian(cls, min_length: int, max_length: int, theta: int, vartheta: int):
        lengths = np.arange(min_length, max_length + 1)
        probs = np.full(lengths.size, 1.0 / lengths.size)
        return cls(lengths=lengths, probabilities=probs, theta=theta, vartheta=vartheta)


@dataclass(frozen=True)
class ExpectedTraceQuadratic(TraceQuadratic):
    """Monte Carlo estimate of the expected trace quadratic over random inputs."""

    redraws: int = 0
    samples: int = 0


def estimate_expected_quadratic(
    model: RandomInputModel,
    n_h: int,
    n_l: int,
    sigma2: float,
    seed: int = 0,
) -> ExpectedTraceQuadratic:
    """Monte Carlo estimate of the plain-LS expected trace quadratic (matrix and offset).

    Averages the per-instance quadratic over ``theta`` record-length draws and
    ``vartheta`` input draws per length.  Ill-conditioned instances
    (condition estimate above the solver limit) are redrawn; the run aborts
    if redraws exceed ``FAILURE_BUDGET`` of the sample budget.
    """
    if n_l < 1:
        raise ParameterError(f"n_l must be >= 1, got {n_l}")
    _check_finite("sigma2", sigma2, 0.0)
    if np.any(model.lengths < n_h):
        raise ParameterError(
            f"all support lengths must be >= n_h={n_h}, min is {int(model.lengths.min())}"
        )

    total = model.theta * model.vartheta
    redraw_budget = FAILURE_BUDGET * total
    diag_acc = np.zeros(n_l)
    offset_acc = 0.0
    redraws = 0
    length_gen = stream(seed, "quad-lengths")
    lengths = length_gen.choice(model.lengths, size=model.theta, p=model.probabilities)

    for i in range(model.theta):
        n = int(lengths[i])
        gen = stream(seed, "quad-inputs", i)
        r_block = gen.standard_normal((model.vartheta, n))
        while True:
            R = build_regressor(r_block, n_h)
            gram = np.einsum("bij,bik->bjk", R, R)
            good, gram_inv = _screened_inverse(gram)
            bad = ~good
            if not bad.any():
                break
            redraws += int(bad.sum())
            if redraws > redraw_budget:
                raise RedrawBudgetError(
                    f"{redraws} ill-conditioned replicates exceed the redraw budget "
                    f"({FAILURE_BUDGET:.1%} of {total})"
                )
            r_block[bad] = gen.standard_normal((int(bad.sum()), n))
        A = np.einsum("bij,bjk->bik", R, gram_inv)  # rows of E = A A'
        offset_acc += sigma2 * np.einsum("bii->", gram_inv)
        # Lags d >= N do not overlap the record, so their sums are zero.
        for d in range(min(n_l, n)):
            diag_acc[d] += np.einsum("bij,bij->", A[:, : n - d, :], A[:, d:, :])

    if redraws:
        logger.info("expected-quadratic estimate: %d of %d replicates redrawn", redraws, total)
    matrix = _toeplitz(diag_acc / total)
    return ExpectedTraceQuadratic(
        matrix=matrix,
        offset=float(offset_acc / total),
        redraws=redraws,
        samples=total,
    )


def design_output_random(quadratic, sigma2: float, gamma1: float) -> DesignResult:
    """Variance-capped output design against the expected trace quadratic.

    Identical to :func:`design_output_capped` plus the predicted ratio of the
    expected error trace with and without masking noise:
    ``1 + lam1 * (gamma1 - sigma2) / offset``.
    """
    result = design_output_capped(quadratic, sigma2, gamma1)
    ratio = 1.0 + result.top_eigenvalue * (gamma1 - sigma2) / quadratic.offset
    return replace(result, predicted_ratio=ratio)
