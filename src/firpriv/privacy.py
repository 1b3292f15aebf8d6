"""Differential-privacy calibration of additive output noise.

Calibrates Laplace and Gaussian mechanisms from worst-case output-shift
bounds over a box of admissible coefficient vectors, and provides an exact
density audit for tiny instances.  Guarantees here hold no matter what
estimator the adversary runs, at the price of i.i.d. (unshaped) noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtri

from .errors import AuditSizeError, ParameterError
from .lti import _check_finite, _samples, build_regressor
from .rng import stream

#: Output grid size of the exhaustive density audit.
AUDIT_GRID_POINTS = 2001


@dataclass(frozen=True)
class CoefficientBox:
    """Axis-aligned box of admissible FIR coefficients: lower <= h_i <= upper."""

    lower: float
    upper: float
    n_h: int

    def __post_init__(self):
        _check_finite("box lower bound", self.lower)
        _check_finite("box upper bound", self.upper)
        if not self.lower <= self.upper:
            raise ParameterError(f"box lower {self.lower} exceeds upper {self.upper}")
        if self.n_h < 1:
            raise ParameterError(f"n_h must be >= 1, got {self.n_h}")

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class DpMechanism:
    """Calibrated noise mechanism with the sensitivity it was derived from.

    ``scale`` is the Laplace scale b or the Gaussian standard deviation;
    ``lambda_y`` is the total stationary output-noise variance including the
    measurement-noise floor.
    """

    kind: str  # "laplace" or "gaussian"
    scale: float
    epsilon: float
    delta: float
    sensitivity: float
    lambda_y: float

    def __post_init__(self):
        if self.kind not in ("laplace", "gaussian"):
            raise ParameterError(f"kind must be laplace or gaussian, got {self.kind!r}")
        _check_finite("epsilon", self.epsilon, 0.0, strict=True)
        if self.kind == "laplace":
            if self.delta != 0.0:
                raise ParameterError("laplace mechanism has delta = 0")
            if self.scale * self.epsilon < self.sensitivity * (1.0 - 1e-12):
                raise ParameterError(
                    f"laplace scale {self.scale} below sensitivity/epsilon "
                    f"= {self.sensitivity / self.epsilon}"
                )
        else:
            if not 0.0 < self.delta < 1.0:
                raise ParameterError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def noise_variance(self) -> float:
        return 2.0 * self.scale**2 if self.kind == "laplace" else self.scale**2


def l1_sensitivity(r, box: CoefficientBox) -> float:
    """Worst-case l1 shift of the noiseless output between adjacent coefficient boxes.

    Adjacent means differing in a single entry; the extreme pair differs by
    the box width in the first entry, giving ``width * sum_k |r_k|``.
    """
    samples = _samples(r)
    return float(box.width * np.sum(np.abs(samples)))


def l2_sensitivity(r, box: CoefficientBox) -> float:
    """Worst-case l2 shift between adjacent coefficient vectors: ``width * ||r||_2``.

    Derived the same way as :func:`l1_sensitivity`: a single-entry difference
    scales one column of the regressor, and the first column has the largest
    norm.
    """
    samples = _samples(r)
    return float(box.width * np.linalg.norm(samples))


def laplace_mechanism(epsilon: float, sensitivity: float, sigma2: float = 0.0) -> DpMechanism:
    """Tightest Laplace scale achieving epsilon-privacy for the given sensitivity."""
    _check_finite("epsilon", epsilon, 0.0, strict=True)
    _check_finite("sensitivity", sensitivity, 0.0)
    _check_finite("sigma2", sigma2, 0.0)
    scale = sensitivity / epsilon
    return DpMechanism(
        kind="laplace",
        scale=scale,
        epsilon=epsilon,
        delta=0.0,
        sensitivity=sensitivity,
        lambda_y=2.0 * scale**2 + sigma2,
    )


def gaussian_tail_inverse(delta: float) -> float:
    """The x with P{Z > x} = delta, Z standard normal; accurate down to delta = 5e-324."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    return float(-ndtri(delta))


def gaussian_noise_multiplier(epsilon: float, delta: float) -> float:
    """Multiplier on sensitivity/epsilon for the Gaussian mechanism.

    Equals ``(q + sqrt(q^2 + 2 epsilon)) / 2`` with ``q`` the Gaussian tail
    inverse at delta; strictly increasing in epsilon and decreasing in delta.
    """
    _check_finite("epsilon", epsilon, 0.0, strict=True)
    q = gaussian_tail_inverse(delta)
    return (q + math.sqrt(q * q + 2.0 * epsilon)) / 2.0


def gaussian_mechanism(
    epsilon: float, delta: float, l2_sensitivity: float, sigma2: float = 0.0
) -> DpMechanism:
    """Gaussian deviation achieving (epsilon, delta)-privacy by a sufficient condition.

    This is the classical calibration from a one-sided tail bound (see
    :func:`gaussian_noise_multiplier`).  It is not tight: the exact privacy
    profile of the Gaussian mechanism admits a smaller deviation for the same
    (epsilon, delta), and the delta it delivers is below the one requested.
    """
    _check_finite("l2_sensitivity", l2_sensitivity, 0.0)
    _check_finite("sigma2", sigma2, 0.0)
    std = gaussian_noise_multiplier(epsilon, delta) * l2_sensitivity / epsilon
    return DpMechanism(
        kind="gaussian",
        scale=std,
        epsilon=epsilon,
        delta=delta,
        sensitivity=l2_sensitivity,
        lambda_y=std**2 + sigma2,
    )


def _draw_mechanism(gen: np.random.Generator, mech: DpMechanism, shape) -> np.ndarray:
    """Noise of a calibrated mechanism in the given shape, drawn from ``gen``."""
    if mech.kind == "gaussian":
        return mech.scale * gen.standard_normal(shape)
    if mech.scale == 0.0:
        return np.zeros(shape)
    u = np.clip(gen.random(shape), 1e-300, 1.0 - 1e-16)
    # Inverse CDF of the Laplace distribution applied to a uniform draw.
    centered = u - 0.5
    return -mech.scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def sample_mechanism(mech: DpMechanism, n: int, seed: int = 0) -> np.ndarray:
    """Draw n i.i.d. noise samples from a calibrated mechanism (seed-deterministic)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return _draw_mechanism(stream(seed, "dp-noise"), mech, n)


def _laplace_gauss_log_density(points: np.ndarray, b: float, sigma: float):
    """Log density of Laplace(b) + Gaussian(sigma) noise at the given points.

    For sigma > 0 the convolution has the closed form
    ``f(x) = [e^(a - x/b) Phi(x/sigma - sigma/b) + e^(a + x/b) Phi(-x/sigma - sigma/b)] / 2b``
    with ``a = sigma^2 / 2b^2``, evaluated in log space so the tails do not
    underflow.
    """
    if sigma == 0.0:
        dens = np.exp(-np.abs(points) / b) / (2.0 * b)
        return np.log(np.maximum(dens, 1e-300))
    a = 0.5 * (sigma / b) ** 2
    z = points / sigma
    t = sigma / b
    return -math.log(2.0 * b) + np.logaddexp(
        a - points / b + log_ndtr(z - t), a + points / b + log_ndtr(-z - t)
    )


def privacy_audit(
    r,
    box: CoefficientBox,
    epsilon: float,
    b: float,
    sigma2: float = 0.0,
) -> float:
    """Exhaustive density audit of a Laplace-noised record on a tiny instance.

    Evaluates the exact per-sample output density (Laplace noise convolved
    with the Gaussian measurement noise, in closed form through the log
    normal CDF) for every adjacent pair of box corners and returns the
    largest absolute log-likelihood ratio over a fixed grid of
    ``AUDIT_GRID_POINTS`` outputs, evenly spaced on ``[-10 s, 10 s]`` with
    ``s = b + sqrt(sigma2) + width * max|r|``.  An epsilon-calibrated scale
    keeps the result at or below epsilon up to rounding.
    """
    samples = _samples(r)
    _check_finite("sigma2", sigma2, 0.0)
    if samples.size > 4 or box.n_h > 2:
        raise AuditSizeError(
            f"audit instance too large (N={samples.size}, n_h={box.n_h}); "
            "exact densities are only evaluated for N <= 4, n_h <= 2"
        )
    if box.width == 0.0:
        return 0.0
    if not b > 0:
        raise ParameterError(f"b must be > 0 to audit a nonzero box, got {b}")
    reg = build_regressor(samples, box.n_h)
    sigma = math.sqrt(sigma2)
    scale = b + sigma + box.width * float(np.max(np.abs(samples)))
    grid = np.linspace(-10.0 * scale, 10.0 * scale, AUDIT_GRID_POINTS)
    log_base = _laplace_gauss_log_density(grid, b, sigma)

    worst = 0.0
    for j in range(box.n_h):
        shifts = box.width * np.abs(reg[:, j])
        total = 0.0
        for d in np.unique(shifts):
            if d == 0.0:
                continue
            count = int(np.sum(shifts == d))
            log_shifted = _laplace_gauss_log_density(grid - d, b, sigma)
            total += count * float(np.max(log_base - log_shifted))
        worst = max(worst, total)
    return worst
