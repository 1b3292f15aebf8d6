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

from .errors import AuditSizeError, ParameterError
from .lti import _check_count, _check_finite, _load_scipy_extension, _samples, build_regressor
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
        _check_count("n_h", self.n_h)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class DpMechanism:
    """Calibrated noise mechanism with the sensitivity it was derived from.

    ``scale`` is the Laplace scale b or the Gaussian standard deviation and ``lambda_y``
    the total stationary output-noise variance including the measurement-noise floor.
    ``noise_variance`` and ``lambda_y`` must be finite, or ParameterError is raised.
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
        _check_finite("noise variance", self.noise_variance)
        _check_finite("lambda_y", self.lambda_y)

    @property
    def noise_variance(self) -> float:
        return (2.0 if self.kind == "laplace" else 1.0) * (self.scale * self.scale)


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
    """Tightest Laplace scale for epsilon-privacy; ParameterError if its variance overflows."""
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
        lambda_y=2.0 * (scale * scale) + sigma2,
    )


def _special_ufunc(name: str):
    """SciPy's ``name`` ufunc (``log_ndtr`` or ``erfcx``), from its compiled extension.

    Loaded on first use.  SciPy releases whose extension is missing or lacks the
    ufunc give the same function through the public ``scipy.special`` import instead.
    """
    try:
        return getattr(_load_scipy_extension("special", "_special_ufuncs"), name)
    except (ImportError, AttributeError):
        import scipy.special
        return getattr(scipy.special, name)


def gaussian_tail_inverse(delta: float) -> float:
    """The x with P{Z > x} = delta, Z standard normal.

    ``-NormalDist().inv_cdf(delta)`` from the standard library (Wichura's
    AS241 normal quantile).  On sampled deltas from 5e-324 to 1 - 1e-15 it was
    within 7 ulp of ``scipy.special.ndtri`` (55,005 deltas) and within 6 ulp
    of a 40-digit mpmath root (2,900 deltas).
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    from statistics import NormalDist  # loaded on first use: the CLI import skips it

    return -NormalDist().inv_cdf(delta)


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
    :func:`gaussian_noise_multiplier`).  It is not tight: the exact privacy profile of
    the Gaussian mechanism admits a smaller deviation for the same (epsilon, delta), and
    the delta it delivers is below the one requested.  ParameterError if its variance overflows.
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
        lambda_y=std * std + sigma2,
    )


def _draw_mechanism(gen: np.random.Generator, mech: DpMechanism, shape) -> np.ndarray:
    """Noise of a calibrated mechanism in the given shape, drawn from ``gen``."""
    if mech.kind == "gaussian":
        return mech.scale * gen.standard_normal(shape)
    # 2**-53 is the smallest nonzero draw of ``random``; 0.0 itself would give -inf.
    u = np.clip(gen.random(shape), 2.0**-53, 1.0 - 1e-16)
    # Inverse CDF of the Laplace distribution applied to a uniform draw.
    centered = u - 0.5
    return -mech.scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))


def sample_mechanism(mech: DpMechanism, n: int, seed: int = 0) -> np.ndarray:
    """Draw n i.i.d. noise samples from a calibrated mechanism (seed-deterministic)."""
    _check_count("n", n)
    return _draw_mechanism(stream(seed, "dp-noise"), mech, n)


def _laplace_gauss_log_density(points: np.ndarray, b: float, sigma: float):
    """Log density of Laplace(b) + Gaussian(sigma) noise at the given points.

    For sigma > 0 the convolution is ``f(x) = [g(z) + g(-z)] / 2b`` with
    ``z = x/sigma``, ``t = sigma/b`` and ``g(y) = e^(t^2/2 - t y) Phi(y - t)``,
    evaluated in log space so the tails do not underflow.  Where ``w = y - t < 0``,
    ``log g(y) = -y^2/2 + log(erfcx(-w/sqrt 2) / 2)``, free of the two terms of
    size ``t^2/2`` that cancel (or overflow) when b is far below sigma.
    """
    if sigma == 0.0:
        return -np.abs(points) / b - math.log(2.0 * b)
    z, t = points / sigma, sigma / b
    terms = [np.empty_like(z), np.empty_like(z)]
    with np.errstate(over="ignore"):  # both branches overflow only to -inf, where g is 0
        for y, log_g in zip((z, -z), terms):
            w = y - t
            low = w < 0
            log_g[low] = np.log(_special_ufunc("erfcx")(-w[low] / 2**0.5) / 2) - y[low] ** 2 / 2
            log_g[~low] = t * (t / 2 - y[~low]) + _special_ufunc("log_ndtr")(w[~low])
    return -math.log(2.0 * b) + np.logaddexp(*terms)


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
    keeps the result at or below epsilon up to rounding.  Each ratio is a difference
    of two log densities, so the result has an absolute error of up to 4 eps times
    the largest |log density| on the grid (51 where the Gaussian noise dominates):
    at width = b = 1e-12 and sigma2 = 1 it is 1.000444e-11 for 1e-11; at 1e-300, 0.
    """
    samples = _samples(r)
    _check_finite("epsilon", epsilon, 0.0, strict=True)
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
