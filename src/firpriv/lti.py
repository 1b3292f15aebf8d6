"""FIR/rational system representations, Toeplitz operators and seeded simulation.

Conventions used throughout:

* An FIR system with coefficients ``h = [h_0, ..., h_{n_h-1}]`` maps an input
  ``r`` to ``y_t = sum_k h_k r_{t-k}``.
* Initial conditions are always zero (``r_t = 0`` for ``t <= 0``); there is
  deliberately no API for a nonzero initial state.
* In docstrings the sample index ``t`` and coefficient indices are 1-based to
  match the usual system-identification notation; array storage is 0-based.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrf

from .errors import ConditioningError, DimensionError, ParameterError, StabilityError
from .rng import stream

#: Tolerance on |pole| < 1 used by the stability check.
STABILITY_TOL = 1e-9

#: Relative weight of the last summed samples at which ``fir_truncate`` stops its tail sum.
TAIL_REL_TOL = 1e-12


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise DimensionError(f"{name} must have length >= 1")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} contains non-finite entries")
    return arr


def _check_finite(name: str, value: float, lower: float = -math.inf, strict: bool = False) -> None:
    """``ParameterError`` unless ``value`` is finite and ``>= lower`` (``> lower`` if strict)."""
    if not (math.isfinite(value) and (value > lower if strict else value >= lower)):
        bound = f" and {'>' if strict else '>='} {lower:g}" if lower > -math.inf else ""
        raise ParameterError(f"{name} must be finite{bound}, got {value}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FirModel:
    """Finite impulse response model, fully described by its coefficient vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(_as_vector(self.coeffs, "coeffs")))

    def __len__(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True)
class RationalFilter:
    """Rational transfer function in the delay operator.

    ``numerator[k]`` and ``denominator[k]`` are the coefficients of the k-th
    power of the delay operator; the denominator must have leading entry 1 and
    all its roots strictly inside the unit circle.
    """

    numerator: np.ndarray
    denominator: np.ndarray

    def __post_init__(self):
        num = _readonly(_as_vector(self.numerator, "numerator"))
        den = _readonly(_as_vector(self.denominator, "denominator"))
        if den[0] != 1.0:
            raise ParameterError(f"denominator leading coefficient must be 1, got {den[0]}")
        poles = _poles(den)
        if poles.size and np.max(np.abs(poles)) >= 1.0 - STABILITY_TOL:
            raise StabilityError(
                f"unstable filter: largest pole magnitude {np.max(np.abs(poles)):.6g}"
            )
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


def _poles(den: np.ndarray) -> np.ndarray:
    # Trailing zero coefficients only add poles at the origin; drop them.
    trimmed = np.trim_zeros(den, "b")
    if trimmed.size <= 1:
        return np.empty(0)
    return np.roots(trimmed)


def _samples(x) -> np.ndarray:
    if isinstance(x, FirModel):
        return np.asarray(x.coeffs)
    return _as_vector(x, "signal")


def factor_adjoint(bands: np.ndarray, x) -> np.ndarray:
    """``C.T @ x`` for an (N, k) block and C given as ``bands[k, j] = C[j+k, j]``."""
    n = bands.shape[1]
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != n:
        raise DimensionError(f"need an ({n}, k) block, got shape {x.shape}")
    out = np.zeros((n, x.shape[1]))
    for k, c in enumerate(bands):
        out[: n - k] += c[: n - k, None] * x[k:]
    return out


@dataclass(frozen=True)
class BandedFilterMatrix:
    """Banded matrix L mapping a white vector to moving-average noise.

    For filter length m, row i holds the reversed coefficients
    ``(l_{m-1}, ..., l_0)`` starting at column i, so ``matrix @ v`` is the
    steady-state MA convolution of ``v`` with the coefficients.

    Only the coefficients and the row count are stored.  The dense
    N x (N+m-1) ``matrix`` is built, read-only, on first access;
    :meth:`noise_factor` works without it.
    """

    coeffs: np.ndarray = field(repr=False)
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(self.coeffs))

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        # L is the transposed convolution operator of the reversed coefficients.
        n = self.n_samples
        return _readonly(_windows(self.coeffs[::-1], n, trailing=n - 1).T)

    def noise_factor(self, w: float) -> np.ndarray:
        """Cholesky factor C of ``matrix @ matrix.T + w*I`` in LAPACK lower band storage.

        That matrix is Toeplitz in the autocovariance ``rho_d = sum_a l_a l_{a+d}``,
        d < min(m, N), so ``dpbtrf`` factors it in O(N*m^2) without the dense band.
        """
        m, n = self.coeffs.size, self.n_samples
        rho = np.correlate(self.coeffs, self.coeffs, "full")[m - 1 : m - 1 + min(m, n)]
        ab = np.repeat(rho[:, None], n, axis=1)
        ab[0] += w
        bands, info = dpbtrf(ab, lower=1)
        if info != 0:
            raise ConditioningError(f"noise covariance not positive definite (dpbtrf info {info})")
        return _readonly(bands)


def _lfilter(num, den, x):
    """Zero-state response of ``num / den`` to ``x``, in direct form II transposed.

    Follows the operation order of scipy's ``lfilter`` for float64 data, so
    the results are the same bit for bit.  Both coefficient vectors are
    divided by ``den[0]`` and the shorter is zero-padded to length m; then,
    per sample, ``y = z[0] + b[0]*x``, ``z[k] = (z[k+1] + x*b[k+1]) - y*a[k+1]``
    and ``z[m-2] = x*b[m-1] - y*a[m-1]``.  A one-entry ``den`` takes scipy's
    convolution path instead.  A (b, N) stack runs the recursion on NumPy
    columns, in the same order, so each row has its one-record bits.
    """
    b = np.asarray(num, dtype=float)
    a = np.asarray(den, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.size == 1:
        rows = [np.convolve(b / a[0], row)[: x.shape[-1]] for row in np.atleast_2d(x)]
        return np.array(rows).reshape(x.shape)

    m = max(a.size, b.size)
    a0 = a[0]
    b = (np.concatenate([b, np.zeros(m - b.size)]) / a0).tolist()
    a = (np.concatenate([a, np.zeros(m - a.size)]) / a0).tolist()
    samples = x.tolist() if x.ndim == 1 else np.ascontiguousarray(x.T)
    out = []
    append = out.append
    b0 = b[0]
    if m == 2:
        # First order: every AR(1) input record takes this loop.
        b1, a1 = b[1], a[1]
        state = 0.0
        for xk in samples:
            yk = state + b0 * xk
            state = xk * b1 - yk * a1
            append(yk)
    else:
        z = [0.0] * (m - 1)
        last = m - 2
        for xk in samples:
            yk = z[0] + b0 * xk
            for k in range(last):
                z[k] = (z[k + 1] + xk * b[k + 1]) - yk * a[k + 1]
            z[last] = xk * b[m - 1] - yk * a[m - 1]
            append(yk)
    return np.array(out, dtype=float).T


def impulse_response(g: RationalFilter, n: int) -> np.ndarray:
    """First ``n`` samples of the zero-state response of ``g`` to a unit impulse.

    The impulse arrives at the first sample, so the result is the coefficient
    sequence of the power-series expansion of ``g`` in the delay operator.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    pulse = np.zeros(n)
    pulse[0] = 1.0
    return _lfilter(g.numerator, g.denominator, pulse)


def fir_truncate(g: RationalFilter, order: int):
    """Truncate ``g`` to an FIR model of the given order.

    Returns ``(FirModel, tail_quality)`` where ``tail_quality`` is the l1 norm
    of the discarded impulse-response tail.  The tail is summed over the
    first n samples of the impulse response, with n doubled from
    ``2*order + 256`` until the second half of those samples adds at most
    ``TAIL_REL_TOL`` of their whole l1 norm, or until n reaches 10**6.
    """
    if order < 1:
        raise ParameterError(f"order must be >= 1, got {order}")
    # Stability guarantees geometric decay, so the doubling terminates; the
    # cap only guards against near-unit poles.
    n = 2 * order + 256
    response = np.abs(impulse_response(g, n))
    while n < 10**6 and np.sum(response[n // 2 :]) > TAIL_REL_TOL * np.sum(response):
        n = min(2 * n, 10**6)
        response = np.abs(impulse_response(g, n))
    return FirModel(impulse_response(g, order)), float(np.sum(response[order:]))


def _windows(x: np.ndarray, width: int, trailing: int = 0) -> np.ndarray:
    """Read-only view ``W[..., t, j] = x[..., t - j]``, zero outside ``x``.

    ``t`` runs over ``x.shape[-1] + trailing`` rows and ``j`` over ``width``
    columns: the first rows of the convolution operator of ``x``.  The view
    is a sliding window over the zero-padded ``x``; no matrix is copied.
    """
    zeros = np.zeros(x.shape[:-1] + (width - 1,))
    padded = np.concatenate([zeros, x, zeros[..., :trailing]], axis=-1)
    return np.lib.stride_tricks.sliding_window_view(padded, width, axis=-1)[..., ::-1]


def build_regressor(r, n_h: int) -> np.ndarray:
    """Build the N x n_h regressor matrix of an input record, or a stack of them.

    The lower-banded Toeplitz matrix R has ``R[t, j] = r_{t-j+1}`` (1-based),
    so ``R @ h`` is the zero-state response of the FIR system ``h`` to ``r``.
    ``r`` is one record (N,) or a (b, N) stack of equal-length records,
    giving an (N, n_h) or a (b, N, n_h) array.  Either way it is a
    read-only sliding-window view of the zero-padded records, not a copy.
    Requires ``N >= n_h`` so that the least-squares problem it feeds is not
    structurally underdetermined.
    """
    if np.ndim(r) == 2:
        samples = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(samples)):
            raise ParameterError("records contain non-finite entries")
    else:
        samples = _samples(r)
    n = samples.shape[-1]
    if n_h < 1:
        raise ParameterError(f"n_h must be >= 1, got {n_h}")
    if n < n_h:
        raise DimensionError(f"need at least n_h={n_h} samples, got N={n}")
    return _windows(samples, n_h)


def build_filter_matrix(l, n_samples: int) -> BandedFilterMatrix:
    """The N x (N+m-1) banded operator of an MA filter with coefficients ``l``.

    Validation only, O(m): the dense form is built on first ``.matrix`` access.
    """
    coeffs = _samples(l)
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    return BandedFilterMatrix(coeffs=coeffs, n_samples=int(n_samples))


def convolution_matrix(h, n_cols: int) -> np.ndarray:
    """Convolution operator of ``h`` acting on length ``n_cols`` vectors.

    The result has ``len(h) + n_cols - 1`` rows; multiplying it by a
    coefficient vector yields the coefficients of the polynomial product.
    """
    coeffs = _samples(h)
    if n_cols < 1:
        raise ParameterError(f"n_cols must be >= 1, got {n_cols}")
    return _windows(coeffs, n_cols, trailing=n_cols - 1).copy()


def simulate(
    h: FirModel,
    r,
    channel: str = "none",
    l=None,
    sigma2: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Simulate one output record of the plant under the chosen noise channel.

    Parameters
    ----------
    h : FirModel
        Plant coefficients.
    r : array_like
        Input record of length N (>= len(h)).
    channel : {"output", "input", "none"}
        Where the masking noise enters.  "output" adds the MA process driven
        by ``l`` to the output; "input" adds it to the plant input, so its
        output contribution is the MA process of ``conv(h, l)``; "none" adds
        no masking noise.
    l : array_like, optional
        MA filter coefficients (required unless channel == "none").
    sigma2 : float
        Variance of the white measurement noise.
    seed : int
        Stream seed; draws are a pure function of (seed, stream, index).

    Returns the read-only output record.  The masking noise is driven by
    standard Gaussian white noise and is stationary: its driving vector
    extends before the first sample, so every output sample sees the full
    filter memory and the record follows the banded-matrix model; the MA
    filter is applied as a valid-mode convolution in O(N*m).
    """
    _check_finite("sigma2", sigma2, 0.0)
    samples = _samples(r)
    y = build_regressor(samples, len(h)) @ h.coeffs
    n = samples.size

    if channel not in ("output", "input", "none"):
        raise ParameterError(f"channel must be output/input/none, got {channel!r}")
    if channel != "none":
        if l is None:
            raise ParameterError("channel with masking noise requires filter coefficients l")
        coeffs = _samples(l)
        if channel == "input":
            coeffs = np.convolve(h.coeffs, coeffs)
        v = stream(seed, "v").standard_normal(n + coeffs.size - 1)
        y = y + np.convolve(v, coeffs, mode="valid")
    if sigma2 > 0:
        y = y + np.sqrt(sigma2) * stream(seed, "e").standard_normal(n)
    return _readonly(y)


def generate_filtered_input(w_filter: RationalFilter, n_samples: int, seed=0) -> np.ndarray:
    """Read-only unit-variance white Gaussian noise shaped by ``w_filter`` (zero initial state).

    A sequence of seeds gives a stack of records, one per seed, filtered in one pass.
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    seeds = seed if np.ndim(seed) else [seed]
    white = [stream(s, "input-white").standard_normal(n_samples) for s in seeds]
    white = np.reshape(white, np.shape(seed) + (n_samples,))
    return _readonly(_lfilter(w_filter.numerator, w_filter.denominator, white))
