import math
import os
import subprocess
import sys
import types
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from firpriv import (
    AuditSizeError,
    CoefficientBox,
    DpMechanism,
    ParameterError,
    build_regressor,
    gaussian_mechanism,
    gaussian_noise_multiplier,
    gaussian_tail_inverse,
    l1_sensitivity,
    l2_sensitivity,
    laplace_mechanism,
    privacy_audit,
    sample_mechanism,
)
from firpriv import privacy
from firpriv.privacy import AUDIT_GRID_POINTS, _draw_mechanism, _laplace_gauss_log_density


def tail_integral(x: float) -> mpmath.mpf:
    """Independent high-precision tail integral of the standard normal density."""
    with mpmath.workdps(40):
        return mpmath.quad(
            lambda u: mpmath.exp(-u * u / 2) / mpmath.sqrt(2 * mpmath.pi), [x, mpmath.inf]
        )


def newton_tail_inverse(delta: float) -> float:
    """Root of ``tail_integral(x) = delta`` by Newton's method on the quadrature (T' = -phi).

    Started from 0 and kept inside a bracket shrunk from [-40, 40]: a step
    that leaves it is replaced by the bracket's midpoint.
    """
    lo, hi, x = -40.0, 40.0, mpmath.mpf(0)
    with mpmath.workdps(40):
        target = mpmath.mpf(delta)
        for _ in range(100):
            excess = tail_integral(x) - target
            step = excess * mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(x * x / 2)
            if abs(step) < 1e-16:
                return float(x + step)
            if excess > 0:
                lo = x
            else:
                hi = x
            x = x + step if lo < x + step < hi else (lo + hi) / 2
    raise AssertionError(f"Newton oracle did not converge at delta={delta}")


DELTA_GRID = [1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1 - 1e-3, 1 - 1e-6]


class TestSensitivities:
    def test_l1_small_example(self):
        box = CoefficientBox(0.0, 1.0, 2)
        assert l1_sensitivity([1.0, -2.0, 3.0], box) == pytest.approx(6.0)

    def test_l2_small_example(self):
        box = CoefficientBox(0.0, 1.0, 2)
        assert l2_sensitivity([3.0, 4.0], box) == pytest.approx(5.0)

    def test_degenerate_box_gives_zero(self):
        box = CoefficientBox(0.4, 0.4, 3)
        assert l1_sensitivity([1.0, 2.0, 3.0], box) == 0.0
        assert l2_sensitivity([1.0, 2.0, 3.0], box) == 0.0

    def test_single_nonzero_sample(self):
        box = CoefficientBox(-1.0, 2.0, 1)
        r = [0.0, -2.5, 0.0]
        assert l1_sensitivity(r, box) == pytest.approx(3.0 * 2.5)
        assert l2_sensitivity(r, box) == pytest.approx(3.0 * 2.5)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            n_h = int(rng.integers(1, 4))
            r = rng.standard_normal(n)
            box = CoefficientBox(0.0, 1.0, n_h)
            reg = build_regressor(r, n_h)
            best_l1 = 0.0
            best_l2 = 0.0
            base = rng.uniform(0.0, 1.0, n_h)
            for j in range(n_h):
                for a in grid:
                    for b in grid:
                        h1, h2 = base.copy(), base.copy()
                        h1[j], h2[j] = a, b
                        diff = reg @ h1 - reg @ h2
                        best_l1 = max(best_l1, float(np.sum(np.abs(diff))))
                        best_l2 = max(best_l2, float(np.linalg.norm(diff)))
            assert l1_sensitivity(r, box) == pytest.approx(best_l1, rel=1e-12)
            assert l2_sensitivity(r, box) == pytest.approx(best_l2, rel=1e-12)

    def test_nondecreasing_in_record_length(self):
        rng = np.random.default_rng(1)
        box = CoefficientBox(-0.5, 1.5, 2)
        r = rng.standard_normal(8)
        for n in range(2, 8):
            assert l1_sensitivity(r[: n + 1], box) >= l1_sensitivity(r[:n], box)
            assert l2_sensitivity(r[: n + 1], box) >= l2_sensitivity(r[:n], box)

    def test_box_validation(self):
        with pytest.raises(ParameterError):
            CoefficientBox(1.0, 0.0, 2)

    @pytest.mark.parametrize(
        "lower, upper",
        [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf), (math.nan, math.nan)],
    )
    def test_box_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ParameterError, match="finite"):
            CoefficientBox(lower, upper, 2)


class TestLaplaceMechanism:
    def test_formula_plug_in(self):
        mech = laplace_mechanism(epsilon=1.0, sensitivity=2.0, sigma2=1.0)
        assert mech.scale == pytest.approx(2.0)
        assert mech.lambda_y == pytest.approx(9.0)

    def test_zero_sensitivity_needs_no_noise(self):
        mech = laplace_mechanism(epsilon=0.5, sensitivity=0.0, sigma2=0.3)
        assert mech.scale == 0.0
        assert mech.lambda_y == pytest.approx(0.3)

    def test_halving_epsilon_quadruples_noise_power(self):
        a = laplace_mechanism(epsilon=1.0, sensitivity=2.0, sigma2=0.5)
        b = laplace_mechanism(epsilon=0.5, sensitivity=2.0, sigma2=0.5)
        assert (b.lambda_y - 0.5) == pytest.approx(4.0 * (a.lambda_y - 0.5))

    def test_epsilon_validation(self):
        with pytest.raises(ParameterError):
            laplace_mechanism(epsilon=0.0, sensitivity=1.0)

    def test_mechanism_invariant_guard(self):
        # scale and lambda_y are derived, so an under-calibrated mechanism cannot be built.
        for name in ("scale", "lambda_y"):
            with pytest.raises(TypeError):
                DpMechanism(kind="laplace", epsilon=1.0, delta=0.0, sensitivity=1.0,
                            **{name: 0.5})
        assert DpMechanism(kind="laplace", epsilon=1.0, delta=0.0, sensitivity=1.0).scale == 1.0


class TestGaussianTail:
    def test_inverse_matches_newton_oracle(self):
        for delta in DELTA_GRID:
            oracle = newton_tail_inverse(delta)
            assert gaussian_tail_inverse(delta) == pytest.approx(oracle, abs=1e-10)

    def test_round_trip(self):
        for delta in DELTA_GRID:
            x = gaussian_tail_inverse(delta)
            assert 0.5 * math.erfc(x / math.sqrt(2)) == pytest.approx(delta, abs=1e-10 * max(delta, 1e-3))

    @pytest.mark.parametrize("delta", [1e-100, 1e-300])
    def test_far_tail_matches_erfc_oracle(self, delta):
        # The oracle of acceptance criterion C8: bisection on mpmath's erfc.
        def oracle_tail(x):
            with mpmath.workdps(30):
                return 0.5 * mpmath.erfc(x / mpmath.sqrt(2))

        lo, hi = -40.0, 40.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            if oracle_tail(mid) > delta:
                lo = mid
            else:
                hi = mid
        assert gaussian_tail_inverse(delta) == pytest.approx(0.5 * (lo + hi), rel=1e-14)

    def test_inverse_within_4_ulp_of_ndtri_on_listed_deltas(self):
        from scipy.special import ndtri  # the oracle; the package never imports scipy.special

        # Each branch of the AS241 quantile is hit: the central one (|delta - 1/2| <= 0.425),
        # the tail with sqrt(-log delta) <= 5 on either side, and the far tail down to the
        # smallest subnormal; the last two sit next to the median, where x is tiny.  The
        # bound holds on these deltas only: 127 of 55,005 sampled deltas exceed it (at most 7).
        deltas = [5e-324, 1e-310, 1e-300, 1e-100, 1e-20, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6,
                  0.15, 0.5 - 2.0**-54, 0.5000337569122224]
        for delta in deltas:
            oracle = -float(ndtri(delta))
            assert abs(gaussian_tail_inverse(delta) - oracle) <= 4 * np.spacing(abs(oracle))

    def test_median_is_zero(self):
        assert gaussian_tail_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_domain_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ParameterError):
                gaussian_tail_inverse(bad)


class TestNoiseMultiplier:
    def test_symmetric_case(self):
        # Tail inverse at 1/2 vanishes, so the multiplier is sqrt(2 eps)/2.
        assert gaussian_noise_multiplier(2.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        for eps in (0.1, 1.0, 4.0):
            assert gaussian_noise_multiplier(eps, 0.5) == pytest.approx(
                math.sqrt(2.0 * eps) / 2.0, abs=1e-12
            )

    def test_monotone_in_epsilon_and_delta(self):
        eps_grid = np.linspace(0.1, 5.0, 25)
        delta_grid = np.linspace(0.01, 0.99, 25)
        for delta in (0.05, 0.5, 0.9):
            values = [gaussian_noise_multiplier(e, delta) for e in eps_grid]
            assert np.all(np.diff(values) > 0)
        for eps in (0.2, 1.0, 3.0):
            values = [gaussian_noise_multiplier(eps, d) for d in delta_grid]
            assert np.all(np.diff(values) < 0)


class TestGaussianMechanism:
    def test_zero_sensitivity(self):
        mech = gaussian_mechanism(1.0, 0.1, 0.0, sigma2=0.2)
        assert mech.scale == 0.0
        assert mech.lambda_y == pytest.approx(0.2)

    def test_symmetric_example(self):
        mech = gaussian_mechanism(2.0, 0.5, 2.0, sigma2=0.0)
        assert mech.scale == pytest.approx(1.0, abs=1e-12)
        assert mech.lambda_y == pytest.approx(1.0, abs=1e-12)

    def test_noise_decreases_with_delta(self):
        scales = [gaussian_mechanism(1.0, d, 1.0).scale for d in (0.05, 0.1, 0.3, 0.6)]
        assert np.all(np.diff(scales) < 0)

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            gaussian_mechanism(1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            gaussian_mechanism(1.0, 1.0, 1.0)


class TestDpMechanism:
    def test_derived_fields_bit_for_bit(self):
        rng = np.random.default_rng(33)
        for _ in range(500):
            eps, sens = 10.0 ** rng.uniform(-3, 2), 10.0 ** rng.uniform(-6, 6)
            delta, sigma2 = 10.0 ** rng.uniform(-12, -0.01), rng.uniform(0, 10)
            lap = DpMechanism("laplace", eps, 0.0, sens, sigma2)
            gauss = DpMechanism("gaussian", eps, delta, sens, sigma2)
            assert lap.scale == sens / eps
            assert gauss.scale == gaussian_noise_multiplier(eps, delta) * sens / eps
            for mech in (lap, gauss):
                assert mech.lambda_y == mech.noise_variance + sigma2
            # The factories' former formulas.
            assert lap.lambda_y == 2.0 * (lap.scale * lap.scale) + sigma2
            assert gauss.lambda_y == gauss.scale * gauss.scale + sigma2

    @pytest.mark.parametrize("kind, delta", [("laplace", 0.0), ("gaussian", 1e-5)])
    def test_replace_recalibrates(self, kind, delta):
        mech = DpMechanism(kind, 1.0, delta, 2.0, 0.3)
        halved = replace(mech, epsilon=0.5)
        assert halved == DpMechanism(kind, 0.5, delta, 2.0, 0.3)
        assert halved.scale > mech.scale and halved.lambda_y > mech.lambda_y


class ZeroUniforms:
    """A generator whose every uniform draw is 0.0, the one value the Laplace sampler clips."""

    def random(self, shape):
        return np.zeros(shape)


class TestSampleMechanism:
    def test_zero_scale_draws_zeros(self):
        mech = laplace_mechanism(epsilon=1.0, sensitivity=0.0)
        np.testing.assert_array_equal(sample_mechanism(mech, 10, seed=0), np.zeros(10))

    def test_laplace_sample_variance(self):
        mech = laplace_mechanism(epsilon=1.0, sensitivity=1.0)  # b = 1, var 2
        draws = sample_mechanism(mech, 1_000_000, seed=1)
        assert draws.var() == pytest.approx(2.0, rel=0.01)
        assert abs(draws.mean()) < 0.01

    def test_gaussian_sample_variance(self):
        mech = gaussian_mechanism(2.0, 0.5, 2.0)  # std = 1
        draws = sample_mechanism(mech, 1_000_000, seed=2)
        assert draws.var() == pytest.approx(1.0, rel=0.01)

    def test_laplace_zero_uniform_draw_is_finite(self):
        mech = laplace_mechanism(epsilon=1.0, sensitivity=1.0)
        noise = _draw_mechanism(ZeroUniforms(), mech, 3)
        np.testing.assert_allclose(noise, -52.0 * math.log(2.0), rtol=1e-15)

    def test_zero_scale_laplace_draws_finite_zeros(self):
        mech = laplace_mechanism(epsilon=1.0, sensitivity=0.0)
        for gen in (np.random.default_rng(7), ZeroUniforms()):
            noise = _draw_mechanism(gen, mech, (40, 25))
            assert noise.shape == (40, 25)
            assert np.all(np.isfinite(noise)) and np.all(noise == 0.0)

    def test_deterministic_in_seed(self):
        mech = laplace_mechanism(epsilon=1.0, sensitivity=1.0)
        np.testing.assert_array_equal(
            sample_mechanism(mech, 100, seed=3), sample_mechanism(mech, 100, seed=3)
        )


class TestPrivacyAudit:
    def test_degenerate_box_has_zero_ratio(self):
        box = CoefficientBox(0.5, 0.5, 2)
        assert privacy_audit([1.0, -0.5, 0.3], box, epsilon=1.0, b=1.0) == 0.0

    def test_calibrated_scale_respects_epsilon(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            n_h = int(rng.integers(1, 3))
            n = max(n, n_h)
            r = rng.standard_normal(n)
            box = CoefficientBox(0.0, float(rng.uniform(0.5, 1.5)), n_h)
            eps = 1.0
            mech = laplace_mechanism(eps, l1_sensitivity(r, box), sigma2=0.1)
            ratio = privacy_audit(r, box, eps, mech.scale, sigma2=0.1)
            assert ratio <= eps + 0.02

    def test_noiseless_calibrated_scale_meets_epsilon(self):
        # Without measurement noise the worst adjacent pair shifts every sample
        # by the full box width, so the audited loss is epsilon itself.
        rng = np.random.default_rng(6)
        for _ in range(4):
            r = rng.uniform(-1.0, 1.0, 3)
            half_width = float(rng.uniform(0.2, 1.0))
            box = CoefficientBox(-half_width, half_width, 2)
            eps = float(rng.uniform(0.5, 2.0))
            b = l1_sensitivity(r, box) / eps
            assert privacy_audit(r, box, eps, b) == pytest.approx(eps, rel=1e-9)

    def test_undersized_scale_violates_epsilon(self):
        rng = np.random.default_rng(5)
        violated = False
        for _ in range(5):
            r = rng.standard_normal(3)
            box = CoefficientBox(0.0, 1.0, 2)
            eps = 1.0
            mech = laplace_mechanism(eps, l1_sensitivity(r, box), sigma2=0.05)
            ratio = privacy_audit(r, box, eps, 0.5 * mech.scale, sigma2=0.05)
            violated = violated or ratio > eps
        assert violated

    def test_noisy_density_matches_convolution(self):
        def convolution(x, b, sigma):
            def integrand(g):
                gauss = math.exp(-0.5 * (g / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
                return math.exp(-abs(x - g) / b) / (2.0 * b) * gauss

            # Split at the Laplace kink so each piece is smooth.
            left = quad(integrand, -math.inf, x, epsabs=0.0, epsrel=1e-12)[0]
            right = quad(integrand, x, math.inf, epsabs=0.0, epsrel=1e-12)[0]
            return left + right

        for b, sigma in ((1.0, 0.3), (0.4, 0.9)):
            points = np.array([0.0, b, -2.0 * b - sigma, 20.0 * b])  # centre, shoulders, tail
            dens = np.exp(_laplace_gauss_log_density(points, b, sigma))
            expected = [convolution(x, b, sigma) for x in points]
            np.testing.assert_allclose(dens, expected, rtol=1e-8, atol=0.0)

            def density(x):
                return math.exp(_laplace_gauss_log_density(np.array([x]), b, sigma)[0])

            mass = quad(density, -math.inf, 0.0)[0] + quad(density, 0.0, math.inf)[0]
            assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("b", [0.3, 1.0])
    def test_noiseless_log_density_is_exact_in_the_tails(self, b):
        # At |x| = 800 b the density underflows; its logarithm must not.
        points = np.array([0.0, b, 800.0 * b])
        expected = -np.abs(points) / b - math.log(2.0 * b)
        np.testing.assert_allclose(_laplace_gauss_log_density(points, b, 0.0), expected,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("ratio", [1e-3, 1.0, 1e3, 1e7])
    def test_noisy_log_density_matches_mpmath(self, ratio):
        # At sigma / b = ratio; far above 1 the closed form's two terms of size
        # (sigma / b)^2 / 2 used to cancel, to an error of 0.014 at 1e7.
        b, sigma = 1.0 / ratio, 1.0
        points = np.linspace(-10.0 * (b + sigma), 10.0 * (b + sigma), 41)

        def oracle(x):
            with mpmath.workdps(60):
                x, t = mpmath.mpf(x), mpmath.mpf(sigma) / b
                z, a = x / sigma, t * t / 2

                def tilted(y):  # e^(a - y t) Phi(y - t)
                    return mpmath.exp(a - y * t) * mpmath.erfc((t - y) / mpmath.sqrt(2)) / 2

                return float(mpmath.log((tilted(z) + tilted(-z)) / (2 * mpmath.mpf(b))))

        expected = [oracle(x) for x in points]
        np.testing.assert_allclose(_laplace_gauss_log_density(points, b, sigma), expected,
                                   rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("width, b, loss", [(1.0, 1e-160, 20.5), (1e200, 1.0, 1e200)])
    def test_extreme_scales_give_a_finite_loss_without_warning(self, width, b, loss):
        # sigma = 1.  At b = 1e-160, (sigma / b)^2 overflowed; the noise is Gaussian
        # to rounding, so the worst log ratio is 20 d + d^2 / 2 at the grid's end
        # x = -20.  A box 1e200 wide squares grid points past the double range, and
        # its loss is the Laplace one, d / b.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = privacy_audit([1.0], CoefficientBox(0, width, 1), 1.0, b, sigma2=1.0)
        assert result == pytest.approx(loss, rel=1e-14)

    @pytest.mark.parametrize("width", [1e-3, 1e-5, 1e-7])
    def test_narrow_box_with_equal_scale_has_the_gaussian_loss(self, width):
        # b = width << sigma = 1: the loss tends to the Gaussian one, 10 s d + d^2 / 2
        # on the grid end -10 s, s = 1 + 2 width.
        loss = privacy_audit([1.0], CoefficientBox(0, width, 1), 1.0, width, sigma2=1.0)
        assert loss == pytest.approx(10 * (1 + 2 * width) * width + width**2 / 2, rel=1e-4)

    @pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-12, 1e-300])
    def test_narrow_box_loss_is_within_the_stated_absolute_error(self, width):
        # The docstring's floor: 4 eps times the largest |log density| on the grid.
        # The exact loss is the Gaussian one up to (b / sigma)^2 relative.
        loss = privacy_audit([1.0], CoefficientBox(0, width, 1), 1.0, width, sigma2=1.0)
        s = 1 + 2 * width
        grid = np.linspace(-10.0 * s, 10.0 * s, AUDIT_GRID_POINTS)
        largest = max(np.max(np.abs(_laplace_gauss_log_density(grid - d, width, 1.0)))
                      for d in (0.0, width))
        assert abs(loss - (10 * s * width + width**2 / 2)) <= 4 * np.finfo(float).eps * largest

    def test_instance_size_guard(self):
        box = CoefficientBox(0.0, 1.0, 2)
        with pytest.raises(AuditSizeError):
            privacy_audit(np.ones(5), box, epsilon=1.0, b=1.0)
        with pytest.raises(AuditSizeError):
            privacy_audit(np.ones(4), CoefficientBox(0.0, 1.0, 3), epsilon=1.0, b=1.0)


@pytest.mark.parametrize("sigma2", [-0.1, math.nan])
def test_invalid_measurement_noise_rejected(sigma2):
    box = CoefficientBox(0.0, 1.0, 2)
    with pytest.raises(ParameterError, match="sigma2"):
        privacy_audit([1.0, -0.5, 0.3], box, epsilon=1.0, b=1.0, sigma2=sigma2)
    with pytest.raises(ParameterError, match="sigma2"):
        laplace_mechanism(1.0, 1.0, sigma2=sigma2)
    with pytest.raises(ParameterError, match="sigma2"):
        gaussian_mechanism(1.0, 1e-5, 1.0, sigma2=sigma2)


@pytest.mark.parametrize(
    "first, then", [("firpriv.cli", "scipy.special"), ("scipy.special", "firpriv.cli")]
)
def test_log_ndtr_is_scipys_in_either_import_order(first, then):
    # One extension module object, whichever side loads it first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(privacy.__file__)))
    code = (
        f"import sys, {first}; from firpriv import privacy; "
        "log_ndtr, erfcx = map(privacy._special_ufunc, ('log_ndtr', 'erfcx')); "
        f"print('scipy.special' in sys.modules); import {then}; import scipy.special; "
        "print(scipy.special.log_ndtr is log_ndtr is privacy._special_ufunc('log_ndtr') "
        "and scipy.special.erfcx is erfcx)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == [str(first == "scipy.special"), "True"]


@pytest.mark.parametrize("failure", ["missing extension", "extension without log_ndtr"])
def test_failed_extension_load_falls_back_to_public_log_ndtr(failure, monkeypatch):
    import scipy.special

    def values():
        tails = [gaussian_tail_inverse(d) for d in (5e-324, 1e-100, 1e-6, 0.1)]
        box = CoefficientBox(0.0, 1.0, 2)
        return tails + [privacy_audit([1.0, -0.5, 0.3], box, 1.0, 0.8, sigma2=0.2)]

    def failing_loader(subpackage, module):
        if failure == "missing extension":
            raise ImportError(f"cannot find scipy.{subpackage}.{module}")
        return types.SimpleNamespace()

    expected = values()
    monkeypatch.setattr(privacy, "_load_scipy_extension", failing_loader)
    assert privacy._special_ufunc("log_ndtr") is scipy.special.log_ndtr
    assert privacy._special_ufunc("erfcx") is scipy.special.erfcx
    assert values() == expected


@pytest.mark.parametrize("sigma2", [0.0, 0.4])
def test_audit_result_does_not_depend_on_epsilon(sigma2):
    box = CoefficientBox(-0.5, 0.5, 2)
    r = [0.3, -0.2, 0.5]
    assert privacy_audit(r, box, 1.0, 1.0, sigma2) == privacy_audit(r, box, 123.0, 1.0, sigma2)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
def test_audit_rejects_invalid_epsilon(epsilon):
    box = CoefficientBox(0.0, 1.0, 2)
    with pytest.raises(ParameterError, match="epsilon"):
        privacy_audit([1.0, -0.5, 0.3], box, epsilon=epsilon, b=1.0)
