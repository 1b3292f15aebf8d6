import math

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
from firpriv.privacy import _laplace_gauss_log_density


def tail_integral(x: float) -> mpmath.mpf:
    """Independent high-precision tail integral of the standard normal density."""
    with mpmath.workdps(40):
        return mpmath.quad(
            lambda u: mpmath.exp(-u * u / 2) / mpmath.sqrt(2 * mpmath.pi), [x, mpmath.inf]
        )


def bisect_tail_inverse(delta: float) -> float:
    lo, hi = -40.0, 40.0
    with mpmath.workdps(40):
        target = mpmath.mpf(delta)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if tail_integral(mid) > target:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


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
        with pytest.raises(ParameterError):
            DpMechanism(kind="laplace", scale=0.5, epsilon=1.0, delta=0.0,
                        sensitivity=1.0, lambda_y=1.0)


class TestGaussianTail:
    def test_inverse_matches_bisection_oracle(self):
        for delta in DELTA_GRID:
            oracle = bisect_tail_inverse(delta)
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
