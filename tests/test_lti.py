import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter

import firpriv
from firpriv import (
    ConditioningError,
    DimensionError,
    FirModel,
    ParameterError,
    RationalFilter,
    StabilityError,
    build_filter_matrix,
    build_regressor,
    convolution_matrix,
    derive,
    fir_truncate,
    generate_filtered_input,
    impulse_response,
    simulate,
    stream,
)
from firpriv.lti import _lfilter, factor_adjoint
from helpers import ma_convolve, zero_state_convolution

# Reference second-order plant used across the suite (delay-free form).
REF_NUM = [1.0, -0.2]
REF_DEN = [1.0, -0.9, 0.17]

REF_FIR9 = [1.0, 0.7, 0.46, 0.295, 0.1873, 0.1184, 0.0747, 0.0471, 0.0297]

# Frozen from the high-precision recursion g_k = 0.9 g_{k-1} - 0.17 g_{k-2}.
REF_TAIL_L1 = 0.050660642962962965


def reference_filter() -> RationalFilter:
    return RationalFilter(REF_NUM, REF_DEN)


class TestRationalFilter:
    def test_unstable_denominator_rejected(self):
        with pytest.raises(StabilityError):
            RationalFilter([1.0], [1.0, -1.1])

    def test_pole_on_unit_circle_rejected(self):
        with pytest.raises(StabilityError):
            RationalFilter([1.0], [1.0, -1.0])

    def test_denominator_must_be_monic(self):
        with pytest.raises(ParameterError):
            RationalFilter([1.0], [2.0, 0.1])


class TestImpulseResponse:
    def test_reference_filter_first_samples(self):
        out = impulse_response(reference_filter(), 3)
        np.testing.assert_allclose(out, [1.0, 0.7, 0.46], atol=1e-12)

    def test_identity_filter(self):
        out = impulse_response(RationalFilter([1.0], [1.0]), 4)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_unit_delay(self):
        out = impulse_response(RationalFilter([0.0, 1.0], [1.0]), 3)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ParameterError):
            impulse_response(reference_filter(), 0)


class TestFirTruncate:
    def test_reference_coefficients_to_four_decimals(self):
        model, _ = fir_truncate(reference_filter(), 9)
        np.testing.assert_allclose(np.round(model.coeffs, 4), REF_FIR9, atol=0)

    def test_tail_quality_against_recursion_oracle(self):
        # Oracle: run the denominator recursion far past convergence and sum.
        coeffs = [1.0, 0.7]
        for _ in range(2, 400):
            coeffs.append(0.9 * coeffs[-1] - 0.17 * coeffs[-2])
        oracle_tail = sum(abs(c) for c in coeffs[9:])

        _, tail = fir_truncate(reference_filter(), 9)
        assert tail == pytest.approx(oracle_tail, rel=1e-9)
        assert tail == pytest.approx(REF_TAIL_L1, rel=1e-9)
        assert tail == pytest.approx(0.0507, abs=5e-5)

    def test_fir_input_has_zero_tail(self):
        g = RationalFilter([0.5, 0.25, -0.1], [1.0])
        model, tail = fir_truncate(g, 5)
        assert tail == 0.0
        np.testing.assert_allclose(model.coeffs, [0.5, 0.25, -0.1, 0.0, 0.0], atol=0)


class TestBuildRegressor:
    def test_small_pattern(self):
        reg = build_regressor([1.0, 2.0, 3.0], 2)
        np.testing.assert_allclose(reg, [[1, 0], [2, 1], [3, 2]], atol=0)

    def test_single_column(self):
        reg = build_regressor([1.0, 0.0, 0.0, 0.0], 1)
        np.testing.assert_allclose(reg, [[1], [0], [0], [0]], atol=0)

    def test_underdetermined_rejected(self):
        with pytest.raises(DimensionError):
            build_regressor([1.0, 2.0], 3)

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(20)
        reg = build_regressor(r, 5)
        for _ in range(100):
            h = rng.standard_normal(5)
            np.testing.assert_allclose(
                reg @ h, zero_state_convolution(r, h), rtol=0, atol=1e-12
            )

    def test_toeplitz_entries(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal(11)
        reg = build_regressor(r, 4)
        for i in range(11):
            for j in range(4):
                expected = r[i - j] if i - j >= 0 else 0.0
                assert reg[i, j] == expected

    def test_stack_equals_single_builds_and_is_read_only(self):
        records = np.random.default_rng(3).standard_normal((4, 12))
        stack = build_regressor(records, 5)
        assert stack.shape == (4, 12, 5)
        for k, record in enumerate(records):
            single = build_regressor(record, 5)
            np.testing.assert_array_equal(stack[k], single)
            assert not single.flags.writeable
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0

    def test_stack_rejects_non_finite_records(self):
        records = np.ones((2, 6))
        records[1, 3] = np.nan
        with pytest.raises(ParameterError):
            build_regressor(records, 2)


class TestBuildFilterMatrix:
    def test_two_tap_pattern(self):
        l0, l1 = 0.3, -1.2
        band = build_filter_matrix([l0, l1], 3)
        np.testing.assert_allclose(
            band.matrix,
            [[l1, l0, 0, 0], [0, l1, l0, 0], [0, 0, l1, l0]],
            atol=0,
        )

    def test_single_tap_is_identity(self):
        band = build_filter_matrix([1.0], 2)
        np.testing.assert_allclose(band.matrix, np.eye(2), atol=0)

    def test_matches_ma_convolution_oracle(self):
        rng = np.random.default_rng(3)
        l = rng.standard_normal(4)
        band = build_filter_matrix(l, 12)
        for _ in range(100):
            v = rng.standard_normal(12 + 3)
            np.testing.assert_allclose(band.matrix @ v, ma_convolve(l, v), atol=1e-12)

    def test_row_support_exhaustive_small_lengths(self):
        rng = np.random.default_rng(4)
        for m in range(1, 9):
            for n in range(1, 9):
                l = rng.standard_normal(m)
                band = build_filter_matrix(l, n)
                assert band.matrix.shape == (n, n + m - 1)
                for i in range(n):
                    np.testing.assert_allclose(band.matrix[i, i : i + m], l[::-1], atol=0)
                    assert np.count_nonzero(band.matrix[i]) == np.count_nonzero(l)

    def test_dense_form_built_on_demand(self):
        band = build_filter_matrix([0.3, -0.2, 0.1], 10**5)
        assert band.n_samples == 10**5
        assert band.coeffs.size == 3
        assert "matrix" not in vars(band)

    def test_dense_form_is_readonly_and_cached(self):
        rng = np.random.default_rng(13)
        l = rng.standard_normal(4)
        n = 7
        band = build_filter_matrix(l, n)
        expected = np.zeros((n, n + 3))
        for i in range(n):
            expected[i, i : i + 4] = l[::-1]
        dense = band.matrix
        np.testing.assert_array_equal(dense, expected)
        assert not dense.flags.writeable
        assert band.matrix is dense
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ParameterError):
            build_filter_matrix([1.0], 0)


class TestNoiseFactor:
    @pytest.mark.parametrize("m, n", [(1, 5), (4, 30), (15, 300), (12, 8)])
    def test_factor_reproduces_the_covariance(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        band = build_filter_matrix(rng.standard_normal(m), n)
        bands = band.noise_factor(0.7)
        assert bands.shape == (min(m, n), n)
        assert not bands.flags.writeable
        factor = np.zeros((n, n))
        for k in range(bands.shape[0]):
            factor += np.diag(bands[k, : n - k], -k)
        cov = band.matrix @ band.matrix.T + 0.7 * np.eye(n)
        assert np.linalg.norm(factor @ factor.T - cov) <= 1e-13 * np.linalg.norm(cov)
        x = rng.standard_normal((n, 3))
        np.testing.assert_allclose(factor_adjoint(bands, x), factor.T @ x, rtol=0, atol=1e-12)

    def test_singular_covariance_rejected(self):
        with pytest.raises(ConditioningError):
            build_filter_matrix([0.0, 0.0], 6).noise_factor(0.0)

    def test_adjoint_rejects_wrong_row_count(self):
        bands = build_filter_matrix([1.0, 0.5], 4).noise_factor(1.0)
        with pytest.raises(DimensionError):
            factor_adjoint(bands, np.ones((5, 2)))


class TestConvolutionMatrix:
    def test_small_pattern(self):
        np.testing.assert_allclose(
            convolution_matrix([1.0, 2.0], 2), [[1, 0], [2, 1], [0, 2]], atol=0
        )

    def test_scalar_filter_is_identity(self):
        np.testing.assert_allclose(convolution_matrix([1.0], 5), np.eye(5), atol=0)

    def test_matches_polynomial_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_h = rng.integers(1, 11)
            n_l = rng.integers(1, 11)
            h = rng.standard_normal(n_h)
            l = rng.standard_normal(n_l)
            np.testing.assert_allclose(
                convolution_matrix(h, n_l) @ l, np.convolve(h, l), atol=1e-12
            )


class TestSimulate:
    def test_noiseless_equals_regressor_product(self):
        rng = np.random.default_rng(6)
        h = FirModel(rng.standard_normal(4))
        r = rng.standard_normal(15)
        y = simulate(h, r, channel="output", l=np.zeros(3), sigma2=0.0, seed=9)
        np.testing.assert_allclose(
            y, build_regressor(r, 4) @ h.coeffs, atol=1e-12
        )

    def test_masking_noise_matches_band_model(self):
        # Same driving draws as the dense banded-matrix model, for both channels.
        rng = np.random.default_rng(14)
        h = FirModel(rng.standard_normal(3))
        r = rng.standard_normal(40)
        l = rng.standard_normal(4)
        mean = build_regressor(r, 3) @ h.coeffs
        for channel, coeffs in (("output", l), ("input", np.convolve(h.coeffs, l))):
            y = simulate(h, r, channel=channel, l=l, sigma2=0.0, seed=21)
            v = stream(21, "v").standard_normal(40 + coeffs.size - 1)
            np.testing.assert_allclose(
                y, mean + build_filter_matrix(coeffs, 40).matrix @ v, rtol=0, atol=1e-12
            )

    def test_output_noise_variance(self):
        # Stationary variance should be ||l||^2 + sigma2 at every sample.
        h = FirModel([0.5])
        l = np.array([0.6, -0.3, 0.2])
        sigma2 = 0.49
        n = 400
        samples = np.concatenate(
            [
                simulate(h, np.zeros(n), channel="output", l=l, sigma2=sigma2, seed=k)
                for k in range(500)
            ]
        )
        expected = float(l @ l) + sigma2
        assert np.mean(samples**2) == pytest.approx(expected, rel=0.02)

    def test_input_noise_variance(self):
        h = FirModel([1.0, 0.7, 0.46])
        l = np.array([0.4, 0.2])
        f = np.convolve(h.coeffs, l)
        n = 400
        samples = np.concatenate(
            [
                simulate(h, np.zeros(n), channel="input", l=l, sigma2=0.0, seed=k)
                for k in range(500)
            ]
        )
        assert np.mean(samples**2) == pytest.approx(float(f @ f), rel=0.02)

    def test_deterministic_in_seed(self):
        h = FirModel([1.0, -0.4])
        r = np.arange(1.0, 13.0)
        a = simulate(h, r, channel="output", l=[0.3, 0.1], sigma2=0.2, seed=123)
        b = simulate(h, r, channel="output", l=[0.3, 0.1], sigma2=0.2, seed=123)
        np.testing.assert_array_equal(a, b)
        assert not a.flags.writeable

    def test_seed_changes_noise_not_mean(self):
        h = FirModel([1.0, -0.4])
        r = np.arange(1.0, 13.0)
        mean = build_regressor(r, 2) @ h.coeffs
        a = simulate(h, r, channel="output", l=[0.3, 0.1], sigma2=0.2, seed=1)
        b = simulate(h, r, channel="output", l=[0.3, 0.1], sigma2=0.2, seed=2)
        assert not np.array_equal(a, b)
        # Noise-free part is common to both.
        noiseless = simulate(h, r, channel="none", sigma2=0.0, seed=7)
        np.testing.assert_allclose(noiseless, mean, atol=1e-12)

    def test_channel_validation(self):
        h = FirModel([1.0])
        with pytest.raises(ParameterError):
            simulate(h, np.ones(3), channel="sideways", l=[1.0])
        with pytest.raises(ParameterError):
            simulate(h, np.ones(3), channel="output")  # missing l
        with pytest.raises(ParameterError):
            simulate(h, np.ones(3), channel="none", sigma2=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            simulate(FirModel([1.0]), [1.0, np.nan])
        with pytest.raises(ParameterError):
            FirModel([np.inf])


class TestGenerateFilteredInput:
    def test_identity_filter_returns_raw_white(self):
        out = generate_filtered_input(RationalFilter([1.0], [1.0]), 64, seed=5)
        raw = stream(5, "input-white").standard_normal(64)
        np.testing.assert_array_equal(out, raw)
        assert not out.flags.writeable

    def test_ar1_lag_one_autocorrelation(self):
        out = generate_filtered_input(
            RationalFilter([1.0], [1.0, -0.95]), 100_000, seed=11
        )
        x = out - out.mean()
        rho = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
        assert rho == pytest.approx(0.95, abs=0.01)

    def test_deterministic_in_seed(self):
        w = RationalFilter([1.0], [1.0, -0.5])
        a = generate_filtered_input(w, 100, seed=3)
        b = generate_filtered_input(w, 100, seed=3)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("den", [[1.0], [1.0, -0.95], REF_DEN])
    def test_seed_sequence_stacks_the_single_records(self, den):
        w = RationalFilter([1.0, 0.3], den)
        seeds = [derive(0, "det-input", k) for k in range(6)]
        assert max(seeds) >= 2**63  # seeds past int64 keep every bit
        out = generate_filtered_input(w, 50, seed=seeds)
        assert out.shape == (6, 50)
        assert not out.flags.writeable
        for s, row in zip(seeds, out):
            assert np.array_equal(row, generate_filtered_input(w, 50, seed=s))


class TestLfilterMatchesScipy:
    """``lti._lfilter`` against ``scipy.signal.lfilter``, bit for bit."""

    LENGTHS = (1, 2, 3, 5, 17, 64, 300)

    @staticmethod
    def _coeffs(rng, nb, na):
        num = rng.standard_normal(nb)
        den = np.concatenate([[rng.uniform(0.5, 2.0)], 0.4 * rng.standard_normal(na - 1) / na])
        return num, den

    @pytest.mark.parametrize("na", [1, 2, 3, 4])
    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_zero_state(self, nb, na):
        rng = np.random.default_rng(100 * nb + na)
        for n in self.LENGTHS:
            num, den = self._coeffs(rng, nb, na)
            x = rng.standard_normal(n)
            assert np.array_equal(_lfilter(num, den, x), lfilter(num, den, x))

    @pytest.mark.parametrize("na", [1, 2, 3, 4])
    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_initial_and_final_state(self, nb, na):
        # The filter starts at rest, and zeros appended to a record play out
        # its final state, which must continue as scipy's filter does from
        # ``zf``.  The one-entry denominator path sums convolution terms in
        # an order that depends on the record length, so there it matches to
        # rounding.
        rng = np.random.default_rng(1000 + 100 * nb + na)
        m = max(nb, na)
        for n in self.LENGTHS:
            num, den = self._coeffs(rng, nb, na)
            x = rng.standard_normal(n)
            pad = np.zeros(2 * m + 3)
            y_ref, zf = lfilter(num, den, x, zi=np.zeros(m - 1))
            y_ref = np.concatenate([y_ref, lfilter(num, den, pad, zi=zf)[0]])
            y = _lfilter(num, den, np.concatenate([x, pad]))
            if na == 1:
                np.testing.assert_allclose(y, y_ref, rtol=1e-14, atol=1e-15)
            else:
                assert np.array_equal(y, y_ref)

    @pytest.mark.parametrize("na", [1, 2, 3, 4])
    @pytest.mark.parametrize("nb", [1, 2, 3, 4])
    def test_stack_equals_row_by_row(self, nb, na):
        rng = np.random.default_rng(2000 + 100 * nb + na)
        num, den = self._coeffs(rng, nb, na)
        x = rng.standard_normal((7, 64))
        stacked = _lfilter(num, den, x)
        assert stacked.shape == x.shape
        for row, y in zip(x, stacked):
            assert np.array_equal(y, _lfilter(num, den, row))
            assert np.array_equal(y, lfilter(num, den, row))

    def test_unit_denominator_every_length(self):
        rng = np.random.default_rng(7)
        num = rng.standard_normal(4)
        for n in range(1, 301):
            x = rng.standard_normal(n)
            assert np.array_equal(_lfilter(num, [1.0], x), lfilter(num, [1.0], x))

    def test_first_order_every_length(self):
        rng = np.random.default_rng(8)
        for n in range(1, 301):
            x = rng.standard_normal(n)
            assert np.array_equal(
                _lfilter([1.0, 0.3], [1.0, -0.95], x), lfilter([1.0, 0.3], [1.0, -0.95], x)
            )

    def test_public_filters_match_scipy_oracle(self):
        g = reference_filter()
        pulse = np.zeros(40)
        pulse[0] = 1.0
        oracle = lfilter(REF_NUM, REF_DEN, pulse)
        assert np.array_equal(impulse_response(g, 40), oracle)
        model, _ = fir_truncate(g, 40)
        assert np.array_equal(model.coeffs, oracle)
        for num, den in (([1.0], [1.0, -0.95]), (REF_NUM, REF_DEN)):
            out = generate_filtered_input(RationalFilter(num, den), 2000, seed=4)
            white = stream(4, "input-white").standard_normal(2000)
            assert np.array_equal(out, lfilter(num, den, white))


def test_cli_import_skips_scipy_signal_and_stats():
    src = os.path.dirname(os.path.dirname(os.path.abspath(firpriv.__file__)))
    code = (
        "import sys, firpriv.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
