import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from firpriv import (
    ConditioningError,
    DimensionError,
    FirModel,
    FirprivError,
    Kernel,
    ParameterError,
    SingularKernelError,
    analyze_records,
    build_filter_matrix,
    build_regressor,
    ls_covariance,
    ls_estimate,
    ls_gram_inverse,
    ls_trace_quadratic,
    rls_estimate,
    rls_gain,
    rls_mse,
    rls_trace_quadratic,
    stable_spline_kernel,
)
from firpriv import estimators
from firpriv.estimators import (
    CONDITION_LIMIT,
    _condition_numbers,
    _screened_inverse,
    _screened_maps,
    _spd_solve,
)
from helpers import dense_error_matrix, kron_quadratic, random_regressor


def make_instance(rng, n=25, n_h=3):
    reg_mat = random_regressor(rng, n, n_h)
    return build_regressor(reg_mat[:, 0], n_h)


class TestLsEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        reg = make_instance(rng, 20, 4)
        h = rng.standard_normal(4)
        est = ls_estimate(reg, reg @ h)
        np.testing.assert_allclose(est.h_hat, h, atol=1e-10)
        assert est.residual_norm < 1e-10

    def test_single_coefficient_weights_first_sample(self):
        reg = build_regressor([1.0, 0.0, 0.0], 1)
        est = ls_estimate(reg, [2.0, 5.0, 7.0])
        assert est.h_hat[0] == pytest.approx(2.0, abs=1e-12)

    def test_unbiased_under_ma_noise(self):
        # Monte Carlo oracle: direct batched attack simulation.
        rng = np.random.default_rng(1)
        n, n_h, n_l, sigma2, reps = 30, 4, 3, 0.5, 100_000
        reg = make_instance(rng, n, n_h)
        h = rng.standard_normal(n_h)
        l = rng.standard_normal(n_l)
        band = build_filter_matrix(l, n).matrix
        estimator_map = np.linalg.solve(reg.T @ reg, reg.T).T
        v = rng.standard_normal((reps, band.shape[1]))
        e = rng.standard_normal((reps, n)) * np.sqrt(sigma2)
        y = reg @ h + v @ band.T + e
        h_hat = y @ estimator_map
        err_mean = h_hat.mean(axis=0) - h
        se = h_hat.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(err_mean) <= 3.0 * se)

    def test_conditioning_rejection_names_estimate(self):
        reg_mat = np.zeros((5, 2))
        reg_mat[:, 0] = [1.0, 1.0, 1.0, 1.0, 1.0]
        reg_mat[:, 1] = [1.0, 1.0, 1.0, 1.0, 1.0]  # exactly collinear
        with pytest.raises(ConditioningError, match="condition estimate"):
            ls_estimate(reg_mat, np.ones(5))

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(2)
        reg = make_instance(rng, 40, 5)
        y = rng.standard_normal(40)
        est = ls_estimate(reg, y)
        gram = reg.T @ reg
        rhs = reg.T @ y
        rel = np.linalg.norm(gram @ est.h_hat - rhs) / np.linalg.norm(rhs)
        assert rel <= 1e-10


class TestLsCovariance:
    def test_without_masking_noise(self):
        rng = np.random.default_rng(3)
        reg = make_instance(rng, 18, 3)
        report = ls_covariance(reg, sigma2=0.7)
        expected = 0.7 * np.linalg.inv(reg.T @ reg)
        np.testing.assert_allclose(report.matrix, expected, rtol=1e-10)
        assert report.adversary == "LS"

    def test_zero_noise_gives_zero(self):
        rng = np.random.default_rng(4)
        reg = make_instance(rng, 12, 2)
        report = ls_covariance(reg, noise_matrix=build_filter_matrix(np.zeros(3), 12), sigma2=0.0)
        np.testing.assert_allclose(report.matrix, 0.0, atol=1e-15)

    def test_monte_carlo_trace_agreement(self):
        rng = np.random.default_rng(5)
        n, n_h, n_l, sigma2, reps = 25, 3, 4, 0.3, 200_000
        reg = make_instance(rng, n, n_h)
        h = rng.standard_normal(n_h)
        l = rng.standard_normal(n_l)
        band = build_filter_matrix(l, n)
        report = ls_covariance(reg, noise_matrix=band, sigma2=sigma2)

        estimator_map = np.linalg.solve(reg.T @ reg, reg.T).T
        v = rng.standard_normal((reps, band.matrix.shape[1]))
        e = rng.standard_normal((reps, n)) * np.sqrt(sigma2)
        y = reg @ h + v @ band.matrix.T + e
        err = y @ estimator_map - h
        empirical = float(np.mean(np.einsum("bj,bj->b", err, err)))
        assert empirical == pytest.approx(report.trace, rel=0.02)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            reg = make_instance(rng, 20, 4)
            band = build_filter_matrix(rng.standard_normal(3), 20)
            report = ls_covariance(reg, noise_matrix=band, sigma2=0.4)
            np.testing.assert_allclose(report.matrix, report.matrix.T, atol=1e-12)
            assert np.linalg.eigvalsh(report.matrix).min() >= -1e-10 * report.trace
            assert report.trace == pytest.approx(np.sum(np.diag(report.matrix)))


class TestNoiseMatrixArgument:
    def test_error_matrices_never_build_the_dense_band(self):
        rng = np.random.default_rng(23)
        n, n_h = 2000, 9
        reg = make_instance(rng, n, n_h)
        band = build_filter_matrix(rng.standard_normal(10), n)
        ls_covariance(reg, noise_matrix=band, sigma2=0.4)
        rls_mse(reg, rng.standard_normal(n_h), spline_kernel(n_h), band, 0.4)
        assert "matrix" not in vars(band)

    def test_dense_array_stack_and_row_mismatch_are_typed_errors(self):
        rng = np.random.default_rng(24)
        reg = make_instance(rng, 12, 2)
        band = build_filter_matrix(rng.standard_normal(3), 12)
        for call in (
            lambda nm: ls_covariance(reg, noise_matrix=nm, sigma2=0.1),
            lambda nm: rls_mse(reg, np.ones(2), spline_kernel(2), nm, 0.1),
        ):
            with pytest.raises(ParameterError, match="BandedFilterMatrix"):
                call(band.matrix)
            with pytest.raises(DimensionError, match="noise matrix rows 11 != regressor rows 12"):
                call(build_filter_matrix(rng.standard_normal(3), 11))
        with pytest.raises(DimensionError, match="one"):
            ls_covariance(np.stack([reg, reg]), sigma2=0.1)


class TestLsTraceQuadratic:
    def test_scalar_filter_equals_error_matrix_trace(self):
        rng = np.random.default_rng(7)
        reg = make_instance(rng, 15, 3)
        quad = ls_trace_quadratic(reg, sigma2=0.2, n_l=1)
        expected = np.trace(dense_error_matrix(reg))
        assert quad.matrix.shape == (1, 1)
        assert quad.matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_filter_gives_offset(self):
        rng = np.random.default_rng(8)
        reg = make_instance(rng, 15, 3)
        quad = ls_trace_quadratic(reg, sigma2=0.2, n_l=4)
        expected = 0.2 * np.trace(np.linalg.inv(reg.T @ reg))
        assert quad.evaluate(np.zeros(4)) == pytest.approx(expected, rel=1e-12)

    def test_identity_against_direct_covariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(10, 41))
            n_h = int(rng.integers(1, 6))
            n_l = int(rng.integers(1, 7))
            n = max(n, n_h)
            reg = build_regressor(random_regressor(rng, n, n_h)[:, 0], n_h)
            sigma2 = float(rng.uniform(0.1, 2.0))
            quad = ls_trace_quadratic(reg, sigma2, n_l)
            for _ in range(50):
                l = rng.standard_normal(n_l)
                band = build_filter_matrix(l, n)
                direct = ls_covariance(reg, noise_matrix=band, sigma2=sigma2).trace
                assert quad.evaluate(l) == pytest.approx(direct, rel=1e-9)

    def test_matches_literal_kronecker_construction(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(4, 13))
            n_h = int(rng.integers(1, min(n, 4) + 1))
            n_l = int(rng.integers(1, 6))
            reg = build_regressor(random_regressor(rng, n, n_h)[:, 0], n_h)
            quad = ls_trace_quadratic(reg, sigma2=0.5, n_l=n_l)
            literal = kron_quadratic(dense_error_matrix(reg), n_l)
            np.testing.assert_allclose(quad.matrix, literal, atol=1e-12 * max(1, literal.max()))

    def test_matrix_is_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            reg = make_instance(rng, 30, 4)
            quad = ls_trace_quadratic(reg, sigma2=1.0, n_l=6)
            eigs = np.linalg.eigvalsh(quad.matrix)
            assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    def test_evaluate_rejects_a_filter_of_the_wrong_length(self):
        quad = ls_trace_quadratic(make_instance(np.random.default_rng(12), 15, 3), 0.2, n_l=4)
        with pytest.raises(DimensionError, match="n_l = 4, got 3"):
            quad.evaluate(np.ones(3))

    def test_evaluate_rejects_a_non_finite_filter(self):
        quad = ls_trace_quadratic(make_instance(np.random.default_rng(13), 15, 3), 0.2, n_l=2)
        with pytest.raises(ParameterError, match="filter contains non-finite"):
            quad.evaluate([0.5, np.nan])


def spline_kernel(n_h, beta=0.7, eta=0.1):
    return Kernel(stable_spline_kernel(n_h, beta), eta=eta)


class TestRlsEstimate:
    def test_vanishing_regularizer_matches_ls(self):
        rng = np.random.default_rng(12)
        reg = make_instance(rng, 25, 4)
        y = rng.standard_normal(25)
        ls = ls_estimate(reg, y)
        rls = rls_estimate(reg, y, Kernel(np.eye(4), eta=1e-12))
        np.testing.assert_allclose(rls.h_hat, ls.h_hat, atol=1e-6)

    def test_huge_regularizer_shrinks_to_zero(self):
        rng = np.random.default_rng(13)
        reg = make_instance(rng, 25, 4)
        y = rng.standard_normal(25)
        ls = ls_estimate(reg, y)
        rls = rls_estimate(reg, y, Kernel(np.eye(4), eta=1e8))
        assert np.linalg.norm(rls.h_hat) <= 1e-6 * np.linalg.norm(ls.h_hat)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(14)
        n, n_h = 30, 5
        reg = make_instance(rng, n, n_h)
        y = rng.standard_normal(n)
        kernel = spline_kernel(n_h)
        est = rls_estimate(reg, y, kernel)

        # Plain gradient descent on the regularized cost, step 1/L.
        kinv = np.linalg.inv(kernel.matrix)
        gram = reg.T @ reg
        hess = 2.0 * (gram + kernel.eta * kinv)
        step = 1.0 / np.linalg.eigvalsh(hess).max()
        x = np.zeros(n_h)
        rhs = 2.0 * reg.T @ y
        for _ in range(20_000):
            grad = hess @ x - rhs
            x = x - step * grad
            if np.linalg.norm(grad) < 1e-12:
                break
        np.testing.assert_allclose(est.h_hat, x, atol=1e-6)

    def test_singular_kernel_requires_opt_in(self):
        h = np.array([1.0, 0.5, 0.25])
        # There is no opt-in: a singular kernel cannot be built, so no regularized path gets one.
        with pytest.raises(SingularKernelError, match="2 null directions"):
            Kernel(np.outer(h, h), eta=0.1)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.9])
    def test_kernel_inverse_matches_numpy(self, beta):
        # The inverse is tridiagonal, so its zeros are compared relative to its largest entry.
        for n_h in range(2, 13):
            kernel = Kernel(stable_spline_kernel(n_h, beta), 0.5)
            expected = np.linalg.inv(kernel.matrix)
            np.testing.assert_allclose(kernel.inverse, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())


class TestRlsMse:
    def test_vanishing_regularizer_matches_ls_covariance(self):
        rng = np.random.default_rng(16)
        reg = make_instance(rng, 25, 4)
        h = FirModel(rng.standard_normal(4))
        band = build_filter_matrix(rng.standard_normal(3), 25)
        ls_trace = ls_covariance(reg, noise_matrix=band, sigma2=0.4).trace
        mse = rls_mse(reg, h, noise_matrix=band, sigma2=0.4, kernel=Kernel(np.eye(4), eta=1e-12))
        assert mse.trace == pytest.approx(ls_trace, rel=1e-6)

    def test_zero_truth_removes_bias(self):
        rng = np.random.default_rng(17)
        reg = make_instance(rng, 25, 4)
        band = build_filter_matrix(rng.standard_normal(3), 25)
        kernel = spline_kernel(4)
        mse = rls_mse(reg, FirModel(np.zeros(4)), noise_matrix=band, sigma2=0.4, kernel=kernel)
        C = rls_gain(reg, kernel)
        expected = C @ band.matrix @ band.matrix.T @ C.T + 0.4 * C @ C.T
        np.testing.assert_allclose(mse.matrix, expected, atol=1e-12)

    def test_monte_carlo_trace_agreement(self):
        rng = np.random.default_rng(18)
        n, n_h, reps, sigma2 = 25, 4, 100_000, 0.4
        reg = make_instance(rng, n, n_h)
        h = rng.standard_normal(n_h)
        band = build_filter_matrix(rng.standard_normal(3), n)
        kernel = spline_kernel(n_h)
        report = rls_mse(reg, FirModel(h), noise_matrix=band, sigma2=sigma2, kernel=kernel)

        C = rls_gain(reg, kernel)
        v = rng.standard_normal((reps, band.matrix.shape[1]))
        e = rng.standard_normal((reps, n)) * np.sqrt(sigma2)
        y = reg @ h + v @ band.matrix.T + e
        err = y @ C.T - h
        empirical = float(np.mean(np.einsum("bj,bj->b", err, err)))
        assert empirical == pytest.approx(report.trace, rel=0.02)


class TestRlsTraceQuadratic:
    def test_zero_filter_gives_offset(self):
        rng = np.random.default_rng(19)
        reg = make_instance(rng, 20, 4)
        h = FirModel(rng.standard_normal(4))
        kernel = spline_kernel(4)
        quad = rls_trace_quadratic(reg, h, kernel, sigma2=0.3, n_l=5)
        direct = rls_mse(reg, h, noise_matrix=None, sigma2=0.3, kernel=kernel).trace
        assert quad.evaluate(np.zeros(5)) == pytest.approx(direct, rel=1e-10)

    def test_identity_against_direct_mse(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n = int(rng.integers(12, 35))
            n_h = int(rng.integers(2, 6))
            n_l = int(rng.integers(1, 7))
            reg = build_regressor(random_regressor(rng, n, n_h)[:, 0], n_h)
            h = FirModel(rng.standard_normal(n_h))
            kernel = spline_kernel(n_h, beta=float(rng.uniform(0.3, 0.9)))
            sigma2 = float(rng.uniform(0.1, 1.5))
            quad = rls_trace_quadratic(reg, h, kernel, sigma2, n_l)
            for _ in range(50):
                l = rng.standard_normal(n_l)
                band = build_filter_matrix(l, n)
                direct = rls_mse(reg, h, noise_matrix=band, sigma2=sigma2, kernel=kernel).trace
                assert quad.evaluate(l) == pytest.approx(direct, rel=1e-9)

    def test_vanishing_regularizer_matches_ls_quadratic(self):
        rng = np.random.default_rng(21)
        reg = make_instance(rng, 25, 4)
        h = FirModel(rng.standard_normal(4))
        ls_quad = ls_trace_quadratic(reg, sigma2=0.5, n_l=4)
        rls_quad = rls_trace_quadratic(
            reg, h, Kernel(np.eye(4), eta=1e-12), sigma2=0.5, n_l=4
        )
        np.testing.assert_allclose(rls_quad.matrix, ls_quad.matrix, rtol=1e-6, atol=1e-10)
        assert rls_quad.offset == pytest.approx(ls_quad.offset, rel=1e-6)


def textbook_analysis(reg_mat, n_l, kernel=None, h=None):
    """One record's map, bias, noise gain and diagonal sums from the plain formulas."""
    gram = reg_mat.T @ reg_mat
    if kernel is None:
        gram_inv = np.linalg.inv(gram)
        gain = gram_inv @ reg_mat.T
        bias, noise_gain = 0.0, np.trace(gram_inv)
    else:
        gain = np.linalg.solve(gram + kernel.eta * np.linalg.inv(kernel.matrix), reg_mat.T)
        bias_vec = h - gain @ (reg_mat @ h)
        bias, noise_gain = bias_vec @ bias_vec, np.sum(gain * gain)
    n = reg_mat.shape[0]
    sums = np.array([np.sum(gain[:, : n - d] * gain[:, d:]) for d in range(n_l)])
    return gain.T, bias, noise_gain, sums


class TestAnalyzeRecords:
    @pytest.mark.parametrize("rls", [False, True])
    @pytest.mark.parametrize("b, n", [(50, 200), (1, 2000)])
    def test_matches_per_record_formulas(self, b, n, rls):
        rng = np.random.default_rng(30 + b)
        n_h, n_l, sigma2 = 9, 10, 0.7
        stack = np.stack(
            [build_regressor(rng.standard_normal(n), n_h) for _ in range(b)]
        )
        h = rng.standard_normal(n_h)
        kernel = spline_kernel(n_h) if rls else None
        quads = analyze_records(stack, sigma2, n_l, kernel, h)
        assert len(quads) == b
        for k, quad in enumerate(quads):
            assert quad.adversary == ("RLS" if rls else "LS")
            emap, bias, noise_gain, sums = textbook_analysis(stack[k], n_l, kernel, h)
            close = dict(rtol=1e-12, atol=1e-12 * np.abs(emap).max())
            np.testing.assert_allclose(quad.estimator_map, emap, **close)
            np.testing.assert_allclose(quad.matrix[:, 0], sums, rtol=1e-12, atol=1e-12 * sums[0])
            assert quad.noise_gain == pytest.approx(noise_gain, rel=1e-12)
            assert quad.bias == pytest.approx(bias, rel=1e-12, abs=1e-15)
            assert quad.offset == pytest.approx(bias + sigma2 * noise_gain, rel=1e-12)
            # The single-record entry points give the same record analysis.
            single = (
                rls_trace_quadratic(stack[k], h, kernel, sigma2, n_l)
                if rls
                else ls_trace_quadratic(stack[k], sigma2, n_l)
            )
            np.testing.assert_allclose(single.matrix, quad.matrix, rtol=1e-12)
            assert single.offset == pytest.approx(quad.offset, rel=1e-12)
            if rls:
                np.testing.assert_allclose(rls_gain(stack[k], kernel), emap.T, **close)
            else:
                np.testing.assert_allclose(stack[k] @ ls_gram_inverse(stack[k]), emap, **close)

    @pytest.mark.parametrize("rls", [False, True])
    def test_wrappers_give_one_quadratic_per_record_of_a_stack(self, rls):
        rng = np.random.default_rng(33)
        n_h, n_l, sigma2 = 4, 5, 0.4
        stack = build_regressor(rng.standard_normal((3, 30)), n_h)
        h = rng.standard_normal(n_h)
        kernel = spline_kernel(n_h) if rls else None
        quads = (
            rls_trace_quadratic(stack, h, kernel, sigma2, n_l)
            if rls
            else ls_trace_quadratic(stack, sigma2, n_l)
        )
        assert len(quads) == 3
        for k, quad in enumerate(quads):
            want = analyze_records(stack[k], sigma2, n_l, kernel, h)[0]
            np.testing.assert_array_equal(quad.matrix, want.matrix)
            assert quad.offset == want.offset
            np.testing.assert_array_equal(quad.estimator_map, want.estimator_map)

    def test_rank_deficient_record_fails_the_batch(self):
        rng = np.random.default_rng(31)
        records = rng.standard_normal((20, 50))
        records[17] = 0.0
        stack = np.stack([build_regressor(r, 4) for r in records])
        with pytest.raises(ConditioningError, match=r"record 17.*condition estimate"):
            analyze_records(stack, 1.0, 3)

    def test_nonpositive_smallest_eigenvalue_is_infinitely_ill_conditioned(self):
        mats = np.array([np.diag([1.0, -1e-17]), np.diag([1.0, 0.0]), np.diag([2.0, 1.0])])
        np.testing.assert_array_equal(_condition_numbers(mats), [np.inf, np.inf, 2.0])
        # A rank-one gram whose computed smallest eigenvalue may fall below zero.
        rng = np.random.default_rng(0)
        reg_mat = np.outer(rng.standard_normal(6), rng.standard_normal(3))
        with pytest.raises(ConditioningError) as excinfo:
            ls_gram_inverse(reg_mat)
        assert excinfo.value.condition > CONDITION_LIMIT

    @pytest.mark.parametrize("rls", [False, True])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_filters_longer_than_the_record(self, extra, rls):
        # Lags d >= N do not overlap the record, so n_l = N + extra still
        # gives the exact error trace.
        rng = np.random.default_rng(32 + extra)
        n, n_h, sigma2 = 8, 3, 0.3
        reg = make_instance(rng, n, n_h)
        h = FirModel(rng.standard_normal(n_h))
        kernel = spline_kernel(n_h) if rls else None
        quad = analyze_records(reg, sigma2, n + extra, kernel, h)[0]
        for _ in range(5):
            l = rng.standard_normal(n + extra)
            band = build_filter_matrix(l, n)
            direct = (
                rls_mse(reg, h, kernel, band, sigma2) if rls else ls_covariance(reg, band, sigma2)
            )
            assert quad.evaluate(l) == pytest.approx(direct.trace, rel=1e-12)

    @pytest.mark.parametrize("sigma2", [-0.1, np.nan])
    def test_invalid_measurement_noise_rejected(self, sigma2):
        reg = build_regressor(np.arange(1.0, 11.0), 3)
        with pytest.raises(ParameterError, match="sigma2"):
            analyze_records(reg, sigma2, 2)
        with pytest.raises(ParameterError, match="sigma2"):
            ls_covariance(reg, sigma2=sigma2)
        with pytest.raises(ParameterError, match="sigma2"):
            rls_mse(reg, np.ones(3), spline_kernel(3), sigma2=sigma2)

    def test_truth_length_must_match_the_regressor(self):
        reg = build_regressor(np.arange(1.0, 11.0), 2)
        kernel = Kernel(np.eye(2), 1.0)
        for call in (
            lambda: analyze_records(reg, 0.1, 2, kernel, np.ones(3)),
            lambda: rls_trace_quadratic(reg, np.ones(3), kernel, 0.1, 2),
            lambda: rls_mse(reg, np.ones(3), kernel, sigma2=0.1),
        ):
            with pytest.raises(DimensionError, match="h_true length 3 != coefficient count 2"):
                call()

    def test_regularized_analysis_requires_truth(self):
        reg = build_regressor(np.arange(1.0, 11.0), 3)
        with pytest.raises(ParameterError):
            analyze_records(reg, 1.0, 2, spline_kernel(3))


def scipy_spd_solve(mat, rhs):
    """The Cholesky solve written with scipy's cho_factor/cho_solve wrappers."""
    return cho_solve(cho_factor((mat + mat.T) / 2.0), rhs)


class TestSpdSolve:
    @pytest.mark.parametrize(
        "n_h, n, log_cond",
        [(3, 20, 0), (9, 100, 0), (9, 114, 0), (9, 200, 0), (9, 2000, 0), (10, 60, 6)],
    )
    def test_matches_scipy_wrappers_bit_for_bit(self, n_h, n, log_cond):
        # cho_solve is one dpotrs call on the whole right-hand side; _spd_solve calls it
        # on blocks of at most 1,020 entries (113 columns at n_h = 9, so 114 needs two).
        rng = np.random.default_rng(40 + n_h + n)
        q, _ = np.linalg.qr(rng.standard_normal((n_h, n_h)))
        mat = (q * rng.uniform(1.0, 2.0, n_h) * np.logspace(0, log_cond, n_h)) @ q.T
        # The two right-hand sides of the package: an identity (inverse) and
        # the transposed regressor R' (the N columns of the RLS gain).
        rt = build_regressor(rng.standard_normal(n), n_h).T
        for rhs in (np.eye(n_h), rt):
            np.testing.assert_array_equal(_spd_solve(mat, rhs), scipy_spd_solve(mat, rhs))

    def test_indefinite_matrix_raises_typed_error(self):
        mat = np.diag([2.0, 1.0, -1e-3])
        with pytest.raises(ConditioningError) as excinfo:
            _spd_solve(mat, np.eye(3))
        assert isinstance(excinfo.value, FirprivError)
        assert not isinstance(excinfo.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rhs_raises(self, bad):
        rhs = np.eye(3)
        rhs[1, 2] = bad
        with pytest.raises(ConditioningError):
            _spd_solve(np.diag([2.0, 1.0, 0.5]), rhs)

    def test_overflowing_outputs_raise(self):
        # R'y overflows to inf although the gram passes the condition test.
        reg = build_regressor(np.random.default_rng(3).standard_normal(20), 3)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConditioningError):
            ls_estimate(reg, np.full(20, 1e308))


def regressor_grams(n_h, n, scaled, count=2000):
    """Grams of random regressor stacks; ``scaled`` shrinks each first sample by 1e-7."""
    rng = np.random.default_rng(1000 * n_h + 10 * n + scaled)
    r = rng.standard_normal((count, n))
    if scaled:
        r[:, 0] *= 1e-7
    reg = build_regressor(r, n_h)
    return np.einsum("bij,bik->bjk", reg, reg)


def near_limit_grams(n_h, count, seed):
    """SPD matrices with condition numbers within 3e-4 of ``CONDITION_LIMIT``.

    One eigenvalue is 1, one is about 1 / CONDITION_LIMIT and the rest sit
    between, so the Frobenius product exceeds the condition number by only ~1e-11.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((count, n_h, n_h)))
    eigs = np.full((count, n_h), CONDITION_LIMIT**-0.5)
    eigs[:, 0] = 1.0
    eigs[:, -1] = (1.0 + rng.uniform(-3e-4, 3e-4, count)) / CONDITION_LIMIT
    grams = np.einsum("bij,bj,bkj->bik", q, eigs, q)
    return (grams + np.swapaxes(grams, 1, 2)) / 2.0


class TestScreenedInverse:
    def assert_decides_as_exact_test(self, grams):
        good, inverses = _screened_inverse(grams)
        exact = _condition_numbers(grams) <= CONDITION_LIMIT
        np.testing.assert_array_equal(good, exact)
        np.testing.assert_array_equal(inverses, np.linalg.inv(grams[exact]))
        return exact

    def test_regressor_stacks(self):
        # n_h in {5, 9, 10} and N = n_h .. n_h + 4, with and without a tiny
        # first sample.  The stacks reach every branch of a stack that inverts:
        # records accepted by the screen, and records left to the exact test
        # that it accepts or rejects.
        screened = exact_accepts = exact_rejects = 0
        for n_h in (5, 9, 10):
            for n in range(n_h, n_h + 5):
                for scaled in (False, True):
                    grams = regressor_grams(n_h, n, scaled)
                    exact = self.assert_decides_as_exact_test(grams)
                    try:
                        inverses = np.linalg.inv(grams)
                    except np.linalg.LinAlgError:
                        continue
                    norms = np.linalg.norm(grams, axis=(1, 2)) * np.linalg.norm(inverses, axis=(1, 2))
                    passes = norms <= CONDITION_LIMIT / 100
                    screened += np.sum(passes)
                    exact_accepts += np.sum(~passes & exact)
                    exact_rejects += np.sum(~passes & ~exact)
        assert min(screened, exact_accepts, exact_rejects) > 0

    def test_rank_deficient_grams_take_the_exact_test(self):
        # Rounding leaves the null eigenvalues of a rank-deficient Gram matrix
        # tiny and of either sign; they must not pass the screen.
        rng = np.random.default_rng(7)
        low_rank = rng.standard_normal((200, 12, 7)) @ rng.standard_normal((200, 7, 9))
        grams = np.concatenate(
            [np.einsum("bij,bik->bjk", low_rank, low_rank), regressor_grams(9, 12, False, count=200)]
        )
        exact = self.assert_decides_as_exact_test(grams)
        assert not exact[:200].any() and exact[200:].all()

    def test_near_limit_grams_take_the_exact_test(self):
        # Near the limit the computed inverse and eigenvalues are off by about
        # 1e-4 relative, more than the Frobenius product exceeds the condition
        # number; the screen's margin leaves these matrices to the exact test.
        for n_h in (5, 9, 10):
            self.assert_decides_as_exact_test(near_limit_grams(n_h, 500, n_h))

    def test_singular_record_falls_back_to_exact_order(self):
        grams = regressor_grams(9, 12, False, count=50)
        grams[7] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(grams)
        exact = self.assert_decides_as_exact_test(grams)
        assert not exact[7] and exact.sum() == 49

    def test_screened_maps_keep_the_accepted_records(self):
        # Records 2 and 5 are a spike in 1e-9 noise (condition about 1e17), which
        # the screen rejects; a zero record 6 makes inverting the second stack
        # fail, so it takes the exact test.  The third stack is all accepted.
        rng = np.random.default_rng(3)
        records = rng.standard_normal((8, 16))
        records[[2, 5]] = 1e-9 * rng.standard_normal((2, 16))
        records[[2, 5], -1] = 1.0
        singular = records.copy()
        singular[6] = 0.0
        for stack, rejected in ((records, [2, 5]), (singular, [2, 5, 6]), (records[:2], [])):
            good, R, gram_inv, A = _screened_maps(stack, 9)
            reg = build_regressor(stack, 9)
            decided, inverses = _screened_inverse(np.einsum("bij,bik->bjk", reg, reg))
            np.testing.assert_array_equal(good, decided)
            np.testing.assert_array_equal(np.flatnonzero(~good), rejected)
            np.testing.assert_array_equal(gram_inv, inverses)
            np.testing.assert_array_equal(R, reg[good])
            assert len(A) == good.sum()
            for k, a in zip(np.flatnonzero(good), A):
                r_k = build_regressor(stack[k], 9)
                expected = r_k @ np.linalg.inv(r_k.T @ r_k)
                np.testing.assert_allclose(a, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


#: A kernel whose tiny weight leaves R'R unchanged in rounding, so a regularized
#: normal matrix is as near the limit, or as singular, as the regressor's Gram.
TINY_KERNEL = Kernel(np.eye(5), eta=1e-30)


def fixed_stack_solve(stack, rls):
    """The call under test, the normal matrices it must screen, and their name."""
    mats = np.swapaxes(stack, 1, 2) @ stack
    if rls:
        mats = mats + TINY_KERNEL.eta * TINY_KERNEL.inverse
        return lambda: rls_gain(stack, TINY_KERNEL), mats, "regularized normal matrix"
    return lambda: ls_gram_inverse(stack), mats, "normal-equation matrix"


class TestFixedStackScreen:
    """``ls_gram_inverse`` and ``rls_gain`` reject exactly where the exact test does."""

    def assert_rejects_as_exact_test(self, stack, rls):
        call, mats, what = fixed_stack_solve(stack, rls)
        cond = _condition_numbers(mats)
        bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))
        if not bad.size:
            assert np.all(np.isfinite(call()))
            return False
        k = bad[0]
        with pytest.raises(ConditioningError) as excinfo:
            call()
        assert str(excinfo.value) == (
            f"{what} rejected (record {k}): condition estimate {cond[k]:.3e} exceeds 1e+12"
        )
        assert excinfo.value.condition == cond[k]
        return True

    @pytest.mark.parametrize("rls", [False, True])
    def test_near_limit_records_take_the_exact_test(self, rls):
        # Records whose Gram is one of near_limit_grams, up to rounding: the
        # exact test accepts some and rejects others, and the screen must agree.
        rng = np.random.default_rng(8)
        near = near_limit_grams(5, 16, seed=9)
        q = np.linalg.qr(rng.standard_normal((16, 40, 5)))[0]
        near_regs = q @ np.swapaxes(np.linalg.cholesky(near), 1, 2)
        outcomes = set()
        for k, reg in enumerate(near_regs):
            stack = rng.standard_normal((4, 40, 5))
            stack[k % 4] = reg
            outcomes.add(self.assert_rejects_as_exact_test(stack, rls))
        assert outcomes == {False, True}

    @pytest.mark.parametrize("rls", [False, True])
    def test_rank_deficient_record_is_rejected(self, rls):
        rng = np.random.default_rng(10)
        stack = rng.standard_normal((6, 40, 5))
        stack[3] = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 5))
        assert self.assert_rejects_as_exact_test(stack, rls)

    @pytest.mark.parametrize("rls", [False, True])
    def test_well_conditioned_stacks_take_no_eigenvalue_test(self, rls, monkeypatch):
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return _condition_numbers(mats)

        monkeypatch.setattr(estimators, "_condition_numbers", counted)
        stack = np.random.default_rng(11).standard_normal((20, 40, 5))
        call, _, _ = fixed_stack_solve(stack, rls)
        assert len(call()) == 20
        assert calls == []


def conditioned_regressors(cond, count, seed):
    """(count, 200, 9) regressors with orthonormal factors, log-spaced singular
    values and Gram condition ``cond``."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((count, 200, 9)))[0]
    v = np.linalg.qr(rng.standard_normal((count, 9, 9)))[0]
    return (u * np.logspace(0, -0.5 * np.log10(cond), 9)) @ v


def exact_gram_inverse_trace(reg):
    """tr inv(R'R) from the exact Gram matrix, inverted in 50 digits.

    Every double is an integer times a power of two, so the Gram of the
    integers shifted to a common exponent is exact.
    """
    mant, exp = np.frexp(reg.ravel())
    low = int(exp.min()) - 53
    ints = [int(m * 2.0**53) << (e - 53 - low) for m, e in zip(mant.tolist(), exp.tolist())]
    gram = np.array(ints, dtype=object).reshape(reg.shape)
    gram = gram.T @ gram
    with mpmath.workdps(50):
        inverse = mpmath.matrix([[mpmath.ldexp(g, 2 * low) for g in row] for row in gram]) ** -1
        return float(mpmath.fsum(inverse[i, i] for i in range(len(gram))))


class TestFixedRecordAccuracy:
    @pytest.mark.parametrize("log_cond", range(4, 12))
    def test_accepted_up_to_the_limit_with_eps_cond_error(self, log_cond):
        # Unrefined Cholesky solves err by about eps * cond; the worst seen is
        # 1.3e-16 * cond, so 2e-15 * cond leaves margin.
        cond = 10.0**log_cond
        regs = conditioned_regressors(cond, 10, log_cond)
        inverses = ls_gram_inverse(regs)
        assert rls_gain(regs, Kernel(np.eye(9), eta=1e-30)).shape == (10, 9, 200)
        for reg, inverse in zip(regs, inverses):
            exact = exact_gram_inverse_trace(reg)
            assert abs(np.trace(inverse) - exact) <= 2e-15 * cond * exact

    @pytest.mark.parametrize("rls, scale", [(False, 1e-155), (False, 1e160), (True, 1e160)])
    def test_out_of_range_records_carry_their_condition(self, rls, scale):
        # An orthonormal record scaled until its LS inverse (1e-155) or its
        # Gram (1e160) leaves the floating-point range.
        reg = scale * conditioned_regressors(1.0, 1, 0)[0]
        call = (lambda: rls_gain(reg, Kernel(np.eye(9), 1.0))) if rls else (
            lambda: ls_gram_inverse(reg))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConditioningError) as info:
            call()
        assert info.value.condition == (np.inf if scale > 1 else pytest.approx(1.0))


class TestStableSplineKernel:
    def test_small_exact_values(self):
        np.testing.assert_allclose(
            stable_spline_kernel(2, 0.5), [[0.5, 0.25], [0.25, 0.25]], atol=0
        )

    def test_reference_kernel_entries(self):
        k = stable_spline_kernel(9, 0.7)
        assert k[0, 0] == pytest.approx(0.7)
        assert k[8, 8] == pytest.approx(0.7**9)
        assert k[2, 6] == pytest.approx(0.7**7)

    def test_positive_definite(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            beta = float(rng.uniform(0.05, 0.95))
            eigs = np.linalg.eigvalsh(stable_spline_kernel(n, beta))
            assert eigs.min() > 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            stable_spline_kernel(3, 1.0)
        with pytest.raises(ParameterError):
            stable_spline_kernel(3, 0.0)
        with pytest.raises(ParameterError):
            stable_spline_kernel(0, 0.5)


class TestKernelValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            Kernel(np.array([[1.0, 0.5], [0.0, 1.0]]), eta=0.1)

    def test_indefinite_rejected(self):
        with pytest.raises(ParameterError):
            Kernel(np.array([[1.0, 0.0], [0.0, -0.5]]), eta=0.1)

    def test_eta_must_be_positive(self):
        with pytest.raises(ParameterError):
            Kernel(np.eye(2), eta=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="non-finite"):
                Kernel(np.array([[bad]]), eta=1.0)
