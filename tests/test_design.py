import numpy as np
import pytest

from firpriv import (
    BudgetError,
    FirModel,
    Kernel,
    ParameterError,
    RandomInputModel,
    RankError,
    RedrawBudgetError,
    TraceQuadratic,
    analyze_records,
    build_regressor,
    design_input_capped,
    design_output_capped,
    design_output_random,
    design_output_weighted,
    estimate_expected_quadratic,
    ls_trace_quadratic,
    rls_mse,
    build_filter_matrix,
    derive,
    stable_spline_kernel,
    stream,
)
from firpriv import design, estimators
from helpers import ball_samples, random_regressor, sphere_samples


def random_quadratic(rng, n_l, n=30, n_h=4, sigma2=0.5):
    reg = build_regressor(random_regressor(rng, n, n_h)[:, 0], n_h)
    return ls_trace_quadratic(reg, sigma2, n_l), reg


class TestDesignOutputCapped:
    def test_diagonal_example(self):
        quad = TraceQuadratic(matrix=np.diag([3.0, 1.0]), offset=0.8)
        result = design_output_capped(quad, sigma2=1.0, gamma1=5.0)
        np.testing.assert_allclose(result.l_star, [2.0, 0.0], atol=1e-12)
        assert result.predicted_trace == pytest.approx(12.0 + 0.8, rel=1e-12)
        assert result.lambda_y == pytest.approx(5.0, rel=1e-12)
        assert result.rho == pytest.approx(5.0, rel=1e-12)
        assert result.active_constraint

    def test_zero_matrix_flags_degenerate(self):
        quad = TraceQuadratic(matrix=np.zeros((3, 3)), offset=0.4)
        result = design_output_capped(quad, sigma2=0.1, gamma1=0.2)
        np.testing.assert_array_equal(result.l_star, np.zeros(3))
        assert result.degenerate_objective
        assert result.predicted_trace == pytest.approx(0.4)
        assert not result.active_constraint

    def test_budget_error(self):
        quad = TraceQuadratic(matrix=np.eye(2), offset=1.0)
        with pytest.raises(BudgetError):
            design_output_capped(quad, sigma2=1.0, gamma1=1.0)
        with pytest.raises(BudgetError):
            design_output_capped(quad, sigma2=1.0, gamma1=float("nan"))

    def test_dominates_random_feasible_candidates(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            quad, _ = random_quadratic(rng, n_l=5)
            sigma2, gamma1 = 0.4, 1.1
            result = design_output_capped(quad, sigma2, gamma1)
            radius = np.sqrt(gamma1 - sigma2)
            candidates = ball_samples(rng, 2000, 5, radius)
            values = np.einsum("bi,ij,bj->b", candidates, quad.matrix, candidates) + quad.offset
            assert result.predicted_trace >= values.max() - 1e-12 * abs(result.predicted_trace)

    def test_budget_active_to_tolerance(self):
        rng = np.random.default_rng(1)
        quad, _ = random_quadratic(rng, n_l=6)
        result = design_output_capped(quad, sigma2=0.3, gamma1=0.9)
        assert float(result.l_star @ result.l_star) == pytest.approx(0.6, abs=1e-9)
        assert result.lambda_y == pytest.approx(0.9, abs=1e-9)

    def test_sign_invariance_and_tie_break(self):
        rng = np.random.default_rng(2)
        quad, _ = random_quadratic(rng, n_l=4)
        result = design_output_capped(quad, sigma2=0.2, gamma1=0.7)
        flipped = -result.l_star
        assert quad.evaluate(flipped) == pytest.approx(result.predicted_trace, rel=1e-12)
        idx = int(np.argmax(np.abs(result.l_star)))
        assert result.l_star[idx] > 0

    def test_objective_linear_in_budget(self):
        rng = np.random.default_rng(3)
        quad, _ = random_quadratic(rng, n_l=5)
        sigma2 = 0.5
        lam1 = np.linalg.eigvalsh(quad.matrix)[-1]
        for gamma1 in np.linspace(0.8, 3.0, 5):
            result = design_output_capped(quad, sigma2, gamma1)
            expected = lam1 * (gamma1 - sigma2) + quad.offset
            assert result.predicted_trace == pytest.approx(expected, rel=1e-9)

    def test_dominates_white_noise_strategy(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            quad, _ = random_quadratic(rng, n_l=5)
            sigma2, gamma1 = 0.4, 1.3
            result = design_output_capped(quad, sigma2, gamma1)
            # Inflating white noise to the budget is the single-tap filter.
            white = np.zeros(5)
            white[0] = np.sqrt(gamma1 - sigma2)
            assert result.predicted_trace >= quad.evaluate(white) - 1e-12


class TestDesignOutputWeighted:
    def test_threshold_case_returns_zero(self):
        quad = TraceQuadratic(matrix=np.diag([0.5]), offset=1.0)
        result = design_output_weighted(quad, gamma2=1.0)
        np.testing.assert_array_equal(result.l_star, np.zeros(1))
        assert result.weighted_cost == pytest.approx(1.0, rel=1e-12)
        assert not result.active_constraint

    def test_scalar_example(self):
        quad = TraceQuadratic(matrix=np.diag([4.0]), offset=1.0)
        result = design_output_weighted(quad, gamma2=1.0)
        assert float(result.l_star @ result.l_star) == pytest.approx(0.25, rel=1e-12)
        assert abs(result.l_star[0]) == pytest.approx(0.5, rel=1e-12)
        assert result.weighted_cost == pytest.approx(0.75, rel=1e-12)
        assert result.weighted_cost < 1.0  # beats switching the noise off

    def test_beats_all_stationary_candidates(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            quad, _ = random_quadratic(rng, n_l=5)
            gamma2 = float(rng.uniform(0.05, 5.0))
            result = design_output_weighted(quad, gamma2)

            def cost(l):
                return 1.0 / quad.evaluate(l) + gamma2 * float(l @ l)

            eigvals, eigvecs = np.linalg.eigh(quad.matrix)
            best = cost(np.zeros(5))
            for k in range(5):
                lam = eigvals[k]
                if lam <= 0:
                    continue
                norm_sq = 1.0 / np.sqrt(gamma2 * lam) - quad.offset / lam
                if norm_sq <= 0:
                    continue
                best = min(best, cost(np.sqrt(norm_sq) * eigvecs[:, k]))
            for l in rng.standard_normal((2000, 5)):
                best = min(best, cost(l))
            assert result.weighted_cost <= best + 1e-10 * abs(best)

    def test_repeated_top_eigenvalue_flagged_and_optimal(self):
        quad = TraceQuadratic(matrix=2.5 * np.eye(3), offset=0.4)
        result = design_output_weighted(quad, gamma2=1.0)
        assert result.degenerate_top_eigenspace
        # All unit directions give the same cost; verify on a few.
        rng = np.random.default_rng(6)
        norm_sq = float(result.l_star @ result.l_star)
        for v in sphere_samples(rng, 20, 3, np.sqrt(norm_sq)):
            other = 1.0 / quad.evaluate(v) + 1.0 * norm_sq
            assert result.weighted_cost == pytest.approx(other, rel=1e-12)

    def test_offset_must_be_positive(self):
        with pytest.raises(ParameterError):
            design_output_weighted(TraceQuadratic(matrix=np.eye(2), offset=0.0), gamma2=1.0)
        with pytest.raises(ParameterError):
            design_output_weighted(TraceQuadratic(matrix=np.eye(2), offset=1.0), gamma2=0.0)

    def test_nan_weight_rejected(self):
        with pytest.raises(ParameterError, match="gamma2"):
            design_output_weighted(TraceQuadratic(matrix=np.eye(2), offset=1.0), gamma2=np.nan)


class TestNonpositiveSigma2:
    """Every variance-capped or weighted design reports rho = lambda_y / sigma2."""

    QUAD = TraceQuadratic(matrix=np.eye(2), offset=1.0)

    @pytest.mark.parametrize("sigma2", [0.0, -0.1])
    def test_output_designs_raise_parameter_error(self, sigma2):
        with pytest.raises(ParameterError, match="sigma2"):
            design_output_capped(self.QUAD, sigma2, 1.0)
        with pytest.raises(ParameterError, match="sigma2"):
            design_output_random(self.QUAD, sigma2, 1.0)
        with pytest.raises(ParameterError, match="sigma2"):
            design_output_weighted(self.QUAD, 0.1, sigma2=sigma2)

    @pytest.mark.parametrize("sigma2", [0.0, -0.1])
    def test_input_design_raises_parameter_error(self, sigma2):
        r = random_regressor(np.random.default_rng(9), 30, 1)[:, 0]
        with pytest.raises(ParameterError, match="sigma2"):
            design_input_capped(r, FirModel([1.0, 0.5]), sigma2, 1.0, n_l=3)

    def test_weighted_design_without_sigma2_still_runs(self):
        result = design_output_weighted(self.QUAD, 0.1)
        assert np.isnan(result.rho)


class TestDesignInputCapped:
    def test_zero_objective_returns_unmasked_design(self):
        quad_f = TraceQuadratic(np.zeros((4, 4)), 0.5)
        result = design._design_input(quad_f, np.array([1.0, 0.5]), 1.0, 2.0, 3)
        np.testing.assert_array_equal(result.l_star, np.zeros(3))
        assert result.degenerate_objective
        assert result.rho == 1.0
        assert result.predicted_trace == 0.5

    def test_identity_plant_reduces_to_output_design(self):
        rng = np.random.default_rng(7)
        r = random_regressor(rng, 30, 1)[:, 0]
        reg = build_regressor(r, 1)
        sigma2, gamma1, n_l = 0.4, 1.2, 5
        quad = ls_trace_quadratic(reg, sigma2, n_l)
        out = design_output_capped(quad, sigma2, gamma1)
        inp = design_input_capped(r, FirModel([1.0]), sigma2, gamma1, n_l)
        np.testing.assert_allclose(inp.l_star, out.l_star, atol=1e-10)
        assert inp.predicted_trace == pytest.approx(out.predicted_trace, rel=1e-10)

    def test_budget_met_with_equality(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n_h = int(rng.integers(2, 5))
            h = FirModel(rng.standard_normal(n_h))
            r = random_regressor(rng, 30, n_h)[:, 0]
            sigma2, gamma1 = 0.3, 1.0
            result = design_input_capped(r, h, sigma2, gamma1, n_l=4)
            f = np.convolve(h.coeffs, result.l_star)
            assert float(f @ f) == pytest.approx(gamma1 - sigma2, abs=1e-9)
            assert result.lambda_y == pytest.approx(gamma1, abs=1e-9)

    def test_dominates_candidates_on_whitened_ball(self):
        rng = np.random.default_rng(9)
        from firpriv import convolution_matrix

        for _ in range(5):
            n_h, n_l = 4, 4
            h = FirModel(rng.standard_normal(n_h))
            r = random_regressor(rng, 30, n_h)[:, 0]
            sigma2, gamma1 = 0.4, 1.1
            result = design_input_capped(r, h, sigma2, gamma1, n_l)

            reg = build_regressor(r, n_h)
            quad_f = ls_trace_quadratic(reg, sigma2, n_h + n_l - 1)
            hmat = convolution_matrix(h.coeffs, n_l)
            m_prime = hmat.T @ quad_f.matrix @ hmat
            gram = hmat.T @ hmat
            eigvals, eigvecs = np.linalg.eigh(gram)
            inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
            etas = ball_samples(rng, 2000, n_l, np.sqrt(gamma1 - sigma2))
            candidates = etas @ inv_sqrt.T
            values = (
                np.einsum("bi,ij,bj->b", candidates, m_prime, candidates) + quad_f.offset
            )
            assert result.predicted_trace >= values.max() - 1e-10 * abs(result.predicted_trace)

    def test_zero_plant_raises_rank_error(self):
        rng = np.random.default_rng(10)
        r = random_regressor(rng, 20, 2)[:, 0]
        with pytest.raises(RankError):
            design_input_capped(r, FirModel([0.0, 0.0]), 0.2, 0.8, n_l=3)

    def test_top_eigenvalue_is_the_generalized_one(self):
        from firpriv import convolution_matrix

        rng = np.random.default_rng(12)
        for _ in range(3):
            n_h, n_l = 4, 5
            h = rng.standard_normal(n_h)
            quad_f, _ = random_quadratic(rng, n_h + n_l - 1, n_h=n_h)
            result = design._design_input(quad_f, h, 0.4, 1.1, n_l)
            hmat = convolution_matrix(h, n_l)
            m_prime = hmat.T @ quad_f.matrix @ hmat
            generalized = np.linalg.eigvals(np.linalg.solve(hmat.T @ hmat, m_prime))
            assert result.top_eigenvalue == pytest.approx(generalized.real.max(), rel=1e-9)
            assert not result.degenerate_top_eigenspace

    def test_identity_quadratic_whitens_to_a_repeated_eigenspace(self):
        # M' = H'H, so the whitened quadratic is the identity: every direction ties.
        h = np.array([1.0, 0.5, -0.3])
        result = design._design_input(TraceQuadratic(np.eye(6), 0.5), h, 1.0, 2.0, 4)
        assert result.degenerate_top_eigenspace
        assert result.top_eigenvalue == pytest.approx(1.0, rel=1e-12)
        assert result.predicted_trace == pytest.approx(0.5 + (2.0 - 1.0), rel=1e-12)

    def test_gram_guard_boundary(self):
        inv_sqrt = design._gram_inv_sqrt(np.diag([1.0, 2e-10]))
        np.testing.assert_allclose(inv_sqrt @ np.diag([1.0, 2e-10]) @ inv_sqrt, np.eye(2),
                                   rtol=0, atol=1e-12)
        with pytest.raises(RankError):
            design._gram_inv_sqrt(np.diag([1.0, 5e-11]))

    def test_rls_adversary_consistent_with_mse(self):
        rng = np.random.default_rng(11)
        n_h, n_l, n = 3, 3, 25
        h = FirModel(rng.standard_normal(n_h))
        r = random_regressor(rng, n, n_h)[:, 0]
        kernel = Kernel(stable_spline_kernel(n_h, 0.7), eta=0.1)
        result = design_input_capped(r, h, 0.3, 0.9, n_l, kernel=kernel)
        reg = build_regressor(r, n_h)
        f = np.convolve(h.coeffs, result.l_star)
        band = build_filter_matrix(f, n)
        direct = rls_mse(reg, h, noise_matrix=band, sigma2=0.3, kernel=kernel).trace
        assert result.predicted_trace == pytest.approx(direct, rel=1e-9)


class TestRandomInputModel:
    def test_probability_validation(self):
        with pytest.raises(ParameterError):
            RandomInputModel(lengths=[5, 6], probabilities=[0.6, 0.5], theta=1, vartheta=1)

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            RandomInputModel(lengths=[0, 2], probabilities=[0.5, 0.5], theta=1, vartheta=1)
        with pytest.raises(ParameterError, match="lengths must be finite integers"):
            RandomInputModel(lengths=[10.9, 11.2], probabilities=[0.5, 0.5], theta=1, vartheta=1)

    @pytest.mark.parametrize("theta, vartheta", [(2.5, 3), (2, 3.5)])
    def test_non_integer_budget_rejected(self, theta, vartheta):
        with pytest.raises(ParameterError, match="must be an integer"):
            RandomInputModel([10, 11], [0.5, 0.5], theta, vartheta)

    def test_empty_uniform_support_rejected(self):
        with pytest.raises(ParameterError, match="max_length 10 < min_length 12"):
            RandomInputModel.uniform_gaussian(12, 10, 5, 7)

    def test_uniform_helper(self):
        model = RandomInputModel.uniform_gaussian(10, 20, 5, 7)
        assert model.lengths.tolist() == list(range(10, 21))
        assert model.probabilities.sum() == pytest.approx(1.0)
        assert model.theta == 5 and model.vartheta == 7


class TestEstimateExpectedQuadratic:
    def test_redraw_counts_pinned_on_design_sweep_model(self):
        # The random-input design of the design benchmark: which replicates the
        # condition test redraws must not change with how the test is computed.
        model = RandomInputModel.uniform_gaussian(10, 20, 20, 100)
        redraws = [
            estimate_expected_quadratic(model, 9, 5, 0.1, seed=derive(s, "design")).redraws
            for s in range(8)
        ]
        assert redraws == [3, 2, 2, 2, 0, 1, 9, 1]

    def test_point_mass_matches_deterministic(self):
        # Same-draw oracle: rebuild the estimator's records from its streams and
        # average their exact per-record quadratics.  n_l exceeds the shortest
        # record, whose lags d >= N add nothing.
        n_h, n_l, sigma2, seed = 3, 11, 0.4, 5
        model = RandomInputModel(lengths=[8, 12], probabilities=[0.5, 0.5], theta=4, vartheta=6)
        estimated = estimate_expected_quadratic(model, n_h, n_l, sigma2, seed=seed)
        assert estimated.redraws == 0 and estimated.samples == 24
        lengths = stream(seed, "quad-lengths").choice(
            model.lengths, size=model.theta, p=model.probabilities
        )
        assert set(lengths) == {8, 12}
        quads = []
        for i, n in enumerate(lengths):
            records = stream(seed, "quad-inputs", i).standard_normal((model.vartheta, int(n)))
            quads += analyze_records(build_regressor(records, n_h), sigma2, n_l)
        np.testing.assert_allclose(
            estimated.matrix, np.mean([q.matrix for q in quads], axis=0), rtol=1e-12
        )
        assert estimated.offset == pytest.approx(np.mean([q.offset for q in quads]), rel=1e-12)

    def test_deterministic_in_seed(self):
        model = RandomInputModel.uniform_gaussian(8, 12, 4, 10)
        a = estimate_expected_quadratic(model, 4, 3, 0.5, seed=7)
        b = estimate_expected_quadratic(model, 4, 3, 0.5, seed=7)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.offset == b.offset

    def test_seeds_agree_within_monte_carlo_tolerance(self):
        # Convergence check against a 10x larger reference run.
        model_small = RandomInputModel.uniform_gaussian(12, 16, 10, 40)
        model_big = RandomInputModel.uniform_gaussian(12, 16, 40, 100)
        small_a = estimate_expected_quadratic(model_small, 3, 3, 0.5, seed=1)
        small_b = estimate_expected_quadratic(model_small, 3, 3, 0.5, seed=2)
        reference = estimate_expected_quadratic(model_big, 3, 3, 0.5, seed=3)
        dev_a = np.linalg.norm(small_a.matrix - reference.matrix)
        dev_b = np.linalg.norm(small_b.matrix - reference.matrix)
        scale = np.linalg.norm(reference.matrix)
        assert dev_a <= 0.5 * scale and dev_b <= 0.5 * scale
        assert abs(small_a.offset - small_b.offset) <= 0.5 * reference.offset

    def test_redraw_budget_aborts(self, monkeypatch):
        # Every record fails a condition limit of 1, so the redraws run out.
        monkeypatch.setattr(estimators, "CONDITION_LIMIT", 1.0)
        model = RandomInputModel(lengths=[10], probabilities=[1.0], theta=2, vartheta=5)
        with pytest.raises(RedrawBudgetError):
            estimate_expected_quadratic(model, 3, 2, 0.5, seed=0)
        # One draw per unit on two threads: each unit stops at its own budget.
        monkeypatch.setattr(design, "QUAD_UNIT_RECORDS", 5)
        with pytest.raises(RedrawBudgetError):
            estimate_expected_quadratic(model, 3, 2, 0.5, seed=0, threads=2)

    @pytest.mark.parametrize("unit_records", [100, 300])
    def test_threads_change_no_bit(self, monkeypatch, unit_records):
        # Seeds 0 and 6 redraw 3 and 9 replicates (see the pinned counts above).
        # The default unit holds all 20 draws; 1 or 3 draws per unit use the pool.
        model = RandomInputModel.uniform_gaussian(10, 20, 20, 100)
        seeds = [derive(s, "design") for s in (0, 6)]
        whole = [estimate_expected_quadratic(model, 9, 5, 0.1, seed, threads=2) for seed in seeds]
        monkeypatch.setattr(design, "QUAD_UNIT_RECORDS", unit_records)
        for seed, ref in zip(seeds, whole):
            for threads in (1, 2):
                split = estimate_expected_quadratic(model, 9, 5, 0.1, seed, threads=threads)
                assert ref.redraws > 0 and split.redraws == ref.redraws
                assert np.array_equal(split.matrix, ref.matrix)
                assert split.offset == ref.offset

    def test_threads_below_one_rejected(self):
        model = RandomInputModel.uniform_gaussian(10, 12, 2, 3)
        with pytest.raises(ParameterError, match="threads"):
            estimate_expected_quadratic(model, 3, 2, 0.5, threads=0)

    @pytest.mark.parametrize("sigma2", [-0.1, np.nan])
    def test_invalid_measurement_noise_rejected(self, sigma2):
        model = RandomInputModel.uniform_gaussian(8, 12, 2, 3)
        with pytest.raises(ParameterError, match="sigma2"):
            estimate_expected_quadratic(model, 3, 2, sigma2, seed=0)

    def test_length_support_must_cover_n_h(self):
        model = RandomInputModel.uniform_gaussian(4, 6, 2, 2)
        with pytest.raises(ParameterError):
            estimate_expected_quadratic(model, 7, 2, 0.5, seed=0)

    def test_psd_matrix(self):
        model = RandomInputModel.uniform_gaussian(10, 14, 5, 20)
        estimated = estimate_expected_quadratic(model, 3, 5, 0.5, seed=4)
        eigs = np.linalg.eigvalsh(estimated.matrix)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_objective_nondecreasing_in_filter_order(self):
        model = RandomInputModel.uniform_gaussian(10, 14, 5, 30)
        values = []
        for n_l in range(1, 7):
            quad = estimate_expected_quadratic(model, 3, n_l, 0.5, seed=5)
            result = design_output_capped(quad, sigma2=0.5, gamma1=1.5)
            values.append(result.predicted_trace)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestDesignOutputRandom:
    def test_tiny_budget_ratio_tends_to_one(self):
        rng = np.random.default_rng(13)
        quad, _ = random_quadratic(rng, n_l=4)
        result = design_output_random(quad, sigma2=0.5, gamma1=0.5 + 1e-9)
        assert result.predicted_ratio == pytest.approx(1.0, abs=1e-6)

    def test_ratio_formula(self):
        rng = np.random.default_rng(14)
        quad, _ = random_quadratic(rng, n_l=5)
        sigma2, gamma1 = 0.4, 1.0
        result = design_output_random(quad, sigma2, gamma1)
        lam1 = np.linalg.eigvalsh(quad.matrix)[-1]
        expected = 1.0 + lam1 * (gamma1 - sigma2) / quad.offset
        assert result.predicted_ratio == pytest.approx(expected, rel=1e-12)
        assert result.predicted_trace == pytest.approx(
            lam1 * (gamma1 - sigma2) + quad.offset, rel=1e-12
        )
