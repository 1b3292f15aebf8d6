"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion pins its tolerances explicitly.

Criterion 4 checks the bundled reference values for the random-input
scenario, and two of its clauses cannot be met by a faithful implementation,
so it is expected to stay red:

* The predicted error ratio is provably at least 2 for this scenario.  The
  quadratic's matrix has constant diagonal t0 (every diagonal entry is the
  full trace of the same error matrix), and the offset equals sigma2 * t0 on
  the same sample, so the ratio is 1 + lam_max/t0 >= 2 in every realization
  (lam_max of a symmetric matrix is at least its largest diagonal entry).
  The reference value 1.9639 sits below that floor; with gamma1 = 2*sigma2
  the band 1.9639 +- 0.05 caps at 2.0139, reachable only with a top
  eigenvalue within 1.4% of the diagonal.
* The reference filter shape (peaked center, raised ends) only arises when
  the estimate is dominated by near-singular replicates at the shortest
  record lengths (coefficient count 10 at length 10), a regime whose
  ill-conditioned redraws run at 2-4%, beyond the 1% abort budget, and whose
  eigenvalue excess is ~10% (ratio ~2.1) -- incompatible with the first
  clause.  No coefficient count between 3 and 10 satisfies both (measured
  over 6 seeds each).

The criterion is asserted as stated rather than weakened; its third clause
(simulated ratio within 3 standard errors of the predicted one) passes.
"""
import math
import time

import mpmath
import numpy as np

from firpriv import (
    CoefficientBox,
    FirModel,
    Kernel,
    RandomInputModel,
    build_filter_matrix,
    build_regressor,
    design_input_capped,
    design_output_capped,
    design_output_random,
    design_output_weighted,
    estimate_expected_quadratic,
    gaussian_noise_multiplier,
    gaussian_tail_inverse,
    l1_sensitivity,
    laplace_mechanism,
    ls_covariance,
    ls_trace_quadratic,
    privacy_audit,
    rls_gain,
    rls_mse,
    sample_mechanism,
    stable_spline_kernel,
)
from firpriv.experiments import (
    REFERENCE_CONFIGS,
    REFERENCE_RANDOM_FILTER,
    REFERENCE_RANDOM_RATIO,
    _random_input_attack,
    reference_plant,
    reproduce,
)
from helpers import ball_samples, random_regressor


def report(criterion: str, passed: bool, detail: str):
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} {detail}")


def random_instance(rng, max_n=40, max_n_h=5):
    n_h = int(rng.integers(1, max_n_h + 1))
    n = int(rng.integers(max(10, n_h), max_n + 1))
    reg_mat = random_regressor(rng, n, n_h)
    return build_regressor(reg_mat[:, 0], n_h)


def test_criterion_1_trace_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        reg = random_instance(rng)
        n_l = int(rng.integers(1, 7))
        sigma2 = float(rng.uniform(0.1, 2.0))
        quad = ls_trace_quadratic(reg, sigma2, n_l)
        for _ in range(3):
            l = rng.standard_normal(n_l)
            band = build_filter_matrix(l, len(reg))
            direct = ls_covariance(reg, noise_matrix=band, sigma2=sigma2).trace
            worst = max(worst, abs(quad.evaluate(l) - direct) / abs(direct))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-9 and elapsed < 10.0
    report("C1 trace identity", passed,
           f"worst relative error {worst:.3e} over 200 instances ({elapsed:.2f}s)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_capped_design_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    candidates_per_instance = 10_000
    gap = np.inf  # min over instances of designed - best candidate
    slack = np.inf
    activity = 0.0

    for _ in range(50):  # output design
        reg = random_instance(rng, max_n=35, max_n_h=4)
        n_l = int(rng.integers(2, 6))
        sigma2, gamma1 = 0.4, float(rng.uniform(0.8, 2.0))
        quad = ls_trace_quadratic(reg, sigma2, n_l)
        result = design_output_capped(quad, sigma2, gamma1)
        radius = math.sqrt(gamma1 - sigma2)
        cand = ball_samples(rng, candidates_per_instance, n_l, radius)
        values = np.einsum("bi,ij,bj->b", cand, quad.matrix, cand) + quad.offset
        gap = min(gap, result.predicted_trace - values.max())
        activity = max(activity, abs(float(result.l_star @ result.l_star) - (gamma1 - sigma2)))

    from firpriv import convolution_matrix

    for _ in range(50):  # input design
        n_h = int(rng.integers(2, 5))
        h = FirModel(rng.standard_normal(n_h))
        r = random_regressor(rng, 30, n_h)[:, 0]
        n_l = 4
        sigma2, gamma1 = 0.4, 1.2
        result = design_input_capped(r, h, sigma2, gamma1, n_l)
        reg = build_regressor(r, n_h)
        quad_f = ls_trace_quadratic(reg, sigma2, n_h + n_l - 1)
        hmat = convolution_matrix(h.coeffs, n_l)
        m_prime = hmat.T @ quad_f.matrix @ hmat
        gram = hmat.T @ hmat
        eigvals, eigvecs = np.linalg.eigh(gram)
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        cand = ball_samples(rng, candidates_per_instance, n_l, math.sqrt(gamma1 - sigma2))
        cand = cand @ inv_sqrt.T
        values = np.einsum("bi,ij,bj->b", cand, m_prime, cand) + quad_f.offset
        gap = min(gap, result.predicted_trace - values.max())
        f = np.convolve(h.coeffs, result.l_star)
        activity = max(activity, abs(float(f @ f) - (gamma1 - sigma2)))

    for k in range(50):  # random-input design
        model = RandomInputModel.uniform_gaussian(
            int(rng.integers(8, 12)), int(rng.integers(12, 18)), 2, 25
        )
        quad = estimate_expected_quadratic(model, 3, 4, 0.3, seed=int(rng.integers(2**31)))
        result = design_output_random(quad, 0.3, 0.8)
        cand = ball_samples(rng, candidates_per_instance, 4, math.sqrt(0.5))
        values = np.einsum("bi,ij,bj->b", cand, quad.matrix, cand) + quad.offset
        gap = min(gap, result.predicted_trace - values.max())
        activity = max(activity, abs(float(result.l_star @ result.l_star) - 0.5))

    elapsed = time.perf_counter() - start
    passed = gap >= -1e-10 and activity <= 1e-9 and elapsed < 60.0
    report("C2 capped design optimality", passed,
           f"min dominance gap {gap:.3e}, worst constraint slack {activity:.3e} ({elapsed:.2f}s)")
    assert gap >= -1e-10
    assert activity <= 1e-9
    assert elapsed < 60.0


def test_criterion_3_weighted_design_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    worst_excess = -np.inf
    threshold_exact = True

    def weighted_cost(quad, gamma2, l):
        return 1.0 / quad.evaluate(l) + gamma2 * float(l @ l)

    instances = []
    for _ in range(50):
        reg = random_instance(rng, max_n=35, max_n_h=4)
        n_l = int(rng.integers(2, 6))
        instances.append(ls_trace_quadratic(reg, 0.5, n_l))
    for _ in range(10):  # constructed repeated-top-eigenvalue instances
        n_l = int(rng.integers(2, 6))
        basis, _ = np.linalg.qr(rng.standard_normal((n_l, n_l)))
        lam = np.sort(rng.uniform(0.1, 1.0, n_l))[::-1]
        lam[:2] = lam[0]
        from firpriv import TraceQuadratic

        instances.append(TraceQuadratic(matrix=(basis * lam) @ basis.T, offset=0.7))

    for quad in instances:
        n_l = quad.n_l
        gamma2 = float(rng.uniform(0.05, 4.0))
        result = design_output_weighted(quad, gamma2)
        eigvals, eigvecs = np.linalg.eigh(quad.matrix)
        best = weighted_cost(quad, gamma2, np.zeros(n_l))
        for k in range(n_l):
            lam_k = eigvals[k]
            if lam_k <= 0:
                continue
            norm_sq = 1.0 / math.sqrt(gamma2 * lam_k) - quad.offset / lam_k
            if norm_sq <= 0:
                continue
            for sign in (1.0, -1.0):
                best = min(best, weighted_cost(quad, gamma2, sign * math.sqrt(norm_sq) * eigvecs[:, k]))
        cand = rng.standard_normal((10_000, n_l))
        quad_vals = np.einsum("bi,ij,bj->b", cand, quad.matrix, cand) + quad.offset
        costs = 1.0 / quad_vals + gamma2 * np.einsum("bi,bi->b", cand, cand)
        best = min(best, float(costs.min()))
        worst_excess = max(worst_excess, (result.weighted_cost - best) / abs(best))

        # threshold case: weight large enough that the zero filter is optimal
        lam1 = eigvals[-1]
        gamma2_hi = 1.25 * lam1 / quad.offset**2
        zero_result = design_output_weighted(quad, gamma2_hi)
        threshold_exact = threshold_exact and np.array_equal(zero_result.l_star, np.zeros(n_l))

    elapsed = time.perf_counter() - start
    passed = worst_excess <= 1e-10 and threshold_exact and elapsed < 60.0
    report("C3 weighted design optimality", passed,
           f"worst cost excess {worst_excess:.3e}, threshold returns exact zero: "
           f"{threshold_exact} ({elapsed:.2f}s)")
    assert worst_excess <= 1e-10
    assert threshold_exact
    assert elapsed < 60.0


def test_criterion_4_random_input_reference_experiment():
    start = time.perf_counter()
    config = REFERENCE_CONFIGS["random"]
    h = reference_plant()
    seed = 0
    model = RandomInputModel.uniform_gaussian(
        config.random_min_length, config.random_max_length, config.random_theta,
        config.random_vartheta,
    )
    quad = estimate_expected_quadratic(
        model, len(h), config.noise_order, config.sigma2, seed=seed
    )
    result = design_output_random(quad, config.sigma2, config.gamma1)

    expected = np.asarray(REFERENCE_RANDOM_FILTER)
    dev = min(
        float(np.max(np.abs(result.l_star - expected))),
        float(np.max(np.abs(-result.l_star - expected))),
    )
    filter_ok = dev <= 0.02
    ratio_ok = abs(result.predicted_ratio - REFERENCE_RANDOM_RATIO) <= 0.05

    replicates = 100_000
    masked_mean, masked_se, _ = _random_input_attack(
        h.coeffs, model, result.l_star, config.sigma2, 1001, replicates, None
    )
    clean_mean, clean_se, _ = _random_input_attack(
        h.coeffs, model, None, config.sigma2, 1002, replicates, None
    )
    sim_ratio = masked_mean / clean_mean
    sim_se = sim_ratio * math.sqrt(
        (masked_se / masked_mean) ** 2 + (clean_se / clean_mean) ** 2
    )
    sim_ok = abs(sim_ratio - result.predicted_ratio) <= 3.0 * sim_se

    elapsed = time.perf_counter() - start
    passed = filter_ok and ratio_ok and sim_ok and elapsed < 300.0
    report(
        "C4 random-input reference experiment", passed,
        f"filter dev {dev:.4f} (<=0.02: {filter_ok}), "
        f"predicted ratio {result.predicted_ratio:.4f} vs {REFERENCE_RANDOM_RATIO}+-0.05: "
        f"{ratio_ok}, simulated ratio {sim_ratio:.4f} within 3se={3 * sim_se:.4f}: {sim_ok} "
        f"({elapsed:.1f}s)",
    )
    assert elapsed < 300.0
    assert sim_ok
    # Reference-value clauses, asserted as stated; see module docstring.
    assert filter_ok, f"filter deviates by {dev:.4f} > 0.02"
    assert ratio_ok, f"predicted ratio {result.predicted_ratio:.4f} outside 1.9639 +- 0.05"


def test_criterion_5_deterministic_reference_experiment():
    start = time.perf_counter()
    rows = {row.name: row for row in reproduce(which="deterministic", seed=0, realizations=50)}
    band_designed = rows["deterministic.designed_trace.reference_in_band"].passed
    band_baseline = rows["deterministic.baseline_trace.reference_in_band"].passed
    median_row = rows["deterministic.median_increase"]
    elapsed = time.perf_counter() - start
    passed = band_designed and band_baseline and median_row.passed and elapsed < 300.0
    report("C5 deterministic reference experiment", passed,
           f"0.25 in designed band: {band_designed}, 0.17 in baseline band: {band_baseline}, "
           f"median increase {median_row.computed} >= 0.30 ({elapsed:.1f}s)")
    assert passed


def test_criterion_6_regularized_reference_experiment():
    start = time.perf_counter()
    rows = {row.name: row for row in reproduce(which="rls", seed=0, realizations=50)}
    band_designed = rows["rls.designed_mse.reference_in_band"].passed
    band_baseline = rows["rls.baseline_mse.reference_in_band"].passed
    exceeds = rows["rls.median_designed_exceeds_baseline"].passed
    elapsed = time.perf_counter() - start
    passed = band_designed and band_baseline and exceeds and elapsed < 300.0
    report("C6 regularized reference experiment", passed,
           f"0.17 in designed band: {band_designed}, 0.13 in baseline band: {band_baseline}, "
           f"designed median exceeds baseline: {exceeds} ({elapsed:.1f}s)")
    assert passed


def test_criterion_7_privacy_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(700)
    epsilon = 1.0
    worst_ratio = 0.0
    any_violation = False
    for _ in range(20):
        n_h = int(rng.integers(1, 3))
        n = int(rng.integers(n_h, 5))
        n = max(n, 2, n_h)
        r = rng.standard_normal(n)
        box = CoefficientBox(0.0, float(rng.uniform(0.5, 1.5)), n_h)
        sigma2 = float(rng.uniform(0.0, 0.2))
        mech = laplace_mechanism(epsilon, l1_sensitivity(r, box), sigma2)
        worst_ratio = max(worst_ratio, privacy_audit(r, box, epsilon, mech.scale, sigma2))
        halved = privacy_audit(r, box, epsilon, 0.5 * mech.scale, sigma2)
        any_violation = any_violation or halved > epsilon

    draws = sample_mechanism(laplace_mechanism(1.0, 1.0), 1_000_000, seed=7)
    variance_ok = abs(draws.var() - 2.0) <= 0.01 * 2.0

    elapsed = time.perf_counter() - start
    passed = worst_ratio <= epsilon + 0.02 and any_violation and variance_ok and elapsed < 120.0
    report("C7 privacy calibration", passed,
           f"worst audited log-ratio {worst_ratio:.4f} <= {epsilon + 0.02}, "
           f"halved scale violates epsilon: {any_violation}, "
           f"sample variance within 1%: {variance_ok} ({elapsed:.1f}s)")
    assert worst_ratio <= epsilon + 0.02
    assert any_violation
    assert variance_ok
    assert elapsed < 120.0


def test_criterion_8_gaussian_tail_numerics():
    start = time.perf_counter()

    def oracle_tail(x):
        with mpmath.workdps(30):
            return 0.5 * mpmath.erfc(x / mpmath.sqrt(2))

    # Anchor the oracle itself on the literal tail integral at a few points.
    with mpmath.workdps(30):
        for x in (-3.0, 0.0, 2.5):
            integral = mpmath.quad(
                lambda u: mpmath.exp(-u * u / 2) / mpmath.sqrt(2 * mpmath.pi),
                [x, mpmath.inf],
            )
            assert abs(integral - oracle_tail(x)) < mpmath.mpf(10) ** -25

    def bisect_inverse(delta):
        lo, hi = -40.0, 40.0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            if oracle_tail(mid) > delta:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    deltas = [1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-2, 1 - 1e-4, 1 - 1e-6]
    worst = max(abs(gaussian_tail_inverse(d) - bisect_inverse(d)) for d in deltas)
    kappa_err = abs(gaussian_noise_multiplier(2.0, 0.5) - 1.0)

    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and kappa_err <= 1e-12 and elapsed < 5.0
    report("C8 gaussian tail numerics", passed,
           f"worst inverse error {worst:.3e}, multiplier(2,0.5) error {kappa_err:.3e} "
           f"({elapsed:.2f}s)")
    assert worst <= 1e-10
    assert kappa_err <= 1e-12
    assert elapsed < 5.0


def test_criterion_9_empirical_vs_analytic_error():
    start = time.perf_counter()
    rng = np.random.default_rng(900)
    reps = 200_000
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(15, 26))
        n_h = int(rng.integers(2, 5))
        n_l = int(rng.integers(1, 5))
        sigma2 = float(rng.uniform(0.2, 1.0))
        reg = build_regressor(random_regressor(rng, n, n_h)[:, 0], n_h)
        h = rng.standard_normal(n_h)
        l = rng.standard_normal(n_l)
        band = build_filter_matrix(l, n)
        use_rls = trial % 2 == 1
        if use_rls:
            kernel = Kernel(stable_spline_kernel(n_h, 0.7), eta=0.1)
            analytic = rls_mse(reg, FirModel(h), noise_matrix=band, sigma2=sigma2,
                               kernel=kernel).trace
            estimator_map = rls_gain(reg, kernel).T
        else:
            analytic = ls_covariance(reg, noise_matrix=band, sigma2=sigma2).trace
            estimator_map = np.linalg.solve(reg.T @ reg, reg.T).T
        v = rng.standard_normal((reps, band.matrix.shape[1]))
        e = rng.standard_normal((reps, n)) * np.sqrt(sigma2)
        y = reg @ h + v @ band.matrix.T + e
        err = y @ estimator_map - h
        empirical = float(np.mean(np.einsum("bj,bj->b", err, err)))
        worst = max(worst, abs(empirical - analytic) / analytic)
    elapsed = time.perf_counter() - start
    passed = worst <= 0.02 and elapsed < 180.0
    report("C9 empirical vs analytic error", passed,
           f"worst relative deviation {worst:.4f} over 20 pairs ({elapsed:.1f}s)")
    assert worst <= 0.02
    assert elapsed < 180.0


def test_criterion_10_monotonicity_and_linearity():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)
    worst_linearity = 0.0
    monotone = True
    for _ in range(20):
        reg = random_instance(rng, max_n=35, max_n_h=4)
        sigma2 = 0.5
        quad6 = ls_trace_quadratic(reg, sigma2, 6)
        lam1 = float(np.linalg.eigvalsh(quad6.matrix)[-1])
        for gamma1 in np.linspace(0.9, 3.0, 5):
            result = design_output_capped(quad6, sigma2, gamma1)
            expected = lam1 * (gamma1 - sigma2) + quad6.offset
            worst_linearity = max(
                worst_linearity, abs(result.predicted_trace - expected) / expected
            )
        previous = -np.inf
        for n_l in range(1, 7):
            quad = ls_trace_quadratic(reg, sigma2, n_l)
            value = design_output_capped(quad, sigma2, 1.5).predicted_trace
            monotone = monotone and value >= previous - 1e-12
            previous = value
    elapsed = time.perf_counter() - start
    passed = worst_linearity <= 1e-9 and monotone and elapsed < 30.0
    report("C10 monotonicity and linearity", passed,
           f"worst linearity error {worst_linearity:.3e}, "
           f"objective nondecreasing in filter order: {monotone} ({elapsed:.2f}s)")
    assert worst_linearity <= 1e-9
    assert monotone
    assert elapsed < 30.0
