import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from firpriv import (
    CoefficientBox,
    ConfigError,
    Kernel,
    ParameterError,
    RationalFilter,
    RedrawBudgetError,
    attack_simulation,
    build_filter_matrix,
    build_regressor,
    derive,
    design_output_capped,
    gaussian_mechanism,
    generate_filtered_input,
    l2_sensitivity,
    laplace_mechanism,
    ls_covariance,
    ls_gram_inverse,
    parse_config,
    parse_config_text,
    reproduce,
    rls_mse,
    rls_trace_quadratic,
    stable_spline_kernel,
    stream,
)
from firpriv import cli, experiments
from firpriv.cli import main
from firpriv.design import RandomInputModel
from firpriv.experiments import (
    ATTACK_UNIT,
    CHUNK,
    REFERENCE_CONFIGS,
    REFERENCE_RANDOM_FILTER,
    _analyze_fixed,
    _design_fixed,
    _fixed_input_attack,
    _mean_and_se,
    _random_input_attack,
    _resolve_fixed_input,
    _resolve_kernel,
    _resolve_plant,
    _write_csv,
    reference_plant,
    rows_to_csv,
)
from firpriv.lti import factor_adjoint
from firpriv.privacy import _draw_mechanism
from firpriv.rng import replicate_stream

LS_CONFIG = """
plant_type = rational
plant_num = 1, -0.2
plant_den = 1, -0.9, 0.17
plant_fir_order = 9
input_type = filtered
input_length = 200
input_filter_num = 1
input_filter_den = 1, -0.95
design_type = output_capped
noise_order = 10
sigma2 = 1.0
gamma1 = 2.0
replicates = 100000
seed = 3
"""

DP_CONFIG = """
plant_type = fir
plant_coeffs = 1, 0.7, 0.46
input_type = white
input_length = 64
design_type = dp_laplace
dp_epsilon = 1.5
dp_lower = 0
dp_upper = 1
sigma2 = 0.25
replicates = 30000
seed = 5
"""

RANDOM_CONFIG = """
plant_type = fir
plant_coeffs = 1, 0.5, 0.25
input_type = random_model
random_min_length = 12
random_max_length = 16
random_theta = 10
random_vartheta = 50
design_type = output_random
noise_order = 4
sigma2 = 0.2
gamma1 = 0.5
replicates = 2000
seed = 7
"""


# The README configuration at seed 0, without its design keys.
README_BASE = """
plant_type = rational
plant_num = 1, -0.2
plant_den = 1, -0.9, 0.17
plant_fir_order = 9
input_type = filtered
input_length = 200
input_filter_num = 1
input_filter_den = 1, -0.95
sigma2 = 1.0
replicates = 100000
seed = 0
"""

# The reference random-input scenario with a Monte Carlo budget of 20 x 100 records.
REFERENCE_RANDOM_SMALL = """
plant_type = rational
plant_num = 1, -0.2
plant_den = 1, -0.9, 0.17
plant_fir_order = 9
input_type = random_model
random_min_length = 10
random_max_length = 20
random_theta = 20
random_vartheta = 100
design_type = output_random
noise_order = 5
sigma2 = 0.1
gamma1 = 0.2
replicates = 100000
seed = 0
"""

# What each design command prints at seed 0, which a refactor must leave unchanged:
# name -> (command, config, printed pairs).
GOLDEN_DESIGNS = {
    "output-ls": ("design-output", README_BASE + "design_type = output_capped\nadversary = ls\n"
                  "noise_order = 10\ngamma1 = 2.0\n", """\
l_star_0 = 0.241548449852
l_star_1 = -0.352739248044
l_star_2 = 0.366397861232
l_star_3 = -0.322039734898
l_star_4 = 0.281553521902
l_star_5 = -0.281553521902
l_star_6 = 0.322039734898
l_star_7 = -0.366397861232
l_star_8 = 0.352739248044
l_star_9 = -0.241548449852
lambda_y = 2
rho = 2
predicted_trace = 0.265558633415
baseline_trace = 0.17068873759
ratio = 1.55580641796
"""),
    "output-rls": ("design-output", README_BASE + "design_type = output_capped\nadversary = rls\n"
                   "rls_eta = 0.1\nrls_beta = 0.7\nnoise_order = 10\ngamma1 = 2.0\n", """\
l_star_0 = 0.251989767194
l_star_1 = -0.37732467847
l_star_2 = 0.378188783881
l_star_3 = -0.304417257702
l_star_4 = 0.241724266896
l_star_5 = -0.241724266896
l_star_6 = 0.304417257702
l_star_7 = -0.378188783881
l_star_8 = 0.37732467847
l_star_9 = -0.251989767194
lambda_y = 2
rho = 2
predicted_trace = 0.206361192431
baseline_trace = 0.138817127866
ratio = 1.48656866485
"""),
    "weighted": ("design-weighted", README_BASE + "design_type = output_weighted\nadversary = ls\n"
                 "noise_order = 10\ngamma2 = 0.5\n", """\
l_star_0 = 0.408336887121
l_star_1 = -0.596304578231
l_star_2 = 0.619394420434
l_star_3 = -0.544407148784
l_star_4 = 0.475965334332
l_star_5 = -0.475965334332
l_star_6 = 0.544407148784
l_star_7 = -0.619394420434
l_star_8 = 0.596304578231
l_star_9 = -0.408336887121
lambda_y = 3.8577795092
rho = 3.8577795092
weighted_cost = 3.09456534015
predicted_trace = 0.600357001492
baseline_trace = 0.329239757162
ratio = 1.82346447666
"""),
    "input": ("design-input", README_BASE + "design_type = input_capped\nadversary = ls\n"
              "noise_order = 10\ngamma1 = 2.0\n", """\
l_star_0 = 0.27176862388
l_star_1 = -0.560591630275
l_star_2 = 0.630624060679
l_star_3 = -0.587380129967
l_star_4 = 0.538526371692
l_star_5 = -0.538526371692
l_star_6 = 0.587380129967
l_star_7 = -0.630624060679
l_star_8 = 0.560591630275
l_star_9 = -0.27176862388
lambda_y = 2
rho = 2
predicted_trace = 0.261807085375
baseline_trace = 0.17068873759
ratio = 1.53382753351
"""),
    "laplace": ("dp-laplace", README_BASE + "design_type = dp_laplace\ndp_epsilon = 1.0\n"
                "dp_lower = -1\ndp_upper = 1\n", """\
mechanism = laplace
scale = 966.203662701
epsilon = 1
delta = 0
sensitivity = 966.203662701
lambda_y = 1867100.03563
predicted_trace = 159346.474018
baseline_trace = 0.0853443687949
ratio = 1867100.03563
"""),
    "gaussian": ("dp-gaussian", README_BASE + "design_type = dp_gaussian\ndp_epsilon = 1.0\n"
                 "dp_delta = 1e-5\ndp_lower = -1\ndp_upper = 1\n", """\
mechanism = gaussian
scale = 368.618128693
epsilon = 1
delta = 1e-05
sensitivity = 84.1772579593
lambda_y = 135880.324801
predicted_trace = 11596.6205518
baseline_trace = 0.0853443687949
ratio = 135880.324801
"""),
    "random": ("design-random", REFERENCE_RANDOM_SMALL, """\
l_star_0 = -0.134509615729
l_star_1 = -0.178625763194
l_star_2 = 4.8113198582e-16
l_star_3 = 0.178625763194
l_star_4 = 0.134509615729
lambda_y = 0.2
rho = 2
predicted_ratio = 2.06316651419
predicted_trace = 362984.778686
baseline_trace = 351871.529699
ratio = 1.0315832571
"""),
}


class TestAttackSimulation:
    def test_zero_privacy_noise_baseline(self):
        # LS with no masking noise: empirical trace matches sigma2 * tr(inv(R'R)).
        text = LS_CONFIG.replace("gamma1 = 2.0", "gamma1 = 1.0000000001")
        report = attack_simulation(parse_config_text(text), threads=2)
        # gamma1 barely above sigma2: the filter is numerically zero.
        assert float(report.design.l_star @ report.design.l_star) < 1e-9
        assert report.empirical_trace == pytest.approx(report.baseline_trace, rel=0.02)

    def test_designed_run_matches_prediction(self):
        report = attack_simulation(parse_config_text(LS_CONFIG), threads=2)
        assert report.empirical_se > 0
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se
        assert report.predicted_trace > report.baseline_trace  # masking beats white noise
        assert report.design.lambda_y == pytest.approx(2.0, abs=1e-9)

    def test_dp_run_matches_prediction(self):
        report = attack_simulation(parse_config_text(DP_CONFIG))
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se
        assert report.mechanism.kind == "laplace"
        assert report.mechanism.lambda_y == pytest.approx(
            2 * report.mechanism.scale**2 + 0.25
        )

    def test_input_channel_run_matches_prediction(self):
        text = LS_CONFIG.replace("design_type = output_capped", "design_type = input_capped")
        text = text.replace("noise_order = 10", "noise_order = 5")
        text = text.replace("replicates = 100000", "replicates = 40000")
        report = attack_simulation(parse_config_text(text), threads=2)
        assert report.design.lambda_y == pytest.approx(2.0, abs=1e-9)
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se

    def test_weighted_run_matches_prediction(self):
        text = """
plant_type = fir
plant_coeffs = 1, 0.7, 0.46
input_type = white
input_length = 80
design_type = output_weighted
noise_order = 4
sigma2 = 0.5
gamma2 = 2.0
replicates = 40000
seed = 4
"""
        report = attack_simulation(parse_config_text(text), threads=2)
        assert report.design.weighted_cost is not None
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se

    def test_random_model_run_matches_prediction(self):
        text = """
plant_type = fir
plant_coeffs = 1, 0.5, 0.25
input_type = random_model
random_min_length = 12
random_max_length = 16
random_theta = 40
random_vartheta = 500
design_type = output_random
noise_order = 4
sigma2 = 0.2
gamma1 = 0.5
replicates = 60000
seed = 7
"""
        report = attack_simulation(parse_config_text(text), threads=2)
        # Prediction carries Monte Carlo error of its own estimate; allow 3 se + 2%.
        tol = 3 * report.empirical_se + 0.02 * report.predicted_trace
        assert abs(report.empirical_trace - report.predicted_trace) <= tol
        assert report.design.predicted_ratio > 1.0

    def test_rls_adversary_run_matches_direct_design(self):
        text = LS_CONFIG.replace("replicates = 100000", "replicates = 20000")
        text += "adversary = rls\nrls_eta = 0.1\nrls_beta = 0.7\n"
        report = attack_simulation(parse_config_text(text), threads=2)
        h = reference_plant()
        r = generate_filtered_input(
            RationalFilter([1.0], [1.0, -0.95]), 200, seed=derive(3, "input")
        )
        kernel = Kernel(stable_spline_kernel(len(h), 0.7), eta=0.1)
        quad = rls_trace_quadratic(build_regressor(r, len(h)), h, kernel, 1.0, 10)
        expected = design_output_capped(quad, 1.0, 2.0)
        assert quad.adversary == "RLS"
        np.testing.assert_array_equal(report.design.l_star, expected.l_star)
        assert report.predicted_trace == expected.predicted_trace
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se
        ls = attack_simulation(replace(parse_config_text(LS_CONFIG), replicates=1))
        assert ls.predicted_trace != report.predicted_trace

    def test_gaussian_dp_run_matches_prediction(self):
        text = DP_CONFIG.replace("design_type = dp_laplace", "design_type = dp_gaussian")
        report = attack_simulation(parse_config_text(text + "dp_delta = 1e-5\n"))
        r = stream(derive(5, "input"), "input-white").standard_normal(64)
        expected = gaussian_mechanism(1.5, 1e-5, l2_sensitivity(r, CoefficientBox(0, 1, 3)), 0.25)
        assert report.mechanism == expected
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se

    def test_thread_count_does_not_change_results(self):
        config = parse_config_text(LS_CONFIG.replace("replicates = 100000", "replicates = 30000"))
        serial = attack_simulation(config, threads=1)
        parallel = attack_simulation(config, threads=4)
        assert serial.empirical_trace == parallel.empirical_trace
        assert serial.empirical_se == parallel.empirical_se

    @pytest.mark.parametrize("text", [DP_CONFIG, RANDOM_CONFIG], ids=["fixed", "random"])
    @pytest.mark.parametrize("replicates", [0, -5])
    def test_rejects_fewer_than_one_replicate(self, text, replicates):
        config = replace(parse_config_text(text), replicates=replicates)
        with pytest.raises(ParameterError, match="replicates must be >= 1"):
            attack_simulation(config)

    def test_seed_override_changes_draws(self):
        config = parse_config_text(DP_CONFIG.replace("replicates = 30000", "replicates = 2000"))
        a = attack_simulation(config, seed=1)
        b = attack_simulation(config, seed=2)
        assert a.empirical_trace != b.empirical_trace
        assert a.predicted_trace != b.predicted_trace  # white input redrawn too

    @pytest.mark.parametrize("seed", [1624, 2226])
    def test_random_attack_over_failure_budget_raises(self, seed):
        # The 20 x 100 random-input reference scenario with one replicate: at
        # these seeds that replicate's regressor hits the conditioning limit.
        text = """
plant_type = rational
plant_num = 1, -0.2
plant_den = 1, -0.9, 0.17
plant_fir_order = 9
input_type = random_model
random_min_length = 10
random_max_length = 20
random_theta = 20
random_vartheta = 100
design_type = output_random
noise_order = 5
sigma2 = 0.1
gamma1 = 0.2
replicates = 1
seed = 0
"""
        with pytest.raises(RedrawBudgetError, match="1 of 1 attack replicates hit"):
            attack_simulation(parse_config_text(text), seed=seed)


def dense_band_attack(h, r, estimator_map, ma_coeffs, mech, sigma2, seed, replicates):
    """Fixed-input attack formed in the output domain with the dense noise covariance.

    Each work unit's replicate stream gives the Gaussian noise first, as N standard
    normals per replicate through the dense Cholesky factor of
    ``band band' + (sigma2 + s^2) I``, then any Laplace noise.
    """
    mean_y = build_regressor(r, h.size) @ h
    n = mean_y.size
    cov = sigma2 * np.eye(n)
    if mech is not None and mech.kind == "gaussian":
        cov += mech.scale**2 * np.eye(n)
    if ma_coeffs is not None:
        band = build_filter_matrix(ma_coeffs, n).matrix
        cov += band @ band.T
    factor = np.linalg.cholesky(cov) if cov.any() else None
    total = total_sq = 0.0
    for idx, start in enumerate(range(0, replicates, ATTACK_UNIT)):
        count = min(ATTACK_UNIT, replicates - start)
        gen = replicate_stream(seed, "attack", idx)
        y = np.tile(mean_y, (count, 1))
        if factor is not None:
            y += gen.standard_normal((count, n)) @ factor.T
        if mech is not None and mech.kind == "laplace":
            centered = np.clip(gen.random((count, n)), 2.0**-53, 1.0 - 1e-16) - 0.5
            y += -mech.scale * np.sign(centered) * np.log1p(-2.0 * np.abs(centered))
        sq = np.sum((y @ estimator_map - h) ** 2, axis=1)
        total += sq.sum()
        total_sq += (sq * sq).sum()
    mean = total / replicates
    return mean, np.sqrt((total_sq / replicates - mean * mean) / replicates)


def attack_inputs(n, channel):
    """Reference-plant record of length n and the noise of one attack channel."""
    rng = np.random.default_rng(21)
    h = reference_plant().coeffs
    reg = build_regressor(rng.standard_normal(n), h.size)
    ma = rng.standard_normal(10) if channel.startswith("ma") else None
    mech = laplace_mechanism(1.5, 2.0) if channel.startswith("laplace") else None
    return h, reg @ h, reg @ ls_gram_inverse(reg), ma, mech


class TestFixedInputAttack:
    @pytest.mark.parametrize(
        "channel",
        ["ma", "ma+sigma2", "laplace+sigma2", "gaussian+sigma2", "sigma2", "long-ma+sigma2"],
    )
    def test_matches_dense_band_formula(self, channel):
        rng = np.random.default_rng(15)
        h = np.array([1.0, 0.7, 0.46])
        r = rng.standard_normal(30)
        reg = build_regressor(r, h.size)
        estimator_map = reg @ ls_gram_inverse(reg)
        # The long filter has more taps (40) than the record has samples.
        taps = {"ma": 4, "long-ma": 40}.get(channel.split("+")[0])
        ma = rng.standard_normal(taps) if taps else None
        mech = {
            "laplace": laplace_mechanism(1.5, 2.0),
            "gaussian": gaussian_mechanism(1.0, 1e-5, 0.8),
        }.get(channel.split("+")[0])
        sigma2 = 0.3 if channel.endswith("sigma2") else 0.0
        replicates = CHUNK + 100
        mean, se, failures = _fixed_input_attack(
            h, reg @ h, estimator_map, ma, mech, sigma2, 9, replicates, threads=2
        )
        ref_mean, ref_se = dense_band_attack(
            h, r, estimator_map, ma, mech, sigma2, 9, replicates
        )
        assert failures == 0
        assert mean == pytest.approx(ref_mean, rel=1e-10)
        assert se == pytest.approx(ref_se, rel=1e-10)

    @pytest.mark.parametrize("channel", ["sigma2", "gaussian", "laplace+sigma2"])
    def test_no_filter_is_the_zero_filter(self, channel):
        h, mean_y, estimator_map, _, mech = attack_inputs(200, channel)
        if channel == "gaussian":
            mech = gaussian_mechanism(1.0, 1e-5, 0.8)
        sigma2 = 0.3 if channel.endswith("sigma2") else 0.0
        args = (h, mean_y, estimator_map)
        rest = (mech, sigma2, 9, 3 * ATTACK_UNIT + 5)
        none = _fixed_input_attack(*args, None, *rest, threads=2)
        assert none == _fixed_input_attack(*args, np.zeros(1), *rest, threads=2)

    def test_noiseless_dp_design_runs(self):
        # sigma2 = 0: the no-privacy LS error is zero, the mechanism's is not.
        text = DP_CONFIG.replace("sigma2 = 0.25", "sigma2 = 0").replace(
            "replicates = 30000", "replicates = 20000"
        )
        report = attack_simulation(parse_config_text(text), threads=2)
        assert report.baseline_trace == 0.0
        assert report.ratio == float("inf")
        assert report.mechanism.lambda_y == pytest.approx(2 * report.mechanism.scale**2)
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se

    @pytest.mark.parametrize("channel", ["ma+sigma2", "laplace+sigma2"])
    def test_chunk_memory_does_not_grow_with_the_record(self, channel):
        h, mean_y, estimator_map, ma, mech = attack_inputs(2000, channel)
        tracemalloc.start()
        try:
            _fixed_input_attack(h, mean_y, estimator_map, ma, mech, 0.3, 9, CHUNK, threads=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One whole-chunk draw at this length alone is CHUNK * 2000 * 8 B = 131 MB.
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("channel", ["ma+sigma2", "laplace+sigma2"])
    def test_block_size_does_not_change_results(self, channel, monkeypatch):
        h, mean_y, estimator_map, ma, mech = attack_inputs(300, channel)
        args = (h, mean_y, estimator_map, ma, mech, 0.3, 9, CHUNK + 100)
        folded = _fixed_input_attack(*args, threads=2)
        monkeypatch.setattr(experiments, "FOLD_MACS", 2**62)  # one block per chunk
        whole = _fixed_input_attack(*args, threads=2)
        assert folded == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("channel", ["ma+sigma2", "laplace+sigma2"])
    def test_mean_and_se_are_numpy_moments_of_the_squared_errors(self, channel, threads):
        # Each unit redrawn in the attack's order: all z rows, then the Laplace rows.
        h, mean_y, estimator_map, ma, mech = attack_inputs(300, channel)
        n, replicates = mean_y.size, 2 * ATTACK_UNIT + 100
        mean, se, failures = _fixed_input_attack(
            h, mean_y, estimator_map, ma, mech, 0.3, 9, replicates, threads=threads
        )
        band = build_filter_matrix(ma if ma is not None else [0.0], n)
        noise_map = factor_adjoint(band.noise_factor(0.3), estimator_map)
        sq = []
        for unit, start in enumerate(range(0, replicates, ATTACK_UNIT)):
            count = min(ATTACK_UNIT, replicates - start)
            gen = replicate_stream(9, "attack", unit)
            err = mean_y @ estimator_map - h + gen.standard_normal((count, n)) @ noise_map
            if mech is not None:
                err += _draw_mechanism(gen, mech, (count, n)) @ estimator_map
            sq.append(np.einsum("bj,bj->b", err, err))
        sq = np.concatenate(sq)
        assert failures == 0
        assert mean == pytest.approx(sq.mean(), rel=1e-12)
        assert se == pytest.approx(sq.std() / np.sqrt(replicates), rel=1e-12)

    def test_large_noise_budget_gives_a_finite_se(self):
        # gamma1 = 1e160 puts each squared error near 1e160, whose square overflows.
        text = README_BASE.replace("replicates = 100000", "replicates = 2000")
        text += "design_type = output_capped\nnoise_order = 10\ngamma1 = 1e160\n"
        with np.errstate(over="raise"):
            report = attack_simulation(parse_config_text(text), threads=1)
        assert np.isfinite(report.empirical_se) and report.empirical_se > 0
        assert abs(report.empirical_trace - report.predicted_trace) <= 3 * report.empirical_se


class TestRandomInputAttack:
    @pytest.mark.parametrize("sigma2", [0.1, 0.0])
    @pytest.mark.parametrize("filtered", [True, False], ids=["ma", "no-ma"])
    def test_matches_per_record_solves_on_the_same_draws(self, filtered, sigma2):
        # Chunk 0 redrawn in the attack's order (lengths, r, v, e).  Each record
        # is solved on its own normal equations and its MA noise convolved on
        # its own, so neither the stacked maps nor the shared noise prefix is
        # reused.  Lengths 16-20 at n_h = 9 keep every record far from the screen.
        h = reference_plant().coeffs
        model = RandomInputModel.uniform_gaussian(16, 20, 1, 1)
        ma = np.array([0.1450, 0.0799, 0.2125, 0.0799, 0.1450]) if filtered else None
        m = ma.size if filtered else 1
        replicates, max_len = 3000, 20
        mean, se, failures = _random_input_attack(h, model, ma, sigma2, 31, replicates, 1)

        gen = stream(31, "attack", 0)
        lengths = gen.choice(model.lengths, size=replicates, p=model.probabilities)
        r_block = gen.standard_normal((replicates, max_len))
        v_block = gen.standard_normal((replicates, max_len + m - 1))
        e_block = gen.standard_normal((replicates, max_len))
        sq = np.empty(replicates)
        for k, n in enumerate(lengths):
            reg = build_regressor(r_block[k, :n], h.size)
            y = reg @ h + np.sqrt(sigma2) * e_block[k, :n]
            if filtered:
                y += np.convolve(v_block[k, : n + m - 1], ma, mode="valid")
            err = np.linalg.solve(reg.T @ reg, reg.T @ y) - h
            sq[k] = err @ err
        assert failures == 0
        if not filtered and sigma2 == 0.0:
            # No noise at all: both errors are rounding, far below any signal.
            assert mean < 1e-25 and sq.mean() < 1e-25
            return
        assert mean == pytest.approx(sq.mean(), rel=1e-12)
        assert se == pytest.approx(sq.std() / np.sqrt(replicates), rel=1e-12)

    def test_large_noise_gives_a_finite_se(self):
        # The reference filter scaled by 1e80 puts each squared error near 1e160.
        h = reference_plant().coeffs
        model = RandomInputModel.uniform_gaussian(16, 20, 1, 1)
        ma = 1e80 * np.asarray(REFERENCE_RANDOM_FILTER)
        with np.errstate(over="raise"):
            _, se, failures = _random_input_attack(h, model, ma, 0.1, 31, 3000, 1)
        assert failures == 0
        assert np.isfinite(se) and se > 0


@pytest.mark.parametrize("size", [1, 7, 20000])
@pytest.mark.parametrize("magnitude", [1e-100, 1e-3, 1.0, 1e150])
def test_mean_and_se_equal_the_unscaled_moments_bit_for_bit(magnitude, size):
    # The power-of-two scaling is exact; these squared deviations neither over- nor underflow.
    sq = magnitude * np.random.default_rng(size).chisquare(9, size)
    assert _mean_and_se(sq) == (sq.mean(), sq.std() / np.sqrt(size))


DESIGN_CONFIGS = {
    "ls-output": LS_CONFIG,
    "rls-output": LS_CONFIG + "adversary = rls\nrls_eta = 0.1\nrls_beta = 0.7\n",
    "input": LS_CONFIG.replace("design_type = output_capped", "design_type = input_capped")
    .replace("noise_order = 10", "noise_order = 5"),
    "gaussian": DP_CONFIG.replace("design_type = dp_laplace", "design_type = dp_gaussian")
    .replace("input_length = 64", "input_length = 200") + "dp_delta = 1e-5\n",
}


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("design", sorted(DESIGN_CONFIGS))
def test_attack_noise_map_reproduces_the_error_matrix(design, n):
    # The attack draws its Gaussian noise through M = C'E, with C C' = L L' + w I,
    # so M'M + b b' is the analytic error matrix and its trace the prediction.
    config = parse_config_text(DESIGN_CONFIGS[design].replace("input_length = 200",
                                                               f"input_length = {n}"))
    h = _resolve_plant(config)
    r = _resolve_fixed_input(config, derive(config.seed, "input"))
    reg = build_regressor(r, len(h))
    quad = _analyze_fixed(config, h, reg)
    _, mech, ma_coeffs, predicted, _ = _design_fixed(config, h, r, quad)
    emap = quad.estimator_map
    w = config.sigma2 + (mech.noise_variance if mech is not None else 0.0)
    band = build_filter_matrix(ma_coeffs if ma_coeffs is not None else [0.0], n)
    noise_map = factor_adjoint(band.noise_factor(w), emap)
    kernel = _resolve_kernel(config, len(h))
    if kernel is None:
        report, bias_vec = ls_covariance(reg, band, w), np.zeros(len(h))
    else:
        report = rls_mse(reg, h, kernel, band, w)
        bias_vec = h.coeffs - emap.T @ (reg @ h.coeffs)
    np.testing.assert_allclose(
        noise_map.T @ noise_map + np.outer(bias_vec, bias_vec), report.matrix, rtol=1e-12
    )
    assert np.sum(noise_map**2) + bias_vec @ bias_vec == pytest.approx(predicted, rel=1e-12)


class TestThreadCount:
    @pytest.mark.parametrize("threads", [0, -1])
    def test_library_rejects_fewer_than_one(self, threads):
        config = parse_config_text(DP_CONFIG.replace("replicates = 30000", "replicates = 100"))
        with pytest.raises(ParameterError, match="threads"):
            attack_simulation(config, threads=threads)
        with pytest.raises(ParameterError, match="threads"):
            reproduce(which="deterministic", realizations=1, threads=threads)

    @pytest.mark.parametrize("command", ["simulate", "dp-laplace"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_cli_exits_one(self, threads, command, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG.replace("replicates = 30000", "replicates = 100"))
        code = main([command, "--config", str(cfg), "--threads", threads])
        assert code == 1
        assert "threads" in capsys.readouterr().err


class TestReproduce:
    def test_deterministic_scenario_passes(self):
        rows = reproduce(which="deterministic", seed=0, realizations=50)
        assert all(row.passed for row in rows)

    def test_rls_scenario_passes(self):
        rows = reproduce(which="rls", seed=0, realizations=50)
        assert all(row.passed for row in rows)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(Exception):
            reproduce(which="everything")

    def test_byte_identical_reports(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        reproduce(which="deterministic", seed=4, out_dir=out_a, realizations=12)
        reproduce(which="deterministic", seed=4, out_dir=out_b, realizations=12)
        data_a = (out_a / "deterministic.csv").read_bytes()
        data_b = (out_b / "deterministic.csv").read_bytes()
        assert data_a == data_b

    def test_random_scenario_structure(self):
        rows = reproduce(which="random", seed=0, replicates=5000)
        names = [row.name for row in rows]
        assert sum(n.startswith("random.filter_coefficient") for n in names) == 5
        assert "random.predicted_ratio" in names
        assert "random.simulated_ratio" in names

    # Seed-0 `computed` fields of `reproduce`, which a refactor must leave unchanged.
    GOLDEN_ROWS = {
        "deterministic.designed_trace.reference_in_band": "0.196897520329..0.272115632864",
        "deterministic.designed_trace.median": "0.240152362898",
        "deterministic.baseline_trace.reference_in_band": "0.144787755666..0.184874852109",
        "deterministic.baseline_trace.median": "0.168284769388",
        "deterministic.median_increase": "0.426289624313",
        "rls.designed_mse.reference_in_band": "0.1615128714..0.207120854708",
        "rls.designed_mse.median": "0.190948508177",
        "rls.baseline_mse.reference_in_band": "0.124341097466..0.151232261535",
        "rls.baseline_mse.median": "0.138826522483",
        "rls.median_designed_exceeds_baseline": "0.190948508177 vs 0.138826522483",
        "random.filter_coefficient_0": "0.0992749298699",
        "random.filter_coefficient_1": "0.155738187636",
        "random.filter_coefficient_2": "0.178270049146",
        "random.filter_coefficient_3": "0.155738187636",
        "random.filter_coefficient_4": "0.0992749298699",
        "random.predicted_ratio": "2.15768285673",
    }

    def test_seed_zero_rows_match_the_recorded_values(self):
        # The random design does not depend on the attack's replicate count.
        rows = reproduce(which="deterministic", seed=0) + reproduce(which="rls", seed=0)
        rows += reproduce(which="random", seed=0, replicates=5000)
        computed = {row.name: row.computed for row in rows if row.name in self.GOLDEN_ROWS}
        assert computed.keys() == self.GOLDEN_ROWS.keys()
        number = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
        for name, want in self.GOLDEN_ROWS.items():
            got_values = [float(v) for v in number.findall(computed[name])]
            want_values = [float(v) for v in number.findall(want)]
            assert len(got_values) == len(want_values), name
            assert got_values == pytest.approx(want_values, rel=1e-9, abs=0), name

    @pytest.mark.parametrize("name", ["deterministic", "rls"])
    def test_stacked_realizations_match_single_record_stages(self, name, monkeypatch):
        bands = {}

        def record_band(label, values, expected):
            bands[label.split(".")[1]] = np.array(values)
            return band_rows(label, values, expected)

        band_rows = experiments._band_rows
        monkeypatch.setattr(experiments, "_band_rows", record_band)
        experiments._reproduce_fixed(name, 7, realizations=3)
        config = REFERENCE_CONFIGS[name]
        h = _resolve_plant(config)
        metric = "mse" if name == "rls" else "trace"
        for k in range(3):
            r = _resolve_fixed_input(config, derive(7, "det-input", k))
            quad = _analyze_fixed(config, h, build_regressor(r, len(h)))
            _, _, _, designed, baseline = _design_fixed(config, h, r, quad)
            assert designed == bands[f"designed_{metric}"][k]
            assert baseline == bands[f"baseline_{metric}"][k]

    def test_reference_plant_coefficients(self):
        h = reference_plant()
        np.testing.assert_allclose(
            np.round(h.coeffs, 4),
            [1.0, 0.7, 0.46, 0.295, 0.1873, 0.1184, 0.0747, 0.0471, 0.0297],
            atol=0,
        )

    def test_csv_header(self):
        rows = reproduce(which="deterministic", seed=0, realizations=8)
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "metric,expected,computed,tolerance,pass"


class TestCli:
    def test_default_threads_count_the_cpus_the_process_may_use(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LS_CONFIG)
        seen = []

        def spy(config, threads=None, seed=None):
            seen.append(threads)
            return attack_simulation(config, threads=threads, seed=seed)

        monkeypatch.setattr(cli, "attack_simulation", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["design-output", "--config", str(cfg)]) == 0
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(["design-output", "--config", str(cfg)]) == 0
        assert main(["design-output", "--config", str(cfg), "--threads", "3"]) == 0
        assert seen == [1, 2, 3]

    def test_simulate_and_design_output_leave_scipy_special_unloaded(self, tmp_path):
        # No command imports scipy.special or loads its compiled extension: not the
        # Gaussian calibration, and not the privacy audit with measurement noise.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LS_CONFIG.replace("replicates = 100000", "replicates = 200"))
        gauss = tmp_path / "gauss.cfg"
        gauss.write_text(DESIGN_CONFIGS["gaussian"].replace("replicates = 30000", "replicates = 200"))
        loaded = (
            "print([m in sys.modules for m in ('scipy.special', 'scipy.special._special_ufuncs')])"
        )
        code = (
            "import sys; from firpriv.cli import main; "
            "from firpriv.privacy import CoefficientBox, privacy_audit; "
            f"assert main(['simulate', '--config', {str(cfg)!r}]) == 0; "
            f"assert main(['design-output', '--config', {str(cfg)!r}]) == 0; {loaded}; "
            f"assert main(['dp-gaussian', '--config', {str(gauss)!r}]) == 0; {loaded}; "
            f"assert main(['simulate', '--config', {str(gauss)!r}]) == 0; {loaded}; "
            "privacy_audit([1.0, -0.5], CoefficientBox(0, 1, 2), 1.0, 1.0, sigma2=0.2); "
            f"{loaded}"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        lines = [line for line in out.stdout.splitlines() if line.startswith("[")]
        assert lines == ["[False, False]"] * 4
        # No command loads scipy.linalg: the LAPACK wrappers come from its extension alone.
        code = (
            "import sys; from firpriv.cli import main; "
            f"assert main(['simulate', '--config', {str(cfg)!r}]) == 0; "
            f"assert main(['design-output', '--config', {str(cfg)!r}]) == 0; "
            "assert main(['reproduce', '--which', 'rls', '--realizations', '5']) == 0; "
            "print('scipy.linalg' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("name", GOLDEN_DESIGNS)
    def test_design_commands_print_the_recorded_values(self, name, tmp_path, capsys):
        command, text, printed = GOLDEN_DESIGNS[name]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 0
        got = [line.split(" = ") for line in capsys.readouterr().out.splitlines()]
        want = [line.split(" = ") for line in printed.splitlines()]
        assert [key for key, _ in got] == [key for key, _ in want]
        for (key, value), (_, wanted) in zip(got, want):
            if key == "mechanism":
                assert value == wanted
            else:
                assert float(value) == pytest.approx(float(wanted), rel=1e-9, abs=1e-12), key

    @pytest.mark.parametrize("command, design", [
        ("dp-laplace", "laplace"), ("dp-gaussian", "gaussian"),
        ("simulate", "laplace"), ("simulate", "gaussian"),
    ])
    def test_cli_exits_one_on_an_overflowing_calibration(self, command, design, tmp_path, capsys):
        # At epsilon 1e-160 the README config's calibrated scale is finite but its square is not.
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(GOLDEN_DESIGNS[design][1].replace("dp_epsilon = 1.0", "dp_epsilon = 1e-160"))
        code = main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: noise variance must be finite")
        assert "Traceback" not in err

    def test_design_output_command(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LS_CONFIG)
        code = main(["design-output", "--config", str(cfg), "--out-dir", str(tmp_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "lambda_y = 2" in captured
        assert (tmp_path / "design_output.csv").exists()

    def test_filter_longer_than_the_record(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            LS_CONFIG.replace("input_length = 200", "input_length = 12")
            .replace("noise_order = 10", "noise_order = 14")
        )
        code = main(["design-output", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "l_star_13 = " in captured.out

    def test_design_command_rejects_mismatched_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(LS_CONFIG)
        code = main(["design-weighted", "--config", str(cfg)])
        assert code == 1
        assert "design_type" in capsys.readouterr().err

    def test_dp_laplace_command(self, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG)
        code = main(["dp-laplace", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "mechanism = laplace" in captured

    def test_simulate_command(self, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG.replace("replicates = 30000", "replicates = 2000"))
        code = main(["simulate", "--config", str(cfg), "--threads", "2"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "empirical_trace" in captured

    def test_simulate_out_dir_writes_printed_pairs(self, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG.replace("replicates = 30000", "replicates = 2000"))
        out_dir = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--threads", "2",
                     "--out-dir", str(out_dir)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert printed[-1] == f"report written to {out_dir / 'simulate.csv'}"
        pairs = [line.replace(" = ", ",") for line in printed[:-1]
                 if not line.startswith("runtime_s")]
        assert (out_dir / "simulate.csv").read_text().splitlines() == ["name,value", *pairs]

    def test_weighted_and_random_commands_print_their_extra_value(self, tmp_path, capsys):
        weighted = tmp_path / "weighted.cfg"
        weighted.write_text(LS_CONFIG.replace("design_type = output_capped",
                                              "design_type = output_weighted")
                            .replace("gamma1 = 2.0", "gamma2 = 0.5"))
        assert main(["design-weighted", "--config", str(weighted), "--seed", "3"]) == 0
        report = attack_simulation(replace(parse_config(weighted), replicates=1), seed=3)
        assert f"weighted_cost = {report.design.weighted_cost:.12g}" in capsys.readouterr().out

        random = tmp_path / "random.cfg"
        random.write_text(RANDOM_CONFIG)
        assert main(["design-random", "--config", str(random), "--seed", "7"]) == 0
        report = attack_simulation(replace(parse_config(random), replicates=1), seed=7)
        assert f"predicted_ratio = {report.design.predicted_ratio:.12g}" in capsys.readouterr().out

    def test_rls_random_design_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "random.cfg"
        cfg.write_text(RANDOM_CONFIG + "adversary = rls\nrls_eta = 0.1\nrls_beta = 0.7\n")
        assert main(["design-random", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "adversary" in err and "design_type" in err

    def test_empty_length_range_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "random.cfg"
        cfg.write_text(RANDOM_CONFIG.replace("random_max_length = 16", "random_max_length = 10"))
        assert main(["design-random", "--config", str(cfg)]) == 1
        assert "error: max_length 10 < min_length 12" in capsys.readouterr().err

    def test_reproduce_exit_code_on_tolerance_failure(self, tmp_path, capsys):
        # The bundled random scenario currently fails two reference checks.
        code = main([
            "reproduce", "--which", "random", "--seed", "0",
            "--replicates", "2000", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert (tmp_path / "random.csv").exists()

    def test_reproduce_success_exit_code(self, capsys):
        code = main(["reproduce", "--which", "deterministic", "--seed", "0",
                     "--realizations", "50"])
        assert code == 0

    def test_seed_flag_matches_config_seed(self, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"

        def simulate_lines(seed_line, *flags):
            text = DP_CONFIG.replace("replicates = 30000", "replicates = 500")
            cfg.write_text(text.replace("seed = 5", seed_line))
            main(["simulate", "--config", str(cfg), *flags])
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if not l.startswith("runtime")]

        from_config = simulate_lines("seed = 11")
        assert simulate_lines("seed = 5", "--seed", "11") == from_config
        assert simulate_lines("seed = 5") != from_config

    @pytest.mark.parametrize(
        "argv, config_seed",
        [(["dp-laplace", "--seed", "-1"], 5),
         (["simulate"], -2),
         (["reproduce", "--which", "deterministic", "--seed", "-3"], None)],
    )
    def test_negative_seed_exit_code(self, argv, config_seed, tmp_path, capsys):
        if config_seed is not None:
            cfg = tmp_path / "dp.cfg"
            cfg.write_text(DP_CONFIG.replace("seed = 5", f"seed = {config_seed}"))
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 1
        assert "error: seed must be nonnegative" in capsys.readouterr().err

    def test_negative_sigma2_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG.replace("sigma2 = 0.25", "sigma2 = -1"))
        code = main(["dp-laplace", "--config", str(cfg)])
        assert code == 1
        assert "sigma2 must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--which", "random", "--replicates", "0"],
         ["--which", "deterministic", "--realizations", "0"],
         ["--which", "rls", "--realizations", "-1"]],
    )
    def test_reproduce_zero_counts_exit_code(self, flags, capsys):
        assert main(["reproduce", "--seed", "0", *flags]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_reproduce_zero_counts_raise(self):
        with pytest.raises(ParameterError, match="replicates must be >= 1"):
            reproduce(which="random", replicates=0)
        with pytest.raises(ParameterError, match="realizations must be >= 1"):
            reproduce(which="deterministic", realizations=-1)

    def test_malformed_input_file_exit_code(self, tmp_path, capsys):
        data = tmp_path / "inputs.txt"
        data.write_text("0.5\n1.5\nabc\n-0.25\n")
        cfg = tmp_path / "file.cfg"
        cfg.write_text(
            DP_CONFIG.replace("input_type = white", f"input_type = file\ninput_file = {data}")
            .replace("input_length = 64\n", "")
        )
        with pytest.raises(ConfigError, match="inputs.txt"):
            attack_simulation(parse_config(cfg))
        assert main(["dp-laplace", "--config", str(cfg)]) == 1
        assert "inputs.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        ["missing config", "config is a directory", "non-UTF-8 config",
         "input_file is a directory", "out-dir is a file (design)",
         "out-dir is a file (reproduce)"],
    )
    def test_file_system_error_exit_code(self, case, tmp_path, capsys):
        absent = tmp_path / "absent.cfg"
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG)
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(DP_CONFIG.encode() + b"# caf\xe9\n")
        dir_input = tmp_path / "dir_input.cfg"
        dir_input.write_text(
            DP_CONFIG.replace("input_type = white", f"input_type = file\ninput_file = {a_dir}")
            .replace("input_length = 64\n", "")
        )
        taken = tmp_path / "taken"
        taken.write_text("")
        argv, path, error, call = {
            "missing config": (["dp-laplace", "--config", str(absent)], absent, ConfigError,
                               lambda: parse_config(absent)),
            "config is a directory": (["dp-laplace", "--config", str(a_dir)], a_dir,
                                      ConfigError, lambda: parse_config(a_dir)),
            "non-UTF-8 config": (["dp-laplace", "--config", str(latin1)], latin1, ConfigError,
                                 lambda: parse_config(latin1)),
            "input_file is a directory": (["dp-laplace", "--config", str(dir_input)], a_dir,
                                          ConfigError,
                                          lambda: attack_simulation(parse_config(dir_input))),
            "out-dir is a file (design)": (
                ["dp-laplace", "--config", str(cfg), "--out-dir", str(taken)], taken,
                ParameterError, lambda: _write_csv(taken, "dp_laplace", "")),
            "out-dir is a file (reproduce)": (
                ["reproduce", "--which", "deterministic", "--realizations", "2",
                 "--out-dir", str(taken)], taken, ParameterError,
                lambda: reproduce(which="deterministic", realizations=2, out_dir=taken)),
        }[case]
        with pytest.raises(error, match=re.escape(str(path))) as info:
            call()
        assert isinstance(info.value.__cause__, (OSError, UnicodeDecodeError))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("which", ["random", "all"])
    def test_reproduce_checks_out_dir_before_any_scenario(self, which, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        calls = []
        for name in ("_reproduce_fixed", "_reproduce_random"):
            monkeypatch.setattr(experiments, name, lambda *args, name=name: calls.append(name))
        with pytest.raises(ParameterError, match=re.escape(str(taken))):
            reproduce(which=which, out_dir=taken)
        assert main(["reproduce", "--which", which, "--out-dir", str(taken)]) == 1
        assert calls == []

    @pytest.mark.parametrize(
        "argv, code",
        [(["nope"], 1), (["simulate"], 1), (["reproduce", "--threads", "abc"], 1),
         (["reproduce", "--which", "nope"], 1), (["--help"], 0)],
        ids=["unknown command", "missing --config", "non-integer --threads",
             "unknown --which", "--help"],
    )
    def test_usage_error_exit_code(self, argv, code, capsys):
        # 2 is kept for a reproduce run whose tolerance check failed.
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert "usage: firpriv" in captured.err and "error: " in captured.err
        else:
            assert "usage: firpriv" in captured.out

    @pytest.mark.parametrize(
        "finite, bound", [("dp_lower = 0", "dp_lower = nan"), ("dp_upper = 1", "dp_upper = inf")]
    )
    def test_non_finite_box_bound_exit_code(self, finite, bound, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG.replace(finite, bound))
        assert main(["dp-laplace", "--config", str(cfg)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "finite, bad", [("dp_epsilon = 1.5", "dp_epsilon = inf"), ("sigma2 = 0.25", "sigma2 = inf")]
    )
    def test_non_finite_noise_parameter_exit_code(self, finite, bad, tmp_path, capsys):
        cfg = tmp_path / "dp.cfg"
        cfg.write_text(DP_CONFIG.replace(finite, bad))
        assert main(["dp-laplace", "--config", str(cfg)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_key = 1\n")
        code = main(["simulate", "--config", str(cfg)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err
