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
    attack_simulation,
    build_filter_matrix,
    build_regressor,
    derive,
    design_output_capped,
    gaussian_mechanism,
    generate_filtered_input,
    l2_sensitivity,
    laplace_mechanism,
    ls_gram_inverse,
    parse_config,
    parse_config_text,
    reproduce,
    rls_trace_quadratic,
    stable_spline_kernel,
    stream,
)
from firpriv import experiments
from firpriv.cli import main
from firpriv.experiments import (
    ATTACK_UNIT,
    CHUNK,
    _fixed_input_attack,
    reference_plant,
    rows_to_csv,
)

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


def dense_band_attack(h, r, estimator_map, ma_coeffs, mech, sigma2, seed, replicates):
    """Fixed-input attack formed in the output domain with the dense noise covariance.

    Each work unit's stream gives the Gaussian noise first, as N standard
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
        gen = stream(seed, "attack", idx)
        y = np.tile(mean_y, (count, 1))
        if factor is not None:
            y += gen.standard_normal((count, n)) @ factor.T
        if mech is not None and mech.kind == "laplace":
            centered = np.clip(gen.random((count, n)), 1e-300, 1.0 - 1e-16) - 0.5
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
