import pytest

from firpriv import ConfigError, format_config, parse_config, parse_config_text

MINIMAL = """
# reference-style deterministic run
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
"""


class TestParse:
    def test_minimal_file_with_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL)
        config = parse_config(path)
        assert config.plant_fir_order == 9
        assert config.replicates == 100_000
        assert config.seed == 0
        assert config.adversary == "ls"
        assert config.gamma1 == pytest.approx(2.0)
        assert config.input_filter_den == [1.0, -0.95]

    def test_unknown_key_names_line(self):
        text = MINIMAL + "sigmma = 2\n"
        with pytest.raises(ConfigError, match=r"line 17: unknown key 'sigmma'"):
            parse_config_text(text)

    def test_type_mismatch_names_line(self):
        with pytest.raises(ConfigError, match=r"line 1: key 'seed' expects int"):
            parse_config_text("seed = soon\n" + MINIMAL)

    def test_missing_required_key(self):
        text = MINIMAL.replace("sigma2 = 1.0", "")
        with pytest.raises(ConfigError, match="sigma2"):
            parse_config_text(text)

    def test_negative_sigma2_rejected(self):
        for bad in ("-1", "nan"):
            with pytest.raises(ConfigError, match="sigma2 must be >= 0"):
                parse_config_text(MINIMAL.replace("sigma2 = 1.0", f"sigma2 = {bad}"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text(MINIMAL + "sigma2 = 2.0\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("seed 4\n")

    def test_referenced_file_must_exist(self):
        text = """
plant_type = fir
plant_coeffs = 1, 0.5
input_type = file
input_file = /nonexistent/inputs.txt
design_type = output_capped
noise_order = 3
sigma2 = 0.5
gamma1 = 1.0
"""
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config_text(text)

    def test_design_requirements_enforced(self):
        text = MINIMAL.replace("gamma1 = 2.0", "")
        with pytest.raises(ConfigError, match="gamma1"):
            parse_config_text(text)

    def test_rls_requires_kernel_parameters(self):
        text = MINIMAL + "adversary = rls\n"
        with pytest.raises(ConfigError, match="rls_eta"):
            parse_config_text(text)

    def test_random_model_pairing(self):
        text = MINIMAL.replace("design_type = output_capped", "design_type = output_random")
        with pytest.raises(ConfigError, match="input_type = random_model"):
            parse_config_text(text)


class TestRoundTrip:
    def test_format_then_parse_is_identity(self):
        config = parse_config_text(MINIMAL)
        echoed = format_config(config)
        again = parse_config_text(echoed)
        assert again == config
        assert format_config(again) == echoed

    def test_round_trip_with_dp_design(self):
        text = """
plant_type = fir
plant_coeffs = 1, 0.7, 0.46
input_type = white
input_length = 64
design_type = dp_laplace
dp_epsilon = 1.5
dp_lower = 0
dp_upper = 1
sigma2 = 0.25
replicates = 5000
seed = 42
"""
        config = parse_config_text(text)
        assert parse_config_text(format_config(config)) == config
