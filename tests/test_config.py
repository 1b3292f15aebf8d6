from dataclasses import fields

import pytest

from firpriv import ConfigError, ExperimentConfig, format_config, parse_config, parse_config_text
from firpriv.config import _SCHEMA

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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", [key for key, target in _SCHEMA.items() if target in (float, list)]
    )
    def test_non_finite_value_names_key_and_line(self, key, bad):
        value = f"1, {bad}" if _SCHEMA[key] is list else bad
        if key == "sigma2" and bad != "inf":
            message = rf"line 2: sigma2 must be >= 0, got {bad}"
        else:
            message = rf"line 2: key '{key}' must be finite, got '{value}'"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"seed = 1\n{key} = {value}\n" + MINIMAL)

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


    def test_rls_random_design_rejected(self):
        # The random-input design and attack are plain LS; an rls request was ignored.
        text = """
plant_type = fir
plant_coeffs = 1, 0.5
input_type = random_model
random_min_length = 10
random_max_length = 20
random_theta = 2
random_vartheta = 5
design_type = output_random
noise_order = 3
sigma2 = 0.1
gamma1 = 0.2
adversary = rls
rls_eta = 0.1
rls_beta = 0.7
"""
        with pytest.raises(ConfigError, match="adversary = rls.*design_type = output_random"):
            parse_config_text(text)
        parse_config_text(text.replace("adversary = rls", "adversary = ls"))

    def test_schema_has_one_key_per_field(self):
        assert set(_SCHEMA) == {spec.name for spec in fields(ExperimentConfig)}
        assert _SCHEMA["plant_coeffs"] is list
        assert _SCHEMA["plant_fir_order"] is int and _SCHEMA["seed"] is int
        assert _SCHEMA["rls_eta"] is float and _SCHEMA["input_file"] is str


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


class TestDesignChecks:
    """Checks on the keys of the filter designs, each naming its key."""

    def test_capped_budget_must_exceed_noise_floor(self):
        with pytest.raises(ConfigError, match=r"gamma1 = 1.0 must exceed sigma2 = 1.0"):
            parse_config_text(MINIMAL.replace("gamma1 = 2.0", "gamma1 = 1.0"))
        config = parse_config_text(MINIMAL.replace("gamma1 = 2.0", "gamma1 = 1.1"))
        assert config.gamma1 == 1.1

    def test_exactly_one_budget_mode(self):
        weighted = MINIMAL.replace("design_type = output_capped", "design_type = output_weighted")
        with pytest.raises(ConfigError, match="missing required key 'gamma2'"):
            parse_config_text(weighted)
        with pytest.raises(ConfigError, match="missing required key 'gamma1'"):
            parse_config_text(MINIMAL.replace("gamma1 = 2.0", "gamma2 = 0.5"))
        config = parse_config_text(weighted.replace("gamma1 = 2.0", "gamma2 = 0.5"))
        assert config.gamma2 == 0.5

    def test_rls_requires_kernel_parameters(self):
        with pytest.raises(ConfigError, match="rls_beta"):
            parse_config_text(MINIMAL + "adversary = rls\nrls_eta = 0.1\n")

    @pytest.mark.parametrize(
        "design", ["output_capped", "output_weighted", "input_capped", "output_random"]
    )
    def test_filter_designs_need_measurement_noise(self, design):
        text = MINIMAL.replace("design_type = output_capped", f"design_type = {design}")
        text = text.replace("sigma2 = 1.0", "sigma2 = 0") + "gamma2 = 0.5\n"
        if design == "output_random":
            text = text.replace("input_type = filtered", "input_type = random_model")
            text += "random_min_length = 10\nrandom_max_length = 20\n"
            text += "random_theta = 2\nrandom_vartheta = 2\n"
        with pytest.raises(ConfigError, match=f"sigma2 must be > 0 for design_type = {design}"):
            parse_config_text(text)

    def test_noise_order_at_least_one(self):
        with pytest.raises(ConfigError, match="noise_order must be >= 1, got 0"):
            parse_config_text(MINIMAL.replace("noise_order = 10", "noise_order = 0"))

    def test_weight_must_be_positive(self):
        text = MINIMAL.replace("design_type = output_capped", "design_type = output_weighted")
        for bad in ("0", "-1"):
            with pytest.raises(ConfigError, match=r"gamma2 = -?[01].0 must exceed 0"):
                parse_config_text(text.replace("gamma1 = 2.0", f"gamma2 = {bad}"))
