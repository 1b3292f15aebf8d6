"""Experiment configuration: strict flat key = value files.

Format: UTF-8 lines of ``key = value``, ``#`` starts a comment, vectors are
comma-separated numbers.  Unknown keys, missing required keys and type
mismatches are hard errors that name the offending line; there is no silent
typo tolerance.
"""
from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass, fields
from typing import List, Optional

from .errors import ConfigError

#: Design types that calibrate a privacy mechanism instead of designing a noise filter.
MECHANISM_TYPES = ("dp_laplace", "dp_gaussian")

#: Each mode key's choices, and the keys each choice requires, in the order they are checked.
_REQUIRES = {
    "plant_type": {
        "fir": ("plant_coeffs",),
        "rational": ("plant_num", "plant_den", "plant_fir_order"),
    },
    "input_type": {
        "white": ("input_length",),
        "filtered": ("input_length", "input_filter_num", "input_filter_den"),
        "file": ("input_file",),
        "random_model": ("random_min_length", "random_max_length",
                         "random_theta", "random_vartheta"),
    },
    "design_type": {
        "output_capped": ("gamma1", "noise_order"),
        "output_weighted": ("gamma2", "noise_order"),
        "input_capped": ("gamma1", "noise_order"),
        "output_random": ("gamma1", "noise_order"),
        "dp_laplace": ("dp_epsilon", "dp_lower", "dp_upper"),
        "dp_gaussian": ("dp_epsilon", "dp_lower", "dp_upper", "dp_delta"),
    },
    "adversary": {"ls": (), "rls": ("rls_eta", "rls_beta")},
}

@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-typed experiment description (see module docstring for the format)."""

    plant_type: str
    input_type: str
    design_type: str
    sigma2: float
    plant_coeffs: Optional[List[float]] = None
    plant_num: Optional[List[float]] = None
    plant_den: Optional[List[float]] = None
    plant_fir_order: Optional[int] = None
    input_length: Optional[int] = None
    input_filter_num: Optional[List[float]] = None
    input_filter_den: Optional[List[float]] = None
    input_file: Optional[str] = None
    random_min_length: Optional[int] = None
    random_max_length: Optional[int] = None
    random_theta: Optional[int] = None
    random_vartheta: Optional[int] = None
    adversary: str = "ls"
    rls_eta: Optional[float] = None
    rls_beta: Optional[float] = None
    noise_order: Optional[int] = None
    gamma1: Optional[float] = None
    gamma2: Optional[float] = None
    dp_epsilon: Optional[float] = None
    dp_delta: Optional[float] = None
    dp_lower: Optional[float] = None
    dp_upper: Optional[float] = None
    replicates: int = 100_000
    seed: int = 0


def _key_type(hint):
    """Parse target of a field's type: ``Optional`` unwrapped, ``List[float]`` as ``list``."""
    if typing.get_origin(hint) is typing.Union:
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    return list if typing.get_origin(hint) is list else hint


#: Every config key and the type its value parses to, one per field of ExperimentConfig.
_SCHEMA = {
    name: _key_type(hint) for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


def _parse_scalar(raw: str, target, key: str, line: int):
    try:
        if target is int:
            value = int(raw)
        elif target is float:
            value = float(raw)
        elif target is list:
            value = [float(part.strip()) for part in raw.split(",") if part.strip() != ""]
            if not value:
                raise ValueError("empty vector")
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r} expects {target.__name__}, got {raw!r} ({exc})", line)
    # Before the finite test, so a NaN sigma2 gets this bound's message.
    if key == "sigma2" and not value >= 0.0:
        raise ConfigError(f"sigma2 must be >= 0, got {value}", line)
    numbers = value if target is list else [value] if target is float else []
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}", line)
    return value


def _require(pairs: dict, key: str, context: str):
    if key not in pairs:
        raise ConfigError(f"missing required key {key!r} ({context})")


def _validate(pairs: dict) -> None:
    for key in ("plant_type", "input_type", "design_type", "sigma2"):
        _require(pairs, key, "always required")
    for mode, choices in _REQUIRES.items():
        value = pairs.get(mode, "ls")  # adversary is the one optional mode key
        if value not in choices:
            raise ConfigError(f"{mode} must be one of {tuple(choices)}, got {value!r}")
        for key in choices[value]:
            _require(pairs, key, f"{mode} = {value}")

    kind, design = pairs["input_type"], pairs["design_type"]
    if kind == "file" and not os.path.exists(pairs["input_file"]):
        raise ConfigError(f"input_file {pairs['input_file']!r} does not exist")
    if design not in MECHANISM_TYPES:
        # A filter design: a variance cap gamma1 or, weighted, a weight gamma2.
        budget = "gamma2" if design == "output_weighted" else "gamma1"
        sigma2 = pairs["sigma2"]
        if not sigma2 > 0.0:
            raise ConfigError(f"sigma2 must be > 0 for design_type = {design}, got {sigma2}")
        if pairs["noise_order"] < 1:
            raise ConfigError(f"noise_order must be >= 1, got {pairs['noise_order']}")
        floor, floor_name = (0.0, "0") if budget == "gamma2" else (sigma2, f"sigma2 = {sigma2}")
        if not pairs[budget] > floor:
            raise ConfigError(f"{budget} = {pairs[budget]} must exceed {floor_name}")
    if design == "output_random" and kind != "random_model":
        raise ConfigError("design_type = output_random requires input_type = random_model")
    if design != "output_random" and kind == "random_model":
        raise ConfigError("input_type = random_model requires design_type = output_random")
    if design == "output_random" and pairs.get("adversary") == "rls":
        # The random-input design and its attack are plain least squares.
        raise ConfigError("adversary = rls is not supported with design_type = output_random")

    if pairs.get("replicates", 1) < 1:
        raise ConfigError("replicates must be >= 1")


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse configuration text; see :func:`parse_config` for the file variant."""
    pairs: dict = {}
    seen: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first on line {seen[key]})", lineno)
        seen[key] = lineno
        pairs[key] = _parse_scalar(raw_value, _SCHEMA[key], key, lineno)
    _validate(pairs)
    return ExperimentConfig(**pairs)


def parse_config(path) -> ExperimentConfig:
    """Parse a configuration file (strict: unknown keys are errors)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


def format_config(config: ExperimentConfig) -> str:
    """Canonical text form of a configuration; re-parsing it reproduces ``config``."""
    lines = []
    for spec in fields(ExperimentConfig):
        value = getattr(config, spec.name)
        if value is None:
            continue
        if isinstance(value, list):
            rendered = ", ".join(f"{v:.17g}" for v in value)
        elif isinstance(value, float):
            rendered = f"{value:.17g}"
        else:
            rendered = str(value)
        lines.append(f"{spec.name} = {rendered}")
    return "\n".join(lines) + "\n"
