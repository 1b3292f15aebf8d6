"""Attack simulation and reference-experiment reproduction.

``attack_simulation`` runs a configured experiment end to end: resolve the
plant and input, design the masking noise (or calibrate a privacy mechanism),
simulate repeated identification attacks, and compare the empirical error
against the analytic prediction and a variance-matched baseline.

``reproduce`` reruns the bundled reference scenarios (deterministic input,
regularized adversary, random inputs) and emits a comparison table.  The
scenarios are the configs in ``REFERENCE_CONFIGS``, run through the same
stages as ``attack_simulation``: ``_analyze_fixed`` (the trace quadratic of
fixed records) then ``_design_fixed`` (the filter design or mechanism and the
baseline), or ``_design_random`` for random inputs.  The fixed-input
scenarios depend on the particular input realization, so they are reported
as a band over many realizations rather than as point values.
"""
from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .config import MECHANISM_TYPES, ExperimentConfig, parse_config_text
from .design import (
    DesignResult,
    RandomInputModel,
    _design_input,
    design_output_capped,
    design_output_random,
    design_output_weighted,
    estimate_expected_quadratic,
)
from .errors import ConfigError, ParameterError, RedrawBudgetError
from .estimators import (
    FAILURE_BUDGET,
    Kernel,
    RecordQuadratic,
    _screened_maps,
    ls_trace_quadratic,
    rls_trace_quadratic,
    stable_spline_kernel,
)
from .lti import (
    FirModel,
    RationalFilter,
    _check_count,
    build_filter_matrix,
    build_regressor,
    factor_adjoint,
    generate_filtered_input,
    impulse_response,
)
from .privacy import (
    CoefficientBox,
    DpMechanism,
    _draw_mechanism,
    gaussian_mechanism,
    l1_sensitivity,
    l2_sensitivity,
    laplace_mechanism,
)
from .rng import _run_chunks, derive, replicate_stream, stream

#: Replicates per random-input attack work unit; fixed so results do not depend on threads.
#: Each chunk has its own stream; its squared errors are concatenated in chunk order.  The
#: ``reproduce --which random`` CSV reports these draws, so the size stays.
CHUNK = 8192

#: Replicates per fixed-input attack work unit, small enough that the units
#: of a few thousand replicates spread evenly over the threads.
ATTACK_UNIT = 1024

#: Multiply-adds per noise block folded by a fixed-input attack worker.  A
#: GEMM of at most 65536 * 4 multiply-adds (OpenBLAS's default threading
#: cut-off) runs on the calling thread, so the work units are the attack's
#: only parallelism.  A block holds at most FOLD_MACS / n_h draws (2 MB), or
#: one row where a row is longer.
FOLD_MACS = 2**18


def _reference_config(**pairs) -> ExperimentConfig:
    """The config a file of these ``key = value`` lines parses to, validation included."""
    return parse_config_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))


_REFERENCE_PLANT = dict(
    plant_type="rational", plant_num="1, -0.2", plant_den="1, -0.9, 0.17", plant_fir_order=9
)
_REFERENCE_FIXED = dict(
    _REFERENCE_PLANT, input_type="filtered", input_length=200, input_filter_num="1",
    input_filter_den="1, -0.95", design_type="output_capped", sigma2=1.0, gamma1=2.0,
    noise_order=10,
)
#: The reference scenarios of ``reproduce`` (and of the acceptance suite), by name.
REFERENCE_CONFIGS = {
    "deterministic": _reference_config(**_REFERENCE_FIXED),
    "rls": _reference_config(**_REFERENCE_FIXED, adversary="rls", rls_eta=0.1, rls_beta=0.7),
    "random": _reference_config(
        **_REFERENCE_PLANT, input_type="random_model", random_min_length=10,
        random_max_length=20, random_theta=100, random_vartheta=1000,
        design_type="output_random", noise_order=5, sigma2=0.1, gamma1=0.2,
    ),
}
REFERENCE_RANDOM_FILTER = (0.1450, 0.0799, 0.2125, 0.0799, 0.1450)
REFERENCE_RANDOM_RATIO = 1.9639
REFERENCE_VALUES = {
    "deterministic": {"designed": 0.25, "baseline": 0.17, "min_median_increase": 0.30},
    "rls": {"designed": 0.17, "baseline": 0.13},
}


@dataclass(frozen=True)
class MetricRow:
    """One comparison row of a reproduction report."""

    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one attack-simulation run."""

    design: Optional[DesignResult]
    mechanism: Optional[DpMechanism]
    predicted_trace: float
    empirical_trace: float
    empirical_se: float
    baseline_trace: float
    ratio: float
    replicates: int
    failures: int
    runtime_s: float


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def reference_plant() -> FirModel:
    """FIR truncation of the reference rational plant used by the bundled scenarios."""
    return _resolve_plant(REFERENCE_CONFIGS["deterministic"])


def _resolve_plant(config: ExperimentConfig) -> FirModel:
    if config.plant_type == "fir":
        return FirModel(np.asarray(config.plant_coeffs))
    g = RationalFilter(np.asarray(config.plant_num), np.asarray(config.plant_den))
    return FirModel(impulse_response(g, config.plant_fir_order))


def _resolve_fixed_input(config: ExperimentConfig, seed) -> np.ndarray:
    """The config's input record; a filtered input takes a list of seeds for a stack of records."""
    if config.input_type == "white":
        return stream(seed, "input-white").standard_normal(config.input_length)
    if config.input_type == "filtered":
        w = RationalFilter(np.asarray(config.input_filter_num), np.asarray(config.input_filter_den))
        return generate_filtered_input(w, config.input_length, seed=seed)
    if config.input_type == "file":
        try:
            return np.loadtxt(config.input_file, dtype=float).ravel()
        except OSError as exc:
            raise ConfigError(
                f"cannot read input_file {config.input_file!r}: {exc.strerror}"
            ) from exc
        except ValueError as exc:
            raise ConfigError(f"input_file {config.input_file!r} is not numeric: {exc}") from exc
    raise ConfigError(f"input_type {config.input_type!r} has no fixed realization")


def _resolve_kernel(config: ExperimentConfig, n_h: int) -> Optional[Kernel]:
    if config.adversary != "rls":
        return None
    return Kernel(stable_spline_kernel(n_h, config.rls_beta), eta=config.rls_eta)


def _mean_and_se(sq: np.ndarray):
    """Mean of the squared errors ``sq`` and its standard error ``sq.std() / sqrt(sq.size)``.

    Both are NumPy's two-pass moments of ``sq / 2**e``, with ``e = np.frexp(sq.max())[1]``,
    times ``2**e``.  That scaling is exact, so the moments cannot overflow, and they equal the
    unscaled ones bit for bit wherever neither computation leaves the normal range.
    """
    scale = np.ldexp(1.0, np.frexp(sq.max())[1])
    scaled = sq / scale
    return float(scaled.mean() * scale), float(scaled.std() / np.sqrt(sq.size) * scale)


def _fixed_input_attack(
    h: np.ndarray,
    mean_y: np.ndarray,
    estimator_map: np.ndarray,
    ma_coeffs: Optional[np.ndarray],
    mech: Optional[DpMechanism],
    sigma2: float,
    seed: int,
    replicates: int,
    threads: Optional[int],
):
    """Empirical error trace over repeated attacks on a fixed input record.

    ``mean_y`` is the record's noiseless output ``R h``.  The Gaussian output
    noise, MA noise ``L v`` plus white noise of variance ``w`` (``sigma2``
    plus a Gaussian mechanism's variance), has covariance ``LL' + wI``, so
    each replicate draws it whole as ``C z``: N standard normals ``z``
    through the banded factor C of :meth:`BandedFilterMatrix.noise_factor`;
    no filter is the zero filter, whose C is ``sqrt(w) I``.  The estimator
    map E is linear, so the error is ``(R h E - h) + z (C'E) + lap E`` with
    Laplace noise ``lap``; ``C'E`` takes O(N*m*n_h), never the dense band.

    Work units of ``ATTACK_UNIT`` replicates each have their own SFC64
    ``replicate_stream(seed, "attack", unit)``, which gives all ``z`` rows and
    then the ``lap`` rows, and return their squared errors, concatenated in
    unit order.  Only these draws leave Philox: they are most of ``simulate``'s
    time, and no design output or ``reproduce`` CSV depends on them.  A worker
    draws each channel in row blocks of at most ``FOLD_MACS`` multiply-adds and
    adds each block's product with its map to the error at once, so its
    memory does not grow with N; a block size changes no draw.
    """
    n = mean_y.size
    bias = mean_y @ estimator_map - h
    laplace = mech if mech is not None and mech.kind == "laplace" else None
    w = sigma2 + (mech.noise_variance if mech is not None and laplace is None else 0.0)
    ma = ma_coeffs if ma_coeffs is not None else np.zeros(1)  # no filter: zero MA noise
    noise_map = (factor_adjoint(build_filter_matrix(ma, n).noise_factor(w), estimator_map)
                 if w > 0 or np.any(ma) else None)  # None: w = 0 and the filter is zero

    def worker(unit: int, count: int):
        gen = replicate_stream(seed, "attack", unit)
        err = np.tile(bias, (count, 1))

        def fold(draw, fmap):
            rows = max(1, FOLD_MACS // fmap.size)
            for start in range(0, count, rows):
                block = draw((min(rows, count - start), fmap.shape[0]))
                err[start : start + rows] += block @ fmap

        if noise_map is not None:
            fold(gen.standard_normal, noise_map)
        if laplace is not None:
            fold(lambda shape: _draw_mechanism(gen, laplace, shape), estimator_map)
        return np.einsum("bj,bj->b", err, err)

    return (*_mean_and_se(np.concatenate(_run_chunks(worker, replicates, threads, ATTACK_UNIT))), 0)


def _random_input_attack(
    h: np.ndarray,
    model: RandomInputModel,
    ma_coeffs: Optional[np.ndarray],
    sigma2: float,
    seed: int,
    replicates: int,
    threads: Optional[int],
):
    """Empirical error trace when each attack draws its own record length and input.

    Inputs are i.i.d. standard Gaussian, as :class:`RandomInputModel` has them,
    screened per length by :func:`_screened_maps`.  The MA noise is the valid-mode
    convolution of each driving row with the filter; shorter records take a prefix.
    """
    max_len = int(model.lengths.max())
    ma = ma_coeffs if ma_coeffs is not None else np.zeros(1)  # no filter: zero MA noise

    def worker(chunk_idx: int, count: int):
        gen = stream(seed, "attack", chunk_idx)
        lengths = gen.choice(model.lengths, size=count, p=model.probabilities)
        r_block = gen.standard_normal((count, max_len))
        v_block = gen.standard_normal((count, max_len + ma.size - 1))
        e_block = np.sqrt(sigma2) * gen.standard_normal((count, max_len))
        ma_noise = build_regressor(v_block, ma.size)[:, ma.size - 1 :] @ ma
        sq, failures = [], 0
        for n in np.unique(lengths):
            idx = np.flatnonzero(lengths == n)
            good, R, _, A = _screened_maps(r_block[idx, :n], h.size)
            rows = idx[good]  # may be empty, which adds nothing below
            failures += idx.size - rows.size
            y = np.einsum("bij,j->bi", R, h) + ma_noise[rows, :n] + e_block[rows, :n]
            err = np.einsum("bij,bi->bj", A, y) - h
            sq.append(np.einsum("bj,bj->b", err, err))
        return np.concatenate(sq), failures

    sq, failures = zip(*_run_chunks(worker, replicates, threads, CHUNK))
    if sum(failures) > FAILURE_BUDGET * replicates:
        raise RedrawBudgetError(
            f"{sum(failures)} of {replicates} attack replicates hit the conditioning limit"
        )
    return (*_mean_and_se(np.concatenate(sq)), sum(failures))


def _analyze_fixed(config: ExperimentConfig, h: FirModel, reg: np.ndarray):
    """Trace quadratic of the record with regressor ``reg``, or a list for a stack of them.

    It also carries the attack's estimator map, the bias and the noise gain.
    A mechanism needs no filter coefficient; the input design needs the
    quadratic in the output-domain filter ``conv(h, l)``, which has
    ``len(h) - 1`` more coefficients than ``l``.
    """
    kernel = _resolve_kernel(config, len(h))
    n_l = 1 if config.design_type in MECHANISM_TYPES else config.noise_order
    if config.design_type == "input_capped":
        n_l += len(h) - 1
    if kernel is not None:
        return rls_trace_quadratic(reg, h, kernel, config.sigma2, n_l)
    return ls_trace_quadratic(reg, config.sigma2, n_l)


def _design_fixed(config: ExperimentConfig, h: FirModel, r: np.ndarray, quad: RecordQuadratic):
    """Design the noise filter, or calibrate the mechanism, for record ``r`` and its quadratic.

    Returns ``(design, mechanism, ma_coeffs, predicted, baseline)``.
    """
    if config.design_type in MECHANISM_TYPES:
        box = CoefficientBox(config.dp_lower, config.dp_upper, len(h))
        if config.design_type == "dp_laplace":
            mech = laplace_mechanism(config.dp_epsilon, l1_sensitivity(r, box), config.sigma2)
        else:
            mech = gaussian_mechanism(
                config.dp_epsilon, config.dp_delta, l2_sensitivity(r, box), config.sigma2
            )
        # The mechanism is white noise at lambda_y; without it only sigma2 is left.
        return None, mech, None, quad.bias + mech.lambda_y * quad.noise_gain, quad.offset
    if config.design_type == "input_capped":
        design = _design_input(quad, h.coeffs, config.sigma2, config.gamma1, config.noise_order)
    elif config.design_type == "output_capped":
        design = design_output_capped(quad, config.sigma2, config.gamma1)
    else:
        design = design_output_weighted(quad, config.gamma2, sigma2=config.sigma2)
    # An input filter reaches the output through the plant.
    input_design = config.design_type == "input_capped"
    ma_coeffs = np.convolve(h.coeffs, design.l_star) if input_design else design.l_star
    baseline = quad.bias + design.lambda_y * quad.noise_gain
    return design, None, ma_coeffs, design.predicted_trace, baseline


def _design_random(config: ExperimentConfig, n_h: int, seed: int, threads: Optional[int]):
    """The random-input model, its design from a Monte Carlo quadratic, and the baseline."""
    model = RandomInputModel.uniform_gaussian(
        config.random_min_length, config.random_max_length, config.random_theta,
        config.random_vartheta,
    )
    quad = estimate_expected_quadratic(model, n_h, config.noise_order, config.sigma2, seed, threads)
    design = design_output_random(quad, config.sigma2, config.gamma1)
    return model, design, design.lambda_y * quad.offset / config.sigma2


def attack_simulation(
    config: ExperimentConfig, threads: Optional[int] = None, seed: Optional[int] = None
) -> ExperimentReport:
    """Run one configured experiment: design, simulate attacks, compare errors.

    The baseline is a white-noise attack of matched total variance for the
    filter designs and the no-privacy error for the mechanism calibrations.
    """
    start = time.perf_counter()
    _check_count("threads", threads)
    _check_count("replicates", config.replicates)
    seed = config.seed if seed is None else seed
    h = _resolve_plant(config)

    if config.input_type == "random_model":
        model, design, baseline = _design_random(config, len(h), derive(seed, "design"), threads)
        predicted = design.predicted_trace
        empirical, se, failures = _random_input_attack(
            h.coeffs, model, design.l_star, config.sigma2,
            derive(seed, "attack-designed"), config.replicates, threads,
        )
        mech = None
    else:
        r = _resolve_fixed_input(config, derive(seed, "input"))
        reg = build_regressor(r, len(h))
        quad = _analyze_fixed(config, h, reg)
        design, mech, ma_coeffs, predicted, baseline = _design_fixed(config, h, r, quad)
        empirical, se, failures = _fixed_input_attack(
            h.coeffs, reg @ h.coeffs, quad.estimator_map, ma_coeffs, mech, config.sigma2,
            derive(seed, "attack"), config.replicates, threads,
        )

    return ExperimentReport(
        design=design,
        mechanism=mech,
        predicted_trace=predicted,
        empirical_trace=empirical,
        empirical_se=se,
        baseline_trace=baseline,
        ratio=predicted / baseline if baseline > 0 else float("inf"),
        replicates=config.replicates,
        failures=failures,
        runtime_s=time.perf_counter() - start,
    )


def _band_rows(label: str, values: np.ndarray, expected: float) -> List[MetricRow]:
    q10, q50, q90 = np.percentile(values, [10, 50, 90])
    return [
        MetricRow(
            name=f"{label}.reference_in_band",
            expected=_fmt(expected),
            computed=f"{_fmt(q10)}..{_fmt(q90)}",
            tolerance="within [q10, q90] over realizations",
            passed=bool(q10 <= expected <= q90),
        ),
        MetricRow(
            name=f"{label}.median",
            expected="",
            computed=_fmt(q50),
            tolerance="informational",
            passed=True,
        ),
    ]


def _reproduce_fixed(name: str, seed: int, realizations: int) -> List[MetricRow]:
    """Designed and baseline traces of a fixed-input reference config, over input realizations."""
    config = REFERENCE_CONFIGS[name]
    h = _resolve_plant(config)
    seeds = [derive(seed, "det-input", k) for k in range(realizations)]
    records = _resolve_fixed_input(config, seeds)
    quads = _analyze_fixed(config, h, build_regressor(records, len(h)))
    designed, baseline = np.array(
        [_design_fixed(config, h, r, quad)[3:] for r, quad in zip(records, quads)]
    ).T
    ref = REFERENCE_VALUES[name]
    metric = "mse" if config.adversary == "rls" else "trace"
    rows = _band_rows(f"{name}.designed_{metric}", designed, ref["designed"])
    rows += _band_rows(f"{name}.baseline_{metric}", baseline, ref["baseline"])
    if "min_median_increase" in ref:
        median_increase = float(np.median(designed / baseline) - 1.0)
        rows.append(
            MetricRow(
                name=f"{name}.median_increase",
                expected=f">= {ref['min_median_increase']}",
                computed=_fmt(median_increase),
                tolerance="median over realizations",
                passed=median_increase >= ref["min_median_increase"],
            )
        )
    else:
        med_d, med_b = float(np.median(designed)), float(np.median(baseline))
        rows.append(
            MetricRow(
                name=f"{name}.median_designed_exceeds_baseline",
                expected="strictly greater",
                computed=f"{_fmt(med_d)} vs {_fmt(med_b)}",
                tolerance="median over realizations",
                passed=med_d > med_b,
            )
        )
    return rows


def _reproduce_random(
    seed: int, replicates: int, threads: Optional[int]
) -> List[MetricRow]:
    config = REFERENCE_CONFIGS["random"]
    h = _resolve_plant(config)
    model, result, _ = _design_random(config, len(h), derive(seed, "random-design"), threads)

    expected_filter = np.asarray(REFERENCE_RANDOM_FILTER)
    flip = np.max(np.abs(-result.l_star - expected_filter)) < np.max(
        np.abs(result.l_star - expected_filter)
    )
    l_report = -result.l_star if flip else result.l_star
    rows = [
        MetricRow(
            name=f"random.filter_coefficient_{k}",
            expected=_fmt(expected_filter[k]),
            computed=_fmt(l_report[k]),
            tolerance="abs error <= 0.02 (up to global sign)",
            passed=bool(abs(l_report[k] - expected_filter[k]) <= 0.02),
        )
        for k in range(expected_filter.size)
    ]
    rows.append(
        MetricRow(
            name="random.predicted_ratio",
            expected=_fmt(REFERENCE_RANDOM_RATIO),
            computed=_fmt(result.predicted_ratio),
            tolerance="abs error <= 0.05",
            passed=bool(abs(result.predicted_ratio - REFERENCE_RANDOM_RATIO) <= 0.05),
        )
    )

    masked_mean, masked_se, _ = _random_input_attack(
        h.coeffs, model, result.l_star, config.sigma2,
        derive(seed, "random-attack-masked"), replicates, threads,
    )
    clean_mean, clean_se, _ = _random_input_attack(
        h.coeffs, model, None, config.sigma2,
        derive(seed, "random-attack-clean"), replicates, threads,
    )
    sim_ratio = masked_mean / clean_mean
    sim_se = sim_ratio * np.sqrt((masked_se / masked_mean) ** 2 + (clean_se / clean_mean) ** 2)
    rows.append(
        MetricRow(
            name="random.simulated_ratio",
            expected=_fmt(result.predicted_ratio),
            computed=_fmt(sim_ratio),
            tolerance=f"within 3 standard errors (se = {_fmt(sim_se)})",
            passed=bool(abs(sim_ratio - result.predicted_ratio) <= 3.0 * sim_se),
        )
    )
    return rows


def _report_path(out_dir, name: str) -> str:
    """``<out_dir>/<name>.csv``, after creating the directory if it is missing."""
    path = os.path.join(out_dir, f"{name}.csv")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot write report {path!r}: {exc}") from exc
    return path


def _write_csv(out_dir, name: str, text: str) -> str:
    """Write ``text`` to ``<out_dir>/<name>.csv``, creating the directory; return the path."""
    path = _report_path(out_dir, name)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write report {path!r}: {exc}") from exc
    return path


def rows_to_csv(rows: List[MetricRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "expected", "computed", "tolerance", "pass"])
    for row in rows:
        writer.writerow(
            [row.name, row.expected, row.computed, row.tolerance, "true" if row.passed else "false"]
        )
    return buffer.getvalue()


def reproduce(
    which: str = "all",
    seed: int = 0,
    out_dir=None,
    replicates: int = 100_000,
    realizations: int = 50,
    threads: Optional[int] = None,
):
    """Rerun the bundled reference scenarios and return their comparison rows.

    ``which`` selects ``deterministic``, ``rls``, ``random`` or ``all``.  With
    ``out_dir`` set, one CSV per scenario is written; contents are a pure
    function of the arguments, so a fixed seed reproduces files byte for byte.
    """
    _check_count("replicates", replicates)
    _check_count("realizations", realizations)
    _check_count("threads", threads)
    if which != "all" and which not in REFERENCE_CONFIGS:
        choices = tuple(REFERENCE_CONFIGS) + ("all",)
        raise ParameterError(f"which must be one of {choices}, got {which!r}")
    selected = list(REFERENCE_CONFIGS) if which == "all" else [which]
    if out_dir is not None:  # an unusable directory fails before the work, not after it
        _report_path(out_dir, selected[0])

    all_rows: List[MetricRow] = []
    for name in selected:
        if REFERENCE_CONFIGS[name].input_type == "random_model":
            rows = _reproduce_random(seed, replicates, threads)
        else:
            rows = _reproduce_fixed(name, seed, realizations)
        all_rows.extend(rows)
        if out_dir is not None:
            _write_csv(out_dir, name, rows_to_csv(rows))
    return all_rows
