"""Attack simulation and reference-experiment reproduction.

``attack_simulation`` runs a configured experiment end to end: resolve the
plant and input, design the masking noise (or calibrate a privacy mechanism),
simulate repeated identification attacks, and compare the empirical error
against the analytic prediction and a variance-matched baseline.

``reproduce`` reruns the bundled reference scenarios (deterministic input,
regularized adversary, random inputs) and emits a comparison table.  The
deterministic scenarios depend on the particular input realization, so they
are reported as a band over many realizations rather than as point values.
"""
from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .config import ExperimentConfig
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
    _screened_inverse,
    analyze_records,
    ls_trace_quadratic,
    rls_trace_quadratic,
    stable_spline_kernel,
)
from .lti import (
    FirModel,
    RationalFilter,
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
from .rng import derive, stream

#: Replicates per random-input attack work unit; fixed so results do not depend on threads.
#: Each chunk has its own stream and its own error sums, reduced in chunk order.  The
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

# Reference scenario parameters (shared by `reproduce` and the acceptance suite).
REFERENCE_PLANT_NUM = (1.0, -0.2)
REFERENCE_PLANT_DEN = (1.0, -0.9, 0.17)
REFERENCE_FIR_ORDER = 9
REFERENCE_INPUT_DEN = (1.0, -0.95)
REFERENCE_DETERMINISTIC = {"n_samples": 200, "sigma2": 1.0, "gamma1": 2.0, "n_l": 10}
REFERENCE_RLS = {"eta": 0.1, "beta": 0.7}
REFERENCE_RANDOM = {
    "min_length": 10,
    "max_length": 20,
    "theta": 100,
    "vartheta": 1000,
    "n_l": 5,
    "sigma2": 0.1,
    "gamma1": 0.2,
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
    g = RationalFilter(np.array(REFERENCE_PLANT_NUM), np.array(REFERENCE_PLANT_DEN))
    return FirModel(impulse_response(g, REFERENCE_FIR_ORDER))


def _resolve_plant(config: ExperimentConfig) -> FirModel:
    if config.plant_type == "fir":
        return FirModel(np.asarray(config.plant_coeffs))
    g = RationalFilter(np.asarray(config.plant_num), np.asarray(config.plant_den))
    return FirModel(impulse_response(g, config.plant_fir_order))


def _resolve_fixed_input(config: ExperimentConfig, seed: int) -> np.ndarray:
    if config.input_type == "white":
        return stream(seed, "input-white").standard_normal(config.input_length)
    if config.input_type == "filtered":
        w = RationalFilter(np.asarray(config.input_filter_num), np.asarray(config.input_filter_den))
        return generate_filtered_input(w, config.input_length, seed=seed)
    if config.input_type == "file":
        try:
            return np.loadtxt(config.input_file, dtype=float).ravel()
        except ValueError as exc:
            raise ConfigError(f"input_file {config.input_file!r} is not numeric: {exc}") from exc
    raise ConfigError(f"input_type {config.input_type!r} has no fixed realization")


def _resolve_kernel(config: ExperimentConfig, n_h: int) -> Optional[Kernel]:
    if config.adversary != "rls":
        return None
    return Kernel(stable_spline_kernel(n_h, config.rls_beta), eta=config.rls_eta)


def _check_count(name: str, value: Optional[int]) -> None:
    if value is not None and value < 1:
        raise ParameterError(f"{name} must be >= 1, got {value}")


def _run_chunks(worker, total: int, threads: Optional[int], size: int = CHUNK):
    """Map ``worker`` over chunks of ``size``; reduction order is by chunk index."""
    plan = [(idx, min(size, total - idx * size)) for idx in range((total + size - 1) // size)]
    if threads is not None and threads > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda spec: worker(*spec), plan))
    return [worker(*spec) for spec in plan]


def _mean_and_se(parts):
    """Mean squared error and its standard error from per-chunk ``(sum, sum of squares, count)``."""
    total_sq = sum(p[0] for p in parts)
    total_sq2 = sum(p[1] for p in parts)
    count = sum(p[2] for p in parts)
    mean = total_sq / count
    var = max(total_sq2 / count - mean * mean, 0.0)
    return mean, float(np.sqrt(var / count))


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
    through the banded factor C of :meth:`BandedFilterMatrix.noise_factor`,
    or ``sqrt(w) I`` without a filter.  The estimator map E is linear, so the
    error is ``(R h E - h) + z (C'E) + lap E`` with Laplace mechanism noise
    ``lap``; ``C'E`` takes O(N*m*n_h) and the dense band is never built.

    Work units of ``ATTACK_UNIT`` replicates each have their own
    ``stream(seed, "attack", unit)``, which gives all ``z`` rows and then the
    ``lap`` rows, and their own sums, reduced in unit order.  A worker draws
    each channel in row blocks of at most ``FOLD_MACS`` multiply-adds and
    adds each block's product with its map to the error at once, so its
    memory does not grow with N; a block size changes no draw.
    """
    n = mean_y.size
    bias = mean_y @ estimator_map - h
    laplace = mech if mech is not None and mech.kind == "laplace" else None
    w = sigma2 + (mech.noise_variance if mech is not None and laplace is None else 0.0)
    if ma_coeffs is not None:
        noise_map = factor_adjoint(build_filter_matrix(ma_coeffs, n).noise_factor(w), estimator_map)
    else:
        noise_map = np.sqrt(w) * estimator_map if w > 0 else None

    def worker(unit: int, count: int):
        gen = stream(seed, "attack", unit)
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
        sq = np.einsum("bj,bj->b", err, err)
        return float(sq.sum()), float((sq * sq).sum()), count

    return (*_mean_and_se(_run_chunks(worker, replicates, threads, ATTACK_UNIT)), 0)


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

    Inputs are i.i.d. standard Gaussian, as :class:`RandomInputModel` has them.
    The MA noise is the valid-mode convolution of each driving row with the filter.
    """
    n_h = h.size
    max_len = int(model.lengths.max())
    m = ma_coeffs.size if ma_coeffs is not None else 1
    sigma = np.sqrt(sigma2)

    def worker(chunk_idx: int, count: int):
        gen = stream(seed, "attack", chunk_idx)
        lengths = gen.choice(model.lengths, size=count, p=model.probabilities)
        r_block = gen.standard_normal((count, max_len))
        v_block = gen.standard_normal((count, max_len + m - 1))
        e_block = gen.standard_normal((count, max_len))
        sum_sq = 0.0
        sum_sq2 = 0.0
        used = 0
        failures = 0
        for n in np.unique(lengths):
            idx = np.flatnonzero(lengths == n)
            n = int(n)
            R = build_regressor(r_block[idx, :n], n_h)
            gram = np.einsum("bij,bik->bjk", R, R)
            good, gram_inv = _screened_inverse(gram)
            failures += int(np.sum(~good))
            if not good.any():
                continue
            R = R[good]
            A = np.einsum("bij,bjk->bik", R, gram_inv)
            y = np.einsum("bij,j->bi", R, h)
            if ma_coeffs is not None:
                V = build_regressor(v_block[idx[good], : n + m - 1], m)[:, m - 1 :]
                y = y + np.einsum("bij,j->bi", V, ma_coeffs)
            if sigma > 0:
                y = y + sigma * e_block[idx[good], :n]
            err = np.einsum("bij,bi->bj", A, y) - h
            sq = np.einsum("bj,bj->b", err, err)
            sum_sq += float(sq.sum())
            sum_sq2 += float((sq * sq).sum())
            used += int(good.sum())
        return sum_sq, sum_sq2, used, failures

    parts = _run_chunks(worker, replicates, threads)
    failures = sum(p[3] for p in parts)
    if failures > FAILURE_BUDGET * replicates:
        raise RedrawBudgetError(
            f"{failures} of {replicates} attack replicates hit the conditioning limit"
        )
    return (*_mean_and_se(parts), failures)


def _design_fixed(config: ExperimentConfig, h: FirModel, r: np.ndarray, reg: np.ndarray):
    """Design/calibrate for a fixed input; returns analytic quantities and noise.

    The record ``r``, with regressor ``reg``, is analyzed once: its trace
    quadratic also carries the attack's estimator map, the bias and the noise
    gain.  The input design needs the quadratic in the output-domain filter
    ``conv(h, l)``, which has ``len(h) - 1`` more coefficients than ``l``.
    """
    kernel = _resolve_kernel(config, len(h))
    mechanism = config.design_type in ("dp_laplace", "dp_gaussian")
    n_l = 1 if mechanism else config.noise_order
    if config.design_type == "input_capped":
        n_l += len(h) - 1
    if kernel is not None:
        quad = rls_trace_quadratic(reg, h, kernel, config.sigma2, n_l)
    else:
        quad = ls_trace_quadratic(reg, config.sigma2, n_l)

    design = None
    mech = None
    ma_coeffs = None
    if not mechanism:
        if config.design_type == "input_capped":
            design = _design_input(quad, h.coeffs, config.sigma2, config.gamma1, config.noise_order)
            ma_coeffs = np.convolve(h.coeffs, design.l_star)
        else:
            if config.design_type == "output_capped":
                design = design_output_capped(quad, config.sigma2, config.gamma1)
            else:
                design = design_output_weighted(quad, config.gamma2, sigma2=config.sigma2)
            ma_coeffs = design.l_star
        predicted = design.predicted_trace
        baseline = quad.bias + design.lambda_y * quad.noise_gain
    else:
        box = CoefficientBox(config.dp_lower, config.dp_upper, len(h))
        if config.design_type == "dp_laplace":
            mech = laplace_mechanism(config.dp_epsilon, l1_sensitivity(r, box), config.sigma2)
        else:
            mech = gaussian_mechanism(
                config.dp_epsilon, config.dp_delta, l2_sensitivity(r, box), config.sigma2
            )
        predicted = quad.bias + (mech.noise_variance + config.sigma2) * quad.noise_gain
        baseline = quad.bias + config.sigma2 * quad.noise_gain  # no-privacy baseline
    return design, mech, ma_coeffs, quad.estimator_map, predicted, baseline


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
        model = RandomInputModel.uniform_gaussian(
            config.random_min_length,
            config.random_max_length,
            config.random_theta,
            config.random_vartheta,
        )
        quad = estimate_expected_quadratic(
            model, len(h), config.noise_order, config.sigma2, seed=derive(seed, "design")
        )
        design = design_output_random(quad, config.sigma2, config.gamma1)
        predicted = design.predicted_trace
        baseline = design.lambda_y * quad.offset / config.sigma2
        empirical, se, failures = _random_input_attack(
            h.coeffs, model, design.l_star, config.sigma2,
            derive(seed, "attack-designed"), config.replicates, threads,
        )
        mech = None
    else:
        r = _resolve_fixed_input(config, derive(seed, "input"))
        reg = build_regressor(r, len(h))
        design, mech, ma_coeffs, estimator_map, predicted, baseline = _design_fixed(
            config, h, r, reg
        )
        empirical, se, failures = _fixed_input_attack(
            h.coeffs, reg @ h.coeffs, estimator_map, ma_coeffs, mech, config.sigma2,
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


def _deterministic_traces(seed: int, realizations: int, rls: bool):
    """Analytic (designed, baseline) error traces across input realizations."""
    h = reference_plant()
    params = REFERENCE_DETERMINISTIC
    w = RationalFilter(np.array([1.0]), np.array(REFERENCE_INPUT_DEN))
    kernel = (
        Kernel(stable_spline_kernel(len(h), REFERENCE_RLS["beta"]), eta=REFERENCE_RLS["eta"])
        if rls
        else None
    )
    seeds = [derive(seed, "det-input", k) for k in range(realizations)]
    records = generate_filtered_input(w, params["n_samples"], seed=seeds)
    quads = analyze_records(
        build_regressor(records, len(h)), params["sigma2"], params["n_l"], kernel, h
    )
    designed = np.empty(realizations)
    baseline = np.empty(realizations)
    for k, quad in enumerate(quads):
        result = design_output_capped(quad, params["sigma2"], params["gamma1"])
        designed[k] = result.predicted_trace
        baseline[k] = quad.bias + result.lambda_y * quad.noise_gain
    return designed, baseline


def _reproduce_deterministic(seed: int, realizations: int) -> List[MetricRow]:
    designed, baseline = _deterministic_traces(seed, realizations, rls=False)
    ref = REFERENCE_VALUES["deterministic"]
    rows = _band_rows("deterministic.designed_trace", designed, ref["designed"])
    rows += _band_rows("deterministic.baseline_trace", baseline, ref["baseline"])
    median_increase = float(np.median(designed / baseline) - 1.0)
    rows.append(
        MetricRow(
            name="deterministic.median_increase",
            expected=f">= {ref['min_median_increase']}",
            computed=_fmt(median_increase),
            tolerance="median over realizations",
            passed=median_increase >= ref["min_median_increase"],
        )
    )
    return rows


def _reproduce_rls(seed: int, realizations: int) -> List[MetricRow]:
    designed, baseline = _deterministic_traces(seed, realizations, rls=True)
    ref = REFERENCE_VALUES["rls"]
    rows = _band_rows("rls.designed_mse", designed, ref["designed"])
    rows += _band_rows("rls.baseline_mse", baseline, ref["baseline"])
    med_d, med_b = float(np.median(designed)), float(np.median(baseline))
    rows.append(
        MetricRow(
            name="rls.median_designed_exceeds_baseline",
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
    params = REFERENCE_RANDOM
    h = reference_plant()
    model = RandomInputModel.uniform_gaussian(
        params["min_length"], params["max_length"], params["theta"], params["vartheta"]
    )
    quad = estimate_expected_quadratic(
        model, len(h), params["n_l"], params["sigma2"], seed=derive(seed, "random-design")
    )
    result = design_output_random(quad, params["sigma2"], params["gamma1"])

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
        h.coeffs, model, result.l_star, params["sigma2"],
        derive(seed, "random-attack-masked"), replicates, threads,
    )
    clean_mean, clean_se, _ = _random_input_attack(
        h.coeffs, model, None, params["sigma2"],
        derive(seed, "random-attack-clean"), replicates, threads,
    )
    sim_ratio = masked_mean / clean_mean
    sim_se = sim_ratio * np.sqrt(
        (masked_se / masked_mean) ** 2 + (clean_se / clean_mean) ** 2
    )
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


def _write_csv(out_dir, name: str, text: str) -> str:
    """Write ``text`` to ``<out_dir>/<name>.csv``, creating the directory; return the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
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
    scenarios = {
        "deterministic": lambda: _reproduce_deterministic(seed, realizations),
        "rls": lambda: _reproduce_rls(seed, realizations),
        "random": lambda: _reproduce_random(seed, replicates, threads),
    }
    if which == "all":
        selected = list(scenarios)
    elif which in scenarios:
        selected = [which]
    else:
        raise ParameterError(f"which must be one of {tuple(scenarios) + ('all',)}, got {which!r}")

    all_rows: List[MetricRow] = []
    for name in selected:
        rows = scenarios[name]()
        all_rows.extend(rows)
        if out_dir is not None:
            _write_csv(out_dir, name, rows_to_csv(rows))
    return all_rows
