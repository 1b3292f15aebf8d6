"""The package's public name list and the scalar and shape checks of its entry points."""
import numpy as np
import pytest

import firpriv
from firpriv.rng import replicate_stream


def test_all_is_sorted_unique_and_resolves():
    names = firpriv.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(firpriv, name)]
    assert not missing
    namespace = {}
    exec("from firpriv import *", namespace)
    assert set(names) <= set(namespace)


# Each call passes one NaN or infinite scalar to a public entry point.
INF, NAN = float("inf"), float("nan")
_R = [1.0, -0.5, 0.25, 2.0, -1.0]


def _quad():
    return firpriv.ls_trace_quadratic(firpriv.build_regressor(_R, 2), 1.0, 2)


NON_FINITE_CALLS = {
    "simulate sigma2=inf": (lambda: firpriv.simulate(firpriv.FirModel([1.0]), _R, sigma2=INF),
                            "sigma2"),
    "analyze_records sigma2=inf": (
        lambda: firpriv.analyze_records(firpriv.build_regressor(_R, 2), INF, 2), "sigma2"),
    "ls_covariance sigma2=inf": (
        lambda: firpriv.ls_covariance(firpriv.build_regressor(_R, 2), sigma2=INF), "sigma2"),
    "privacy_audit sigma2=inf": (
        lambda: firpriv.privacy_audit([1.0], firpriv.CoefficientBox(0, 1, 1), 1.0, 1.0, INF),
        "sigma2"),
    "laplace epsilon=inf": (lambda: firpriv.laplace_mechanism(INF, 1.0), "epsilon"),
    "laplace epsilon=nan": (lambda: firpriv.laplace_mechanism(NAN, 1.0), "epsilon"),
    "laplace sensitivity=nan": (lambda: firpriv.laplace_mechanism(1.0, NAN), "sensitivity"),
    "laplace sensitivity=inf": (lambda: firpriv.laplace_mechanism(1.0, INF), "sensitivity"),
    "laplace sigma2=inf": (lambda: firpriv.laplace_mechanism(1.0, 1.0, INF), "sigma2"),
    "laplace variance overflow": (lambda: firpriv.laplace_mechanism(1e-160, 20.0),
                                  "noise variance"),
    "laplace scale overflow": (lambda: firpriv.laplace_mechanism(1e-310, 1.0), "noise variance"),
    "gaussian epsilon=inf": (lambda: firpriv.gaussian_mechanism(INF, 1e-5, 1.0), "epsilon"),
    "gaussian sensitivity=nan": (lambda: firpriv.gaussian_mechanism(1.0, 1e-5, NAN),
                                 "l2_sensitivity"),
    "gaussian sensitivity=inf": (lambda: firpriv.gaussian_mechanism(1.0, 1e-5, INF),
                                 "l2_sensitivity"),
    "gaussian variance overflow": (lambda: firpriv.gaussian_mechanism(1e-300, 1e-5, 1.0),
                                   "noise variance"),
    "quadratic offset=nan": (lambda: firpriv.TraceQuadratic(np.eye(2), NAN), "quadratic"),
    "capped gamma1=inf": (lambda: firpriv.design_output_capped(_quad(), 1.0, INF), "gamma1"),
    "capped sigma2=inf": (lambda: firpriv.design_output_capped(_quad(), INF, INF), "sigma2"),
    "weighted gamma2=inf": (lambda: firpriv.design_output_weighted(_quad(), INF), "gamma2"),
    "mechanism gaussian scale=-1": (
        lambda: firpriv.DpMechanism("gaussian", -1.0, 1.0, 1e-5, 1.0, 2.0), "scale"),
    "mechanism laplace scale=-1": (
        lambda: firpriv.DpMechanism("laplace", -1.0, 1.0, 0.0, -5.0, 2.0), "scale"),
    "mechanism laplace sensitivity=-5": (
        lambda: firpriv.DpMechanism("laplace", 1.0, 1.0, 0.0, -5.0, 2.0), "sensitivity"),
    "mechanism laplace sensitivity=nan": (
        lambda: firpriv.DpMechanism("laplace", 1.0, 1.0, 0.0, NAN, 2.0), "sensitivity"),
    "privacy_audit b=inf": (
        lambda: firpriv.privacy_audit([0.3, -0.2, 0.5], firpriv.CoefficientBox(-0.5, 0.5, 2),
                                      1.0, INF), "b"),
    "privacy_audit b=1e307": (
        lambda: firpriv.privacy_audit([0.3, -0.2, 0.5], firpriv.CoefficientBox(-0.5, 0.5, 2),
                                      1.0, 1e307), "audit grid span"),
    "box upper=inf": (lambda: firpriv.CoefficientBox(0.0, INF, 2), "box upper bound"),
    "kernel eta=inf": (lambda: firpriv.Kernel([[1.0]], eta=INF), "eta"),
    "random model probability=nan": (
        lambda: firpriv.RandomInputModel([10, 11, 12], [NAN, 0.5, 0.5], 1, 1), "probabilities"),
    "random model length=nan": (
        lambda: firpriv.RandomInputModel([10, NAN], [0.5, 0.5], 1, 1), "lengths"),
    "random model theta=nan": (
        lambda: firpriv.RandomInputModel([10, 11], [0.5, 0.5], NAN, 1), "theta"),
    "random model vartheta=inf": (
        lambda: firpriv.RandomInputModel([10, 11], [0.5, 0.5], 1, INF), "vartheta"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_scalars_rejected(case):
    call, name = NON_FINITE_CALLS[case]
    with pytest.raises(firpriv.ParameterError, match=f"{name} must be finite"):
        call()


@pytest.mark.parametrize(
    "address",
    [(-1,), (-1, "attack"), (0, "attack", -2),
     (1.5,), (NAN,), (0, "attack", 2.7), (0, "attack", INF)],
    ids=["seed", "seed+path", "path", "float seed", "nan seed", "float path", "inf path"],
)
def test_stream_address_must_be_nonnegative_integers(address):
    for entry in (firpriv.stream, firpriv.derive, replicate_stream):
        with pytest.raises(firpriv.ParameterError, match="must be nonnegative"):
            entry(*address)


def test_replicate_stream_repeats_its_address_and_differs_from_stream():
    draws = replicate_stream(3, "attack", 1).standard_normal(64)
    assert (replicate_stream(3, "attack", 1).standard_normal(64) == draws).all()
    assert not (replicate_stream(3, "attack", 2).standard_normal(64) == draws).any()
    assert not (firpriv.stream(3, "attack", 1).standard_normal(64) == draws).any()


_G = firpriv.RationalFilter([1.0, -0.2], [1.0, -0.9, 0.17])
_CONFIG = """
plant_type = rational
plant_num = 1, -0.2
plant_den = 1, -0.9, 0.17
plant_fir_order = 9
input_type = white
input_length = 50
design_type = output_capped
noise_order = 3
sigma2 = 1.0
gamma1 = 2.0
"""


def _mechanism(kind, delta):
    return lambda: firpriv.DpMechanism(kind, 1.0, 1.0, delta, 1.0, 2.0)


def _kernel(n):
    return firpriv.Kernel(np.eye(n), 1.0)


# Each call breaks one shape or range guard of a public entry point.
TYPED_GUARD_CALLS = {
    "FirModel 2-D": (lambda: firpriv.FirModel([[1, 2]]), firpriv.DimensionError),
    "FirModel empty": (lambda: firpriv.FirModel([]), firpriv.DimensionError),
    "fir_truncate order=0": (lambda: firpriv.fir_truncate(_G, 0), firpriv.ParameterError),
    "build_regressor n_h=0": (lambda: firpriv.build_regressor(_R, 0), firpriv.ParameterError),
    "convolution_matrix n_cols=0": (
        lambda: firpriv.convolution_matrix([1.0], 0), firpriv.ParameterError),
    "generate_filtered_input n=0": (
        lambda: firpriv.generate_filtered_input(_G, 0), firpriv.ParameterError),
    "analyze_records n_l=0": (
        lambda: firpriv.analyze_records(firpriv.build_regressor(_R, 2), 1.0, 0),
        firpriv.ParameterError),
    "estimate_expected_quadratic n_l=0": (
        lambda: firpriv.estimate_expected_quadratic(
            firpriv.RandomInputModel([10, 11], [0.5, 0.5], 1, 1), 3, 0, 0.5),
        firpriv.ParameterError),
    "box n_h=0": (lambda: firpriv.CoefficientBox(0, 1, 0), firpriv.ParameterError),
    "mechanism kind=uniform": (_mechanism("uniform", 0.0), firpriv.ParameterError),
    "laplace delta!=0": (_mechanism("laplace", 0.1), firpriv.ParameterError),
    "gaussian delta=1.5": (_mechanism("gaussian", 1.5), firpriv.ParameterError),
    "sample_mechanism n=0": (
        lambda: firpriv.sample_mechanism(firpriv.laplace_mechanism(1.0, 1.0), 0),
        firpriv.ParameterError),
    "privacy_audit b=0": (
        lambda: firpriv.privacy_audit([1.0], firpriv.CoefficientBox(0, 1, 1), 1.0, 0.0),
        firpriv.ParameterError),
    "kernel non-square": (lambda: firpriv.Kernel(np.ones((2, 3)), 1.0), firpriv.DimensionError),
    "ls_estimate y length": (
        lambda: firpriv.ls_estimate(firpriv.build_regressor(_R, 2), [1.0, 2.0]),
        firpriv.DimensionError),
    "rls_estimate y length": (
        lambda: firpriv.rls_estimate(firpriv.build_regressor(_R, 2), [1.0, 2.0], _kernel(2)),
        firpriv.DimensionError),
    "rls_gain kernel size": (
        lambda: firpriv.rls_gain(firpriv.build_regressor(_R, 2), _kernel(3)),
        firpriv.DimensionError),
    "random model unequal sizes": (
        lambda: firpriv.RandomInputModel([10, 11, 12], [0.5, 0.5], 1, 1),
        firpriv.DimensionError),
    "capped non-square quadratic": (
        lambda: firpriv.design_output_capped(
            firpriv.TraceQuadratic(np.ones((2, 3)), 0.5), 1.0, 2.0),
        firpriv.DimensionError),
    "capped NaN quadratic": (
        lambda: firpriv.design_output_capped(
            firpriv.TraceQuadratic(np.full((2, 2), NAN), 1.0), 1.0, 2.0),
        firpriv.ParameterError),
    "weighted NaN quadratic": (
        lambda: firpriv.design_output_weighted(
            firpriv.TraceQuadratic(np.full((2, 2), NAN), 1.0), 1.0),
        firpriv.ParameterError),
    "random zero-offset quadratic": (
        lambda: firpriv.design_output_random(firpriv.TraceQuadratic(np.eye(2), 0.0), 1.0, 2.0),
        firpriv.ParameterError),
    "kernel zero matrix": (lambda: firpriv.Kernel(np.zeros((2, 2)), 1.0),
                           firpriv.SingularKernelError),
    "sample_mechanism n=2.5": (
        lambda: firpriv.sample_mechanism(firpriv.laplace_mechanism(1.0, 1.0), 2.5),
        firpriv.ParameterError),
    "build_regressor n_h=2.5": (lambda: firpriv.build_regressor(_R, 2.5), firpriv.ParameterError),
    "impulse_response n=2.5": (lambda: firpriv.impulse_response(_G, 2.5), firpriv.ParameterError),
    "fir_truncate order=2.5": (lambda: firpriv.fir_truncate(_G, 2.5), firpriv.ParameterError),
    "generate_filtered_input n=2.5": (
        lambda: firpriv.generate_filtered_input(_G, 2.5), firpriv.ParameterError),
    "convolution_matrix n_cols=2.5": (
        lambda: firpriv.convolution_matrix([1.0], 2.5), firpriv.ParameterError),
    "build_filter_matrix n_samples=2.5": (
        lambda: firpriv.build_filter_matrix([1.0, 0.5], 2.5), firpriv.ParameterError),
    "stable_spline_kernel n_h=2.5": (
        lambda: firpriv.stable_spline_kernel(2.5, 0.5), firpriv.ParameterError),
    "box n_h=2.5": (lambda: firpriv.CoefficientBox(0, 1, 2.5), firpriv.ParameterError),
    "analyze_records n_l=2.5": (
        lambda: firpriv.analyze_records(firpriv.build_regressor(_R, 2), 1.0, 2.5),
        firpriv.ParameterError),
    "estimate_expected_quadratic n_l=2.5": (
        lambda: firpriv.estimate_expected_quadratic(
            firpriv.RandomInputModel([10, 11], [0.5, 0.5], 1, 1), 3, 2.5, 0.5),
        firpriv.ParameterError),
    "estimate_expected_quadratic threads=1.5": (
        lambda: firpriv.estimate_expected_quadratic(
            firpriv.RandomInputModel([10, 11], [0.5, 0.5], 1, 1), 3, 2, 0.5, threads=1.5),
        firpriv.ParameterError),
    "reproduce realizations=2.5": (
        lambda: firpriv.reproduce(realizations=2.5), firpriv.ParameterError),
    "config replicates=0": (
        lambda: firpriv.parse_config_text(_CONFIG + "replicates = 0\n"), firpriv.ConfigError),
    "config plant_coeffs=,": (
        lambda: firpriv.parse_config_text(
            _CONFIG.replace("plant_type = rational", "plant_type = fir\nplant_coeffs = ,")),
        firpriv.ConfigError),
    "config plant_type=iir": (
        lambda: firpriv.parse_config_text(
            _CONFIG.replace("plant_type = rational", "plant_type = iir")),
        firpriv.ConfigError),
    "config adversary=gls": (
        lambda: firpriv.parse_config_text(_CONFIG + "adversary = gls\n"), firpriv.ConfigError),
}


@pytest.mark.parametrize("case", sorted(TYPED_GUARD_CALLS))
def test_guards_raise_their_typed_error(case):
    call, error = TYPED_GUARD_CALLS[case]
    with pytest.raises(firpriv.FirprivError) as info:
        call()
    assert type(info.value) is error


def test_numpy_integer_counts_pass():
    count = np.int64(3)
    assert firpriv.build_regressor(_R, count).shape == (5, 3)
    assert firpriv.stable_spline_kernel(count, 0.5).shape == (3, 3)
    assert firpriv.build_filter_matrix([1.0, 0.5], count).n_samples == 3
    assert firpriv.derive(count, np.uint8(2)) == firpriv.derive(3, 2)
