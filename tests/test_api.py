"""The package's public name list and the scalar checks of its entry points."""
import pytest

import firpriv


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
    "gaussian epsilon=inf": (lambda: firpriv.gaussian_mechanism(INF, 1e-5, 1.0), "epsilon"),
    "gaussian sensitivity=nan": (lambda: firpriv.gaussian_mechanism(1.0, 1e-5, NAN),
                                 "l2_sensitivity"),
    "gaussian sensitivity=inf": (lambda: firpriv.gaussian_mechanism(1.0, 1e-5, INF),
                                 "l2_sensitivity"),
    "capped gamma1=inf": (lambda: firpriv.design_output_capped(_quad(), 1.0, INF), "gamma1"),
    "capped sigma2=inf": (lambda: firpriv.design_output_capped(_quad(), INF, INF), "sigma2"),
    "weighted gamma2=inf": (lambda: firpriv.design_output_weighted(_quad(), INF), "gamma2"),
    "box upper=inf": (lambda: firpriv.CoefficientBox(0.0, INF, 2), "box upper bound"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CALLS))
def test_non_finite_scalars_rejected(case):
    call, name = NON_FINITE_CALLS[case]
    with pytest.raises(firpriv.ParameterError, match=f"{name} must be finite"):
        call()


@pytest.mark.parametrize(
    "address", [(-1,), (-1, "attack"), (0, "attack", -2)], ids=["seed", "seed+path", "path"]
)
def test_negative_stream_address_rejected(address):
    for entry in (firpriv.stream, firpriv.derive):
        with pytest.raises(firpriv.ParameterError, match="must be nonnegative"):
            entry(*address)
