"""Semantic invariants of the analysis and design kernels, checked with Hypothesis.

Bit-exact reference values also pin rounding, so they move with any change of
solver.  The relations here hold for every correct kernel:

* power-of-two scaling is exact in binary floating point, so scaling a record
  by 2^k scales the LS quadratic's matrix by 4^-k, its offset by 16^-k when
  sigma2 scales by 4^-k, the RLS gain by 2^-k when eta scales by 4^k, and
  leaves the capped design as it was, all bit for bit;
* every stacked entry point equals its per-record call, bit for bit;
* every trace quadratic is persymmetric, so every designed filter is even or odd
  (to 4 eps of 1 - |l . Jl| / (l . l)).

Examples are derandomized and their number fixed, so the module runs the same
cases every time.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firpriv.design import (
    RandomInputModel, design_input_capped, design_output_capped, design_output_random,
    design_output_weighted, estimate_expected_quadratic,
)
from firpriv.estimators import (
    Kernel, ls_gram_inverse, ls_trace_quadratic, rls_gain, rls_trace_quadratic,
    stable_spline_kernel,
)
from firpriv.lti import RationalFilter, build_regressor, generate_filtered_input

N_H = 9
N_L = 10
SIGMA2 = 1.0
GAMMA1 = 2.0
KERNEL = Kernel(stable_spline_kernel(N_H, 0.7), eta=0.1)
H_TRUE = 0.8 ** np.arange(N_H)
FILTER = RationalFilter([1.0], [1.0, -0.95])

EXAMPLES = settings(derandomize=True, max_examples=30, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
lengths = st.integers(min_value=N_H + 2, max_value=120)
powers = st.integers(min_value=-3, max_value=5)


def record(seed: int, n: int) -> np.ndarray:
    return generate_filtered_input(FILTER, n, seed)


def parity_defect(l: np.ndarray) -> float:
    """``1 - |l . Jl| / (l . l)``, with J the reversal: 0 for an even or odd filter."""
    return 1.0 - abs(float(l @ l[::-1])) / float(l @ l)


class TestPowerOfTwoScaling:
    @EXAMPLES
    @given(seed=seeds, n=lengths, k=powers)
    def test_ls_quadratic_scales_by_four_and_sixteen(self, seed, n, k):
        r = record(seed, n)
        quad = ls_trace_quadratic(build_regressor(r, N_H), SIGMA2, N_L)
        scaled = ls_trace_quadratic(build_regressor(r * 2.0**k, N_H), SIGMA2 * 4.0**-k, N_L)
        np.testing.assert_array_equal(scaled.matrix, quad.matrix * 4.0**-k)
        assert scaled.offset == quad.offset * 16.0**-k

    @EXAMPLES
    @given(seed=seeds, n=lengths, k=powers)
    def test_capped_design_is_unchanged(self, seed, n, k):
        r = record(seed, n)
        quad = ls_trace_quadratic(build_regressor(r, N_H), SIGMA2, N_L)
        scaled = ls_trace_quadratic(build_regressor(r * 2.0**k, N_H), SIGMA2, N_L)
        np.testing.assert_array_equal(
            design_output_capped(scaled, SIGMA2, GAMMA1).l_star,
            design_output_capped(quad, SIGMA2, GAMMA1).l_star,
        )

    @EXAMPLES
    @given(seed=seeds, n=lengths, k=powers)
    def test_rls_gain_scales_by_two(self, seed, n, k):
        reg = build_regressor(record(seed, n), N_H)
        scaled_kernel = Kernel(KERNEL.matrix, eta=KERNEL.eta * 4.0**k)
        np.testing.assert_array_equal(
            rls_gain(reg * 2.0**k, scaled_kernel), rls_gain(reg, KERNEL) * 2.0**-k
        )


class TestStacks:
    @EXAMPLES
    @given(seed=st.integers(min_value=0, max_value=2**20), n=lengths,
           count=st.integers(min_value=2, max_value=5))
    def test_stacked_calls_equal_per_record_calls(self, seed, n, count):
        batch = list(range(seed, seed + count))
        records = generate_filtered_input(FILTER, n, batch)
        regs = build_regressor(records, N_H)
        inverses = ls_gram_inverse(regs)
        gains = rls_gain(regs, KERNEL)
        ls_quads = ls_trace_quadratic(regs, SIGMA2, N_L)
        rls_quads = rls_trace_quadratic(regs, H_TRUE, KERNEL, SIGMA2, N_L)
        for i, s in enumerate(batch):
            r = generate_filtered_input(FILTER, n, s)
            np.testing.assert_array_equal(records[i], r)
            reg = build_regressor(r, N_H)
            np.testing.assert_array_equal(regs[i], reg)
            np.testing.assert_array_equal(inverses[i], ls_gram_inverse(reg))
            np.testing.assert_array_equal(gains[i], rls_gain(reg, KERNEL))
            for stacked, single in (
                (ls_quads[i], ls_trace_quadratic(reg, SIGMA2, N_L)),
                (rls_quads[i], rls_trace_quadratic(reg, H_TRUE, KERNEL, SIGMA2, N_L)),
            ):
                np.testing.assert_array_equal(stacked.matrix, single.matrix)
                np.testing.assert_array_equal(stacked.estimator_map, single.estimator_map)
                assert (stacked.offset, stacked.bias, stacked.noise_gain) == (
                    single.offset, single.bias, single.noise_gain
                )


class TestParity:
    @EXAMPLES
    @given(seed=seeds, n=lengths, adversary=st.sampled_from(["ls", "rls"]))
    def test_fixed_record_designs_are_even_or_odd(self, seed, n, adversary):
        r = record(seed, n)
        reg = build_regressor(r, N_H)
        if adversary == "ls":
            kernel, quad = None, ls_trace_quadratic(reg, SIGMA2, N_L)
        else:
            kernel, quad = KERNEL, rls_trace_quadratic(reg, H_TRUE, KERNEL, SIGMA2, N_L)
        for design in (design_output_capped(quad, SIGMA2, GAMMA1),
                       design_output_weighted(quad, 1e-3, SIGMA2)):
            l = design.l_star
            if not design.active_constraint:  # the zero filter
                continue
            assert parity_defect(l) <= 4 * np.finfo(float).eps
            assert quad.evaluate(l[::-1]) == pytest.approx(quad.evaluate(l), rel=1e-13)
        # The input design's quadratic H'MH is persymmetric too.
        design = design_input_capped(r, H_TRUE, SIGMA2, GAMMA1, N_L, kernel)
        if design.active_constraint:
            assert parity_defect(design.l_star) <= 4 * np.finfo(float).eps

    @EXAMPLES
    @given(seed=seeds)
    def test_random_input_design_is_even_or_odd(self, seed):
        model = RandomInputModel.uniform_gaussian(20, 40, theta=5, vartheta=20)
        quad = estimate_expected_quadratic(model, N_H, N_L, SIGMA2, seed=seed, threads=1)
        l = design_output_random(quad, SIGMA2, GAMMA1).l_star
        assert parity_defect(l) <= 4 * np.finfo(float).eps
