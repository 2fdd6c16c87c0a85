"""Closed-form and quadrature MI predictors against independent oracles.

The exponential-expectation kernel is checked against direct adaptive
quadrature of its defining integral; the normal-quadrature DC terms of the
1/f predictors are re-derived in-test with an independent integral; the
transmissivity optimizers are checked against brute-force grids.
"""

import functools
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from apmi import asymptotic
from apmi import (
    InvalidArgumentError,
    NoiseModel,
    ScenePrior,
    explog_exp1,
    gen_mls,
    gen_mura,
    mi_excluding_dc,
    mutual_information,
    optimal_p_iid,
    optimal_p_onef,
    predict_bernoulli_iid,
    predict_bernoulli_onef,
    predict_flat_iid,
    predict_flat_onef,
    predict_gaussian_onef,
    predict_pinhole,
    predict_uniform_iid,
    spectral_weights,
)


def explog_quad_oracle(c):
    """Direct adaptive quadrature of E[ln(cY+1)], Y ~ Exp(1)."""
    val, err = integrate.quad(lambda y: math.log1p(c * y) * math.exp(-y),
                              0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert err < 1e-10
    return val


def normal_log_oracle(gamma_, mean, sd):
    """Direct quadrature of E[ln(gamma*X^2+1)], X ~ N(mean, sd^2)."""
    def f(x):
        z = (x - mean) / sd
        return (math.log1p(gamma_ * x * x)
                * math.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi)))
    val, err = integrate.quad(f, mean - 12 * sd, mean + 12 * sd,
                              epsabs=1e-11, epsrel=1e-11, limit=400)
    assert err < 1e-8
    return val


def explog_scalar_reference(c):
    """Scalar reference kernel in plain Python floats, one value per call;
    explog_exp1 must reproduce it bit for bit, on scalars and arrays."""
    if not np.isfinite(c) or c < 0:
        raise InvalidArgumentError(f"need finite c >= 0, got {c}")
    if c == 0.0:
        return 0.0
    if c < 1.0 / 600.0:
        acc = 0.0
        term = c
        for k in range(1, 9):
            acc += term
            term *= -k * c
        return acc
    x = 1.0 / c
    return float(math.exp(x) * special.exp1(x))


class TestExplogKernel:
    # spans the series branch (below ~1/600) and the E1-identity branch
    GRID = [1e-4, 5e-4, 1 / 601, 1 / 599, 2e-3, 0.01, 0.1, 0.5, 1.0,
            2.0, 10.0, 100.0, 1e4]

    @pytest.mark.parametrize("c", GRID)
    def test_matches_direct_quadrature(self, c):
        assert explog_exp1(c) == pytest.approx(explog_quad_oracle(c),
                                               abs=1e-9)

    def test_frozen_values(self):
        assert explog_exp1(0.0) == 0.0
        # e * E1(1), independently: scipy quad gave 0.59634736232319...
        assert explog_exp1(1.0) == pytest.approx(0.5963473623231946,
                                                 abs=1e-10)
        assert explog_exp1(0.001) == pytest.approx(0.000999, abs=5e-7)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            explog_exp1(-0.1)
        with pytest.raises(InvalidArgumentError):
            explog_exp1(float("nan"))
        with pytest.raises(InvalidArgumentError):
            explog_exp1(float("inf"))

    def test_strictly_increasing(self):
        vals = [explog_exp1(c) for c in np.logspace(-5, 3, 60)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_concave(self):
        cs = np.linspace(0.05, 20.0, 120)
        vals = np.array([explog_exp1(c) for c in cs])
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second < 0)

    def test_small_c_linear(self):
        # E[log(cY+1)] = c - c^2 + O(c^3), so the ratio to c tends to 1
        for c in (1e-6, 1e-5, 1e-4, 1e-3):
            assert abs(explog_exp1(c) / c - 1.0) < 2 * c

    def test_continuous_at_series_cutoff(self):
        cutoff = 1.0 / 600.0
        lo = explog_exp1(cutoff - 1e-12)
        hi = explog_exp1(cutoff + 1e-12)
        # the derivative is ~1 here, so the points sit ~2e-12 apart
        assert abs(hi - lo) < 1e-10

    @given(st.floats(min_value=1e-4, max_value=1e3))
    @settings(max_examples=30, deadline=None)
    def test_below_log_of_mean_plus_one(self, c):
        # Jensen: E[log(cY+1)] <= log(c E[Y] + 1) = log(c+1)
        assert explog_exp1(c) <= math.log1p(c) + 1e-12

    def test_array_bitwise_equals_scalar_reference(self):
        """A scalar is computed in math, not numpy.  Each form of an input (a
        float, an int where exact, an np.float64) gives a Python float with the
        bits of the matching array element and of the reference kernel."""
        cutoff = asymptotic._SERIES_CUTOFF
        cs = np.concatenate([np.logspace(-8, 8, 20001),
                             [0.0, -0.0, cutoff, np.nextafter(cutoff, 0.0),
                              np.nextafter(cutoff, 1.0), 5e-324, 1e300]])
        got = explog_exp1(cs)
        assert isinstance(got, np.ndarray) and got.shape == cs.shape
        expected = np.array([explog_scalar_reference(float(c)) for c in cs])
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(explog_exp1(cs.reshape(8, -1)),
                                      got.reshape(8, -1))
        for c, want in zip(cs.tolist(), expected.tolist()):
            for form in [c, np.float64(c)] + ([int(c)] if c.is_integer() else []):
                value = explog_exp1(form)
                assert type(value) is float
                assert value.hex() == want.hex(), (c, type(form))

    @pytest.mark.parametrize("c, bits", [
        (np.float32(0.3), "0x1.ec3fb5b5c441cp-3"), (np.float32(1e-4), "0x1.a36371c549ff3p-14"),
        (np.float64(1e-4), "0x1.a36372770518cp-14"), (np.int64(3), "0x1.282470be325a2p+0"),
        (7, "0x1.bceb910423458p+0"),
    ])
    def test_scalar_types_keep_their_bits(self, c, bits):
        """numpy ints and floats and ints are scalars (numbers.Real) and take
        the math path: each returns a Python float with these pinned bits."""
        value = explog_exp1(c)
        assert type(value) is float and value.hex() == bits

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "1", ["1", "2"], np.array([True]),
                                     [0.5, None]], ids=repr)
    def test_bool_str_and_object_rejected(self, bad):
        """A bool is no scalar, and an array that is not ints or floats is no c,
        though a bool or a numeric string would convert to a float."""
        with pytest.raises(InvalidArgumentError,
                           match=f"^need finite c >= 0, got {re.escape(repr(bad))}$"):
            explog_exp1(bad)

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                            (-math.inf, "-inf"), (-1, "-1.0")])
    def test_scalar_and_array_reject_with_one_message(self, bad, shown):
        for form in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad, 2.0])):
            with pytest.raises(InvalidArgumentError,
                               match=f"^need finite c >= 0, got {re.escape(shown)}$"):
                explog_exp1(form)

    def test_zero_dim_and_empty_arrays(self):
        for c in (0.0, 1e-4, 0.5):
            value = explog_exp1(np.array(c))
            assert type(value) is float and value == explog_exp1(c)
        assert explog_exp1(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-300])
    def test_array_rejects_bad_element(self, bad):
        with pytest.raises(InvalidArgumentError):
            explog_exp1(np.array([0.5, bad, 2.0]))

    def test_abs_tol_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        cs = np.concatenate([np.logspace(-8, 8, 161),
                             [1.0 / 600.0, np.nextafter(1.0 / 600.0, 0.0)]])
        got = explog_exp1(cs)
        with mpmath.workdps(40):
            for c, value in zip(cs, got):
                x = 1 / mpmath.mpf(float(c))
                exact = mpmath.exp(x) * mpmath.e1(x)
                assert abs(float(value) - exact) <= asymptotic.EXPLOG_ABS_TOL, c

    @pytest.mark.parametrize("c", [float(np.nextafter(1.0 / 600.0, 0.0)), 1e-4])
    def test_series_truncation_bound_against_mpmath(self, c):
        # The 8-term series ends at -7! c^8, so its error is bounded by the
        # first omitted term, 8! c^9 (about 4e-21 just below the cutoff).
        mpmath = pytest.importorskip("mpmath")
        bound = math.factorial(8) * c ** 9
        with mpmath.workdps(60):
            cm = mpmath.mpf(c)
            exact = mpmath.exp(1 / cm) * mpmath.e1(1 / cm)
            series = sum((-1) ** k * mpmath.factorial(k) * cm ** (k + 1) for k in range(8))
            assert abs(series - exact) <= bound
            assert abs(mpmath.mpf(explog_exp1(c)) - exact) <= bound + 2 * math.ulp(float(exact))

    @pytest.mark.parametrize("cs", [
        np.logspace(-8, -3, 600).reshape(20, 30),  # every element on the series
        np.logspace(-2, 8, 600).reshape(20, 30),   # every element on the identity
        np.array(1e-5), np.array(3.0),
    ])
    def test_single_branch_arrays_bitwise_equal_scalar_reference(self, cs):
        got = explog_exp1(cs)
        expected = np.array([explog_scalar_reference(c) for c in cs.ravel().tolist()])
        np.testing.assert_array_equal(np.asarray(got).ravel().view(np.int64),
                                      expected.view(np.int64))
        assert np.shape(got) == cs.shape


@pytest.mark.parametrize("predict, args", [
    (predict_pinhole, (1, 1e-320, 0.0)),
    (predict_flat_iid, (0.0, 1e-320)),
    (predict_bernoulli_iid, (0.3, 0.0, 1e-320)),
    (predict_uniform_iid, (0.0, 1e-320)),
    (predict_flat_onef, (11, 0.0, 1e-320)),
    (predict_gaussian_onef, (11, 0.0, 1e-320)),
    (predict_bernoulli_onef, (11, 0.3, 0.0, 1e-320)),
])
def test_noise_without_finite_inverse_rejected(predict, args):
    """A valid NoiseModel whose total noise is nonzero but too small for
    1/total to be finite is rejected, not turned into an infinite gamma."""
    with pytest.raises(InvalidArgumentError, match="too small to invert"):
        predict(*args)


class TestPinholePredictor:
    def test_frozen(self):
        assert predict_pinhole(1, 0.0, 1.0).value == pytest.approx(
            math.log(2), rel=1e-12)
        assert predict_pinhole(4, 0.0, 1.0).value == pytest.approx(
            math.log(2), rel=1e-12)

    def test_matches_exact_mi(self):
        from apmi import gen_pinhole
        pred = predict_pinhole(4, 0.0, 1.0).value
        exact = mutual_information(gen_pinhole(4), ScenePrior.IID,
                                   NoiseModel(0.0, 1.0)).per_pixel
        assert pred == pytest.approx(exact, rel=1e-12)

    def test_vanishes_for_large_n(self):
        vals = [predict_pinhole(n, 0.1, 1.0).value
                for n in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidArgumentError):
            predict_pinhole(4, 0.0, 0.0)


class TestFlatIID:
    def test_frozen(self):
        assert predict_flat_iid(0.0, 1.0).value == pytest.approx(
            math.log(1.5), rel=1e-12)
        assert predict_flat_iid(0.01, 1.0).value == pytest.approx(
            math.log(1 + 0.25 / 0.51), rel=1e-12)

    def test_metadata(self):
        res = predict_flat_iid(0.0, 1.0)
        assert res.kind == "per_pixel"
        assert res.method == "closed_form"
        assert res.est_abs_error == 0.0

    def test_mls_degree12_approaches_limit(self):
        noise = NoiseModel(0.01, 1.0)
        limit = predict_flat_iid(0.01, 1.0).value
        full = mutual_information(gen_mls(12), ScenePrior.IID,
                                  noise).per_pixel
        assert abs(full - limit) / limit < 0.005
        # DC-excluded converges an order of magnitude tighter
        assert abs(mi_excluding_dc(gen_mls(12), noise) - limit) / limit < 5e-4

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidArgumentError):
            predict_flat_iid(0.0, 0.0)

    def test_rejects_half_shot_noise_underflow(self):
        # a valid NoiseModel whose J/2 rounds to zero: W + J/2 is still checked
        with pytest.raises(InvalidArgumentError, match=r"W \+ J/2 must be positive"):
            predict_flat_iid(0.0, 5e-324)


class TestBernoulliIID:
    def test_frozen_half(self):
        res = predict_bernoulli_iid(0.5, 0.0, 1.0)
        assert res.value == pytest.approx(explog_exp1(0.5), rel=1e-12)
        assert res.value == pytest.approx(0.361328, abs=1e-6)
        assert res.value < predict_flat_iid(0.0, 1.0).value

    def test_vanishes_as_p_to_zero(self):
        # with a thermal floor the MI coefficient p(1-p)/(W+pJ) -> 0
        assert predict_bernoulli_iid(1e-8, 0.01, 1.0).value < 1e-5
        assert predict_bernoulli_iid(0.0, 0.01, 1.0).value == 0.0
        assert predict_bernoulli_iid(1.0, 0.01, 1.0).value == 0.0

    def test_flat_always_beats_half(self):
        for W in (0.0, 0.01, 0.5, 1.0, 10.0, 100.0):
            assert (predict_bernoulli_iid(0.5, W, 1.0).value
                    < predict_flat_iid(W, 1.0).value)

    def test_flat_dominates_all_p_when_thermal(self):
        flat = predict_flat_iid(100.0, 1.0).value
        for p in np.arange(0.01, 1.0, 0.01):
            assert predict_bernoulli_iid(float(p), 100.0, 1.0).value <= flat

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidArgumentError):
            predict_bernoulli_iid(1.5, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            predict_bernoulli_iid(0.0, 0.0, 1.0)  # W + pJ = 0


class TestOptimalPIID:
    def test_frozen(self):
        assert optimal_p_iid(1.0, 1.0) == pytest.approx(math.sqrt(2) - 1,
                                                        rel=1e-12)
        assert optimal_p_iid(100.0, 1.0) == pytest.approx(0.4988, abs=1e-4)
        assert optimal_p_iid(0.01, 1.0) == pytest.approx(
            0.01 * (math.sqrt(101) - 1), rel=1e-12)
        assert optimal_p_iid(0.01, 1.0) == pytest.approx(0.090499, abs=1e-6)

    def test_stationarity(self):
        for W, J in ((0.01, 1.0), (1.0, 1.0), (100.0, 1.0), (0.3, 2.5)):
            p = optimal_p_iid(W, J)
            residual = p * p * J + 2 * p * W - W
            assert abs(residual) <= 1e-10 * max(W, 1.0)

    @pytest.mark.parametrize("W,J", [(0.01, 1.0), (1.0, 1.0), (100.0, 1.0)])
    def test_grid_dominance(self, W, J):
        best = predict_bernoulli_iid(optimal_p_iid(W, J), W, J).value
        for p in np.arange(0.01, 1.0, 0.01):
            assert best >= predict_bernoulli_iid(float(p), W, J).value

    def test_weak_shot_noise_limit(self):
        # p* = 1 / (1 + sqrt(1 + J/W)) has no cancellation: at J/W = 1e-9 it
        # is 1/2 - J/(8W) to first order, exactly 0.499999999875 in floats
        assert optimal_p_iid(1.0, 1e-9) == pytest.approx(0.5 - 1.25e-10, abs=1e-15)

    @pytest.mark.parametrize("W, J", [(1.0, 1e-17), (1.0, 1e-20), (1.0, 1e-300),
                                      (1e-3, 1e-320), (1e308, 1e-308)],
                             ids=["1e-17", "1e-20", "1e-300", "0.001-1e-320", "1e+308-1e-308"])
    def test_thermal_limit_without_cancellation(self, W, J):
        """J/W below float resolution: p* is 1/2 (1/2 - J/(8W) to first
        order), not the 0 that W/J * (sqrt(1 + J/W) - 1) cancels to, even
        where W/J overflows."""
        assert optimal_p_iid(W, J) == 0.5
        best = predict_bernoulli_iid(optimal_p_iid(W, J), W, J).value
        assert best == predict_bernoulli_iid(0.5, W, J).value > 0

    def test_rejects_zero_powers(self):
        """W = 0 has no p* (the on-off MI grows as p falls to 0); J = 0 is
        the thermal limit, p* = 1/2 exactly."""
        with pytest.raises(InvalidArgumentError, match=r"^the closed form of p\* needs W > 0$"):
            optimal_p_iid(0.0, 1.0)
        assert optimal_p_iid(1.0, 0.0) == 0.5

    @pytest.mark.parametrize("W, J", [(1e-320, 1.0)])
    def test_rejects_non_finite_closed_form(self, W, J):
        """J/W overflows: the error names W and J, not the 0 p* the closed
        form would return."""
        with pytest.raises(InvalidArgumentError, match=re.escape(f"not finite at W={W}, J={J}")):
            optimal_p_iid(W, J)


class TestUniformIID:
    def test_frozen(self):
        res = predict_uniform_iid(0.0, 1.0, bulk_variance=1 / 24)
        assert res.value == pytest.approx(explog_exp1(1 / 12), rel=1e-12)

    def test_default_bulk_variance(self):
        assert predict_uniform_iid(0.0, 1.0).value == pytest.approx(
            predict_uniform_iid(0.0, 1.0, bulk_variance=1 / 24).value)

    def test_bernoulli_beats_uniform_on_band(self):
        # on-off masks with matching-or-larger bulk variance win
        lo = 0.5 - 1 / math.sqrt(6)
        uniform = predict_uniform_iid(0.0, 1.0, bulk_variance=1 / 24).value
        for p in np.linspace(lo, 0.5, 50):
            assert predict_bernoulli_iid(float(p), 0.0, 1.0).value > uniform

    def test_rejects_bad_variance(self):
        with pytest.raises(InvalidArgumentError):
            predict_uniform_iid(0.0, 1.0, bulk_variance=0.0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_variance(self, variance):
        """The error names bulk_variance, not the c it would feed explog_exp1."""
        with pytest.raises(InvalidArgumentError, match=f"bulk_variance .*, got {variance}$"):
            predict_uniform_iid(1.0, 1.0, bulk_variance=variance)


class TestFlatOneF:
    def test_frozen_n5(self):
        res = predict_flat_onef(5, 0.0, 1.0, form="midsum")
        # DC: log((5/4)/0.5 + 1) = log 3.5; single paired bulk term at k=2
        assert res.value == pytest.approx(
            math.log(3.5) + 2 * math.log(1.25), rel=1e-12)
        assert res.kind == "total"

    def test_midsum_matches_exact_flat_mask(self):
        noise = NoiseModel(0.01, 1.0)
        exact = mutual_information(gen_mura(257), ScenePrior.ONE_OVER_F,
                                   noise).total
        pred = predict_flat_onef(257, 0.01, 1.0, form="midsum").value
        assert abs(pred - exact) / exact <= 0.02

    def test_sublinear_growth(self):
        for form in ("midsum", "closed"):
            small = predict_flat_onef(101, 0.01, 1.0, form=form).value
            big = predict_flat_onef(405, 0.01, 1.0, form=form).value
            assert big / small < 4.0

    def test_rejects_negative_closed_form(self):
        """At low SNR and small n the closed form is a negative MI: rejected,
        while the midsum form stays positive."""
        with pytest.raises(InvalidArgumentError, match="closed form is negative.*midsum"):
            predict_flat_onef(5, 100.0, 1.0, form="closed")
        assert predict_flat_onef(5, 100.0, 1.0, form="midsum").value > 0

    def test_closed_form_undershoots_midsum(self):
        gaps = []
        for n in (257, 1001, 4001):
            ms = predict_flat_onef(n, 0.01, 1.0, form="midsum").value
            cf = predict_flat_onef(n, 0.01, 1.0, form="closed").value
            assert cf < ms
            gaps.append((ms - cf) / ms)
        assert gaps[0] > gaps[1] > gaps[2]  # approximation tightens with n

    def test_rejects_bad_n_and_form(self):
        with pytest.raises(InvalidArgumentError):
            predict_flat_onef(250, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError):
            predict_flat_onef(3, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError):
            predict_flat_onef(257, 0.01, 1.0, form="exact")


class TestGaussianOneF:
    def test_vanishes_with_noise(self):
        assert predict_gaussian_onef(101, 1e8, 1.0).value < 1e-5

    def test_decomposition_against_oracles(self):
        # gamma = 1: DC is E[ln(G^2+1)] over a standard normal, each paired
        # bulk frequency contributes explog_exp1(1/k)
        res = predict_gaussian_onef(101, 0.0, 1.0)
        dc = normal_log_oracle(1.0, mean=0.0, sd=1.0)
        bulk = 2 * math.fsum(explog_exp1(1.0 / k) for k in range(2, 51))
        assert res.value == pytest.approx(dc + bulk, abs=1e-6)
        assert res.method == "quadrature"
        assert 0 < res.est_abs_error < 1e-5

    def test_rejects_even_n(self):
        with pytest.raises(InvalidArgumentError):
            predict_gaussian_onef(100, 0.01, 1.0)


class TestBernoulliOneF:
    def test_decomposition_against_oracles(self):
        n, p, W, J = 101, 0.3, 0.01, 1.0
        g = 1.0 / (W + p * J)
        res = predict_bernoulli_onef(n, p, W, J)
        dc = normal_log_oracle(g, mean=p * math.sqrt(n),
                               sd=math.sqrt(p * (1 - p)))
        bulk = 2 * math.fsum(explog_exp1(p * (1 - p) * g / k)
                             for k in range(2, 51))
        assert res.value == pytest.approx(dc + bulk, abs=1e-6)

    def test_nearly_open_mask_limit(self):
        # p -> 1: bulk dies, DC tends to log(n p^2/(W+pJ) + 1)
        n, W, J = 101, 0.01, 1.0
        p = 1 - 1e-6
        dc_limit = math.log(n * p * p / (W + p * J) + 1)
        assert predict_bernoulli_onef(n, p, W, J).value == pytest.approx(
            dc_limit, rel=1e-4)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            predict_bernoulli_onef(100, 0.5, 0.01, 1.0)
        with pytest.raises(InvalidArgumentError):
            predict_bernoulli_onef(101, 1.5, 0.01, 1.0)

    def test_overflowing_dc_integrand_against_mpmath(self):
        """At W = 1e-307, J = 0 the DC integrand's gamma*(sd*g + mean)^2
        overflows a double, but the MI is finite: the prediction lies within
        its est_abs_error of 40-digit mpmath."""
        mpmath = pytest.importorskip("mpmath")
        n, p, W = 11, 0.5, 1e-307
        res = predict_bernoulli_onef(n, p, W, 0.0)
        with mpmath.workdps(40):
            g, pm = 1 / mpmath.mpf(W), mpmath.mpf(p)
            sd, mean = mpmath.sqrt(pm * (1 - pm)), pm * mpmath.sqrt(n)
            dc = mpmath.quad(lambda x: mpmath.log1p(g * (sd * x + mean) ** 2) * mpmath.npdf(x),
                             [-asymptotic.GAUSS_TRUNC_SD, -mean / sd, asymptotic.GAUSS_TRUNC_SD])
            x = [k / (pm * (1 - pm) * g) for k in range(2, (n - 1) // 2 + 1)]
            exact = dc + 2 * mpmath.fsum(mpmath.exp(xk) * mpmath.e1(xk) for xk in x)
        assert math.isfinite(res.value) and 0 < res.est_abs_error < 1e-7
        assert abs(res.value - exact) <= res.est_abs_error


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 14: the 1/f predictors sum the bulk pairs k = 2..(n-1)/2, while "
    "spectral_weights pairs k = 2..(n+1)/2; fixing the range moves golden bytes"))
@pytest.mark.parametrize("n", [5, 21, 101])
@pytest.mark.parametrize("which", ["flat-1f", "gaussian-1f", "bernoulli-1f"])
def test_onef_predictors_sum_the_model_weights(which, n):
    """Each 1/f predictor equals its DC term plus its own bulk term at
    gamma * d_k, summed over every d_k of spectral_weights(ONE_OVER_F, n)[1:],
    within its est_abs_error and 4 ulp (flat-1f, exact up to rounding: 1e-13
    relative).  W = 0.01, J = 1; gaussian-1f at rho*J = 1, bernoulli-1f at p = 0.3."""
    W, J, p = 0.01, 1.0, 0.3
    d = spectral_weights(ScenePrior.ONE_OVER_F, n)[1:]
    if which == "flat-1f":
        g = 1.0 / (W + J / 2.0)
        res = predict_flat_onef(n, W, J)
        parts = [math.log1p(g * n / 4.0), *np.log1p(g / 4.0 * d).tolist()]
    elif which == "gaussian-1f":
        g = 1.0 / (W + J)
        res = predict_gaussian_onef(n, W, J)
        parts = [asymptotic._normal_expect_log(g, 1.0, 0.0)[0], *explog_exp1(g * d).tolist()]
    else:
        g, var = 1.0 / (W + p * J), p * (1.0 - p)
        res = predict_bernoulli_onef(n, p, W, J)
        parts = [asymptotic._normal_expect_log(g, math.sqrt(var), p * math.sqrt(n))[0],
                 *explog_exp1(var * g * d).tolist()]
    reference = math.fsum(parts)
    tol = 1e-13 * reference if which == "flat-1f" else res.est_abs_error + 4 * math.ulp(reference)
    assert abs(res.value - reference) <= tol


def dc_quad_reference(gamma_, sd, mean):
    """scipy's public integrate.quad of _normal_expect_log's integrands, with its
    limits and tolerances: (value, error, whether the log-gamma form was needed)."""
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    options = dict(a=-asymptotic.GAUSS_TRUNC_SD, b=asymptotic.GAUSS_TRUNC_SD,
                   epsabs=asymptotic.GAUSS_QUAD_ABS_TOL, epsrel=1e-10, limit=200)
    val, err = integrate.quad(
        lambda g: math.log1p(gamma_ * (sd * g + mean) ** 2) * norm * math.exp(-0.5 * g * g),
        **options)
    if val != math.inf:
        return val, err, False
    val, err = integrate.quad(
        lambda g: math.log((sd * g + mean) ** 2 + 1.0 / gamma_) * norm * math.exp(-0.5 * g * g),
        **options)
    return val + math.log(gamma_), err, True


def bernoulli_dc_args(n, p, W=0.01, J=1.0):
    return 1.0 / (W + p * J), math.sqrt(p * (1.0 - p)), p * math.sqrt(n)


class TestDCQuadrature:
    """The DC term calls QUADPACK's qagse without the scipy.integrate package, so
    its value and error must be integrate.quad's, bit for bit, on every scipy
    version CI installs; none of these points may stop with a QUADPACK warning."""

    @pytest.mark.parametrize("gamma_, sd, mean", [
        (1.0 / 1.01, 1.0, 0.0),  # gaussian-1f at W = 0.01, rho_j = 1
        *(bernoulli_dc_args(n, p) for p in (0.005, 0.3, 0.995) for n in (25, 10**6 + 1)),
    ])
    def test_bit_identical_to_quad(self, gamma_, sd, mean):
        val, err, overflowed = dc_quad_reference(gamma_, sd, mean)
        assert not overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = asymptotic._normal_expect_log(gamma_, sd=sd, mean=mean)
        assert [x.hex() for x in got] == [val.hex(), err.hex()]

    def test_overflow_branch_bit_identical_to_quad(self):
        # gaussian-1f at W = 1e-308, rho_j = 0: gamma * g^2 overflows for |g| > 1.34
        gamma_ = 1.0 / 1e-308
        val, err, overflowed = dc_quad_reference(gamma_, 1.0, 0.0)
        assert overflowed and math.isfinite(val)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = asymptotic._normal_expect_log(gamma_, sd=1.0, mean=0.0)
        assert [x.hex() for x in got] == [val.hex(), err.hex()]


def _mpmath_e1_diffs(s, k):
    """f(k), f'(k), f''(k), ... for f(k) = e^x E1(x) at x = k/s, at 80 digits:
    the r-th k-derivative is s^-r (g(x) + sum_{j<=r} (-1)^j (j-1)! x^-j)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        sm = mpmath.mpf(s)
        x = k / sm
        deriv = mpmath.exp(x) * mpmath.e1(x)
        for r in itertools.count():
            yield deriv / sm ** r
            deriv += (-1) ** (r + 1) * mpmath.factorial(r) / x ** (r + 1)


@functools.cache
def _mpmath_head(kind, s, last):
    """40-digit sum over k = 2..last: term by term up to k = 500, and beyond
    it log1p by log-gamma differences, e^x E1(x) by mpmath.sumem, a
    40-digit Euler-Maclaurin sum with its integral s (g + log x) and
    derivatives by _mpmath_e1_diffs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        sm = mpmath.mpf(s)

        def term(k):
            if kind == "explog":
                return mpmath.exp(k / sm) * mpmath.e1(k / sm)
            return mpmath.log1p(sm / k)

        total = mpmath.fsum(term(k) for k in range(2, min(last, 500) + 1))
        if last <= 500:
            return total
        a, b = 501, last
        if kind == "log1p":
            # prod_{k=a}^{b} (k + s)/k = Gamma(b+1+s) Gamma(a) / (Gamma(a+s) Gamma(b+1))
            with mpmath.workdps(60):
                return total + (mpmath.loggamma(b + 1 + sm) - mpmath.loggamma(a + sm)
                                - mpmath.loggamma(b + 1) + mpmath.loggamma(a))
        integral = sm * (term(b) + mpmath.log(b / sm) - term(a) - mpmath.log(a / sm))
        return total + mpmath.sumem(term, [a, b], integral=integral,
                                    adiffs=_mpmath_e1_diffs(s, a), bdiffs=_mpmath_e1_diffs(s, b))


def bulk_mpmath(kind, s, n):
    """40-digit sum over k = 2..(n-1)/2 of explog_exp1(s/k) ("explog") or
    log1p(s/k) ("log1p"): e^x E1(x) at x = k/s (or log1p) up to k = 100 s by
    _mpmath_head, then 14 terms of the series in s/k,
    sum_j a_j s^j sum_{k>=a} k^-j, each power sum a Hurwitz zeta (digamma at j = 1).
    The first omitted series term is below 14! 100^-14 ~ 1e-17 of s/k, and the
    omitted terms add up to below 1e-17 of s, far under an ulp of the sum."""
    mpmath = pytest.importorskip("mpmath")
    top = (n - 1) // 2
    last = min(top, math.ceil(100 * s))
    with mpmath.workdps(40):
        total, sm, a, b = _mpmath_head(kind, s, last), mpmath.mpf(s), last + 1, top + 1
        for j in range(1, 15) if last < top else ():
            coef = ((-1) ** (j - 1) * mpmath.factorial(j - 1) if kind == "explog"
                    else mpmath.mpf((-1) ** (j - 1)) / j)
            power_sum = (mpmath.digamma(b) - mpmath.digamma(a) if j == 1
                         else mpmath.zeta(j, a) - mpmath.zeta(j, b))
            total += coef * sm ** j * power_sum
        return total


def power_tail_reference(j, s, a, b):
    """sum_{k=a}^{b} (s/k)^j for one j, term for term as asymptotic._power_tails
    computes it for all eight: it must return the same bits."""
    ia, ib = 1 / a, 1 / b
    x, y = s * ia, s * ib
    log_ratio = math.log1p((b - a) / a)
    # s^j (a^(1-j) - b^(1-j)) / (j-1) = s x^(j-1) (1 - (a/b)^(j-1)) / (j-1): no cancellation
    integral = (s * log_ratio if j == 1
                else -s * x ** (j - 1) * math.expm1((1 - j) * log_ratio) / (j - 1))
    xj, yj = x ** j, y ** j
    parts = [integral, (xj + yj) / 2.0]
    rising = j  # j (j+1) ... (j+2m-2), the factor of the (2m-1)-th derivative of k^-j
    for m, coef in enumerate(asymptotic._EULER_MACLAURIN, 1):
        parts.append(coef * rising * (xj * ia ** (2 * m - 1) - yj * ib ** (2 * m - 1)))
        rising *= (j + 2 * m - 1) * (j + 2 * m)
    return math.fsum(parts)


def assert_within_ulps(value, exact, ulps):
    assert abs(value - exact) <= ulps * math.ulp(float(exact)), (value, float(exact))


# The Euler-Maclaurin ends of each bulk-sum kind, as the predictors pass them.
ENDS = {"explog": asymptotic._e1_ends, "log1p": asymptotic._log1p_ends}


class TestOneFBulkSums:
    """Up to n = 8193 a 1/f bulk sum is math.fsum of its per-term values, bit
    for bit; beyond it the Euler-Maclaurin tail keeps it within 2 ulp of mpmath."""

    @staticmethod
    def check(value, dc, s, n):
        if n <= 8193:  # head only
            bulk = 2.0 * math.fsum(explog_scalar_reference(s / k)
                                   for k in range(2, (n - 1) // 2 + 1))
            assert value == dc + bulk
        else:
            assert_within_ulps(value, dc + 2 * bulk_mpmath("explog", s, n), 2)

    @pytest.mark.parametrize("n", [5, 249, 8193, 100001, 1000001])
    def test_gaussian(self, n):
        W, rho_j = 0.01, 1.0
        g = 1.0 / (W + rho_j)
        dc, _ = asymptotic._normal_expect_log(g, sd=1.0, mean=0.0)
        self.check(predict_gaussian_onef(n, W, rho_j).value, dc, g, n)

    @pytest.mark.parametrize("n", [5, 249, 8193, 100001, 1000001])
    def test_bernoulli(self, n):
        p, W, J = 0.3, 0.01, 1.0
        g = 1.0 / (W + p * J)
        dc, _ = asymptotic._normal_expect_log(g, sd=math.sqrt(p * (1.0 - p)),
                                              mean=p * math.sqrt(n))
        self.check(predict_bernoulli_onef(n, p, W, J).value, dc, p * (1.0 - p) * g, n)

    def test_gaussian_range_ends_on_the_series_branch(self):
        # gamma = 1/0.012 puts c = gamma/k on the series from k = 50001 on, so the
        # Euler-Maclaurin range runs from 65 to K = 50001, which ends on the first
        # series term, and the tail from 50002 to 100000.
        n, W, rho_j = 200001, 0.002, 0.01
        g = 1.0 / (W + rho_j)
        assert 1.0 / 600.0 > g / 50001 and int(g * 600) + 1 == 50001
        dc, _ = asymptotic._normal_expect_log(g, sd=1.0, mean=0.0)
        self.check(predict_gaussian_onef(n, W, rho_j).value, dc, g, n)

    @pytest.mark.parametrize("n", [249, 8193])
    def test_flat(self, n):
        W, J = 0.01, 1.0
        g = 1.0 / (W + J / 2.0)
        bulk = 2.0 * math.fsum(np.log1p(g / 4.0 / np.arange(2, (n - 1) // 2 + 1)).tolist())
        assert predict_flat_onef(n, W, J).value == math.log1p(g * n / 4.0) + bulk

    def test_flat_with_tail(self):
        W, J, n = 0.01, 1.0, 1000001
        g = 1.0 / (W + J / 2.0)
        exact = math.log1p(g * n / 4.0) + 2 * bulk_mpmath("log1p", g / 4.0, n)
        assert_within_ulps(predict_flat_onef(n, W, J).value, exact, 2)

    # n = 8195 is the least n with a closed part; the widest s has a 500-term mpmath head.
    @pytest.mark.parametrize("s", [1e-4, 0.01, 0.21, 0.82, 5.0])
    @pytest.mark.parametrize("kind, term, series", [
        ("explog", explog_exp1, asymptotic._EXPLOG_SERIES),
        ("log1p", np.log1p, asymptotic._LOG1P_SERIES),
    ])
    def test_against_mpmath(self, kind, term, series, s):
        for n in (1001, 8195, 1000001, 10**9 + 1):
            assert_within_ulps(asymptotic._bulk_sum(term, series, s, n, ENDS[kind]),
                               bulk_mpmath(kind, s, n), 2)

    # At high SNR every term past the 63-term head up to K = 600 s (or to the top) is
    # one Euler-Maclaurin range.  For e^x E1 from s = 162.5 on its first end has
    # x = 65/s < 0.4 and takes Ein; from s = 10242.5 at n = 8195 both ends do.
    # e1 names the range's ends: e^x E1's or log1p's.
    @pytest.mark.parametrize("kind, term, series, e1, s", [
        *(("explog", explog_exp1, asymptotic._EXPLOG_SERIES, True, s)
          for s in (20.0, 100.0, 1e3, 9830.0, 9900.0, 1e4, 3e4, 1e5, 1e6)),
        *(("log1p", np.log1p, asymptotic._LOG1P_SERIES, False, s)
          for s in (20.0, 100.0, 1e3, 1e4, 1e5, 1e6)),
    ], ids=lambda v: (f"series{int(v is asymptotic._LOG1P_SERIES)}"  # series0 is e^x E1's
                      if isinstance(v, tuple) else None))
    def test_high_snr_against_mpmath(self, kind, term, series, e1, s):
        ends = asymptotic._e1_ends if e1 else asymptotic._log1p_ends
        for n in (8195, 1000001, 10**9 + 1):
            assert_within_ulps(asymptotic._bulk_sum(term, series, s, n, ends),
                               bulk_mpmath(kind, s, n), 2)

    # Sums that are nearly all one Euler-Maclaurin range, from x = 65/s < 0.4 (Ein) to
    # the top: its integral s (G(xb) - G(xa)) is about as large as the sum, so the ends'
    # rounding shows in full.  Formed in double instead of long double, these read up
    # to 3.5 ulp from the reference.
    @pytest.mark.parametrize("s, n", [
        (861.9163731891733, 8195), (3492.0907119915632, 16541), (9495.140976126504, 32769),
        (7021.328161668026, 8195), (6168.553268603654, 12181)])
    def test_short_e1_range_against_mpmath(self, s, n):
        got = asymptotic._bulk_sum(explog_exp1, asymptotic._EXPLOG_SERIES, s, n,
                                   asymptotic._e1_ends)
        assert_within_ulps(got, bulk_mpmath("explog", s, n), 1)

    def test_explog_cf_against_mpmath(self):
        """_explog_cf's cut is below 1e-21 of e^x E1(x) (run in mpmath at 40
        digits) on [0.4, 1e4], and its long double value within 1e-18 of it
        (1e-15 where long double is double)."""
        mpmath = pytest.importorskip("mpmath")
        wide = np.finfo(np.longdouble).nmant >= 63
        with mpmath.workdps(40):
            for x in np.geomspace(0.4, 1e4, 97):
                want = mpmath.exp(x) * mpmath.e1(x)
                assert abs(asymptotic._explog_cf(mpmath.mpf(x)) / want - 1) < 1e-21
                got = asymptotic._explog_cf(np.longdouble(x))
                value = mpmath.mpf(float(got)) + mpmath.mpf(float(got - np.longdouble(float(got))))
                assert abs(value / want - 1) < (1e-18 if wide else 1e-15), x

    # Both ends on the continued fraction (x = 65/162 >= 0.4), one end on Ein (s = 163),
    # both on Ein, and s = 1e300, where G(xb) - G(xa) is 1e-289 of G.
    @pytest.mark.parametrize("s, a, b", [(162.0, 65, 4097), (163.0, 65, 4097), (1e3, 65, 300),
                                         (1e5, 65, 4097), (1e300, 65, 5 * 10**8)])
    def test_e1_ends_against_mpmath(self, s, a, b):
        """_e1_ends' integral is within 1e-17 of s (G(xb) - G(xa)), G = g + log x, run in
        mpmath (1e-14 where long double is double), and f with its odd k-derivatives within
        1e-13 of _mpmath_e1_diffs at the ends with x < 1.  Past x = 1 the derivatives are
        remainders of g's asymptotic series and cancel; the sum tests cover them."""
        mpmath = pytest.importorskip("mpmath")
        wide = np.finfo(np.longdouble).nmant >= 63
        whole, *ends = asymptotic._e1_ends(s, a, b)
        with mpmath.workdps(40 + int(math.log10(s))):
            sm = mpmath.mpf(s)
            integral = sm * sum(sign * (mpmath.exp(k / sm) * mpmath.e1(k / sm) + mpmath.log(k / sm))
                                for sign, k in ((1, b), (-1, a)))
            got = mpmath.mpf(float(whole)) + mpmath.mpf(float(whole - np.longdouble(float(whole))))
            assert abs(got / integral - 1) < (1e-17 if wide else 1e-14), (got, integral)
        for k, derivatives in zip((a, b), ends):
            if k >= s:
                continue
            want = list(itertools.islice(_mpmath_e1_diffs(s, k), 8))
            for got, exact in zip(derivatives, want[:1] + want[1::2]):
                assert abs(got - exact) <= 1e-13 * abs(exact), (k, got, exact)

    @pytest.mark.parametrize("s, a, b", [(0.11, 65, 66), (0.5, 65, 301), (1e3, 65, 600001),
                                         (1e300, 65, 5 * 10**8)])
    def test_log1p_ends_against_mpmath(self, s, a, b):
        """_log1p_ends' integral is within 1e-17 of F(b) - F(a), F(k) = k log1p(s/k)
        + s log(k + s), run in mpmath (1e-14 where long double is double), and log1p(s/k)
        with its odd derivatives (m-1)! ((k+s)^-m - k^-m) within 1e-14 at both ends."""
        mpmath = pytest.importorskip("mpmath")
        wide = np.finfo(np.longdouble).nmant >= 63
        whole, *ends = asymptotic._log1p_ends(s, a, b)
        with mpmath.workdps(40 + int(math.log10(s))):
            sm = mpmath.mpf(s)
            integral = sum(sign * (k * mpmath.log1p(sm / k) + sm * mpmath.log(k + sm))
                           for sign, k in ((1, b), (-1, a)))
            got = mpmath.mpf(float(whole)) + mpmath.mpf(float(whole - np.longdouble(float(whole))))
            assert abs(got / integral - 1) < (1e-17 if wide else 1e-14), (got, integral)
            for k, derivatives in zip((a, b), ends):
                km = mpmath.mpf(k)
                want = [mpmath.log1p(sm / km), *(mpmath.factorial(m - 1) * ((km + sm) ** -m - km ** -m)
                                                 for m in (1, 3, 5, 7))]
                for got, exact in zip(derivatives, want):
                    assert abs(got - exact) <= 1e-14 * abs(exact), (k, got, exact)

    def test_reference_derivatives_match_mpmath_diff(self):
        """_mpmath_e1_diffs, the reference's derivative identity, against
        mpmath's numerical derivatives of e^x E1(x) at x = k/s."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for s, k in ((1e3, 420), (20.0, 3000)):
                sm = mpmath.mpf(s)
                diffs = mpmath.diffs(lambda t: mpmath.exp(t / sm) * mpmath.e1(t / sm), k, 8)
                for want, got in zip(diffs, _mpmath_e1_diffs(s, k)):
                    assert abs(got - want) <= mpmath.mpf(10) ** -30 * abs(want)

    @pytest.mark.parametrize("a", [30, 4097, 10**6])
    def test_power_tail_against_zeta(self, a):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for b, s in itertools.product((a, a + 1, 2 * a, 10**9), (1e-3, 5.0)):
                sm = mpmath.mpf(s)
                for j, got in enumerate(asymptotic._power_tails(s, a, b), 1):
                    exact = (sm * (mpmath.digamma(b + 1) - mpmath.digamma(a)) if j == 1
                             else sm ** j * (mpmath.zeta(j, a) - mpmath.zeta(j, b + 1)))
                    assert_within_ulps(got, exact, j + 2)

    # Tails from k = 31..78 at small s; the benchmark's optimize-p and predictor
    # points; and s = 1e4 and above, whose tails start past 600 s (or at 4097).
    @pytest.mark.parametrize("s, starts", [
        (0.126, (31, 45, 64, 77, 78)), (0.05, (31, 78)),
        (0.49, (300, 450)), (0.68, (409, 600)), (0.81, (488, 500)), (0.99, (595, 600)),
        (1e4, (4097, 6000001)), (3e4, (4097, 18000001)), (1e6, (5000, 600000001))])
    def test_power_tails_match_reference(self, s, starts):
        for a, b in itertools.product(starts, (5 * 10**4, 5 * 10**5, 10**9)):
            if a <= b:
                got = [t.hex() for t in asymptotic._power_tails(s, a, b)]
                assert got == [power_tail_reference(j, s, a, b).hex() for j in range(1, 9)]

    @staticmethod
    def kernel_work(monkeypatch, W, J, n=10**9 + 1):
        """The kernel's elements in each predictor call of the p* search at n:
        the head terms, as an Euler-Maclaurin range takes no kernel value."""
        counts, kernel, predict = [], asymptotic.explog_exp1, asymptotic.predict_bernoulli_onef

        def counting_kernel(c):
            counts[-1] += np.size(c)
            return kernel(c)

        def counting_predict(*args):
            counts.append(0)
            return predict(*args)

        monkeypatch.setattr(asymptotic, "explog_exp1", counting_kernel)
        monkeypatch.setattr(asymptotic, "predict_bernoulli_onef", counting_predict)
        p_star = optimal_p_onef(n, W, J)
        assert 0.005 < p_star < 0.995 and len(counts) > 10
        return counts

    def test_work_does_not_grow_with_n(self, monkeypatch):
        """s = p(1-p)/(W + pJ) < 1 at J = 1 keeps the head at most 64 terms."""
        heads = self.kernel_work(monkeypatch, 0.01, 1.0)
        assert all(0 < c <= 64 for c in heads), heads

    def test_work_does_not_grow_with_snr(self, monkeypatch):
        """At J = 0, W = 1e-4, 1e-5 and 1e-300, s = p(1-p)/W reaches 2500, 25,000 and
        2.5e299: each head has at most 64 terms at any s, where summed term by term up
        to 600 s it had 1.5 million at W = 1e-4 and all 5e8 at W = 1e-300."""
        for W in (1e-4, 1e-5, 1e-300):
            heads = self.kernel_work(monkeypatch, W, 0.0)
            assert all(0 < c <= 64 for c in heads), (W, heads)

    def test_huge_s_against_log_gamma(self):
        """At s >= 1e30 every x = k/s is below 1e-21, where e^x E1(x) = log s - gamma
        - log k and log1p(s/k) = log s - log k + k/s, to far below an ulp: the sums
        are (top-1)(log s - gamma) - lnGamma(top+1), and (top-1) log s - lnGamma(top+1)
        + (top(top+1)/2 - 1)/s.  Whether a tail or a range exists is a float test, made
        before s / _SERIES_CUTOFF (infinite at s = 1e300) is turned into a term count."""
        mpmath = pytest.importorskip("mpmath")
        for s, n in itertools.product((1e30, 1e100, 1e300), (8195, 10**6 + 1, 10**9 + 1)):
            top = (n - 1) // 2
            with mpmath.workdps(40):
                log_s, log_gamma = mpmath.log(s), mpmath.loggamma(top + 1)
                explog = (top - 1) * (log_s - mpmath.euler) - log_gamma
                log1p = (top - 1) * log_s - log_gamma + mpmath.mpf(top * (top + 1) // 2 - 1) / s
            got = asymptotic._bulk_sum(explog_exp1, asymptotic._EXPLOG_SERIES, s, n,
                                       asymptotic._e1_ends)
            assert_within_ulps(got, explog, 2)
            got = asymptotic._bulk_sum(np.log1p, asymptotic._LOG1P_SERIES, s, n,
                                       asymptotic._log1p_ends)
            assert_within_ulps(got, log1p, 2)
        for ends in (asymptotic._e1_ends, asymptotic._log1p_ends):
            with pytest.raises(InvalidArgumentError):
                asymptotic._bulk_sum(explog_exp1, asymptotic._EXPLOG_SERIES, math.inf, 10001, ends)


class TestExactFsum:
    """_bulk_sum rounds once: its head terms and its closed parts go into one math.fsum,
    so it returns the correctly rounded sum of all of them, bit for bit, whatever they are."""

    @staticmethod
    def adversarial(kind, rng):
        """At most 4095 terms, so all of them fit in a head (top <= 4096)."""
        if kind == "cancellation":
            x = rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 20, 2000)
            v = np.concatenate([x, -x, rng.standard_normal(50) * 1e-25, [1e300, 3.0, -1e300]])
        elif kind == "spread":
            v = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-300, 300, 4000)
        elif kind == "subnormal":
            v = rng.integers(-(1 << 40), 1 << 40, 3000) * 5e-324
        elif kind == "subnormal-and-normal":
            v = np.concatenate([rng.integers(-1000, 1000, 2000) * 5e-324,
                                rng.standard_normal(2000) * 2.0 ** -1000, [1.0, -1.0]])
        elif kind == "zeros":
            v = np.zeros(4000)
        elif kind == "signed-zeros":
            v = -np.zeros(4000)
        elif kind == "mixed-zeros":
            v = rng.choice([0.0, -0.0], 4000)
        elif kind in ("infinite", "nan"):  # one non-finite term among normal ones
            special = rng.choice([-math.inf, math.inf]) if kind == "infinite" else math.nan
            v = np.append(rng.standard_normal(1000), special)
        elif kind == "equal":  # the same largest magnitude throughout, one sign
            v = np.full(4094, np.nextafter(2.0 ** 700, 0.0))
        else:  # "half-ulp": +-1.5 cancel, and 4092 terms just below 2^-40 make the total
            v = np.concatenate([[1.5, -1.5], rng.uniform(0.9, 1.0, 4092) * 2.0 ** -40])
        return rng.permutation(v)

    @staticmethod
    def fixed_term(values):
        def term(c):
            assert c.shape == values.shape
            return values
        return term

    @pytest.mark.parametrize("seed", [11, 29, 83])
    @pytest.mark.parametrize("kind", ["cancellation", "spread", "subnormal",
                                      "subnormal-and-normal", "zeros", "signed-zeros",
                                      "mixed-zeros", "infinite", "nan", "equal", "half-ulp"])
    def test_adversarial(self, kind, seed):
        rng = np.random.default_rng(seed)
        v = self.adversarial(kind, rng)
        # top = v.size + 1 <= 4096: the head is every term
        n = 2 * v.size + 3
        got = asymptotic._bulk_sum(self.fixed_term(v), (), 1.0, n, ENDS["explog"])
        assert got.hex() == math.fsum(v.tolist()).hex()
        # past top = 4096, a 63-term head and an Euler-Maclaurin range from 65 to K = 1001,
        # whose mid-point part carries one more term: (x + x) / 2 = x, and all else is 0.0
        head, x = v[:63], float(v[63])

        def ends(s, a, b):
            assert (a, b) == (65, 1001)
            return np.longdouble(0.0), (x, 0.0, 0.0, 0.0, 0.0), (x, 0.0, 0.0, 0.0, 0.0)

        got = asymptotic._bulk_sum(self.fixed_term(head), (), 1000 * asymptotic._SERIES_CUTOFF,
                                   10001, ends)
        assert got.hex() == math.fsum([*head.tolist(), x, 0.0]).hex()

    # size bulk terms, top = size + 1: up to 4095 the head is every term, past it
    # (32766, 32767) the sum is a 63-term head, a range and a series tail.
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 6, 7, 1022, 1023, 32766, 32767])
    @pytest.mark.parametrize("seed", [11, 29, 83])
    def test_chunk_sizes(self, size, seed):
        s = 10.0 ** np.random.default_rng(seed).uniform(-4.0, 0.7)
        n = 2 * size + 3
        for kind, term, series in (("explog", explog_exp1, asymptotic._EXPLOG_SERIES),
                                   ("log1p", np.log1p, asymptotic._LOG1P_SERIES)):
            got = asymptotic._bulk_sum(term, series, s, n, ENDS[kind])
            if size < 4096:
                assert got.hex() == math.fsum(term(s / np.arange(2, size + 2)).tolist()).hex()
            else:
                assert_within_ulps(got, bulk_mpmath(kind, s, n), 2)

    def test_no_chunks(self):
        """n = 1 and n = 3 have no bulk terms: the sum is math.fsum([]), +0.0."""
        for n in (1, 3):
            got = asymptotic._bulk_sum(explog_exp1, asymptotic._EXPLOG_SERIES, 1.0, n,
                                       asymptotic._e1_ends)
            assert got.hex() == math.fsum([]).hex()


class TestOptimalPOneF:
    def test_matches_fine_grid(self):
        p_star = optimal_p_onef(251, 0.01, 1.0)
        grid = np.round(np.arange(0.001, 1.0, 0.001), 3)
        vals = [predict_bernoulli_onef(251, float(p), 0.01, 1.0).value
                for p in grid]
        assert abs(p_star - float(grid[int(np.argmax(vals))])) <= 2e-3

    def test_local_maximum_bracket(self):
        p_star = optimal_p_onef(251, 0.01, 1.0)
        at = predict_bernoulli_onef(251, p_star, 0.01, 1.0).value
        assert at >= predict_bernoulli_onef(251, p_star - 0.05,
                                            0.01, 1.0).value
        assert at >= predict_bernoulli_onef(251, p_star + 0.05,
                                            0.01, 1.0).value

    def test_thermal_dominant_opens_mask(self):
        # with W >> J the DC (overall brightness) term dominates the 1/f
        # objective, so the optimum sits at the top of the search bracket;
        # a coarse grid of the objective agrees
        p_star = optimal_p_onef(251, 100.0, 1.0)
        grid = np.round(np.arange(0.05, 1.0, 0.05), 3)
        vals = [predict_bernoulli_onef(251, float(p), 100.0, 1.0).value
                for p in grid]
        grid_best = float(grid[int(np.argmax(vals))])
        assert p_star > 0.9
        assert abs(p_star - grid_best) <= 0.05

    def test_thermal_limit_where_the_dc_integrand_overflows(self):
        """At n = 1e9+1, W = 1e-300, J = 0 gamma*(p*sqrt(n))^2 overflows a double
        for most p: every prediction stays finite, so the search finds the
        thermal-limit optimum just above 1/2."""
        n, W = 10**9 + 1, 1e-300
        assert 0.5 < optimal_p_onef(n, W, 0.0) < 0.5001
        for p in (0.1, 0.5, 0.9):
            assert math.isfinite(predict_bernoulli_onef(n, p, W, 0.0).value), p

    def test_optimum_opens_with_thermal_noise(self):
        # shot-dominant noise rewards sparse masks, thermal-dominant noise
        # rewards open ones; p* is monotone across the regimes
        stars = [optimal_p_onef(251, W, 1.0)
                 for W in (0.001, 0.01, 1.0, 100.0)]
        assert stars[0] < 0.2
        assert all(a < b for a, b in zip(stars, stars[1:]))


class TestPredictorRegistry:
    # the options of every entry, and the direct call each must equal bitwise
    CASES = {
        "pinhole": (dict(n=7, W=0.01, J=1.0), lambda: predict_pinhole(7, 0.01, 1.0)),
        "flat-iid": (dict(W=0.01, J=1.0), lambda: predict_flat_iid(0.01, 1.0)),
        "bernoulli-iid": (dict(p=0.3, W=0.01, J=1.0),
                          lambda: predict_bernoulli_iid(0.3, 0.01, 1.0)),
        "uniform-iid": (dict(W=0.01, J=1.0, bulk_variance=0.05),
                        lambda: asymptotic.predict_uniform_iid(0.01, 1.0, 0.05)),
        "flat-1f": (dict(n=101, W=0.01, J=1.0, form="closed"),
                    lambda: asymptotic.predict_flat_onef(101, 0.01, 1.0, "closed")),
        "gaussian-1f": (dict(n=101, W=0.01, rho_j=1.0),
                        lambda: asymptotic.predict_gaussian_onef(101, 0.01, 1.0)),
        "bernoulli-1f": (dict(n=101, p=0.3, W=0.01, J=1.0),
                         lambda: predict_bernoulli_onef(101, 0.3, 0.01, 1.0)),
    }

    def test_covers_every_predictor(self):
        assert set(self.CASES) == set(asymptotic.PREDICTORS)

    @pytest.mark.parametrize("which", sorted(CASES))
    def test_predict_equals_direct_call(self, which):
        params, direct = self.CASES[which]
        # options an entry does not list are ignored
        assert asymptotic.predict(which, **params, unused=None) == direct()

    def test_entries_are_late_bound(self, monkeypatch):
        """Each entry looks its function up when called, so a patched module
        attribute (as a tracer installs) sees every call."""
        calls = []
        original = asymptotic.predict_flat_iid
        monkeypatch.setattr(asymptotic, "predict_flat_iid",
                            lambda *a: calls.append(a) or original(*a))
        asymptotic.predict("flat-iid", W=0.01, J=1.0)
        assert calls == [(0.01, 1.0)]

    @pytest.mark.parametrize("which, params, message", [
        ("bogus", dict(W=0.1, J=1.0), "unknown predictor 'bogus'; known: pinhole, flat-iid, "
         "bernoulli-iid, uniform-iid, flat-1f, gaussian-1f, bernoulli-1f"),
        (["flat-iid"], dict(W=0.1, J=1.0), r"unknown predictor \['flat-iid'\]; known: "),
        ("flat-iid", dict(W=0.1), "predictor 'flat-iid' needs J"),
        ("bernoulli-1f", dict(W=0.1), "predictor 'bernoulli-1f' needs n, p, J"),
    ])
    def test_unknown_name_or_missing_option_rejected(self, which, params, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            asymptotic.predict(which, **params)

    def test_bernoulli_predictor_per_prior(self):
        assert asymptotic.BERNOULLI_PREDICTOR == {ScenePrior.IID: "bernoulli-iid",
                                                  ScenePrior.ONE_OVER_F: "bernoulli-1f"}
