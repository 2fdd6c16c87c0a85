"""Exact spectral MI: frozen examples, Parseval/symmetry properties, bounds."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apmi import (
    AperturePattern,
    DegenerateNoiseError,
    InvalidArgumentError,
    NoiseModel,
    PatternFamily,
    ScenePrior,
    gen_bernoulli,
    gen_mls,
    gen_mura,
    gen_pinhole,
    jensen_bound,
    mi_excluding_dc,
    mutual_information,
)
from apmi.model import spectral_weights
from apmi.spectral import mi_sums, power_spectrum

NOISE = NoiseModel(W=0.01, J=1.0)


def bits(x):
    """The bytes of a float or float array, so that -0.0, NaN and inf compare exactly."""
    return np.asarray(x, dtype=float).tobytes()


def one_expression_mi_sums(lambda_sq, weights, gamma_):
    """The log-sum as one expression with a fresh temporary per operation;
    mi_sums must give the same bits."""
    if lambda_sq.ndim == 2:
        gamma_ = np.asarray(gamma_)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.log1p(gamma_ * weights * lambda_sq / lambda_sq.shape[-1])
        total = terms.sum(axis=-1)
        return total, total - terms[..., 0]


class TestSpectrum:
    def test_all_ones_row(self):
        pattern = AperturePattern(np.ones(4))
        np.testing.assert_allclose(pattern.lambda_sq, [16, 0, 0, 0], atol=1e-12)
        assert pattern.values.sum() == pytest.approx(4.0)

    def test_mls3(self):
        np.testing.assert_allclose(gen_mls(3).lambda_sq, [16, 2, 2, 2, 2, 2, 2],
                                   atol=1e-9)

    def test_delta_is_flat(self):
        np.testing.assert_allclose(gen_pinhole(5).lambda_sq, np.ones(5), atol=1e-12)

    def test_mls_parseval_exact(self):
        # for a binary row, sum |lambda_k|^2 = n * (ones count)
        for degree in (3, 5, 8):
            pattern = gen_mls(degree)
            ones = pattern.values.sum()
            assert pattern.lambda_sq.sum() == pytest.approx(
                pattern.n * ones, rel=1e-12)

    @given(st.integers(min_value=2, max_value=300),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_invariants(self, n, seed):
        """DC square, conjugate symmetry and Parseval for arbitrary rows."""
        rng = np.random.default_rng(seed)
        a = rng.random(n)
        lambda_sq = AperturePattern(a).lambda_sq
        assert lambda_sq[0] == pytest.approx(float(a.sum()) ** 2,
                                             rel=1e-10)
        np.testing.assert_allclose(lambda_sq[1:],
                                   lambda_sq[1:][::-1],
                                   rtol=1e-10, atol=1e-9)
        assert lambda_sq.sum() == pytest.approx(
            n * float(np.sum(a ** 2)), rel=1e-10)

    def test_bulk_power_binary_identity(self):
        # s ones -> off-DC power is exactly n*s - s^2
        for seed in range(5):
            pattern = gen_bernoulli(128, 0.4, seed=seed)
            s = pattern.values.sum()
            assert pattern.lambda_sq[1:].sum() == pytest.approx(128 * s - s ** 2,
                                                               rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            AperturePattern(np.array([]))

    def test_generated_mask_spectrum_is_computed_once(self, monkeypatch):
        """Generating an MLS/MURA mask and taking its MI or bound is one FFT, the
        self-check's: the row then proves its label and takes the theorem."""
        calls = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, "fft", counted)
        mutual_information(gen_mls(12), ScenePrior.IID, NOISE)
        assert len(calls) == 1
        jensen_bound(gen_mura(13), NOISE)
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [1, 2, 8, 249, 4095])
    def test_power_spectrum_into_given_arrays(self, n):
        """With out=(spectrum, power), one row or a (T, n) batch has its power
        written into the given float array, the bits of a call without out and
        of np.square(np.abs(np.fft.fft(a))); the row itself is not written."""
        rng = np.random.default_rng(n)
        for a in (rng.random(n), (rng.random((6, n)) < 0.3).astype(float)):
            before = a.copy()
            spectrum, power = np.empty(a.shape, dtype=complex), np.empty(a.shape)
            result = power_spectrum(a, out=(spectrum, power))
            assert result is power
            fresh = power_spectrum(a)
            assert np.array_equal(result.view(np.uint64), fresh.view(np.uint64))
            assert np.array_equal(fresh.view(np.uint64),
                                  np.square(np.abs(np.fft.fft(a))).view(np.uint64))
            assert np.array_equal(a.view(np.uint64), before.view(np.uint64))

    def test_fields_cannot_be_rebound(self):
        pattern = gen_mls(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pattern.values = np.zeros(7)


class TestMutualInformation:
    def test_pinhole_ln2(self):
        res = mutual_information(gen_pinhole(4), ScenePrior.IID,
                                 NoiseModel(W=0.0, J=1.0))
        assert res.per_pixel == pytest.approx(math.log(2), rel=1e-12)

    def test_all_zeros_gives_zero(self):
        blocked = AperturePattern(np.zeros(8), PatternFamily.CUSTOM)
        res = mutual_information(blocked, ScenePrior.IID,
                                 NoiseModel(W=0.5, J=1.0))
        assert res.total == 0.0

    def test_mls8_near_flat_limit(self):
        pattern = gen_mls(8)
        limit = math.log(0.25 / 0.51 + 1)
        # bulk (DC removed) converges to the flat limit ...
        bulk = mi_excluding_dc(pattern, NOISE)
        assert abs(bulk - limit) / limit < 0.01
        # ... while the full per-pixel value carries the O(log n / n) DC
        # term on top, which at n=255 is still a few percent
        res = mutual_information(pattern, ScenePrior.IID, NOISE)
        g = 1 / (0.01 + (128 / 255) * 1.0)  # gamma at the realized rho
        dc_term = math.log(g * 128 ** 2 / 255 + 1) / 255
        assert res.per_pixel == pytest.approx(bulk + dc_term, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 64, 257])
    def test_pinhole_identity(self, n):
        for noise in (NoiseModel(0.01, 1.0), NoiseModel(1.0, 0.0),
                      NoiseModel(0.3, 2.0)):
            res = mutual_information(gen_pinhole(n), ScenePrior.IID, noise)
            closed = math.log(1 / (n * noise.W + noise.J) + 1)
            assert res.per_pixel == pytest.approx(closed, rel=1e-12)

    def test_pinhole_deteriorates_with_n(self):
        # with any thermal floor, a bigger pinhole camera is worse per pixel
        small = mutual_information(gen_pinhole(2), ScenePrior.IID, NOISE)
        large = mutual_information(gen_pinhole(257), ScenePrior.IID, NOISE)
        assert large.per_pixel < small.per_pixel

    def test_total_per_pixel_consistency(self):
        res = mutual_information(gen_mls(6), ScenePrior.ONE_OVER_F, NOISE)
        assert res.per_pixel * 63 == pytest.approx(res.total, rel=1e-12)

    def test_decreasing_in_thermal_noise(self):
        pattern = gen_bernoulli(100, 0.5, seed=3)
        values = [mutual_information(pattern, ScenePrior.IID,
                                     NoiseModel(W, 1.0)).total
                  for W in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_increasing_in_each_spectral_line(self):
        rng = np.random.default_rng(0)
        lam_sq = rng.random(16) * 10
        weights = np.ones(16)
        base = mi_sums(lam_sq, weights, 2.0)[0]
        for i in range(16):
            bumped = lam_sq.copy()
            bumped[i] += 0.5
            assert mi_sums(bumped, weights, 2.0)[0] > base

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 100, 249, 4095])
    def test_batch_rows_equal_single_calls(self, n):
        """The ensemble's batched FFT and log-sum give each row exactly what
        a one-row call gives it."""
        rng = np.random.default_rng(n)
        rows = (rng.random((11, n)) < 0.3).astype(float)
        weights = rng.random(n) + 0.5
        gammas = rng.random(11) * 100
        batch = power_spectrum(rows)
        totals, bulks = mi_sums(batch, weights, gammas)
        for row, spectrum, g, total, bulk in zip(rows, batch, gammas, totals, bulks):
            single = power_spectrum(row)
            assert single.tobytes() == spectrum.tobytes()
            assert mi_sums(single, weights, float(g)) == (total, bulk)

    def test_degenerate_noise_propagates(self):
        blocked = AperturePattern(np.zeros(4), PatternFamily.CUSTOM)
        with pytest.raises(DegenerateNoiseError):
            mutual_information(blocked, ScenePrior.IID, NoiseModel(0.0, 1.0))

    def test_noise_without_finite_inverse_is_an_argument_error(self):
        """W + rho*J = 5e-321 has no finite inverse: the exact MI rejects it
        with the same error family as the predictors and the ensemble."""
        with pytest.raises(InvalidArgumentError, match="too small to invert"):
            mutual_information(gen_mls(5), ScenePrior.IID, NoiseModel(0.0, 1e-320))


class TestMiSums:
    @pytest.mark.parametrize("prior", [ScenePrior.IID, ScenePrior.ONE_OVER_F])
    @pytest.mark.parametrize("n", [9, 249])
    def test_bitwise_equal_to_one_expression(self, prior, n):
        """Scalar and per-row gamma, with one row whose terms overflow to inf;
        neither the spectrum nor the weights are written."""
        rng = np.random.default_rng(n)
        spectra = power_spectrum((rng.random((7, n)) < 0.4).astype(float))
        weights = spectral_weights(prior, n)
        gammas = rng.random(7) * 100
        gammas[3] = 1e308
        before = spectra.tobytes(), weights.tobytes()
        totals, bulks = mi_sums(spectra, weights, gammas)
        expected = one_expression_mi_sums(spectra, weights, gammas)
        assert (bits(totals), bits(bulks)) == tuple(map(bits, expected))
        assert np.isinf(totals[3])
        for spectrum, g in zip(spectra, gammas):
            single = mi_sums(spectrum, weights, float(g))
            assert tuple(map(bits, single)) == tuple(map(
                bits, one_expression_mi_sums(spectrum, weights, float(g))))
        assert (spectra.tobytes(), weights.tobytes()) == before

    def test_pattern_spectrum_not_written(self):
        pattern = gen_mls(5)
        before = pattern.lambda_sq.copy()
        mutual_information(pattern, ScenePrior.ONE_OVER_F, NOISE)
        assert pattern.lambda_sq.tobytes() == before.tobytes()


class TestJensenBound:
    def test_equality_for_flat_spectrum(self):
        pattern = gen_mls(8)
        bound = jensen_bound(pattern, NOISE)
        bulk = mi_excluding_dc(pattern, NOISE)
        assert bound == pytest.approx(bulk, abs=1e-9)

    def test_dominates_random_masks(self):
        for seed in range(30):
            pattern = gen_bernoulli(255, 0.5, seed=seed)
            bound = jensen_bound(pattern, NOISE)
            bulk = mi_excluding_dc(pattern, NOISE)
            assert bound >= bulk
            assert bound > bulk  # random spectra are never exactly flat

    def test_needs_two_elements(self):
        with pytest.raises(InvalidArgumentError):
            jensen_bound(gen_pinhole(1), NOISE)
