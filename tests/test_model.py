"""Scene priors, noise model, the gamma/dB helpers and the seed rule."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from apmi import (
    AperturePattern,
    DegenerateNoiseError,
    EnsembleConfig,
    InvalidArgumentError,
    NoiseModel,
    ScenePrior,
    db_to_linear,
    gamma,
    gen_bernoulli,
    gen_uniform,
    load_pattern,
    spectral_weights,
    trial_seed,
)
from apmi.model import LN2, degenerate_noise, effective_n, inverse_noise, to_log_base


class TestSpectralWeights:
    def test_iid_is_all_ones(self):
        np.testing.assert_array_equal(spectral_weights(ScenePrior.IID, 4),
                                      np.ones(4))

    def test_one_over_f_even(self):
        # doubled block: d_i = d_{n/2+i} = 1/i
        expected = [1, 1 / 2, 1 / 3, 1 / 4, 1, 1 / 2, 1 / 3, 1 / 4]
        np.testing.assert_allclose(
            spectral_weights(ScenePrior.ONE_OVER_F, 8), expected, rtol=0, atol=0)

    def test_one_over_f_odd(self):
        # DC gets weight 1; pairs (k, n+2-k) share weight 1/k
        expected = [1, 1 / 2, 1 / 3, 1 / 3, 1 / 2]
        np.testing.assert_allclose(
            spectral_weights(ScenePrior.ONE_OVER_F, 5), expected, rtol=0, atol=0)

    def test_n_below_two_rejected(self):
        with pytest.raises(InvalidArgumentError):
            spectral_weights(ScenePrior.IID, 1)

    @given(st.integers(min_value=2, max_value=600))
    def test_one_over_f_structure(self, n):
        d = spectral_weights(ScenePrior.ONE_OVER_F, n)
        assert d.shape == (n,)
        assert np.all(d > 0) and np.all(d <= 1)
        # exactly one unit weight for odd n, exactly two for even n
        assert np.count_nonzero(d == 1.0) == (2 if n % 2 == 0 else 1)
        if n % 2 == 0:
            # literal doubled block: d_i = d_{n/2+i}
            np.testing.assert_allclose(d[:n // 2], d[n // 2:], rtol=0, atol=0)
        else:
            # paired frequencies (k, n+2-k) share a weight
            np.testing.assert_allclose(d[1:], d[1:][::-1], rtol=0, atol=0)

    @pytest.mark.parametrize("n", [3, 5, 7, 249, 4095, 100001])
    def test_one_over_f_odd_matches_loop(self, n):
        expected = np.empty(n)
        expected[0] = 1.0
        for k in range(2, (n + 1) // 2 + 1):
            expected[k - 1] = 1.0 / k
            expected[n + 1 - k] = 1.0 / k
        np.testing.assert_array_equal(
            spectral_weights(ScenePrior.ONE_OVER_F, n), expected)

    @given(st.integers(min_value=2, max_value=600))
    def test_iid_structure(self, n):
        np.testing.assert_array_equal(spectral_weights(ScenePrior.IID, n),
                                      np.ones(n))


class TestScenePriorParse:
    @pytest.mark.parametrize("text,expected", [
        ("iid", ScenePrior.IID),
        ("IID", ScenePrior.IID),
        ("1f", ScenePrior.ONE_OVER_F),
        ("1/f", ScenePrior.ONE_OVER_F),
        ("one_over_f", ScenePrior.ONE_OVER_F),
        ("one-over-f", ScenePrior.ONE_OVER_F),
    ])
    def test_aliases(self, text, expected):
        assert ScenePrior.parse(text) is expected

    def test_unknown_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ScenePrior.parse("pink")


class TestNoiseModel:
    def test_both_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NoiseModel(0.0, 0.0)

    @pytest.mark.parametrize("W,J", [(-1.0, 1.0), (1.0, -0.5),
                                     (math.nan, 1.0), (math.inf, 1.0)])
    def test_invalid_powers_rejected(self, W, J):
        with pytest.raises(InvalidArgumentError):
            NoiseModel(W, J)


class TestGamma:
    def test_examples(self):
        assert gamma(NoiseModel(0.01, 1.0), 0.5) == pytest.approx(1 / 0.51, rel=1e-12)
        assert gamma(NoiseModel(1.0, 0.0), 0.3) == pytest.approx(1.0, rel=1e-12)
        assert gamma(NoiseModel(0.0, 1.0), 0.25) == pytest.approx(4.0, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateNoiseError, match=r"^W \+ rho\*J must be positive$"):
            gamma(NoiseModel(0.0, 1.0), 0.0)

    @pytest.mark.parametrize("W, J, rho", [(0.0, 1e-320, 0.5), (1e-320, 0.0, 1.0)])
    def test_total_without_finite_inverse_rejected(self, W, J, rho):
        with pytest.raises(DegenerateNoiseError, match="too small to invert"):
            gamma(NoiseModel(W, J), rho)

    def test_degenerate_noise_is_a_non_finite_inverse(self):
        smallest = 1.0 / np.finfo(float).max
        totals = np.array([0.0, 5e-324, 1e-320, np.nextafter(smallest, 0.0), smallest,
                           np.nextafter(smallest, 1.0), 1e-300, 1.0])
        with np.errstate(divide="ignore", over="ignore"):
            expected = ~np.isfinite(1.0 / totals)
        assert expected[:3].all() and not expected[-3:].any()
        np.testing.assert_array_equal(degenerate_noise(totals), expected)
        assert [bool(degenerate_noise(float(t))) for t in totals] == expected.tolist()
        assert [bool(degenerate_noise(t)) for t in totals] == expected.tolist()  # np.float64
        assert degenerate_noise(0) and not degenerate_noise(1)

    @pytest.mark.parametrize("form", [float, np.float64])
    @pytest.mark.parametrize("total, message", [
        (0.0, "W + rho*J must be positive"),
        (1e-320, "W + rho*J is 1e-320, too small to invert"),
        (5e-324, "W + rho*J is 5e-324, too small to invert")])
    def test_scalar_degenerate_noise_raises_without_warning(self, form, total, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert degenerate_noise(form(total))
            with pytest.raises(DegenerateNoiseError, match=f"^{re.escape(message)}$"):
                inverse_noise(form(total))
            assert inverse_noise(form(0.25), numerator=0.5) == 2.0

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gamma(NoiseModel(1.0, 1.0), 1.5)

    def test_decreasing_in_w_and_rho(self):
        noise_lo = NoiseModel(0.5, 1.0)
        noise_hi = NoiseModel(2.0, 1.0)
        assert gamma(noise_hi, 0.3) < gamma(noise_lo, 0.3)
        assert gamma(noise_lo, 0.7) < gamma(noise_lo, 0.3)


class TestDbToLinear:
    def test_examples(self):
        assert db_to_linear(-20) == pytest.approx(0.01, rel=1e-12)
        assert db_to_linear(0) == 1.0
        assert db_to_linear(10) == pytest.approx(10.0, rel=1e-12)

    @given(st.floats(min_value=-60, max_value=60),
           st.floats(min_value=-60, max_value=60))
    def test_additivity(self, a, b):
        assert db_to_linear(a + b) == pytest.approx(
            db_to_linear(a) * db_to_linear(b), rel=1e-12)

    @pytest.mark.parametrize("x_db", [4000.0, math.inf, math.nan])
    def test_no_finite_value_rejected(self, x_db):
        with pytest.raises(InvalidArgumentError, match="no finite linear value"):
            db_to_linear(x_db)


class TestEffectiveN:
    def test_even_one_over_f_reduced_with_warning(self):
        with pytest.warns(UserWarning, match=r"n reduced to 249 \(odd-n formula\)"):
            assert effective_n(ScenePrior.ONE_OVER_F, 250) == 249

    @pytest.mark.parametrize("prior, n", [(ScenePrior.ONE_OVER_F, 249),
                                          (ScenePrior.IID, 250)])
    def test_unchanged_without_warning(self, prior, n, recwarn):
        assert effective_n(prior, n) == n
        assert len(recwarn) == 0


class TestToLogBase:
    def test_bases(self):
        assert to_log_base(1.5, "nats") == 1.5
        assert to_log_base(1.5, "bits") == 1.5 / LN2
        np.testing.assert_array_equal(to_log_base(np.array([LN2, 0.0]), "bits"), [1.0, 0.0])

    def test_unknown_base_rejected(self):
        with pytest.raises(InvalidArgumentError, match="log_base"):
            to_log_base(1.0, "decibans")


def _load_with_seed(seed, tmp_path):
    (tmp_path / "m.txt").write_text("0\n1\n1\n")
    (tmp_path / "m.json").write_text(json.dumps({"seed": seed}))
    return load_pattern(str(tmp_path / "m.txt"))


# Every entry that takes a seed, and whether it allows None.
SEED_ENTRIES = {
    "gen_bernoulli": (lambda seed, _: gen_bernoulli(5, 0.5, seed), False),
    "gen_uniform": (lambda seed, _: gen_uniform(5, seed), False),
    "EnsembleConfig": (lambda seed, _: EnsembleConfig(
        n=5, trials=2, family="bernoulli", prior=ScenePrior.IID, noise=NoiseModel(0.01, 1.0),
        master_seed=seed, p=0.5), False),
    "trial_seed": (lambda seed, _: trial_seed(seed, 0), False),
    "trial_seed index": (lambda seed, _: trial_seed(0, seed), False),
    "AperturePattern": (lambda seed, _: AperturePattern(np.array([0.0, 1.0, 1.0]), seed=seed),
                        True),
    "descriptor": (_load_with_seed, True),
}


class TestSeedRule:
    """One seed rule (model.check_seed) for every entry that takes a seed: an
    int >= 0, not a bool, a float or a string, and None only where a pattern
    has no seed.  A bad seed raises InvalidArgumentError before any draw."""

    @pytest.mark.parametrize("entry, seed", [
        (entry, seed) for entry, (_, none_allowed) in SEED_ENTRIES.items()
        for seed in (-1, True, 2.5, "3", None) if not (seed is None and none_allowed)])
    def test_bad_seed_rejected_before_any_draw(self, monkeypatch, tmp_path, entry, seed):
        def no_draw(*_args, **_kwargs):
            raise AssertionError("drew before checking the seed")
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr(np.random, "SeedSequence", no_draw)
        with pytest.raises(InvalidArgumentError,
                           match=r"(seed|index) must be (None/null or )?an integer >= 0, got "):
            SEED_ENTRIES[entry][0](seed, tmp_path)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_every_int_seed_accepted(self, tmp_path, entry, seed):
        SEED_ENTRIES[entry][0](seed, tmp_path)
