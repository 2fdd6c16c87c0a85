"""Scene priors, noise model, the gamma/dB helpers, the integer rule of seeds
and sizes, the rule of real arguments, and the enum-typed fields."""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apmi import (
    AperturePattern,
    DegenerateNoiseError,
    EnsembleConfig,
    InvalidArgumentError,
    NoiseModel,
    PatternFamily,
    ScenePrior,
    db_to_linear,
    gamma,
    gen_bernoulli,
    gen_mls,
    gen_mura,
    gen_pinhole,
    gen_uniform,
    jensen_bound,
    load_pattern,
    optimal_p_onef,
    predict,
    predict_bernoulli_iid,
    predict_bernoulli_onef,
    predict_flat_onef,
    predict_gaussian_onef,
    predict_pinhole,
    predict_uniform_iid,
    spectral_weights,
    sweep_p,
    trial_seed,
)
from apmi.model import LN2, check_real, degenerate_noise, effective_n, inverse_noise, to_log_base


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

    @pytest.mark.parametrize("x_db, message", [
        (4000.0, "4000.0 dB has no finite linear value"),
        (math.inf, "x_db must be finite and real, got inf"),
        (math.nan, "x_db must be finite and real, got nan"),
    ], ids=["4000.0", "inf", "nan"])
    def test_no_finite_value_rejected(self, x_db, message):
        """A finite dB value that overflows has no linear value; a non-finite
        one fails the rule of real arguments first."""
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
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


NOISE = NoiseModel(0.01, 1.0)


def _config(**fields):
    return EnsembleConfig(**{"n": 5, "trials": 2, "family": "bernoulli", "prior": ScenePrior.IID,
                             "noise": NOISE, "p": 0.5, **fields})


# Every entry that takes a seed or a size: (the call on one value, the least
# valid value, whether it allows None).  A seed's least is 0; a size's is its
# smallest valid value, and its entry is named "<call> <argument>".
INT_ENTRIES = {
    "gen_bernoulli": (lambda seed, _: gen_bernoulli(5, 0.5, seed), 0, False),
    "gen_uniform": (lambda seed, _: gen_uniform(5, seed), 0, False),
    "EnsembleConfig": (lambda seed, _: _config(master_seed=seed), 0, False),
    "trial_seed": (lambda seed, _: trial_seed(seed, 0), 0, False),
    "trial_seed index": (lambda seed, _: trial_seed(0, seed), 0, False),
    "AperturePattern": (lambda seed, _: AperturePattern(np.array([0.0, 1.0, 1.0]), seed=seed),
                        0, True),
    "descriptor": (_load_with_seed, 0, True),
    "gen_pinhole n": (lambda n, _: gen_pinhole(n), 1, False),
    "gen_bernoulli n": (lambda n, _: gen_bernoulli(n, 0.5, 0), 1, False),
    "gen_uniform n": (lambda n, _: gen_uniform(n, 0), 1, False),
    "gen_mura n": (lambda n, _: gen_mura(n), 5, False),
    "gen_mls degree": (lambda degree, _: gen_mls(degree), 2, False),
    "gen_mls seed_state": (lambda state, _: gen_mls(3, state), 1, False),
    "spectral_weights n": (lambda n, _: spectral_weights(ScenePrior.IID, n), 2, False),
    "predict_pinhole n": (lambda n, _: predict_pinhole(n, 0.1, 1.0), 1, False),
    "predict_flat_onef n": (lambda n, _: predict_flat_onef(n, 0.1, 1.0), 5, False),
    "predict_gaussian_onef n": (lambda n, _: predict_gaussian_onef(n, 0.1, 1.0), 5, False),
    "predict_bernoulli_onef n": (lambda n, _: predict_bernoulli_onef(n, 0.5, 0.1, 1.0), 5, False),
    "optimal_p_onef n": (lambda n, _: optimal_p_onef(n, 0.1, 1.0), 5, False),
    # a pattern's n is its length, so only n = 1 reaches jensen_bound's own check
    "jensen_bound n": (lambda n, _: jensen_bound(gen_pinhole(n), NOISE), 2, False),
    "EnsembleConfig n": (lambda n, _: _config(n=n), 2, False),
    "EnsembleConfig trials": (lambda trials, _: _config(trials=trials), 2, False),
    "EnsembleConfig workers": (lambda workers, _: _config(workers=workers), 1, False),
}
SEED_ENTRIES = [entry for entry, (_, least, _) in INT_ENTRIES.items() if least == 0]
SIZE_ENTRIES = [entry for entry, (_, least, _) in INT_ENTRIES.items() if least > 0]
ODD_N_ENTRIES = [entry for entry in SIZE_ENTRIES if "onef" in entry]


def _forbid_work(monkeypatch):
    """Make every draw, FFT and numpy array constructor that an entry uses
    after its checks raise AssertionError."""
    def no_work(*_args, **_kwargs):
        raise AssertionError("worked before checking the integer")
    for module, name in ((np.random, "default_rng"), (np.random, "SeedSequence"),
                         (np.fft, "fft"), (np, "empty"), (np, "ones"), (np, "arange")):
        monkeypatch.setattr(module, name, no_work)


class TestSeedRule:
    """One integer rule (model.check_int) for every entry that takes a seed or a
    size: an int >= the entry's least, not a bool, a float, a string or a numpy
    integer, and None only where a pattern has no seed.  A bad value raises
    InvalidArgumentError before any draw, FFT or array."""

    @pytest.mark.parametrize("entry, seed", [
        (entry, seed) for entry in SEED_ENTRIES
        for seed in (-1, True, 2.5, "3", None) if not (seed is None and INT_ENTRIES[entry][2])])
    def test_bad_seed_rejected_before_any_draw(self, monkeypatch, tmp_path, entry, seed):
        _forbid_work(monkeypatch)
        with pytest.raises(InvalidArgumentError,
                           match=r"(seed|index) must be (None/null or )?an integer >= 0, got "):
            INT_ENTRIES[entry][0](seed, tmp_path)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("entry", SEED_ENTRIES)
    def test_every_int_seed_accepted(self, tmp_path, entry, seed):
        INT_ENTRIES[entry][0](seed, tmp_path)

    @pytest.mark.parametrize("kind", ["least - 1", "True", "float", "str", "numpy"])
    @pytest.mark.parametrize("entry", SIZE_ENTRIES)
    def test_bad_size_rejected_before_any_work(self, monkeypatch, tmp_path, entry, kind):
        call, least, _ = INT_ENTRIES[entry]
        value = {"least - 1": least - 1, "True": True, "float": float(least), "str": "3",
                 "numpy": np.int64(least)}[kind]
        if kind == "least - 1" and entry in ODD_N_ENTRIES:  # every int keeps the odd-n text
            message = f"^the 1/f-prior formulas need odd n >= 5, got {value}$"
        else:
            name = entry.split()[-1]
            message = rf"^{name} must be an integer >= \d+, got {re.escape(repr(value))}$"
        _forbid_work(monkeypatch)
        with pytest.raises(InvalidArgumentError, match=message):
            call(value, tmp_path)

    @pytest.mark.parametrize("entry", SIZE_ENTRIES)
    def test_least_size_accepted(self, tmp_path, entry):
        call, least, _ = INT_ENTRIES[entry]
        call(least, tmp_path)


@pytest.mark.parametrize("make, message", [
    (lambda: AperturePattern(np.array([0.0, 1.0, 1.0]), "mls"),
     "family must be a PatternFamily, got 'mls'"),
    (lambda: AperturePattern(np.array([0.0, 1.0, 1.0]), "bogus"),
     "family must be a PatternFamily, got 'bogus'"),
    (lambda: _config(prior="iid"), "prior must be a ScenePrior, got 'iid'"),
    (lambda: _config(noise=(0.01, 1.0)), r"noise must be a NoiseModel, got \(0\.01, 1\.0\)"),
], ids=["pattern family value", "pattern family unknown", "config prior", "config noise"])
def test_enum_field_holds_its_member(make, message):
    """An enum-typed field holds a member of its enum (and noise a NoiseModel):
    any other value, its member's string value included, is rejected, not converted."""
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        make()


# Every entry that takes a real argument: (the call on one value, the start of
# the error the rule of real arguments (model.check_real) gives for a bad value).
REAL_ENTRIES = {
    "NoiseModel W": (lambda W, _: NoiseModel(W, 1.0), "W must be finite and nonnegative"),
    "NoiseModel J": (lambda J, _: NoiseModel(0.1, J), "J must be finite and nonnegative"),
    "gen_bernoulli p": (lambda p, _: gen_bernoulli(5, p, 0), "p must be finite and in [0, 1]"),
    "predict_bernoulli_iid p": (lambda p, _: predict_bernoulli_iid(p, 0.1, 1.0),
                                "p must be finite and in [0, 1]"),
    "predict_bernoulli_onef p": (lambda p, _: predict_bernoulli_onef(5, p, 0.1, 1.0),
                                 "p must be finite and in [0, 1]"),
    "EnsembleConfig p": (lambda p, _: _config(p=p), "p must be finite and in [0, 1]"),
    "sweep_p grid": (lambda p, _: sweep_p(_config(), [0.5, p]), "p must be finite and in [0, 1]"),
    "optimal_p_onef tol": (lambda tol, _: optimal_p_onef(5, 0.1, 1.0, tol=tol),
                           "tol must be finite and positive"),
    "predict_uniform_iid bulk_variance": (lambda v, _: predict_uniform_iid(0.1, 1.0, v),
                                          "bulk_variance must be finite and positive"),
    "predict_gaussian_onef rho_j": (lambda rho_j, _: predict_gaussian_onef(5, 0.1, rho_j),
                                    "rho_j must be finite and nonnegative"),
    "gamma rho": (lambda rho, _: gamma(NOISE, rho), "rho must be finite and in [0, 1]"),
    "db_to_linear": (lambda x_db, _: db_to_linear(x_db), "x_db must be finite and real"),
}
# Entries that look a name up: the predictor, the scene prior and the metric.
NAME_ENTRIES = {
    "predict name": lambda which, _: predict(which, n=5, p=0.5, W=0.1, J=1.0, rho_j=1.0,
                                             bulk_variance=0.05, form="midsum"),
    "ScenePrior.parse": lambda text, _: ScenePrior.parse(text),
    "EnsembleConfig metric": lambda metric, _: _config(metric=metric),
}


class TestRealRule:
    """One rule (model.check_real) for every real argument: an int, a float or
    another numbers.Real, numpy's included, not a bool, finite and in the
    entry's range; the value is returned unchanged."""

    # any finite dB value is real, so -1.0 is bad everywhere but at db_to_linear
    @pytest.mark.parametrize("entry, value", [
        (entry, value) for entry in sorted(REAL_ENTRIES)
        for value in (True, "0.3", None, math.nan, math.inf, -1.0)
        if (entry, value) != ("db_to_linear", -1.0)], ids=repr)
    def test_bad_value_rejected_with_its_name_and_range(self, entry, value):
        call, message = REAL_ENTRIES[entry]
        with pytest.raises(InvalidArgumentError,
                           match=f"^{re.escape(message)}, got {re.escape(repr(value))}$"):
            call(value, None)

    @pytest.mark.parametrize("entry, value", [
        (entry, value) for entry in sorted(NAME_ENTRIES) for value in (True, "0.3", None)
        if (entry, value) != ("EnsembleConfig metric", None)], ids=repr)  # None: its default
    def test_bad_name_rejected(self, entry, value):
        with pytest.raises(InvalidArgumentError):
            NAME_ENTRIES[entry](value, None)

    @pytest.mark.parametrize("value", [0, 1, 0.25, np.float64(0.5), np.float32(0.5), np.int64(1),
                                       Fraction(1, 3)], ids=repr)
    def test_every_real_in_range_returned_unchanged(self, value):
        assert check_real(value, "p", "in [0, 1]") is value

    @pytest.mark.parametrize("span, inside, outside", [
        ("real", [-1e308, 0.0, 1e308], []), ("nonnegative", [0, 0.0, 1e308], [-5e-324]),
        ("positive", [5e-324, 1e308], [0, 0.0, -1.0]), ("in [0, 1]", [0, 1.0], [-5e-324, 1.5]),
    ])
    def test_span_bounds(self, span, inside, outside):
        for value in inside:
            assert check_real(value, "x", span) is value
        for value in outside:
            with pytest.raises(InvalidArgumentError,
                               match=f"^x must be finite and {re.escape(span)}, got "):
                check_real(value, "x", span)

    def test_no_output_type_moves(self):
        """A valid value is not converted: a generator records p as given, and
        a sweep row holds the grid's own p."""
        assert gen_bernoulli(5, 1, 0).metadata == {"p": 1}
        assert type(sweep_p(_config(), [np.float64(0.5)])[0].p) is np.float64


# The entries above that take a Python value (the descriptor's seed comes from
# JSON), each enum-typed field, and values of every kind a caller may pass:
# ints and numpy ints up to 64 (a valid size stays small), floats, bools,
# short strings, None and the fields' own members.
CONTRACT_ENTRIES = {
    **{entry: call for entry, (call, _, _) in INT_ENTRIES.items() if entry != "descriptor"},
    **{entry: call for entry, (call, _) in REAL_ENTRIES.items()},
    **NAME_ENTRIES,
    "AperturePattern family": lambda family, _: AperturePattern(np.array([0.0, 1.0]), family),
    "EnsembleConfig prior": lambda prior, _: _config(prior=prior),
    "EnsembleConfig noise": lambda noise, _: _config(noise=noise),
}
VALUES = st.one_of(st.integers(-3, 64), st.integers(-3, 64).map(np.int64), st.floats(),
                   st.booleans(), st.text(max_size=3), st.none(),
                   st.sampled_from([*PatternFamily, *ScenePrior, NOISE]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CONTRACT_ENTRIES)), VALUES)
def test_library_error_contract(entry, value):
    """Whatever value an entry is given, it returns or raises
    InvalidArgumentError: no numpy TypeError, KeyError or AttributeError escapes."""
    try:
        CONTRACT_ENTRIES[entry](value, None)
    except InvalidArgumentError:
        pass
