"""Aperture generators checked against independent oracles.

The spectral claims are verified with a direct O(n^2) DFT (no FFT), the
quadratic-residue mask against a Legendre-symbol oracle, and the shift
register table against an explicit period count.
"""

import math
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from apmi import (
    AperturePattern,
    FlatnessCheckError,
    InvalidArgumentError,
    NoiseModel,
    PatternFamily,
    ScenePrior,
    gen_bernoulli,
    gen_mls,
    gen_mura,
    gen_pinhole,
    gen_uniform,
    load_pattern,
    mutual_information,
    save_pattern,
)
from apmi import patterns
from apmi.patterns import IO_CHUNK, MLS_POLYNOMIALS, MURA_MAX_N
from apmi.spectral import power_spectrum


def mls_loop_reference(degree, seed_state=None):
    """The shift register one step at a time: the loop gen_mls replaced."""
    m = degree
    n = (1 << m) - 1
    poly = (1 << m) | 1
    for t in MLS_POLYNOMIALS[m]:
        poly |= 1 << t
    a = np.empty(n)
    state = n if seed_state is None else seed_state
    for i in range(n):
        a[i] = state & 1
        state <<= 1
        if state >> m & 1:
            state ^= poly
    return a


def gf2_mulmod(a, b, poly, m):
    """Product of two GF(2) polynomials (bit masks of degree < m) modulo
    ``poly`` of degree m."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= poly
    return product


def prime_factors(n):
    """The distinct prime factors of n, by trial division."""
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return factors + ([n] if n > 1 else [])


def euler_criterion_reference(n):
    """Element 0 open, element i open iff i^((n-1)/2) = 1 mod n.  The power is
    taken by square-and-multiply over all i at once: the scalar pow() loop
    gen_mura replaced takes seconds over every prime below 20,000."""
    base = np.arange(n, dtype=np.int64)
    power = np.ones(n, dtype=np.int64)
    e = (n - 1) // 2
    while e:
        if e & 1:
            power = power * base % n
        base = base * base % n
        e >>= 1
    expected = (power == 1).astype(float)
    expected[0] = 1.0
    return expected


def text_reference(values):
    """Pattern-file text by the per-element rule save_pattern implements."""
    return "".join(f"{int(v)}\n" if v in (0.0, 1.0) else f"{float(v)!r}\n"
                   for v in values)


def levels_reference(values, flat):
    """The spectral levels a generator records, from power_spectrum of its
    row; with the per-bin deviation from (n+1)/4 for the exactly flat MLS."""
    bulk = power_spectrum(values)[1:]
    levels = {"lambda1": float(values.sum()), "bulk_mean": float(bulk.mean()),
              "bulk_min": float(bulk.min()), "bulk_max": float(bulk.max())}
    if flat:
        target = (values.size + 1) / 4
        levels["bulk_max_abs_dev"] = max(abs(levels["bulk_min"] - target),
                                         abs(levels["bulk_max"] - target))
    return levels


def dft_power_direct(a):
    """|DFT|^2 by explicit summation - independent of any FFT library."""
    n = len(a)
    k = np.arange(n)
    out = np.empty(n)
    for i in range(n):
        phase = np.exp(-2j * np.pi * i * k / n)
        out[i] = abs(np.dot(a, phase)) ** 2
    return out


class TestPinhole:
    def test_examples(self):
        np.testing.assert_array_equal(gen_pinhole(4).values, [1, 0, 0, 0])
        np.testing.assert_array_equal(gen_pinhole(1).values, [1])
        assert gen_pinhole(8).rho == pytest.approx(1 / 8)

    def test_invalid_n(self):
        with pytest.raises(InvalidArgumentError):
            gen_pinhole(0)


class TestMLS:
    def test_degree_3_spectrum(self):
        pattern = gen_mls(3)
        assert pattern.n == 7
        assert pattern.values.sum() == 4
        power = dft_power_direct(pattern.values)
        assert power[0] == pytest.approx(16, abs=1e-9)
        np.testing.assert_allclose(power[1:], 2.0, atol=1e-9)

    def test_ones_count(self):
        for degree in (2, 3, 4, 5, 8, 10):
            pattern = gen_mls(degree)
            n = 2 ** degree - 1
            assert pattern.n == n
            assert pattern.values.sum() == (n + 1) / 2

    def test_degree_8_length(self):
        pattern = gen_mls(8)
        assert pattern.n == 255
        assert pattern.values.sum() == 128

    def test_bulk_flat_direct_dft(self):
        # independent of the generator's own FFT-based self-check
        for degree in (3, 4, 5, 6, 7):
            pattern = gen_mls(degree)
            n = pattern.n
            power = dft_power_direct(pattern.values)
            assert abs(power[0] - ((n + 1) / 2) ** 2) <= 1e-9 * n
            assert np.max(np.abs(power[1:] - (n + 1) / 4)) <= 1e-6 * n

    def test_unsupported_degrees(self):
        with pytest.raises(InvalidArgumentError):
            gen_mls(1)
        with pytest.raises(InvalidArgumentError):
            gen_mls(21)

    def test_polynomials_are_primitive(self):
        """Each tabulated polynomial must drive the register through all
        2^m - 1 nonzero states (multiply-by-x recurrence is a bijection,
        so full period is exactly primitivity)."""
        for degree, mids in MLS_POLYNOMIALS.items():
            if degree > 13:
                continue  # larger degrees are covered by generation below
            mask = (1 << degree) | 1
            for t in mids:
                mask |= 1 << t
            state, period = 1, 0
            while True:
                state <<= 1
                if (state >> degree) & 1:
                    state ^= mask
                period += 1
                if state == 1:
                    break
            assert period == 2 ** degree - 1, f"degree {degree}"

    def test_polynomials_are_primitive_by_order(self):
        """x has order exactly 2^m - 1 modulo each tabulated polynomial:
        x^(2^m - 1) = 1 and x^((2^m - 1)/q) != 1 for each prime q dividing
        2^m - 1.  That is primitivity, for every degree; a loaded mls row's
        theorem spectrum rests on it."""
        for m, taps in MLS_POLYNOMIALS.items():
            poly = (1 << m) | 1
            for t in taps:
                poly |= 1 << t

            def x_power(e):
                result, base = 1, 0b10  # base is x
                while e:
                    if e & 1:
                        result = gf2_mulmod(result, base, poly, m)
                    base = gf2_mulmod(base, base, poly, m)
                    e >>= 1
                return result
            order = (1 << m) - 1
            assert x_power(order) == 1, f"degree {m}"
            for q in prime_factors(order):
                assert x_power(order // q) != 1, f"degree {m}, q={q}"

    def test_high_degrees_generate(self):
        # degrees 14..20 run the spectral self-check at generation time
        for degree in (14, 17, 20):
            pattern = gen_mls(degree)
            assert pattern.values.sum() == 2 ** (degree - 1)

    def test_seed_state_changes_phase_only(self):
        base = gen_mls(5)
        shifted = gen_mls(5, seed_state=7)
        assert not np.array_equal(base.values, shifted.values)
        # same multiset of values and same spectrum magnitudes
        assert shifted.values.sum() == base.values.sum()
        np.testing.assert_allclose(
            np.sort(dft_power_direct(shifted.values)),
            np.sort(dft_power_direct(base.values)), atol=1e-9)

    @pytest.mark.parametrize("degree", sorted(MLS_POLYNOMIALS))
    def test_matches_loop_reference(self, degree):
        """Bitwise the register stepped one output at a time, from state 1,
        the all-ones state 2^m - 1 (the default) and fixed states between."""
        n = 2 ** degree - 1
        seeds = [None] + ([1, 2, n // 2, n - 1, n] if degree <= 16 else [])
        for seed_state in dict.fromkeys(seeds):  # n // 2 == 1 at degree 2
            np.testing.assert_array_equal(gen_mls(degree, seed_state).values,
                                          mls_loop_reference(degree, seed_state))

    def test_invalid_seed_state(self):
        with pytest.raises(InvalidArgumentError):
            gen_mls(4, seed_state=0)
        with pytest.raises(InvalidArgumentError):
            gen_mls(4, seed_state=16)


class TestMURA:
    def test_n5_open_set(self):
        # quadratic residues mod 5 are {1, 4}; element 0 opens by convention
        pattern = gen_mura(5)
        assert set(np.flatnonzero(pattern.values)) == {0, 1, 4}

    def test_legendre_oracle(self):
        for n in (13, 17, 29):
            pattern = gen_mura(n)
            residues = {(x * x) % n for x in range(1, n)}
            expected = np.zeros(n)
            expected[0] = 1
            for r in residues:
                expected[r] = 1
            np.testing.assert_array_equal(pattern.values, expected)
            assert pattern.values.sum() == (n + 1) / 2

    def test_matches_euler_criterion(self):
        sieve = np.ones(20_000, dtype=bool)
        sieve[:2] = False
        for f in range(2, 142):
            sieve[f * f::f] = False
        primes = [int(p) for p in np.flatnonzero(sieve) if p % 4 == 1]
        assert len(primes) == 1_125
        for n in primes:
            np.testing.assert_array_equal(gen_mura(n).values,
                                          euler_criterion_reference(n), err_msg=f"n={n}")

    def test_too_large_rejected(self):
        # i*i in uint64 is exact only below MURA_MAX_N; checked before
        # the trial-division primality test
        with pytest.raises(InvalidArgumentError, match="too large"):
            gen_mura(MURA_MAX_N + 1)

    def test_n13_spectrum_two_valued(self):
        pattern = gen_mura(13)
        power = dft_power_direct(pattern.values)
        lo, hi = (1 - 13 ** 0.5) ** 2 / 4, (1 + 13 ** 0.5) ** 2 / 4
        for v in power[1:]:
            assert min(abs(v - lo), abs(v - hi)) < 1e-9
        assert power[1:].mean() == pytest.approx((13 + 1) / 4, abs=1e-9)

    @pytest.mark.parametrize("n", [6, 7, 9, 15])
    def test_invalid_n(self, n):
        # composite, or prime not congruent to 1 mod 4
        with pytest.raises(InvalidArgumentError):
            gen_mura(n)


class TestRandomFamilies:
    def test_bernoulli_determinism(self):
        a = gen_bernoulli(250, 0.5, seed=7)
        b = gen_bernoulli(250, 0.5, seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        c = gen_bernoulli(250, 0.5, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_bernoulli_concentration(self):
        pattern = gen_bernoulli(100_000, 0.3, seed=1)
        assert abs(pattern.rho - 0.3) < 0.01  # 3 sigma is ~0.0043

    def test_bernoulli_invalid_p(self):
        with pytest.raises(InvalidArgumentError):
            gen_bernoulli(4, 1.5, seed=0)

    def test_uniform_bounds_and_mean(self):
        pattern = gen_uniform(100_000, seed=2)
        assert np.all(pattern.values >= 0) and np.all(pattern.values <= 1)
        assert abs(pattern.rho - 0.5) < 0.005

    def test_uniform_determinism(self):
        np.testing.assert_array_equal(gen_uniform(64, seed=3).values,
                                      gen_uniform(64, seed=3).values)


class TestRecordedLevels:
    """The levels in a generated mask's metadata are bitwise those of its own
    power spectrum."""

    @pytest.mark.parametrize("degree", range(2, 13))
    def test_mls(self, degree):
        pattern = gen_mls(degree)
        reference = levels_reference(pattern.values, flat=True)
        assert pattern.metadata == {"degree": degree,
                                    "polynomial_taps": (degree, *MLS_POLYNOMIALS[degree], 0),
                                    "seed_state": pattern.n, **reference}

    @pytest.mark.parametrize("n", [5, 13, 29, 101, 1009])
    def test_mura(self, n):
        pattern = gen_mura(n)
        assert pattern.metadata == levels_reference(pattern.values, flat=False)


class TestAperturePattern:
    def test_entries_validated(self):
        with pytest.raises(InvalidArgumentError):
            AperturePattern(np.array([0.5, 1.2]), PatternFamily.CUSTOM)
        with pytest.raises(InvalidArgumentError):
            AperturePattern(np.array([]), PatternFamily.CUSTOM)
        with pytest.raises(InvalidArgumentError):
            AperturePattern(np.array([np.nan, 0.0]), PatternFamily.CUSTOM)

    @pytest.mark.parametrize("row", [[0.5, 1.0, 0.0], [1.0, 2.0], [np.nan, 1.0], [np.inf, 0.0]])
    @pytest.mark.parametrize("family", ["pinhole", "mls", "mura"])
    def test_zero_one_family_holds_only_0s_and_1s(self, family, row):
        with pytest.raises(InvalidArgumentError,
                           match=rf"^family '{family}' needs a row of only 0s and 1s$"):
            AperturePattern(np.array(row), PatternFamily(family))

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_transmissivity_is_mean(self, n, seed):
        pattern = gen_uniform(n, seed)
        assert pattern.rho == pytest.approx(
            float(pattern.values.mean()), rel=1e-12)


class TestSerialization:
    def test_round_trip_binary(self, tmp_path):
        pattern = gen_mls(4)
        base = str(tmp_path / "mask")
        txt, descriptor = save_pattern(pattern, base)
        loaded = load_pattern(txt)
        np.testing.assert_array_equal(loaded.values, pattern.values)
        assert loaded.family is PatternFamily.MLS

    @pytest.mark.parametrize("row", [[0.0, 1.0, 1.0], [0.0, 0.5, 1.0]], ids=["zero-one", "gray"])
    @pytest.mark.parametrize("family", list(PatternFamily), ids=lambda f: f.value)
    def test_every_pattern_made_loads_back(self, tmp_path, family, row):
        """Every pattern the constructor accepts saves and loads back with its
        family and values; a pinhole, mls or mura pattern is made of 0/1 rows only."""
        try:
            pattern = AperturePattern(np.array(row), family)
        except InvalidArgumentError:
            assert family.value in ("pinhole", "mls", "mura") and 0.5 in row
            return
        loaded = load_pattern(save_pattern(pattern, str(tmp_path / "mask"))[0])
        assert loaded.family is family
        np.testing.assert_array_equal(loaded.values, pattern.values)

    def test_round_trip_gray(self, tmp_path):
        pattern = gen_uniform(33, seed=9)
        txt, _ = save_pattern(pattern, str(tmp_path / "gray"))
        loaded = load_pattern(txt)
        # repr round-trips floats exactly
        np.testing.assert_array_equal(loaded.values, pattern.values)
        assert loaded.seed == 9

    @pytest.mark.parametrize("n", [IO_CHUNK - 1, IO_CHUNK, IO_CHUNK + 1])
    def test_chunk_boundaries_byte_for_byte(self, tmp_path, n):
        gray = gen_uniform(n, seed=n).values
        gray[[0, 5, n // 2, n - 1]] = [-0.0, 0.0, 1.0, -0.0]
        binary = gen_bernoulli(n, 0.5, seed=n).values
        for name, values in (("gray", gray), ("binary", binary)):
            txt, _ = save_pattern(AperturePattern(values), str(tmp_path / name))
            text = (tmp_path / f"{name}.txt").read_text()
            assert text == text_reference(values)
            loaded = load_pattern(txt)
            np.testing.assert_array_equal(loaded.values, values)
            save_pattern(loaded, str(tmp_path / f"{name}2"))
            assert (tmp_path / f"{name}2.txt").read_bytes() == text.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "binary.json", "binary.txt", "binary2.json", "binary2.txt",
            "gray.json", "gray.txt", "gray2.json", "gray2.txt"]

    def test_load_blank_and_crlf_lines(self, tmp_path):
        path = tmp_path / "mask.txt"
        # blank lines also fill a whole read chunk and straddle its end
        path.write_bytes(b"1\r\n\r\n 0.5 \r\n" + b"\n" * IO_CHUNK
                         + b"  \t\n0.25\n\n1")
        np.testing.assert_array_equal(load_pattern(str(path)).values,
                                      [1.0, 0.5, 0.25, 1.0])

    def test_load_reports_line_past_first_chunk(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("0\n" * IO_CHUNK + "1e\n" + "1\n" * 3)
        with pytest.raises(InvalidArgumentError,
                           match=rf"long\.txt:{IO_CHUNK + 1}: not a number: '1e'"):
            load_pattern(str(path))

    def test_load_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(InvalidArgumentError, match=r"bom\.txt: .*can't decode"):
            load_pattern(str(path))

    def test_load_without_descriptor(self, tmp_path):
        path = tmp_path / "bare.txt"
        path.write_text("1\n0\n1\n")
        loaded = load_pattern(str(path))
        assert loaded.family is PatternFamily.CUSTOM
        np.testing.assert_array_equal(loaded.values, [1, 0, 1])

    def test_load_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(InvalidArgumentError):
            load_pattern(str(path))

    def test_load_non_numeric_line_rejected(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("0.5\nabc\n0.25\n")
        with pytest.raises(InvalidArgumentError, match=r"garbage\.txt:2: not a number"):
            load_pattern(str(path))

    def test_load_corrupt_descriptor_rejected(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("1\n0\n1\n")
        (tmp_path / "mask.json").write_text("{not json")
        with pytest.raises(InvalidArgumentError, match=r"mask\.json: bad descriptor"):
            load_pattern(str(path))

    @pytest.mark.parametrize("descriptor", ["[]", '"x"', '{"metadata": [1]}'])
    def test_load_non_object_descriptor_rejected(self, tmp_path, descriptor):
        path = tmp_path / "mask.txt"
        path.write_text("1\n0\n1\n")
        (tmp_path / "mask.json").write_text(descriptor)
        with pytest.raises(InvalidArgumentError, match=r"mask\.json: bad descriptor: "):
            load_pattern(str(path))

    @pytest.mark.parametrize("descriptor, reason", [
        ('{"seed": [1, 2], "n": 7, "metadata": {"a": NaN}}', "NaN is not JSON"),
        ('{"metadata": {"a": Infinity}}', "Infinity is not JSON"),
        ('{"rho": -Infinity}', "-Infinity is not JSON"),
        ('{"metadata": {"a": [1e400]}}', "number 1e400 is out of range"),
        ('{"seed": "abc"}', "seed must be None/null or an integer >= 0, got 'abc'"),
        ('{"seed": [1, 2]}', "seed must be"),
        ('{"seed": true}', "seed must be"),
        ('{"seed": 1.0}', "seed must be"),
        ('{"seed": -1}', "seed must be"),
        ('{"n": 7}', r"n must be 3, the number of entries in .*mask\.txt, got 7"),
        ('{"n": 3.0}', "n must be 3"),
        ('{"n": "3"}', "n must be 3"),
        ('{"n": false}', "n must be 3"),
    ])
    def test_load_bad_descriptor_value_rejected(self, tmp_path, descriptor, reason):
        path = tmp_path / "mask.txt"
        path.write_text("0\n1\n1\n")
        (tmp_path / "mask.json").write_text(descriptor)
        with pytest.raises(InvalidArgumentError, match=rf"mask\.json: bad descriptor: {reason}"):
            load_pattern(str(path))

    def test_load_descriptor_values_restored(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("0\n1\n1\n")
        (tmp_path / "mask.json").write_text(
            '{"seed": 18446744073709551615, "n": 3, "metadata": {"p": 0.5}}')
        loaded = load_pattern(str(path))
        assert (loaded.seed, loaded.metadata) == (2**64 - 1, {"p": 0.5})
        (tmp_path / "mask.json").write_text('{"seed": null}')
        assert load_pattern(str(path)).seed is None

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3", np.int64(3)])
    def test_bad_seed_rejected(self, seed):
        """A pattern holds only a seed its descriptor can hold."""
        with pytest.raises(InvalidArgumentError, match="seed must be None/null or an integer >= 0"):
            AperturePattern(np.array([0.0, 1.0, 1.0]), seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, 2**64 - 1])
    def test_saved_pattern_loads_back(self, tmp_path, seed):
        """Whatever save_pattern writes, load_pattern accepts unchanged."""
        pattern = AperturePattern(np.array([0.0, 0.5, 1.0]), PatternFamily.BERNOULLI, seed=seed,
                                  metadata={"p": 0.5, "taps": [3, 1]})
        txt_path, _ = save_pattern(pattern, str(tmp_path / "mask"))
        loaded = load_pattern(txt_path)
        assert (loaded.family, loaded.seed, loaded.metadata) == (
            pattern.family, seed, pattern.metadata)
        np.testing.assert_array_equal(loaded.values, pattern.values)

    @pytest.mark.parametrize("value", [float("nan"), [1.0, float("inf")], {"b": -math.inf}])
    def test_save_non_finite_metadata_rejected(self, tmp_path, value):
        """The descriptor is strict JSON; the error names the key and no file is left."""
        pattern = AperturePattern(np.array([0.0, 1.0, 1.0]), metadata={"a": value})
        with pytest.raises(InvalidArgumentError, match="metadata 'a' cannot be written as JSON"):
            save_pattern(pattern, str(tmp_path / "mask"))
        assert list(tmp_path.iterdir()) == []

    def test_first_non_finite_metadata_key_named(self, tmp_path):
        """With several bad values, the error names the first key in the
        metadata's own order, not in sorted order."""
        pattern = AperturePattern(np.array([0.0, 1.0, 1.0]),
                                  metadata={"a": 1.0, "z": math.nan, "b": [math.inf]})
        with pytest.raises(InvalidArgumentError, match="metadata 'z' cannot be written as JSON"):
            save_pattern(pattern, str(tmp_path / "mask"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["pinhole", "mls", "mura"])
    def test_load_zero_one_family_needs_zero_one_row(self, tmp_path, family):
        """A 0/1 family labels only a 0/1 row, however the values are written;
        Bernoulli rows may hold any value (see test_saved_pattern_loads_back)."""
        path = tmp_path / "mask.txt"
        (tmp_path / "mask.json").write_text(f'{{"family": "{family}"}}')
        path.write_text("0.5\n0.5\n0.5\n")
        with pytest.raises(InvalidArgumentError, match=rf"mask\.json: bad descriptor: "
                           rf"family '{family}' needs a row of only 0s and 1s"):
            load_pattern(str(path))
        path.write_text("1.0\r\n0\r\n1e0\r\n")
        assert load_pattern(str(path)).family is PatternFamily(family)

    def test_load_ignores_descriptor_rho(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("0\n1\n1\n")
        (tmp_path / "mask.json").write_text('{"family": "mls", "rho": 0.9}')
        assert load_pattern(str(path)).rho == 2 / 3

    def test_load_unknown_family_rejected(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("1\n0\n1\n")
        (tmp_path / "mask.json").write_text('{"family": "hexagon"}\n')
        with pytest.raises(InvalidArgumentError, match="bad descriptor"):
            load_pattern(str(path))


class TestCodecPaths:
    """A batch or file of only 0s and 1s goes through the byte codec, any
    other through the per-line one; both must give the same text and values."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([1, 2, IO_CHUNK - 1, IO_CHUNK, IO_CHUNK + 1, 2 * IO_CHUNK + 1]),
           seed=st.integers(0, 2**32 - 1),
           gray=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                   st.floats(0, 1)), max_size=4))
    def test_mixed_values_round_trip(self, n, seed, gray):
        values = np.random.default_rng(seed).choice([0.0, -0.0, 1.0], n)
        for where, value in gray:
            values[int(where * n)] = value
        with tempfile.TemporaryDirectory() as tmp:
            txt, _ = save_pattern(AperturePattern(values), os.path.join(tmp, "mask"))
            assert Path(txt).read_text() == text_reference(values)
            loaded = load_pattern(txt).values
        # -0.0 is written as 0 and so reads back as +0.0
        assert loaded.tobytes() == np.where(values == 0.0, 0.0, values).tobytes()

    @pytest.mark.parametrize("data, expected", [
        (b"0\n1", [0.0, 1.0]),
        (b"1\r\n0\r\n", [1.0, 0.0]),
        (b"1\n\n0\n", [1.0, 0.0]),
        (b" 1\n", [1.0]),
        (b"01\n", [1.0]),
        (b"1\n0\n" * IO_CHUNK + b"0.5\n", [1.0, 0.0] * IO_CHUNK + [0.5]),
    ])
    def test_near_binary_file_loads_as_lines(self, tmp_path, data, expected):
        path = tmp_path / "near.txt"
        path.write_bytes(data)
        assert load_pattern(str(path)).values.tolist() == expected

    @pytest.mark.parametrize("data, message", [
        (b"2\n", r"must lie in \[0, 1\]"),
        (b"", r"near\.txt: no pattern entries found"),
        (b"0\n\xff\n", r"near\.txt: .*can't decode"),
        (b"1\n" * IO_CHUNK + b"x\n", rf"near\.txt:{IO_CHUNK + 1}: not a number: 'x'"),
    ])
    def test_near_binary_file_rejected_as_lines(self, tmp_path, data, message):
        path = tmp_path / "near.txt"
        path.write_bytes(data)
        with pytest.raises(InvalidArgumentError, match=message):
            load_pattern(str(path))

    def test_binary_file_skips_line_parser(self, tmp_path, monkeypatch):
        txt, _ = save_pattern(gen_mls(16), str(tmp_path / "mls"))
        monkeypatch.setattr(patterns, "_parse_lines", None)
        np.testing.assert_array_equal(load_pattern(txt).values, gen_mls(16).values)

    @staticmethod
    def load_from_pipe(tmp_path, data):
        """load_pattern of a named pipe that a thread fills with ``data``."""
        path = tmp_path / "pipe.txt"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            values = load_pattern(str(path)).values
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        return values

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_load_from_pipe(self, tmp_path):
        """A pipe, read once like any file, holding a value other than 0 and 1
        goes to the line parser."""
        np.testing.assert_array_equal(self.load_from_pipe(tmp_path, b"0\n1\n0.5\n"),
                                      [0.0, 1.0, 0.5])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_binary_pipe_skips_line_parser(self, tmp_path, monkeypatch):
        """A pipe of only 0/1 lines is decoded from its bytes, as a file is."""
        monkeypatch.setattr(patterns, "_parse_lines", None)
        np.testing.assert_array_equal(self.load_from_pipe(tmp_path, b"0\n1\n1\n"),
                                      [0.0, 1.0, 1.0])


@pytest.fixture
def fft_calls(monkeypatch):
    """The shapes of the np.fft.fft calls made while the test runs."""
    calls = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fft(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


def _flipped(values, i):
    values = values.copy()
    values[i] = 1.0 - values[i]
    return values


class TestProvenSpectrum:
    """A loaded row that proves its mls or mura label takes its spectrum by
    theorem and makes no FFT; any other row makes the one FFT it always made."""

    NOISE = NoiseModel(W=0.01, J=1.0)

    @pytest.mark.parametrize("make", [
        lambda: gen_mls(20),
        lambda: gen_mls(12, seed_state=1234),
        lambda: gen_mura(65537),
    ], ids=["mls20", "mls12-seed-state", "mura65537"])
    def test_proven_row_makes_no_fft(self, tmp_path, fft_calls, make):
        txt_path, _ = save_pattern(make(), str(tmp_path / "mask"))
        fft_calls.clear()
        loaded = load_pattern(txt_path)
        for prior in ScenePrior:
            mutual_information(loaded, prior, self.NOISE)
        assert fft_calls == []
        np.testing.assert_allclose(loaded.lambda_sq, power_spectrum(loaded.values),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("family, make", [
        ("mls", lambda: _flipped(gen_mls(10).values, 100)),
        ("mls", lambda: gen_mls(10).values[::-1]),
        ("mls", lambda: np.zeros(1023)),
        ("mls", lambda: gen_mls(10).values[:-1]),
        ("mura", lambda: _flipped(gen_mura(29).values, 5)),
        ("mura", lambda: patterns._qr_row(21)),
    ], ids=["mls-bit-flipped", "mls-reversed", "mls-all-zero", "mls-wrong-length",
            "mura-bit-flipped", "mura-non-prime"])
    def test_unproven_row_makes_one_fft(self, tmp_path, fft_calls, family, make):
        pattern = AperturePattern(make(), PatternFamily(family))
        txt_path, _ = save_pattern(pattern, str(tmp_path / "mask"))
        fft_calls.clear()
        loaded = load_pattern(txt_path)
        got = [mutual_information(loaded, prior, self.NOISE) for prior in ScenePrior]
        assert len(fft_calls) == 1
        assert loaded.family is PatternFamily(family)
        # the bits of the row's own FFT, as every loaded row had before
        custom = AperturePattern(loaded.values)
        assert got == [mutual_information(custom, prior, self.NOISE) for prior in ScenePrior]


def test_flatness_guard_trips_on_bad_table(monkeypatch):
    """A non-primitive polynomial must be caught by the generation check.
    The doubling identity gen_mls builds its row by holds for any GF(2)
    polynomial, so that row is still the register's, from every state."""
    monkeypatch.setitem(MLS_POLYNOMIALS, 4, (2,))  # x^4+x^2+1 is reducible
    with pytest.raises(FlatnessCheckError):
        gen_mls(4)
    for seed_state in range(1, 16):
        np.testing.assert_array_equal(patterns._mls_row(4, (2,), seed_state),
                                      mls_loop_reference(4, seed_state))
