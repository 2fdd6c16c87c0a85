"""Aperture pattern generators: deterministic flat families and random masks.

A pattern is the generating row a of the circulant transfer matrix, with
entries in [0, 1] (fraction of light passed per element).  The two
deterministic families here (maximum-length shift-register sequences and
quadratic-residue masks) are "spectrally flat": half-open masks whose
power spectrum concentrates no information loss in any single frequency.
"""

import io
import itertools
import json
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import FlatnessCheckError, InvalidArgumentError
from .model import (MLS_POLYNOMIALS, PATTERN_OPTIONS, check_int, check_real, mls_length,
                    write_atomic)
from .spectral import power_spectrum

__all__ = [
    "PatternFamily",
    "AperturePattern",
    "MLS_POLYNOMIALS",
    "gen_pinhole",
    "gen_mls",
    "gen_mura",
    "gen_bernoulli",
    "gen_uniform",
    "PATTERNS",
    "save_pattern",
    "load_pattern",
]

# Tolerance scale for the generation-time spectral self-check: bulk
# deviations above FLATNESS_RTOL * n indicate a defective construction.
FLATNESS_RTOL = 1e-6

# Pattern-file lines formatted or parsed per batch.  The batch bounds memory
# only on the general path (values other than 0 and 1, e.g. gray-scale
# rows): large enough that the per-batch numpy call is cheap, small enough
# that a batch's Python strings stay a few MB at n = 2^20 - 1.  save_pattern
# writes a batch of 0/1 lines as one 64 KB byte buffer.
IO_CHUNK = 1 << 15

# _qr_row squares i <= (n-1)/2 in uint64, which is exact below this n.
MURA_MAX_N = 1 << 33


class PatternFamily(str, Enum):
    PINHOLE = "pinhole"
    MLS = "mls"
    MURA = "mura"
    BERNOULLI = "bernoulli"
    UNIFORM = "uniform"
    CUSTOM = "custom"


# Families whose generators write only 0s and 1s, so a row under one of them
# holds only 0s and 1s.  Bernoulli is not among them: a Bernoulli row may hold
# any value in [0, 1], and save_pattern and load_pattern carry it unchanged.
_ZERO_ONE_FAMILIES = (PatternFamily.PINHOLE, PatternFamily.MLS, PatternFamily.MURA)


@dataclass(frozen=True)
class AperturePattern:
    """A 1D aperture: the generating row of the circulant system matrix.

    values : entries in [0, 1], length n >= 1; only 0s and 1s for the
        pinhole, mls and mura families
    family : which generator produced it (CUSTOM for user-supplied rows); a
        PatternFamily member, not its string value
    seed   : RNG seed for the random families, None otherwise
        (model.check_int, with None allowed)
    metadata : generator-specific record (polynomial taps, measured
        spectral levels, nominal p, ...)

    A bad value raises InvalidArgumentError, so every pattern that is made
    can be saved and loaded back.  The fields cannot be rebound.  lambda_sq
    and _proven are taken on first use and kept, so they do not see a later
    in-place edit of values: lambda_sq by theorem for a row that proves its
    mls or mura label, generated or loaded alike, else from values by FFT.
    """

    values: np.ndarray
    family: PatternFamily = PatternFamily.CUSTOM
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise InvalidArgumentError("pattern must be a nonempty 1D vector")
        if not isinstance(self.family, PatternFamily):
            raise InvalidArgumentError(f"family must be a PatternFamily, got {self.family!r}")
        if self.family in _ZERO_ONE_FAMILIES:  # 0/1 implies finite and in [0, 1]
            if np.count_nonzero(a == 0.0) + np.count_nonzero(a == 1.0) != a.size:
                raise InvalidArgumentError(f"family {self.family.value!r} "
                                           "needs a row of only 0s and 1s")
        elif not np.all(np.isfinite(a)):
            raise InvalidArgumentError("pattern entries must be finite")
        elif a.min() < 0.0 or a.max() > 1.0:
            raise InvalidArgumentError("pattern entries must lie in [0, 1]")
        object.__setattr__(self, "values", a)
        check_int(self.seed, "seed", none=True)

    @cached_property
    def _proven(self) -> bool:
        """Whether the row proves its label (_proves_label), so its spectrum is a theorem."""
        return _proves_label(self)

    @cached_property
    def lambda_sq(self) -> np.ndarray:
        """Power spectrum |lambda_k|^2 of the row, k = 0..n-1, DC first."""
        return _theorem_spectrum(self) if self._proven else power_spectrum(self.values)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def rho(self) -> float:
        """Realized transmissivity: mean of the entries."""
        return float(self.values.mean())


####################### spectral self-check #######################

def _check_spectrum(pattern: AperturePattern, where: str, per_bin: bool) -> None:
    """Verify a generated half-open mask's spectrum and add its levels to the
    metadata: DC = (n+1)/2 and a bulk at (n+1)/4, either every bin within
    FLATNESS_RTOL * n (per_bin, which records bulk_max_abs_dev) or the bulk
    mean within 1e-9 * n."""
    n = pattern.n
    bulk = power_spectrum(pattern.values)[1:]  # measured, never the theorem's levels
    levels = {
        "lambda1": float(pattern.values.sum()),
        "bulk_mean": float(bulk.mean()),
        "bulk_min": float(bulk.min()),
        "bulk_max": float(bulk.max()),
    }
    target_dc, target_bulk = (n + 1) / 2, (n + 1) / 4
    if per_bin:
        dev = levels["bulk_max_abs_dev"] = max(abs(levels["bulk_min"] - target_bulk),
                                               abs(levels["bulk_max"] - target_bulk))
        what, tol = "max bulk deviation", FLATNESS_RTOL * n
    else:
        what, dev, tol = "bulk mean deviation", abs(levels["bulk_mean"] - target_bulk), 1e-9 * n
    if levels["lambda1"] != target_dc or dev > tol:
        raise FlatnessCheckError(
            f"{where}: spectral self-check failed "
            f"(lambda1={levels['lambda1']}, expected {target_dc}; {what} {dev:.3e} > {tol:.3e})")
    pattern.metadata.update(levels)


####################### deterministic families #######################

def gen_pinhole(n: int) -> AperturePattern:
    """Single open element out of n; transmissivity 1/n."""
    a = np.zeros(check_int(n, "n", 1))
    a[0] = 1.0
    return AperturePattern(a, PatternFamily.PINHOLE)


def gen_mls(degree: int, seed_state: int | None = None) -> AperturePattern:
    """Binary maximum-length sequence of length 2**degree - 1.

    The mask has (n+1)/2 open elements and an exactly flat bulk spectrum:
    lambda_1 = (n+1)/2 and |lambda_k|^2 = (n+1)/4 for every k >= 2, which
    is re-verified at generation time.

    Parameters
    ----------
    degree : int
        Shift-register length; must be a key of MLS_POLYNOMIALS (2..20).
    seed_state : int, optional
        Nonzero initial register fill in [1, 2**degree - 1].  Changing it
        cyclically rotates the sequence; the spectrum magnitudes do not
        depend on it.  Defaults to the all-ones state.
    """
    m, n = degree, mls_length(degree)
    if seed_state is None:
        seed_state = n  # all ones
    if not check_int(seed_state, "seed_state", 1) <= n:
        raise InvalidArgumentError(
            f"seed_state must lie in [1, {n}], got {seed_state}")
    taps = MLS_POLYNOMIALS[m]
    pattern = AperturePattern(_mls_row(m, taps, seed_state), PatternFamily.MLS, metadata={
        "degree": m, "polynomial_taps": (m, *taps, 0), "seed_state": seed_state})
    _check_spectrum(pattern, f"gen_mls(degree={degree})", per_bin=True)
    return pattern


def _mls_row(m: int, taps: tuple[int, ...], state: int) -> np.ndarray:
    """One period of the Galois register's output from ``state``, as floats.

    Step j outputs bit 0 of x^j * state mod P, P = x^m + sum(x^t) + 1, so the
    row obeys a[j+m] = a[j] ^ XOR of a[j+t] (Golomb, Shift Register Sequences,
    1967).  Over GF(2), P(x)^D = P(x^D) for D = 2^i (the Frobenius map; Lidl
    & Niederreiter, Finite Fields, ch. 1), so a[j+m*D] = a[j] ^ XOR of
    a[j+t*D] too.  After m register steps, each pass takes the largest D with
    m*D <= known bits and adds the next (m - max(taps))*D to one int by one
    shift-XOR.  The int is unpacked 8 KB at a time and dies on return.
    """
    n = (1 << m) - 1
    poly = (1 << m) | 1 | sum(1 << t for t in taps)
    bits = 0
    for j in range(m):
        bits |= (state & 1) << j
        state <<= 1
        if state >> m & 1:
            state ^= poly
    known = m
    while known < n:
        d = 1 << (known // m).bit_length() - 1
        window = bits >> known - m * d  # a[known - m*d .. known - 1]
        new = window
        for t in taps:
            new ^= window >> t * d
        count = min((m - max(taps)) * d, n - known)
        bits |= (new & (1 << count) - 1) << known
        known += count
    packed = memoryview(bits.to_bytes(-(-n // 8), "little"))
    out = np.empty(8 * len(packed))
    for i in range(0, len(packed), 1 << 13):  # a 64 KB uint8 temporary per step
        chunk = np.unpackbits(np.asarray(packed[i:i + (1 << 13)]), bitorder="little")
        out[8 * i:8 * i + chunk.size] = chunk
    return out[:n]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for f in range(3, math.isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


def gen_mura(n: int) -> AperturePattern:
    """Quadratic-residue mask for a prime n with n % 4 == 1.

    Convention: element 0 is open, element i is open iff i is a nonzero
    quadratic residue mod n, giving (n+1)/2 open elements.  By the quadratic
    Gauss sum, lambda_0 = (n+1)/2 and, for k >= 1,

        lambda_k = (1 + chi_k * sqrt(n)) / 2,   chi_k = 2 a_k - 1,

    chi_k being the Legendre symbol of k, so the bulk spectrum is two-valued,
    |lambda_k|^2 = (1 +- sqrt(n))^2 / 4.  Only the DC gain (n+1)/2 and the
    exact bulk mean (n+1)/4 are enforced here; the measured bulk levels are
    recorded in the metadata.
    """
    if check_int(n, "n", 5) >= MURA_MAX_N:
        raise InvalidArgumentError(
            f"n={n} is too large for a quadratic-residue mask (limit {MURA_MAX_N})")
    if not _is_prime(n) or n % 4 != 1:
        raise InvalidArgumentError(
            f"n={n} is not a prime of the form 4d+1 (required for "
            "quadratic-residue masks)")
    pattern = AperturePattern(_qr_row(n), PatternFamily.MURA)
    _check_spectrum(pattern, f"gen_mura(n={n})", per_bin=False)
    return pattern


def _qr_row(n: int) -> np.ndarray:
    """Element 0 and the nonzero quadratic residues mod n open: the squares of
    1..(n-1)/2, taken in uint64, which is exact below MURA_MAX_N."""
    i = np.arange(1, (n + 1) // 2, dtype=np.uint64)
    a = np.zeros(n)
    a[0] = 1.0
    a[i * i % np.uint64(n)] = 1.0
    return a


def _proves_label(pattern: AperturePattern) -> bool:
    """Whether an mls- or mura-labelled row proves its label, so that its
    spectrum follows by theorem (_theorem_spectrum); False for any other
    label.  Such a row holds only 0s and 1s (AperturePattern's rule for
    these families).

    An mls row of length n = 2^m - 1 proves it by being nonzero and
    satisfying, cyclically, the recurrence of MLS_POLYNOMIALS[m],
    a[j+m] = XOR of a[j+t] over t in taps and 0.  The polynomial is primitive,
    so the row is a rotation of the m-sequence.  A mura row proves it by
    being _qr_row(n) of a prime n = 1 mod 4 below MURA_MAX_N.
    """
    a, n = pattern.values, pattern.n
    if pattern.family is PatternFamily.MLS:
        m = n.bit_length()
        if n != (1 << m) - 1 or m not in MLS_POLYNOMIALS:
            return False
        bits = a == 1.0
        if not bits.any():
            return False
        wrapped = np.concatenate((bits, bits[:m]))
        feedback = bits.copy()  # the x^0 term
        for t in MLS_POLYNOMIALS[m]:
            feedback ^= wrapped[t:t + n]
        return bool(np.array_equal(feedback, wrapped[m:]))
    if pattern.family is PatternFamily.MURA:
        return n < MURA_MAX_N and n % 4 == 1 and _is_prime(n) and np.array_equal(a, _qr_row(n))
    return False


def _theorem_spectrum(pattern: AperturePattern) -> np.ndarray:
    """|lambda_k|^2 of a row that proves its mls or mura label, DC first:
    ((n+1)/2)^2 at DC, and (n+1)/4 at every k >= 1 for an m-sequence (Golomb,
    Shift Register Sequences, 1967) or, for a mura row, the two levels gen_mura
    gives."""
    n = pattern.n
    if pattern.family is PatternFamily.MLS:
        spectrum = np.full(n, (n + 1) / 4)
    else:
        spectrum = np.square(1.0 + (2.0 * pattern.values - 1.0) * math.sqrt(n)) / 4
    spectrum[0] = ((n + 1) / 2) ** 2
    return spectrum


####################### random families #######################

# How ensemble.trial_seed derives trial t's seed from a master seed; every
# manifest with a master seed records it.  It lives beside the draws it
# seeds, so the CLI writes manifests without loading the ensemble engine.
SEED_POLICY = ("numpy.random.SeedSequence((master_seed, trial_index))"
               ".generate_state(1, numpy.uint64)[0]")

# Random family -> (the Generator method that draws a row; that row -> the
# mask at open fraction p).  The generators and every ensemble trial draw
# through it: trial t is the mask gen_<family>(n, [p,] trial_seed(m, t)).
RANDOM_DRAWS = {
    "bernoulli": ("random", lambda u, p: (u < p).astype(float)),
    "uniform": ("random", lambda u, p: u),
    "gaussian": ("standard_normal", lambda u, p: u),
}


def _draw(family: str, n: int, seed: int, p: float | None = None) -> np.ndarray:
    """The RANDOM_DRAWS[family] row of numpy's default generator at seed, as a mask at p."""
    check_int(n, "n", 1)
    check_int(seed, "seed")
    method, mask = RANDOM_DRAWS[family]
    return mask(getattr(np.random.default_rng(seed), method)(n), p)


def gen_bernoulli(n: int, p: float, seed: int) -> AperturePattern:
    """Random on-off mask: each element open independently with probability p."""
    check_real(p, "p", "in [0, 1]")
    return AperturePattern(_draw("bernoulli", n, seed, p), PatternFamily.BERNOULLI,
                           seed=seed, metadata={"p": p})


def gen_uniform(n: int, seed: int) -> AperturePattern:
    """Gray-scale mask with entries drawn uniformly from [0, 1)."""
    return AperturePattern(_draw("uniform", n, seed), PatternFamily.UNIFORM, seed=seed)


# Mask family -> (its generator's options, model.PATTERN_OPTIONS, in call order; the
# call), late-bound like asymptotic.PREDICTORS so a patched generator is called.
PATTERNS = {family: (names, call) for (family, names), call in zip(PATTERN_OPTIONS.items(), (
    lambda *a: gen_pinhole(*a),
    lambda *a: gen_mls(*a),
    lambda *a: gen_mura(*a),
    lambda *a: gen_bernoulli(*a),
    lambda *a: gen_uniform(*a),
), strict=True)}


####################### serialization #######################

# Lines of the values written as integers; -0.0 hashes and compares equal
# to 0.0, so it is written as 0 too.
_INTEGER_LINES = {0.0: "0\n", 1.0: "1\n"}


def _text_lines(values: np.ndarray) -> Iterable[str]:
    """One line per value: 0 and 1 as integers, the rest as repr.  A batch
    of only 0s and 1s is encoded as bytes in one numpy step."""
    for start in range(0, values.size, IO_CHUNK):
        chunk = values[start:start + IO_CHUNK]
        if ((chunk == 0.0) | (chunk == 1.0)).all():
            lines = np.full((chunk.size, 2), ord("\n"), dtype=np.uint8)
            lines[:, 0] = chunk + ord("0")
            yield lines.tobytes().decode("ascii")
        else:
            yield "".join([_INTEGER_LINES.get(v) or f"{v!r}\n" for v in chunk.tolist()])


def _pattern_files(pattern: AperturePattern, base_path: str) -> dict:
    """{<base>.txt: the row's lines, <base>.json: its descriptor}, as the text
    chunks write_atomic takes.  The descriptor is strict JSON: the first
    metadata value holding NaN or Infinity raises InvalidArgumentError before
    anything is written (the row's entries, so rho, are finite)."""
    desc = {
        "family": pattern.family.value,
        "n": pattern.n,
        "seed": pattern.seed,
        "rho": pattern.rho,
    }
    for key, value in pattern.metadata.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError as exc:
            raise InvalidArgumentError(
                f"metadata {key!r} cannot be written as JSON: {exc}") from None
    if pattern.metadata:  # json writes a tuple as a list
        desc["metadata"] = pattern.metadata
    text = json.dumps(desc, indent=2, sort_keys=True)
    return {base_path + ".txt": _text_lines(pattern.values), base_path + ".json": [text, "\n"]}


def save_pattern(pattern: AperturePattern, base_path: str) -> tuple[str, str]:
    """Write <base>.txt (one decimal per line) and <base>.json descriptor in one
    write_atomic call, and return their paths.

    The text file round-trips exactly (repr of each float); the descriptor
    records family, n, seed and realized transmissivity plus any generator
    metadata, as strict JSON (see _pattern_files).
    """
    write_atomic(files := _pattern_files(pattern, base_path))
    return tuple(files)


def _reject_bad_line(txt_path: str, lines: list[str], first: int) -> None:
    """Raise for the first line of ``lines`` (numbered from ``first``) that
    float() rejects."""
    for lineno, line in enumerate(lines, start=first):
        try:
            if line.strip():
                float(line)
        except ValueError:
            raise InvalidArgumentError(
                f"{txt_path}:{lineno}: not a number: {line.strip()!r}") from None


def _read_binary(data: bytes) -> np.ndarray | None:
    """The values of a file that is exactly a sequence of "0\n" and "1\n"
    lines, decoded from its bytes in one step.  None for any other file,
    the empty one included."""
    raw = np.frombuffer(data, dtype=np.uint8)
    digit = raw[0::2] - ord("0")  # uint8: every byte but '0' and '1' wraps above 1
    if not raw.size or raw.size % 2 or (digit > 1).any() or (raw[1::2] != ord("\n")).any():
        return None
    return digit.astype(float)


def _parse_lines(txt_path: str, fh) -> np.ndarray:
    """Values of a text stream, one per line, in batches of IO_CHUNK lines;
    blank lines are skipped."""
    chunks = []
    first = 1
    while lines := list(itertools.islice(fh, IO_CHUNK)):
        try:
            # numpy parses each str with Python's float()
            chunks.append(np.array(list(filter(str.strip, lines)), dtype=float))
        except ValueError:
            _reject_bad_line(txt_path, lines, first)
            raise
        first += len(lines)
    return np.concatenate(chunks or [np.empty(0)])


def load_pattern(txt_path: str) -> AperturePattern:
    """Read a pattern text file (one value per line) written by save_pattern.

    The file is read once.  A file of only "0" and "1" lines is decoded from
    its bytes; any other file is parsed line by line in the locale's encoding,
    with the same values.  If a sibling .json descriptor exists its
    family/seed are restored; otherwise the pattern is loaded as CUSTOM.
    The descriptor must be strict JSON (no NaN, Infinity or number that
    overflows a float), its seed null or an integer >= 0, its n, if given,
    the number of entries, and a pinhole, mls or mura family must label a
    row of only 0s and 1s (AperturePattern's rule); else InvalidArgumentError
    naming the descriptor.  Any other row error (an entry that is not finite
    or not in [0, 1]) names the text file.  The descriptor's rho is not read:
    the pattern's rho is the realized mean of its values.  A loaded row proves
    its label by its values, as a generated one does (AperturePattern._proven).
    """
    with open(txt_path, "rb") as fh:
        data = fh.read()
    try:
        vals = _read_binary(data)
        if vals is None:
            vals = _parse_lines(txt_path, io.TextIOWrapper(io.BytesIO(data)))
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{txt_path}: {exc}") from None
    if not vals.size:
        raise InvalidArgumentError(f"{txt_path}: no pattern entries found")
    family = PatternFamily.CUSTOM
    seed = None
    meta: dict = {}
    json_path = os.path.splitext(txt_path)[0] + ".json"
    if os.path.exists(json_path):
        try:
            with open(json_path) as fh:
                desc = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
            if not isinstance(desc, dict) or not isinstance(desc.get("metadata", {}), dict):
                raise ValueError("expected an object whose metadata, if any, is an object")
            family = PatternFamily(desc.get("family", "custom"))
            seed = check_int(desc.get("seed"), "seed", none=True)
            if "n" in desc and not (type(desc["n"]) is int and desc["n"] == vals.size):
                raise ValueError(f"n must be {vals.size}, the number of entries "
                                 f"in {txt_path}, got {desc['n']!r}")
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            raise InvalidArgumentError(f"{json_path}: bad descriptor: {exc}") from None
        meta = desc.get("metadata", {})
    try:
        pattern = AperturePattern(vals, family, seed=seed, metadata=meta)
    except InvalidArgumentError as exc:  # a 0/1 family's only error is a label that misfits
        where = f"{json_path}: bad descriptor" if family in _ZERO_ONE_FAMILIES else txt_path
        raise InvalidArgumentError(f"{where}: {exc}") from None
    return pattern


def _reject_constant(name: str):
    """json parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


def _finite_float(text: str) -> float:
    """json parse_float: a number that overflows a float cannot be saved again."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value
