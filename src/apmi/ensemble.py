"""Monte Carlo ensembles of random apertures with reproducible statistics.

Each trial draws one random aperture, evaluates its exact MI from the
circulant spectrum, and the ensemble aggregates mean/std/stderr over all
trials.  Reproducibility contract: trial t is the mask
gen_<family>(n, [p,] trial_seed(master_seed, t)) (gaussian rows have no
generator), and aggregation runs over the trial-indexed value array, so
results are bitwise identical regardless of worker count or execution order.

Engine.  Trials are seeded in one vectorised pass: numpy's SeedSequence
mixing runs on uint32 columns across trials, once for SEED_POLICY's seed
and once for the PCG64 state that np.random.default_rng derives from it,
and one reused generator draws every trial from its state.  This
reproduces SEED_POLICY exactly; the first and last trial of each range are
checked against the reference generator at run time (NumericalError).
Trials run in blocks of at most BLOCK_BYTES of draws.  A sweep over p
draws each trial's row once and thresholds it at every grid p (the seed
does not depend on p), and each block makes one batched FFT and one
log-sum per p.  With workers > 1, one process pool serves the whole sweep:
each task is a chunk of trials evaluated at every p.

Metrics.  IID-prior ensembles default to the bulk per-pixel MI with the DC
term excluded ("per_pixel_excl_dc") because that is the quantity the
large-n predictors describe; the full per-pixel mean ("per_pixel") stays
one config switch away so the O(log n / n) DC offset remains observable.
1/f-prior ensembles record total MI ("total"), the one kind their
predictors give (they include the DC term): sweep_p and compare reject any
other metric there, so the CLI offers --metric at the IID prior only.
"""

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotic import BERNOULLI_PREDICTOR, PredictionResult, predict
from .errors import InvalidArgumentError, NumericalError
from .model import (METRICS, RHO_MODES, NoiseModel, ScenePrior, check_p, check_seed,
                    degenerate_noise, effective_n, noise_level, spectral_weights)
from .patterns import RANDOM_DRAWS, SEED_POLICY
from .spectral import mi_sums, power_spectrum

__all__ = [
    "EnsembleConfig",
    "EnsembleStats",
    "SweepRow",
    "ComparisonRecord",
    "trial_seed",
    "run_ensemble",
    "sweep_p",
    "compare",
    "SEED_POLICY",
]

FAMILIES = tuple(RANDOM_DRAWS)

# Bound on the draws of one block of trials.  Batches of 256 KB to 1 MB ran
# alike at n=249 and fastest at n=4095 (4 MB was ~50% slower there).
# _eval_range allocates the block's draw, spectrum and power arrays (4x this
# bound together) once per trial range and reuses them for every block and
# p.  Allocated afresh per block and p, arrays of this size went back to the
# kernel and were faulted in again: one serial range took 153,215 minor page
# faults instead of 256 (5 p x 1000 trials, n=4095) and 29,896 instead of
# 467 (fig3: 19 p x 1000 trials, n=249).
BLOCK_BYTES = 1 << 18
# Bound on the (p, trial) values a sweep holds at once.  A longer grid is
# swept in groups of p that each draw the trials again: one group, and one
# pool, for up to 2,796 p at 1000 trials.
VALUES_BYTES = 1 << 26


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed; see SEED_POLICY.

    This is the reference.  Ensembles seed their trials in one vectorised
    pass (_trial_states) that reproduces, bit for bit, the generator that
    np.random.default_rng makes from trial_seed(master_seed, t), and that
    checks itself against it at run time.
    """
    check_seed(master_seed, "master_seed")
    check_seed(trial_index, "trial_index")
    ss = np.random.SeedSequence((master_seed, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash constants (NEP 19) and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _hasher(h: int, mult: int):
    """NEP 19's running hash on uint32 columns: xor by the hash constant,
    step the constant (h *= mult) and multiply by its new value."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _M32
        value = value * np.uint32(h)
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """NEP 19's mix of a pool word x with a hashed word y, per column."""
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> 16


def _seed_sequence_words(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence(entropy).generate_state(n_words, uint32) per column:
    entropy is the list of uint32 entropy words, each an array over trials,
    mixed into numpy's pool of 4 words as numpy mixes one sequence."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    return np.array([generate(pool[i % 4]) for i in range(n_words)])


def _seed_sequence_u64(prefix: tuple[int, ...], x: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence((*prefix, x_i)).generate_state(n_words, uint64) for each
    uint64 x_i, as (n_words, len(x)) words.  numpy coerces each int to its
    little-endian 32-bit words ([0] for 0), so an x_i below 2**32 is one
    entropy word and any other two."""
    head = [v >> s & _M32 for v in prefix for s in range(0, max(v.bit_length(), 1), 32)]
    low, high = (x & _M32).astype(np.uint32), (x >> 32).astype(np.uint32)
    words = np.empty((2 * n_words, x.size), np.uint32)
    for sel, tail in ((high == 0, [low]), (high != 0, [low, high])):
        if sel.any():
            count = np.count_nonzero(sel)
            entropy = [np.full(count, w, np.uint32) for w in head] + [c[sel] for c in tail]
            words[:, sel] = _seed_sequence_words(entropy, 2 * n_words)
    words = words.astype(np.uint64)
    return words[0::2] | words[1::2] << np.uint64(32)


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that np.random.default_rng seeds from each
    uint64 seed.  The seed's SeedSequence gives 4 uint64 words, and PCG64
    seeds from them by two LCG steps (numpy's pcg64_set_seed) on Python ints."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*_seed_sequence_u64((), seeds, 4).tolist()):
        inc = (i_hi << 65 | i_lo << 1 | 1) & _M128
        states.append(((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _M128, inc))
    return states


def _trial_states(master_seed: int, start: int, stop: int):
    """Yield, for t in [start, stop), the bit_generator.state of the
    generator that np.random.default_rng makes from trial_seed(master_seed, t).

    States are computed for BLOCK_BYTES // 32 trials (4 uint64 words each)
    at a time.  The first and last trial are checked against the generator
    SEED_POLICY builds; a difference is a NumericalError.
    """
    chunk = BLOCK_BYTES // 32
    for lo in range(start, stop, chunk):
        trials = np.arange(lo, min(lo + chunk, stop), dtype=np.uint64)
        seeds = _seed_sequence_u64((master_seed,), trials, 1)[0]  # trial_seed of each
        for t, (state, inc) in enumerate(_pcg64_states(seeds), lo):
            full = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
            if t in (start, stop - 1) and \
                    full != np.random.default_rng(trial_seed(master_seed, t)).bit_generator.state:
                raise NumericalError(f"trial {t}: the vectorised trial seeding differs from "
                                     f"SEED_POLICY's generator (master seed {master_seed})")
            yield full


@dataclass(frozen=True)
class EnsembleConfig:
    n: int                            # system size
    trials: int                       # number of random apertures, >= 2
    family: str                       # "bernoulli" | "uniform" | "gaussian"
    prior: ScenePrior
    noise: NoiseModel                 # W and J; gaussian: J is the fixed rho*J product
    master_seed: int = 0
    p: float | None = None            # open fraction (bernoulli only)
    metric: str | None = None         # default: per_pixel_excl_dc (IID) / total (1/f)
    rho_mode: str = "realized"        # gamma from realized mask mean, or nominal
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgumentError(f"need n >= 2, got {self.n}")
        if self.trials < 2:
            raise InvalidArgumentError(f"need trials >= 2, got {self.trials}")
        check_seed(self.master_seed, "master_seed")
        if self.family not in FAMILIES:
            raise InvalidArgumentError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.metric is not None and self.metric not in METRICS:
            raise InvalidArgumentError(
                f"metric must be one of {tuple(METRICS)}, got {self.metric!r}")
        if self.rho_mode not in RHO_MODES:
            raise InvalidArgumentError(f"rho_mode must be one of {RHO_MODES}, got {self.rho_mode!r}")
        if self.family == "bernoulli":
            check_p(self.p)
        if self.workers < 1:
            raise InvalidArgumentError(f"need workers >= 1, got {self.workers}")

    @property
    def resolved_metric(self) -> str:
        if self.metric is not None:
            return self.metric
        return "total" if self.prior is ScenePrior.ONE_OVER_F else "per_pixel_excl_dc"


@dataclass(frozen=True)
class EnsembleStats:
    kind: str                # which metric the moments describe
    mean: float
    std: float               # sample std (ddof=1)
    stderr: float             # std / sqrt(trials)
    trials: int
    realized_rho_mean: float  # mean over trials of the realized mask mean


@dataclass(frozen=True)
class SweepRow:
    p: float
    n: int
    stats: EnsembleStats
    predicted: float
    relative_gap: float


@dataclass(frozen=True)
class ComparisonRecord:
    relative_gap: float
    z_score: float


def _gamma_rho(config: EnsembleConfig, p, rho: np.ndarray) -> np.ndarray:
    """Per trial, the rho in gamma = 1/(W + rho*J): the realized mask means
    or the family's nominal value (p for bernoulli, 0.5 for uniform).  A
    gaussian row has no transmissivity, so its rho is 1 in both modes."""
    if config.family == "gaussian":
        return np.ones_like(rho)
    if config.rho_mode == "realized":
        return rho
    return np.full_like(rho, p if config.family == "bernoulli" else 0.5)


def _noise(config: EnsembleConfig, p, rho: np.ndarray) -> np.ndarray:
    """Per-trial total noise power W + rho*J."""
    return config.noise.W + _gamma_rho(config, p, rho) * config.noise.J


def _eval_range(config: EnsembleConfig, n: int, p_grid, start: int, stop: int) -> np.ndarray:
    """Evaluate trials [start, stop) at every p of p_grid.

    Returns (len(p_grid), stop - start, 3) rows of (mi_total,
    mi_total_excl_dc, rho).  A trial whose noise is degenerate gets gamma 1
    here; _stats rejects it.
    """
    d = spectral_weights(config.prior, n)
    draw, mask = RANDOM_DRAWS[config.family]
    out = np.empty((len(p_grid), stop - start, 3))
    rows = max(1, min(BLOCK_BYTES // (8 * n), stop - start))
    # allocated once per range, not per block and p: see BLOCK_BYTES
    buffers = np.empty((rows, n)), np.empty((rows, n), dtype=complex), np.empty((rows, n))
    bit_generator = np.random.PCG64(0)
    fill = getattr(np.random.Generator(bit_generator), draw)
    states = _trial_states(config.master_seed, start, stop)
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        u, spectrum, power = (b[:hi - lo] for b in buffers)
        for row, state in zip(u, states):  # u first: zip stops before taking a state too many
            bit_generator.state = state
            fill(out=row)
        for k, p in enumerate(p_grid):
            a = mask(u, p)
            rho = a.mean(axis=1)
            noise = _noise(config, p, rho)
            g = 1.0 / np.where(degenerate_noise(noise), 1.0, noise)
            block = out[k, lo - start:hi - start]
            block[:, 0], block[:, 1] = mi_sums(power_spectrum(a, (spectrum, power)), d, g)
            block[:, 2] = rho
    return out


def _collect(config: EnsembleConfig, n: int, p_grid) -> np.ndarray:
    """All trials at every p of p_grid, serially or over one process pool."""
    T = config.trials
    if config.workers == 1 or T < 4 * config.workers:
        return _eval_range(config, n, p_grid, 0, T)
    chunk = -(-T // (4 * config.workers))
    spans = [(config, n, p_grid, s, min(s + chunk, T)) for s in range(0, T, chunk)]
    # Chunks follow the requested count, so the bits do not depend on the machine;
    # the pool stops at the usable CPUs, as a fork pool starts every worker at once.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(max_workers=min(config.workers, cpus or 1)) as pool:
        parts = list(pool.map(_eval_range, *zip(*spans)))
    return np.concatenate(parts, axis=1)


def _stats(config: EnsembleConfig, n: int, p, values: np.ndarray) -> EnsembleStats:
    """Aggregate one p's (trials, 3) values into the configured metric."""
    rho = values[:, 2]
    noise = _noise(config, p, rho)
    bad = np.flatnonzero(degenerate_noise(noise))
    if bad.size:
        t = int(bad[0])
        raise InvalidArgumentError(
            f"trial {t}: W + rho*J is {noise_level(noise[t])} "
            f"(rho={_gamma_rho(config, p, rho)[t]}); "
            "supply W > 0 or a family with rho*J > 0")
    metric = config.resolved_metric
    kind, column = METRICS[metric]
    v = values[:, column] / n if kind == "per_pixel" else values[:, column]
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        t = int(bad[0])
        raise InvalidArgumentError(
            f"trial {t}: the MI is not finite at W + rho*J = {noise[t]}; "
            "the noise power is too small")
    std = float(v.std(ddof=1))
    return EnsembleStats(
        kind=metric,
        mean=float(v.mean()),
        std=std,
        stderr=std / math.sqrt(config.trials),
        trials=config.trials,
        realized_rho_mean=float(rho.mean()),
    )


def run_ensemble(config: EnsembleConfig) -> EnsembleStats:
    """Simulate config.trials random apertures and aggregate the configured metric."""
    n = effective_n(config.prior, config.n)
    return _stats(config, n, config.p, _collect(config, n, (config.p,))[0])


def sweep_p(config: EnsembleConfig, p_grid) -> list[SweepRow]:
    """Run one Bernoulli ensemble per p and pair each with its predictor.

    Every trial is drawn once and thresholded at each p, so row k equals
    run_ensemble with p = p_grid[k].  IID rows predict the bulk per-pixel
    MI; 1/f rows predict total MI.  Means and predictions are in nats, and
    the relative gap has no unit.  An empty grid returns an empty list.
    """
    if config.family != "bernoulli":
        raise InvalidArgumentError("sweep_p requires the bernoulli family")
    grid = [float(p) for p in p_grid]
    for p in grid:
        check_p(p)
    if not grid:
        return []
    n = effective_n(config.prior, config.n)
    preds = [predict(BERNOULLI_PREDICTOR[config.prior], n=n, p=p,
                     W=config.noise.W, J=config.noise.J) for p in grid]
    _check_kinds(config.resolved_metric, preds[0].kind)  # before any trial is drawn
    group = max(1, VALUES_BYTES // (3 * 8 * config.trials))  # 3 float64 per (p, trial)
    values = itertools.chain.from_iterable(
        _collect(config, n, grid[i:i + group]) for i in range(0, len(grid), group))
    rows = []
    for p, v, pred in zip(grid, values, preds):
        stats = _stats(config, n, p, v)
        rows.append(SweepRow(p=p, n=n, stats=stats, predicted=pred.value,
                             relative_gap=compare(stats, pred).relative_gap))
    return rows


def _check_kinds(metric: str, prediction_kind: str) -> None:
    """An ensemble metric pairs with the prediction kind METRICS names for it."""
    if metric not in METRICS or METRICS[metric][0] != prediction_kind:
        raise InvalidArgumentError(
            f"metric kind mismatch: ensemble {metric!r} vs prediction {prediction_kind!r}")


def compare(stats: EnsembleStats, prediction: PredictionResult) -> ComparisonRecord:
    """Relative gap and z-score of an ensemble mean against a prediction,
    both in nats.  The kinds must pair (_check_kinds).
    """
    _check_kinds(stats.kind, prediction.kind)
    value = prediction.value
    gap = abs(stats.mean - value) / max(abs(value), 1e-12)
    if stats.stderr > 0:
        z = (stats.mean - value) / stats.stderr
    else:
        z = 0.0 if stats.mean == value else math.copysign(math.inf, stats.mean - value)
    return ComparisonRecord(relative_gap=float(gap), z_score=float(z))
