"""Monte Carlo ensembles of random apertures with reproducible statistics.

Each trial draws one random aperture, evaluates its exact MI from the
circulant spectrum, and the ensemble aggregates mean/std/stderr over all
trials.  Reproducibility contract: trial t is the mask
gen_<family>(n, [p,] trial_seed(master_seed, t)) (gaussian rows have no
generator), and aggregation runs over the trial-indexed value array, so
results are bitwise identical regardless of worker count or execution order.

Engine.  Trials run in blocks of at most BLOCK_BYTES of draws.  A sweep
over p draws each trial's row once and thresholds it at every grid p (the
seed does not depend on p), and each block makes one batched FFT and one
log-sum per p.  With workers > 1, one process pool serves the whole sweep:
each task is a chunk of trials evaluated at every p.  On a 2-vCPU VM
(in process, medians of 10 runs), workers=2 ran the fig3 sweep (19 p x
1000 trials, n=249) in 0.15 s against 0.22 s for workers=1 (1.4x), and
the IID sweep at n=4095 (5 p x 1000 trials) in 0.36 s against 0.64 s
(1.8x).

Metrics.  IID-prior ensembles default to the bulk per-pixel MI with the DC
term excluded ("per_pixel_excl_dc") because that is the quantity the
large-n predictors describe; the full per-pixel mean ("per_pixel") stays
one config switch away so the O(log n / n) DC offset remains observable.
1/f-prior ensembles record total MI ("total"), whose predictors include
the DC term.
"""

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotic import BERNOULLI_PREDICTOR, PredictionResult, predict
from .errors import InvalidArgumentError
from .model import (NoiseModel, ScenePrior, degenerate_noise, effective_n, noise_level,
                    spectral_weights, to_log_base)
from .patterns import RANDOM_DRAWS, check_p
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
METRICS = ("per_pixel", "per_pixel_excl_dc", "total")
RHO_MODES = ("realized", "nominal")

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

SEED_POLICY = ("numpy.random.SeedSequence((master_seed, trial_index))"
               ".generate_state(1, numpy.uint64)[0]")


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed; see SEED_POLICY."""
    ss = np.random.SeedSequence((master_seed, trial_index))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class EnsembleConfig:
    n: int                            # system size
    trials: int                       # number of random apertures, >= 2
    family: str                       # "bernoulli" | "uniform" | "gaussian"
    prior: ScenePrior
    noise: NoiseModel
    master_seed: int = 0
    p: float | None = None            # open fraction (bernoulli only)
    metric: str | None = None         # default: per_pixel_excl_dc (IID) / total (1/f)
    rho_mode: str = "realized"        # gamma from realized mask mean, or nominal
    rho_j_fixed: float | None = None  # gaussian family: fixed rho*J product
    log_base: str = "nats"
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgumentError(f"need n >= 2, got {self.n}")
        if self.trials < 2:
            raise InvalidArgumentError(f"need trials >= 2, got {self.trials}")
        if self.master_seed < 0:
            raise InvalidArgumentError(f"need master_seed >= 0, got {self.master_seed}")
        if self.family not in FAMILIES:
            raise InvalidArgumentError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.metric is not None and self.metric not in METRICS:
            raise InvalidArgumentError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.rho_mode not in RHO_MODES:
            raise InvalidArgumentError(f"rho_mode must be one of {RHO_MODES}, got {self.rho_mode!r}")
        if self.family == "bernoulli":
            check_p(self.p)
        if self.family == "gaussian":
            if self.rho_j_fixed is None:
                raise InvalidArgumentError("gaussian family needs rho_j_fixed >= 0")
            NoiseModel(self.noise.W, self.rho_j_fixed)  # finite, >= 0, W + rho_j_fixed > 0
        if self.workers < 1:
            raise InvalidArgumentError(f"need workers >= 1, got {self.workers}")
        to_log_base(0.0, self.log_base)  # rejects an unknown base

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
    log_base: str


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
    or the family's nominal value (p for bernoulli, 0.5 for uniform)."""
    if config.rho_mode == "realized":
        return rho
    return np.full_like(rho, p if config.family == "bernoulli" else 0.5)


def _noise(config: EnsembleConfig, p, rho: np.ndarray) -> np.ndarray:
    """Per-trial total noise power; gaussian holds it at W + rho_j_fixed."""
    if config.family == "gaussian":
        return np.full_like(rho, config.noise.W + config.rho_j_fixed)
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
    for lo in range(start, stop, rows):
        hi = min(lo + rows, stop)
        u, spectrum, power = (b[:hi - lo] for b in buffers)
        for i, t in enumerate(range(lo, hi)):
            getattr(np.random.default_rng(trial_seed(config.master_seed, t)), draw)(out=u[i])
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
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
    if metric == "total":
        v = values[:, 0]
    elif metric == "per_pixel":
        v = values[:, 0] / n
    else:
        v = values[:, 1] / n
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        t = int(bad[0])
        raise InvalidArgumentError(
            f"trial {t}: the MI is not finite at W + rho*J = {noise[t]}; "
            "the noise power is too small")
    v = to_log_base(v, config.log_base)
    std = float(v.std(ddof=1))
    return EnsembleStats(
        kind=metric,
        mean=float(v.mean()),
        std=std,
        stderr=std / math.sqrt(config.trials),
        trials=config.trials,
        realized_rho_mean=float(rho.mean()),
        log_base=config.log_base,
    )


def run_ensemble(config: EnsembleConfig) -> EnsembleStats:
    """Simulate config.trials random apertures and aggregate the configured metric."""
    n = effective_n(config.prior, config.n)
    return _stats(config, n, config.p, _collect(config, n, (config.p,))[0])


def sweep_p(config: EnsembleConfig, p_grid) -> list[SweepRow]:
    """Run one Bernoulli ensemble per p and pair each with its predictor.

    Every trial is drawn once and thresholded at each p, so row k equals
    run_ensemble with p = p_grid[k].  IID rows predict the bulk per-pixel
    MI; 1/f rows predict total MI.  An empty grid returns an empty list.
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
        rows.append(SweepRow(p=p, n=n, stats=stats,
                             predicted=to_log_base(pred.value, config.log_base),
                             relative_gap=compare(stats, pred).relative_gap))
    return rows


def _check_kinds(metric: str, prediction_kind: str) -> None:
    """Per-pixel predictions pair with either per-pixel metric; total with total."""
    per_pixel_kinds = ("per_pixel", "per_pixel_excl_dc")
    if prediction_kind == "total":
        ok = metric == "total"
    else:
        ok = metric in per_pixel_kinds
    if not ok:
        raise InvalidArgumentError(
            f"metric kind mismatch: ensemble {metric!r} vs prediction {prediction_kind!r}")


def compare(stats: EnsembleStats, prediction: PredictionResult) -> ComparisonRecord:
    """Relative gap and z-score of an ensemble mean against a prediction.

    Prediction values are in nats and are converted to the ensemble's log
    base.  The kinds must pair (_check_kinds).
    """
    _check_kinds(stats.kind, prediction.kind)
    value = to_log_base(prediction.value, stats.log_base)
    gap = abs(stats.mean - value) / max(abs(value), 1e-12)
    if stats.stderr > 0:
        z = (stats.mean - value) / stats.stderr
    else:
        z = 0.0 if stats.mean == value else math.copysign(math.inf, stats.mean - value)
    return ComparisonRecord(relative_gap=float(gap), z_score=float(z))
