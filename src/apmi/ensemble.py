"""Monte Carlo ensembles of random apertures with reproducible statistics.

Each trial draws one random aperture, evaluates its exact MI from the
circulant spectrum, and the ensemble aggregates mean/std/stderr over all
trials.  Reproducibility contract: trial t uses the RNG seed
SeedSequence((master_seed, t)), and aggregation runs over the trial-indexed
value array, so results are bitwise identical regardless of worker count
or execution order.

Metrics.  IID-prior ensembles default to the bulk per-pixel MI with the DC
term excluded ("per_pixel_excl_dc") because that is the quantity the
large-n predictors describe; the full per-pixel mean ("per_pixel") stays
one config switch away so the O(log n / n) DC offset remains observable.
1/f-prior ensembles record total MI ("total"), whose predictors include
the DC term.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .asymptotic import PredictionResult, predict_bernoulli_iid, predict_bernoulli_onef
from .errors import InvalidArgumentError
from .model import NoiseModel, ScenePrior, effective_n, spectral_weights, to_log_base
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

FAMILIES = ("bernoulli", "uniform", "gaussian")
METRICS = ("per_pixel", "per_pixel_excl_dc", "total")
RHO_MODES = ("realized", "nominal")

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
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise InvalidArgumentError(f"bernoulli family needs p in [0, 1], got {self.p}")
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


def _eval_range(config: EnsembleConfig, n: int, start: int, stop: int) -> np.ndarray:
    """Evaluate trials [start, stop); rows are (mi_total, mi_total_excl_dc, rho)."""
    d = spectral_weights(config.prior, n)
    W, J = config.noise.W, config.noise.J
    out = np.empty((stop - start, 3))
    for i, t in enumerate(range(start, stop)):
        rng = np.random.default_rng(trial_seed(config.master_seed, t))
        if config.family == "bernoulli":
            a = (rng.random(n) < config.p).astype(float)
            rho = a.mean()
            rho_for_gamma = rho if config.rho_mode == "realized" else config.p
        elif config.family == "uniform":
            a = rng.random(n)
            rho = a.mean()
            rho_for_gamma = rho if config.rho_mode == "realized" else 0.5
        else:  # gaussian: unbounded entries, gamma held fixed by config
            a = rng.standard_normal(n)
            rho = a.mean()
            rho_for_gamma = None
        if rho_for_gamma is None:
            g = 1.0 / (W + config.rho_j_fixed)
        else:
            total_noise = W + rho_for_gamma * J
            if total_noise == 0.0:
                raise InvalidArgumentError(
                    f"trial {t}: W + rho*J is zero (rho={rho_for_gamma}); "
                    "supply W > 0 or a family with rho*J > 0")
            g = 1.0 / total_noise
        out[i, 0], out[i, 1] = mi_sums(power_spectrum(a), d, g)
        out[i, 2] = rho
    return out


def _eval_range_star(args) -> np.ndarray:
    return _eval_range(*args)


def _collect(config: EnsembleConfig, n: int) -> np.ndarray:
    T = config.trials
    if config.workers == 1 or T < 4 * config.workers:
        return _eval_range(config, n, 0, T)
    chunk = -(-T // (4 * config.workers))
    spans = [(config, n, s, min(s + chunk, T)) for s in range(0, T, chunk)]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        parts = list(pool.map(_eval_range_star, spans))
    return np.vstack(parts)


def run_ensemble(config: EnsembleConfig) -> EnsembleStats:
    """Simulate config.trials random apertures and aggregate the configured metric."""
    n = effective_n(config.prior, config.n)
    values = _collect(config, n)
    metric = config.resolved_metric
    if metric == "total":
        v = values[:, 0]
    elif metric == "per_pixel":
        v = values[:, 0] / n
    else:
        v = values[:, 1] / n
    v = to_log_base(v, config.log_base)
    std = float(v.std(ddof=1))
    return EnsembleStats(
        kind=metric,
        mean=float(v.mean()),
        std=std,
        stderr=std / math.sqrt(config.trials),
        trials=config.trials,
        realized_rho_mean=float(values[:, 2].mean()),
        log_base=config.log_base,
    )


def _matching_prediction(config: EnsembleConfig, n: int, p: float) -> PredictionResult:
    if config.prior is ScenePrior.ONE_OVER_F:
        return predict_bernoulli_onef(n, p, config.noise.W, config.noise.J)
    return predict_bernoulli_iid(p, config.noise.W, config.noise.J)


def sweep_p(config: EnsembleConfig, p_grid) -> list[SweepRow]:
    """Run one Bernoulli ensemble per p and pair each with its predictor.

    IID rows predict the bulk per-pixel MI; 1/f rows predict total MI.
    An empty grid returns an empty list.
    """
    if config.family != "bernoulli":
        raise InvalidArgumentError("sweep_p requires the bernoulli family")
    n = effective_n(config.prior, config.n)
    rows = []
    for p in p_grid:
        cfg = replace(config, n=n, p=float(p))
        stats = run_ensemble(cfg)
        pred = _matching_prediction(cfg, n, float(p))
        rec = compare(stats, pred)
        rows.append(SweepRow(p=float(p), n=n, stats=stats,
                             predicted=to_log_base(pred.value, config.log_base),
                             relative_gap=rec.relative_gap))
    return rows


def compare(stats: EnsembleStats, prediction: PredictionResult) -> ComparisonRecord:
    """Relative gap and z-score of an ensemble mean against a prediction.

    Prediction values are in nats and are converted to the ensemble's log
    base.  Per-pixel predictions pair with either per-pixel metric; total
    pairs with total.
    """
    per_pixel_kinds = ("per_pixel", "per_pixel_excl_dc")
    if prediction.kind == "total":
        ok = stats.kind == "total"
    else:
        ok = stats.kind in per_pixel_kinds
    if not ok:
        raise InvalidArgumentError(
            f"metric kind mismatch: ensemble {stats.kind!r} vs prediction {prediction.kind!r}")
    value = to_log_base(prediction.value, stats.log_base)
    gap = abs(stats.mean - value) / max(abs(value), 1e-12)
    if stats.stderr > 0:
        z = (stats.mean - value) / stats.stderr
    else:
        z = 0.0 if stats.mean == value else math.copysign(math.inf, stats.mean - value)
    return ComparisonRecord(relative_gap=float(gap), z_score=float(z))
