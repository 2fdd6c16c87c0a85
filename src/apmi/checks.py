"""Invariant checks shared by ``apmi reproduce selftest`` and the acceptance tests.

A check raises AssertionError with a one-line reason when its invariant does
not hold.  It raises explicitly rather than through ``assert``, so the checks
also run under ``python -O``.  The checks behind acceptance criteria 1, 2 and
6 return their worst measured deviation for the criterion's report line;
two of them take the range they cover, so the selftest can run a smaller one.
"""

import math
from dataclasses import replace

import numpy as np

from .asymptotic import (
    explog_exp1,
    optimal_p_iid,
    predict_bernoulli_iid,
    predict_flat_iid,
    predict_pinhole,
)
from .ensemble import EnsembleConfig, run_ensemble
from .model import NoiseModel, ScenePrior, db_to_linear, gamma, spectral_weights
from .patterns import gen_bernoulli, gen_mls, gen_mura, gen_pinhole
from .spectral import jensen_bound, mi_excluding_dc, mutual_information


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def model_basics() -> None:
    """Prior weights, gamma and the dB conversion at hand-computed points."""
    _check(spectral_weights(ScenePrior.IID, 4).tolist() == [1.0, 1.0, 1.0, 1.0],
           "IID weights are not all-ones")
    ref = [1, 1 / 2, 1 / 3, 1 / 4, 1, 1 / 2, 1 / 3, 1 / 4]
    _check(np.allclose(spectral_weights(ScenePrior.ONE_OVER_F, 8), ref, rtol=0, atol=1e-15),
           "1/f weights at n=8 are wrong")
    _check(abs(gamma(NoiseModel(0.01, 1.0), 0.5) - 1 / 0.51) <= 1e-12,
           "gamma(0.01, 1, 0.5) != 1/0.51")
    _check(abs(db_to_linear(-20.0) - 0.01) <= 1e-15, "db_to_linear(-20) != 0.01")


def mls_flatness(degrees) -> float:
    """MLS of each degree: DC exactly (n+1)/2, bulk |lambda_k|^2 within
    1e-6*n of (n+1)/4.  Returns the worst bulk deviation as a fraction of
    that budget."""
    worst = 0.0
    for degree in degrees:
        pattern = gen_mls(degree)  # generation checked this same spectrum too
        n, dc = pattern.n, float(pattern.values.sum())
        _check(dc == (n + 1) / 2, f"degree {degree}: DC {dc} != {(n + 1) / 2}")
        dev = float(np.max(np.abs(pattern.lambda_sq[1:] - (n + 1) / 4)))
        _check(dev <= 1e-6 * n, f"degree {degree}: bulk deviation {dev:.3e}")
        worst = max(worst, dev / (1e-6 * n))
    return worst


def mura_and_pinhole_spectrum() -> None:
    gen_mura(13)  # generation enforces the two-level spectrum
    _check(np.allclose(gen_pinhole(8).lambda_sq, 1.0, atol=1e-12), "pinhole spectrum is not flat")


def pinhole_identity() -> float:
    """Exact pinhole MI equals both ln(1/(nW+J)+1) and predict_pinhole to
    1e-12 relative, over 12 (n, W, J) points.  Returns the worst relative
    error."""
    worst = 0.0
    for n in (2, 5, 64, 257):
        for W, J in ((0.0, 1.0), (0.01, 1.0), (1.0, 1.0)):
            exact = mutual_information(gen_pinhole(n), ScenePrior.IID, NoiseModel(W, J)).per_pixel
            for ref in (math.log(1 / (n * W + J) + 1), predict_pinhole(n, W, J).value):
                rel = abs(exact - ref) / abs(ref)
                _check(rel <= 1e-12, f"n={n} W={W}: {exact} vs {ref}")
                worst = max(worst, rel)
    return worst


def explog_kernel() -> None:
    _check(explog_exp1(0.0) == 0.0, "explog_exp1(0) != 0")
    ref = 0.5963473623231946  # e * E1(1)
    _check(abs(explog_exp1(1.0) - ref) <= 1e-10, f"explog_exp1(1) = {explog_exp1(1.0)}")
    # the two evaluation routes must agree where they meet (the points sit
    # 2e-12 apart, so the derivative contributes ~2e-12 of the difference)
    below = explog_exp1(1.0 / 600.0 - 1e-12)
    above = explog_exp1(1.0 / 600.0 + 1e-12)
    _check(abs(below - above) <= 1e-10, "series/identity seam is discontinuous")


def pstar_stationarity() -> None:
    for W, J in ((0.01, 1.0), (1.0, 1.0), (100.0, 1.0)):
        p = optimal_p_iid(W, J)
        residual = p * p * J + 2 * p * W - W
        _check(abs(residual) <= 1e-10 * max(W, 1.0), f"stationarity residual {residual} at W={W}")
        best = predict_bernoulli_iid(p, W, J).value
        for k in range(1, 100):
            q = k / 100
            _check(predict_bernoulli_iid(q, W, J).value <= best + 1e-12,
                   f"p*={p} beaten by p={q} at W={W}")


def flat_beats_half() -> None:
    for W in (0.01, 1.0, 100.0):
        half = predict_bernoulli_iid(0.5, W, 1.0).value
        flat = predict_flat_iid(W, 1.0).value
        _check(half < flat, f"W={W}: {half} !< {flat}")


def _check_frobenius(pattern, label: str) -> None:
    """Off-DC power of a binary mask equals n*s - s^2 within 1e-9*n^2."""
    n, s = pattern.n, float(pattern.values.sum())
    power = float(pattern.lambda_sq[1:].sum())
    _check(abs(power - (n * s - s * s)) <= 1e-9 * n * n, f"Frobenius identity off for {label}")


def jensen_frobenius(seeds) -> float:
    """At n=255, W=0.01, J=1: the concavity bound is at least the bulk MI
    of the Bernoulli(1/2) mask of each seed, and equals it within 1e-9 for
    the flat MLS mask; every mask satisfies the Frobenius identity.
    Returns the flat-mask equality gap."""
    noise = NoiseModel(0.01, 1.0)
    mls = gen_mls(8)
    gap = abs(jensen_bound(mls, noise) - mi_excluding_dc(mls, noise))
    _check(gap <= 1e-9, f"MLS equality gap {gap}")
    _check_frobenius(mls, "the MLS mask")
    for seed in seeds:
        pattern = gen_bernoulli(mls.n, 0.5, seed)
        _check(jensen_bound(pattern, noise) >= mi_excluding_dc(pattern, noise),
               f"bound violated at seed={seed}")
        _check_frobenius(pattern, f"seed={seed}")
    return gap


def ensemble_determinism() -> None:
    config = EnsembleConfig(n=64, trials=8, family="bernoulli",
                            prior=ScenePrior.IID, noise=NoiseModel(0.01, 1.0),
                            master_seed=123, p=0.5)
    first = run_ensemble(config)
    second = run_ensemble(config)
    parallel = run_ensemble(replace(config, workers=2))
    _check(first == second == parallel, "ensemble results depend on run or worker count")


# (name, check) in the order `apmi reproduce selftest` runs and reports them.
SELFTEST = (
    ("model basics (weights, gamma, dB)", model_basics),
    ("MLS spectral flatness, degrees 3..10", lambda: mls_flatness(range(3, 11))),
    ("MURA self-check and pinhole spectrum", mura_and_pinhole_spectrum),
    ("pinhole MI identity", pinhole_identity),
    ("exponential-expectation kernel", explog_kernel),
    ("p* stationarity and 0.01-grid dominance", pstar_stationarity),
    ("flat predictor beats Bernoulli(1/2)", flat_beats_half),
    ("Jensen bound and Frobenius identity", lambda: jensen_frobenius(range(20))),
    ("ensemble determinism across workers", ensemble_determinism),
)


def selftest() -> bool:
    """Run every SELFTEST check, print one ok/FAIL line each and a count;
    True if all passed."""
    failures = 0
    for name, check in SELFTEST:
        try:
            check()
        except Exception as exc:  # report every failure, keep going
            failures += 1
            print(f"FAIL  {name}: {exc}")
        else:
            print(f"ok    {name}")
    print(f"selftest: {len(SELFTEST) - failures}/{len(SELFTEST)} checks passed")
    return failures == 0
