"""Invariant checks shared by ``apmi reproduce selftest`` and the acceptance tests.

A check raises AssertionError with a one-line reason when its invariant does
not hold.  It raises explicitly rather than through ``assert``, so the checks
also run under ``python -O``.  The checks behind acceptance criteria 1, 2, 5,
6, 11, 12 and 13 return what they measured for the criterion's report line;
three take the range they cover, so the selftest runs a smaller one.
"""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np

from .asymptotic import (
    explog_exp1,
    optimal_p_iid,
    optimal_p_onef,
    predict_bernoulli_iid,
    predict_flat_iid,
    predict_pinhole,
)
from .ensemble import EnsembleConfig, run_ensemble
from .model import NoiseModel, ScenePrior, db_to_linear, gamma, spectral_weights
from .patterns import (
    FLATNESS_RTOL,
    gen_bernoulli,
    gen_mls,
    gen_mura,
    gen_pinhole,
    gen_uniform,
    load_pattern,
    save_pattern,
)
from .spectral import jensen_bound, mi_excluding_dc, mutual_information, power_spectrum


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


def _reloaded(pattern, folder: str):
    """The pattern saved into folder and loaded back, as `mi --pattern-file` reads it."""
    txt_path, _ = save_pattern(pattern, os.path.join(folder, f"{pattern.family.value}{pattern.n}"))
    loaded = load_pattern(txt_path)
    _check("lambda_sq" in vars(loaded),
           f"reloaded {pattern.family.value} row of n={pattern.n} "
           "did not take its theorem spectrum")
    return loaded


def mls_flatness(degrees) -> float:
    """The MLS row of each degree and the quadratic-residue rows of n = 13 and
    29, saved and reloaded: each takes its spectrum by theorem, its DC gain is
    exactly (n+1)/2, and every bin lies within FLATNESS_RTOL*n of
    power_spectrum(values).  Returns the worst deviation as a fraction of
    that budget."""
    worst = 0.0
    with tempfile.TemporaryDirectory() as folder:
        for pattern in [*map(gen_mls, degrees), gen_mura(13), gen_mura(29)]:
            loaded = _reloaded(pattern, folder)
            n, dc = loaded.n, float(loaded.values.sum())
            label = f"{pattern.family.value} n={n}"
            _check(dc == (n + 1) / 2, f"{label}: DC {dc} != {(n + 1) / 2}")
            dev = float(np.max(np.abs(loaded.lambda_sq - power_spectrum(loaded.values))))
            _check(dev <= FLATNESS_RTOL * n, f"{label}: theorem spectrum {dev:.3e} from the FFT")
            worst = max(worst, dev / (FLATNESS_RTOL * n))
    return worst


def pinhole_spectrum() -> None:
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


def pinhole_crossover() -> tuple[float, float]:
    """The paper's pinhole comparison in exact bulk per-pixel MI
    (mi_excluding_dc) at n=255, J=1: the pinhole beats the flat MLS mask at
    W=1e-3 (0.5837 vs 0.4032 nats) and loses to it at W=1e-2 (0.2472 vs
    0.3974).  Returns the pinhole's margin over the MLS mask at each W."""
    pinhole, mls = gen_pinhole(255), gen_mls(8)
    margins = []
    for W, wins in ((1e-3, True), (1e-2, False)):
        noise = NoiseModel(W, 1.0)
        margin = mi_excluding_dc(pinhole, noise) - mi_excluding_dc(mls, noise)
        _check((margin > 0) == wins, f"W={W}: pinhole {'loses to' if wins else 'beats'} "
                                     f"the MLS mask by {abs(margin):.4f} nats")
        margins.append(margin)
    return margins[0], margins[1]


def explog_kernel() -> None:
    _check(explog_exp1(0.0) == 0.0, "explog_exp1(0) != 0")
    ref = 0.5963473623231946  # e * E1(1)
    _check(abs(explog_exp1(1.0) - ref) <= 1e-10, f"explog_exp1(1) = {explog_exp1(1.0)}")
    # the two evaluation routes must agree where they meet (the points sit
    # 2e-12 apart, so the derivative contributes ~2e-12 of the difference)
    below = explog_exp1(1.0 / 600.0 - 1e-12)
    above = explog_exp1(1.0 / 600.0 + 1e-12)
    _check(abs(below - above) <= 1e-10, "series/identity seam is discontinuous")


def pstar_optimality(points: int) -> float:
    """At J=1 and W = 0.01, 1, 100, the closed-form p* solves p^2 J + 2pW = W
    and no grid point k/points beats its predict_bernoulli_iid by more than
    1e-12.  Returns the worst distance from p* to the grid argmax."""
    worst = 0.0
    for W, J in ((0.01, 1.0), (1.0, 1.0), (100.0, 1.0)):
        p = optimal_p_iid(W, J)
        residual = p * p * J + 2 * p * W - W
        _check(abs(residual) <= 1e-10 * max(W, 1.0), f"stationarity residual {residual} at W={W}")
        best = predict_bernoulli_iid(p, W, J).value
        grid = [k / points for k in range(1, points)]
        values = [predict_bernoulli_iid(q, W, J).value for q in grid]
        argmax = grid[values.index(max(values))]
        _check(max(values) <= best + 1e-12, f"p*={p} beaten by p={argmax} at W={W}")
        worst = max(worst, abs(p - argmax))
    return worst


def thermal_pstar_onef() -> list[float]:
    """The 1/f on-off p* (J = 0, n = 1e6+1, tol 1e-7) at W = 1e-2, 1e-3, 1e-4, 1e-5 lies
    above 1/2 and falls toward it (0.50106, 0.50014, 0.50002, 0.500004).  Returns the four."""
    stars = [optimal_p_onef(1000001, W, 0.0, tol=1e-7) for W in (1e-2, 1e-3, 1e-4, 1e-5)]
    _check(stars[0] > stars[1] > stars[2] > stars[3] > 0.5,
           f"p* does not fall toward 1/2: {stars}")
    return stars


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


def _dense_total(pattern, prior: ScenePrior, noise: NoiseModel) -> float:
    """log det(I + (gamma/n) A Sigma A^T) by numpy.linalg.slogdet, in nats.

    A is the circulant of the row (A[i, l] = a[(i - l) % n]) and Sigma the
    real circulant scene covariance whose eigenvalues are the prior weights,
    built by a direct cosine sum.  No FFT is involved.  At even n the 1/f
    weights are not mirror symmetric, and Sigma, being real, has the mean
    of the weights of k and n - k instead."""
    n = pattern.n
    j = np.arange(n)
    lag = (j[:, None] - j) % n
    cosines = np.cos(2 * np.pi * (np.outer(j, j) % n) / n)
    sigma = (cosines @ spectral_weights(prior, n) / n)[lag]
    a = pattern.values[lag]
    sign, logdet = np.linalg.slogdet(np.eye(n) + gamma(noise, pattern.rho) / n * (a @ sigma @ a.T))
    _check(sign > 0, f"{pattern.family.value} n={n}: "
                     "I + (gamma/n) A Sigma A^T is not positive definite")
    return float(logdet)


def dense_logdet() -> tuple[float, float]:
    """Exact MI against _dense_total at W=0.01, J=1: within 1e-13 relative for
    pinhole, MLS (degree 5), MURA (13, 29), Bernoulli and uniform rows and a
    reloaded MLS and MURA row (theorem spectra), under both priors at odd n.
    At even n under 1/f the two differ by the documented even-n convention;
    for the n=8 Bernoulli row here that offset is pinned at 2.5426e-3
    relative (its size depends on the row).  Returns the worst odd-n
    relative error and the even-n offset."""
    noise = NoiseModel(0.01, 1.0)
    patterns = [gen_pinhole(31), gen_mls(5), gen_mura(13), gen_mura(29),
                gen_bernoulli(31, 0.3, seed=19), gen_uniform(31, seed=23)]
    with tempfile.TemporaryDirectory() as folder:
        patterns += [_reloaded(gen_mls(5), folder), _reloaded(gen_mura(29), folder)]
    worst = 0.0
    for pattern in patterns:
        for prior in ScenePrior:
            exact = mutual_information(pattern, prior, noise).total
            rel = abs(exact - _dense_total(pattern, prior, noise)) / exact
            _check(rel <= 1e-13, f"{pattern.family.value} n={pattern.n} {prior.value}: "
                                 f"exact MI {rel:.2e} from the dense log det")
            worst = max(worst, rel)
    even = gen_bernoulli(8, 0.5, seed=8)
    exact = mutual_information(even, ScenePrior.ONE_OVER_F, noise).total
    offset = abs(exact - _dense_total(even, ScenePrior.ONE_OVER_F, noise)) / exact
    _check(abs(offset - 2.5426e-3) <= 1e-7, f"even-n 1/f offset {offset:.4e}, pinned at 2.5426e-3")
    return worst, offset


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
    ("MLS and MURA theorem spectra vs the FFT, degrees 3..10", lambda: mls_flatness(range(3, 11))),
    ("pinhole spectrum", pinhole_spectrum),
    ("pinhole MI identity", pinhole_identity),
    ("pinhole beats MLS at W=1e-3, loses at W=1e-2", pinhole_crossover),
    ("exponential-expectation kernel", explog_kernel),
    ("p* stationarity and 0.01-grid dominance", lambda: pstar_optimality(100)),
    ("flat predictor beats Bernoulli(1/2)", flat_beats_half),
    ("1/f p* above 1/2, nearing it as thermal noise falls", thermal_pstar_onef),
    ("Jensen bound and Frobenius identity", lambda: jensen_frobenius(range(20))),
    ("ensemble determinism across workers", ensemble_determinism),
    ("exact MI against the dense log det", dense_logdet),
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
