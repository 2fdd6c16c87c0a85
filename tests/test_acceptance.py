"""Acceptance gate: thirteen end-to-end claims the package must satisfy.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and asserts
the claim with its pinned tolerance.  The claims combine exact closed-form
identities, cross-oracle equivalences, and Monte Carlo agreement between
the simulated ensembles and the analytic predictors.
"""

import math

import numpy as np
import pytest

from apmi import checks
from apmi import (
    EnsembleConfig,
    NoiseModel,
    ScenePrior,
    compare,
    explog_exp1,
    gen_mls,
    mi_excluding_dc,
    mutual_information,
    optimal_p_onef,
    predict_bernoulli_iid,
    predict_bernoulli_onef,
    predict_flat_iid,
    predict_gaussian_onef,
    predict_uniform_iid,
    run_ensemble,
    sweep_p,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def run_check(num: int, check, *args):
    """Run a shared check from apmi.checks; a failure gets its FAIL line."""
    try:
        return check(*args)
    except AssertionError as exc:
        report(num, False, str(exc))


class TestAcceptance:
    def test_criterion_01_mls_spectral_flatness(self):
        """MLS degrees 3..12 and MURA n = 13, 29, saved and reloaded: the
        theorem spectrum (flat bulk at (n+1)/4 for MLS) lies within 1e-6*n of
        the FFT in every bin, DC exactly (n+1)/2."""
        worst = run_check(1, checks.mls_flatness, range(3, 13))
        report(1, True, f"degrees 3..12 and MURA 13, 29 match the FFT; worst "
                        f"deviation at {worst:.2e} of the 1e-6*n budget")

    def test_criterion_02_pinhole_equivalence(self):
        """Exact MI of a pinhole equals ln(1/(nW+J)+1), and predict_pinhole,
        to 1e-12 relative."""
        worst = run_check(2, checks.pinhole_identity)
        report(2, worst <= 1e-12,
               f"12 (n, W, J) combinations; worst relative error {worst:.2e}")

    def test_criterion_03_flat_limit_convergence(self):
        """MLS per-pixel MI at degree 12 sits within 1% of the flat-mask
        limit, and closer than degree 8 does."""
        noise = NoiseModel(0.01, 1.0)
        limit = math.log(1 + 0.25 / 0.51)
        gap12 = abs(mutual_information(gen_mls(12), ScenePrior.IID,
                                       noise).per_pixel - limit) / limit
        gap8 = abs(mutual_information(gen_mls(8), ScenePrior.IID,
                                      noise).per_pixel - limit) / limit
        report(3, gap12 <= 0.01 and gap12 < gap8,
               f"relative gap {gap12:.4f} at degree 12 (<= 1%), "
               f"{gap8:.4f} at degree 8 (decreasing)")

    def test_criterion_04_flat_beats_onoff_thermal(self):
        """W=100, J=1, n=255: the flat mask's bulk per-pixel MI exceeds the
        200-trial Bernoulli ensemble mean at every p != 0.5 by > 3 stderr."""
        noise = NoiseModel(100.0, 1.0)
        flat = mi_excluding_dc(gen_mls(8), noise)
        min_margin = math.inf
        for p in (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9):
            stats = run_ensemble(EnsembleConfig(
                n=255, trials=200, family="bernoulli", p=p,
                prior=ScenePrior.IID, noise=noise, master_seed=400 + int(p * 10)))
            margin = (flat - stats.mean) / stats.stderr
            min_margin = min(min_margin, margin)
        report(4, min_margin > 3.0,
               f"flat mask leads every p by >= {min_margin:.1f} stderr "
               "(threshold 3)")

    def test_criterion_05_onoff_optimum(self):
        """(a) closed-form p* is stationary, no point of the 0.001 grid beats
        it, and it equals the grid argmax within 2e-3; (b) n=250 ensemble
        means at p in {0.1, 0.3, 0.5} match the on-off predictor within 2%
        and |z| <= 4."""
        worst_dev = run_check(5, checks.pstar_optimality, 1000)
        ok_a = worst_dev <= 2e-3

        noise = NoiseModel(0.01, 1.0)
        worst_gap, worst_z = 0.0, 0.0
        for p in (0.1, 0.3, 0.5):
            stats = run_ensemble(EnsembleConfig(
                n=250, trials=1000, family="bernoulli", p=p,
                prior=ScenePrior.IID, noise=noise, master_seed=500 + int(p * 10)))
            rec = compare(stats, predict_bernoulli_iid(p, 0.01, 1.0))
            worst_gap = max(worst_gap, rec.relative_gap)
            worst_z = max(worst_z, abs(rec.z_score))
        ok_b = worst_gap <= 0.02 and worst_z <= 4.0
        report(5, ok_a and ok_b,
               f"p* grid deviation {worst_dev:.1e} (<= 2e-3); ensemble gap "
               f"{worst_gap:.3%} (<= 2%), |z| {worst_z:.2f} (<= 4)")

    def test_criterion_06_jensen_and_frobenius(self):
        """200 random binary masks at n=255: concavity bound dominates the
        bulk MI, with equality only for the flat mask; off-DC power equals
        n*s - s^2 for every binary mask."""
        eq_gap = run_check(6, checks.jensen_frobenius, range(200))
        report(6, eq_gap <= 1e-9,
               f"bound >= bulk on 200 masks; flat-mask equality gap "
               f"{eq_gap:.1e} (<= 1e-9); off-DC power exact")

    def test_criterion_07_gray_mask_constant(self):
        """1000 uniform gray masks at n=250: the bulk predictor matches for
        exactly one variance constant in {1/24, 1/12}; with that constant,
        on-off masks beat gray ones across the comparable band."""
        noise = NoiseModel(0.01, 1.0)
        stats = run_ensemble(EnsembleConfig(
            n=250, trials=1000, family="uniform", prior=ScenePrior.IID,
            noise=noise, master_seed=700))
        gaps = {}
        for v in (1 / 24, 1 / 12):
            pred = explog_exp1(v / (0.01 + 0.5))
            gaps[v] = abs(stats.mean - pred) / pred
        matches = [v for v, g in gaps.items() if g <= 0.02]
        ok_unique = len(matches) == 1
        v_star = matches[0] if matches else None

        ok_order = v_star is not None
        if v_star is not None:
            uniform_pred = predict_uniform_iid(0.01, 1.0,
                                               bulk_variance=v_star).value
            for p in np.linspace(0.5 - 1 / math.sqrt(6), 0.5, 50):
                ok_order &= (predict_bernoulli_iid(float(p), 0.01, 1.0).value
                             > uniform_pred)
        name = {1 / 24: "1/24", 1 / 12: "1/12", None: "none"}[v_star]
        report(7, ok_unique and ok_order,
               f"matched variance constant: {name} "
               f"(gaps: 1/24 -> {gaps[1 / 24]:.1%}, 1/12 -> {gaps[1 / 12]:.1%}); "
               "on-off >= gray across the band")

    def test_criterion_08_gaussian_rows_one_over_f(self):
        """1000 Gaussian-entry circulants at n=101 under the 1/f prior match
        the quadrature predictor within 2%."""
        stats = run_ensemble(EnsembleConfig(
            n=101, trials=1000, family="gaussian", prior=ScenePrior.ONE_OVER_F,
            noise=NoiseModel(0.01, 1.0), master_seed=800))
        pred = predict_gaussian_onef(101, 0.01, 1.0)
        rec = compare(stats, pred)
        report(8, rec.relative_gap <= 0.02,
               f"ensemble mean {stats.mean:.4f} vs predicted "
               f"{pred.value:.4f}; relative gap {rec.relative_gap:.3%} (<= 2%)")

    def test_criterion_09_onoff_one_over_f_curve(self):
        """n=249, W=0.01, J=1: analytic on-off 1/f curve within 2% of the
        1000-trial simulated means at every p on the 0.05 grid, and the
        numeric p* lands within one grid step of the empirical argmax."""
        config = EnsembleConfig(
            n=249, trials=1000, family="bernoulli", p=0.5,
            prior=ScenePrior.ONE_OVER_F, noise=NoiseModel(0.01, 1.0),
            master_seed=900)
        grid = [round(0.05 * k, 2) for k in range(1, 20)]
        rows = sweep_p(config, grid)
        worst_gap = max(r.relative_gap for r in rows)
        empirical = max(rows, key=lambda r: r.stats.mean).p
        p_star = optimal_p_onef(249, 0.01, 1.0)
        ok = worst_gap <= 0.02 and abs(p_star - empirical) <= 0.05 + 1e-12
        report(9, ok,
               f"worst curve gap {worst_gap:.3%} (<= 2%); p* {p_star:.4f} vs "
               f"empirical argmax {empirical} (within one step)")

    def test_criterion_10_kernel_vs_monte_carlo(self):
        """The exponential-expectation kernel agrees with a fresh million-
        sample Monte Carlo within 3 standard errors at each c."""
        rng = np.random.default_rng(1000)
        worst = 0.0
        for c in (0.01, 0.5, 1.0, 10.0):
            y = rng.exponential(1.0, 1_000_000)
            samples = np.log1p(c * y)
            se = samples.std(ddof=1) / 1000.0
            dev = abs(float(samples.mean()) - explog_exp1(c)) / se
            worst = max(worst, dev)
        report(10, worst <= 3.0,
               f"worst deviation {worst:.2f} standard errors (<= 3)")

    def test_criterion_11_dense_logdet_reference(self):
        """Exact MI equals log det(I + (gamma/n) A Sigma A^T) by slogdet
        within 1e-13 relative for every family, reloaded MLS and MURA rows
        included, under both priors at odd n; at even n under 1/f the pinned
        convention offset holds."""
        worst, offset = run_check(11, checks.dense_logdet)
        report(11, worst <= 1e-13,
               f"worst odd-n relative error {worst:.1e} (<= 1e-13); "
               f"even-n 1/f offset {offset:.4e} (pinned)")

    def test_criterion_12_pinhole_crossover(self):
        """The paper's pinhole comparison at n = 255, J = 1, in exact bulk
        per-pixel MI: the pinhole beats the flat MLS mask at W = 1e-3 and
        loses to it at W = 1e-2."""
        low, high = run_check(12, checks.pinhole_crossover)
        report(12, low > 0 > high,
               f"pinhole minus MLS bulk MI {low:+.4f} nats at W=1e-3, "
               f"{high:+.4f} at W=1e-2")

    def test_criterion_13_thermal_pstar_one_over_f(self):
        """The abstract's thermal-noise claim under the 1/f prior: at J = 0
        and n = 1e6+1 the on-off p* lies above 1/2 and falls toward it as W
        goes from 1e-2 to 1e-5."""
        stars = run_check(13, checks.thermal_pstar_onef)
        report(13, len(stars) == 4 and stars[0] > stars[1] > stars[2] > stars[3] > 0.5,
               "p* - 1/2 = " + ", ".join(f"{p - 0.5:.2e}" for p in stars)
               + " at W = 1e-2, 1e-3, 1e-4, 1e-5")
