"""Monte Carlo ensemble harness: determinism, statistics, predictor pairing."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from apmi import (
    EnsembleConfig,
    InvalidArgumentError,
    NoiseModel,
    ScenePrior,
    compare,
    gen_bernoulli,
    gen_uniform,
    mutual_information,
    optimal_p_iid,
    predict_bernoulli_iid,
    run_ensemble,
    sweep_p,
    trial_seed,
)
from apmi import NumericalError, ensemble
from apmi.cli import main
from apmi.ensemble import SEED_POLICY, EnsembleStats
from apmi.patterns import RANDOM_DRAWS

NOISE = NoiseModel(0.01, 1.0)


def bernoulli_config(**overrides):
    base = dict(n=128, trials=16, family="bernoulli", p=0.5,
                prior=ScenePrior.IID, noise=NOISE, master_seed=42)
    base.update(overrides)
    return EnsembleConfig(**base)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_distinct(self):
        seeds = {trial_seed(m, t) for m in (0, 1, 99) for t in range(20)}
        assert len(seeds) == 60

    def test_matches_documented_policy(self):
        # SEED_POLICY is published in run manifests; hold it to its word
        expected = int(np.random.SeedSequence((5, 9))
                       .generate_state(1, np.uint64)[0])
        assert trial_seed(5, 9) == expected
        assert "SeedSequence((master_seed, trial_index))" in SEED_POLICY
        assert "uint64" in SEED_POLICY


MASTER_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100]  # 2**100: 5 entropy words


class TestVectorisedSeeding:
    """Ensembles seed their trials in one vectorised pass; trial_seed and
    np.random.default_rng stay the reference it must match bit for bit."""

    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    @pytest.mark.parametrize("start, stop", [(0, 7), (997, 1003)])
    def test_trial_seeds(self, master_seed, start, stop):
        t = np.arange(start, stop, dtype=np.uint64)
        seeds = ensemble._seed_sequence_u64((master_seed,), t, 1)[0]
        assert seeds.tolist() == [trial_seed(master_seed, i) for i in range(start, stop)]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_pcg64_state_of_one_and_two_word_seeds(self, seed):
        """Seeds below 2**32 are one entropy word, which real trial seeds
        almost never are."""
        (state, inc), = ensemble._pcg64_states(np.array([seed], dtype=np.uint64))
        reference = np.random.default_rng(seed).bit_generator.state
        assert reference["state"] == {"state": state, "inc": inc}

    @pytest.mark.parametrize("master_seed", MASTER_SEEDS)
    @pytest.mark.parametrize("family", sorted(RANDOM_DRAWS))
    @pytest.mark.parametrize("start, stop", [(0, 23), (997, 1003)])
    def test_drawn_rows(self, monkeypatch, master_seed, family, start, stop):
        """Every row _eval_range draws is the row of default_rng(trial_seed),
        across blocks (of 2 rows) and state chunks (of 5 trials)."""
        method, mask = RANDOM_DRAWS[family]
        rows = []
        monkeypatch.setitem(RANDOM_DRAWS, family,
                            (method, lambda u, p: rows.append(u.copy()) or mask(u, p)))
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", 160)
        config = bernoulli_config(n=8, trials=2, family=family, master_seed=master_seed)
        ensemble._eval_range(config, 8, (0.5,), start, stop)
        expected = [getattr(np.random.default_rng(trial_seed(master_seed, t)), method)(8)
                    for t in range(start, stop)]
        assert np.concatenate(rows).tobytes() == np.array(expected).tobytes()

    @staticmethod
    def flip_a_bit(monkeypatch, index):
        """Make the state helper flip bit 0 of one state of each chunk."""
        original = ensemble._pcg64_states

        def flipped(seeds):
            states = original(seeds)
            state, inc = states[index]
            states[index] = state ^ 1, inc
            return states
        monkeypatch.setattr(ensemble, "_pcg64_states", flipped)

    @pytest.mark.parametrize("index", [0, -1])
    def test_guard_raises(self, monkeypatch, index):
        """The first and the last trial of a range are checked at run time."""
        self.flip_a_bit(monkeypatch, index)
        with pytest.raises(NumericalError, match="vectorised trial seeding differs"):
            run_ensemble(bernoulli_config(trials=5))

    def test_guard_exits_3(self, monkeypatch, capsys, tmp_path):
        self.flip_a_bit(monkeypatch, 0)
        code = main(["sweep", "--n", "16", "--trials", "4", "--W", "0.01", "--p-grid", "0.5",
                     "--workers", "1", "--out", str(tmp_path / "s.csv")])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(n=1)
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(trials=1)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(family="poisson")

    def test_bernoulli_needs_p(self):
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(p=None)
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(p=1.5)

    def test_gaussian_shot_term_is_noise_j(self):
        """A gaussian row has rho = 1, so its shot term is the noise model's J:
        the mean moves with J, and W = J = 0 is still rejected."""
        means = [run_ensemble(bernoulli_config(family="gaussian", p=None,
                                               noise=NoiseModel(0.01, J))).mean
                 for J in (0.5, 1.0)]
        assert means[0] > means[1]
        with pytest.raises(InvalidArgumentError, match="both be zero"):
            bernoulli_config(family="gaussian", p=None, noise=NoiseModel(0.0, 0.0))

    def test_rejects_bad_switches(self):
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(metric="median")
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(rho_mode="expected")
        with pytest.raises(InvalidArgumentError):
            bernoulli_config(workers=0)

    def test_metric_defaults(self):
        assert bernoulli_config().resolved_metric == "per_pixel_excl_dc"
        onef = bernoulli_config(n=129, prior=ScenePrior.ONE_OVER_F)
        assert onef.resolved_metric == "total"
        assert bernoulli_config(metric="per_pixel").resolved_metric == "per_pixel"


class TestRunEnsemble:
    def test_repeatable(self):
        cfg = bernoulli_config()
        assert run_ensemble(cfg) == run_ensemble(cfg)

    def test_worker_count_invisible(self):
        lone = run_ensemble(bernoulli_config(trials=24, workers=1))
        pooled = run_ensemble(bernoulli_config(trials=24, workers=3))
        assert lone == pooled  # bitwise: same trial seeds, same order

    def test_master_seed_matters(self):
        a = run_ensemble(bernoulli_config(master_seed=1))
        b = run_ensemble(bernoulli_config(master_seed=2))
        assert a.mean != b.mean

    def test_stats_shape(self):
        stats = run_ensemble(bernoulli_config(trials=50))
        assert stats.kind == "per_pixel_excl_dc"
        assert stats.trials == 50
        assert stats.mean > 0 and stats.std >= 0
        assert stats.stderr == pytest.approx(stats.std / math.sqrt(50))

    def test_realized_rho_concentrates(self):
        n, trials, p = 250, 100, 0.3
        stats = run_ensemble(bernoulli_config(n=n, trials=trials, p=p))
        assert abs(stats.realized_rho_mean - p) <= 4 * math.sqrt(
            p * (1 - p) / (n * trials))

    def test_metric_wiring(self):
        total = run_ensemble(bernoulli_config(metric="total"))
        per_pixel = run_ensemble(bernoulli_config(metric="per_pixel"))
        bulk = run_ensemble(bernoulli_config(metric="per_pixel_excl_dc"))
        assert per_pixel.mean == pytest.approx(total.mean / 128, rel=1e-12)
        assert bulk.mean < per_pixel.mean  # DC term is nonnegative

    def test_even_n_one_over_f_reduced(self):
        """An even 1/f n runs at n - 1 with the warning; n = 4 too, though the 1/f
        predictors need n >= 5 (the CLI rejects --n 4 in one error line)."""
        for n in (250, 4):
            with pytest.warns(UserWarning, match=rf"n reduced to {n - 1} \(odd-n formula\)"):
                reduced = run_ensemble(bernoulli_config(n=n, prior=ScenePrior.ONE_OVER_F))
            assert reduced == run_ensemble(bernoulli_config(n=n - 1, prior=ScenePrior.ONE_OVER_F))

    def test_rho_mode_changes_gamma(self):
        realized = run_ensemble(bernoulli_config(n=64, rho_mode="realized"))
        nominal = run_ensemble(bernoulli_config(n=64, rho_mode="nominal"))
        assert realized.mean != nominal.mean

    def test_gaussian_family(self):
        cfg = EnsembleConfig(n=51, trials=8, family="gaussian",
                             prior=ScenePrior.ONE_OVER_F, noise=NOISE, master_seed=5)
        stats = run_ensemble(cfg)
        assert stats.kind == "total"
        assert math.isfinite(stats.mean) and stats.mean > 0

    def test_agrees_with_bulk_predictor(self):
        stats = run_ensemble(bernoulli_config(n=250, trials=300))
        rec = compare(stats, predict_bernoulli_iid(0.5, 0.01, 1.0))
        assert rec.relative_gap < 0.05
        assert abs(rec.z_score) < 5


class TestTrialIsGeneratedMask:
    """Trial t of an ensemble is the mask gen_<family>(n, [p,] trial_seed(m, t)):
    its MI is bitwise that of mutual_information on the generated pattern."""

    @staticmethod
    def trial_values(monkeypatch, config):
        """run_ensemble's stats and its per-trial (total, total_excl_dc, rho) rows."""
        seen = []
        original = ensemble._stats
        monkeypatch.setattr(ensemble, "_stats",
                            lambda c, n, p, values: seen.append(values) or original(c, n, p, values))
        return run_ensemble(config), seen[0]

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_bernoulli_iid(self, monkeypatch, p):
        config = bernoulli_config(n=100, trials=6, p=p, master_seed=11)
        stats, values = self.trial_values(monkeypatch, config)
        expected = [mutual_information(gen_bernoulli(100, p, trial_seed(11, t)),
                                       ScenePrior.IID, NOISE).per_pixel_excl_dc
                    for t in range(6)]
        assert (values[:, 1] / 100).tolist() == expected
        assert stats.mean == float(np.mean(expected))

    def test_uniform_one_over_f_odd_n(self, monkeypatch):
        config = EnsembleConfig(n=101, trials=5, family="uniform", prior=ScenePrior.ONE_OVER_F,
                                noise=NOISE, master_seed=3)
        stats, values = self.trial_values(monkeypatch, config)
        expected = [mutual_information(gen_uniform(101, trial_seed(3, t)),
                                       ScenePrior.ONE_OVER_F, NOISE).total
                    for t in range(5)]
        assert values[:, 0].tolist() == expected
        assert stats.mean == float(np.mean(expected))


class TestBlockArrays:
    """_eval_range allocates its draw, spectrum and power arrays once per
    trial range and slices them for every block and p."""

    @pytest.mark.parametrize("family", ["bernoulli", "uniform"])
    def test_every_fft_writes_into_one_array(self, monkeypatch, family):
        config = bernoulli_config(n=16, trials=13, family=family)
        grid = (0.3, 0.6)
        whole = ensemble._eval_range(config, 16, grid, 0, 13)
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", 8 * 16 * 5)  # blocks of 5, 5, 3
        outs = []
        fft = np.fft.fft

        def recorded(a, *args, **kwargs):
            outs.append(kwargs.get("out"))
            return fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, "fft", recorded)
        blocked = ensemble._eval_range(config, 16, grid, 0, 13)
        assert [out.shape[0] for out in outs] == [5, 5, 5, 5, 3, 3]
        assert all(np.shares_memory(out, outs[0]) for out in outs)
        assert blocked.tobytes() == whole.tobytes()
        # a pool chunk: trials [4, 13) in blocks of 5 and 4
        assert ensemble._eval_range(config, 16, grid, 4, 13).tobytes() == \
            whole[:, 4:].tobytes()


class TestSweep:
    def test_empty_grid(self):
        assert sweep_p(bernoulli_config(), []) == []

    def test_requires_bernoulli(self):
        cfg = EnsembleConfig(n=64, trials=4, family="uniform",
                             prior=ScenePrior.IID, noise=NOISE)
        with pytest.raises(InvalidArgumentError):
            sweep_p(cfg, [0.5])

    def test_rows_pair_with_predictor(self):
        grid = [0.2, 0.5]
        rows = sweep_p(bernoulli_config(trials=12), grid)
        assert [r.p for r in rows] == grid
        for row in rows:
            pred = predict_bernoulli_iid(row.p, 0.01, 1.0).value
            assert row.predicted == pytest.approx(pred, rel=1e-12)
            assert row.relative_gap == pytest.approx(
                abs(row.stats.mean - pred) / pred, rel=1e-9)
            assert row.n == 128

    def test_empirical_argmax_near_closed_form(self):
        grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
        rows = sweep_p(bernoulli_config(n=250, trials=1000), list(grid))
        best = max(rows, key=lambda r: r.stats.mean)
        assert abs(best.p - optimal_p_iid(0.01, 1.0)) <= 0.05 + 1e-12

    def test_one_over_f_even_n_rows(self):
        cfg = bernoulli_config(n=250, trials=8, prior=ScenePrior.ONE_OVER_F)
        with pytest.warns(UserWarning, match="odd-n formula"):
            rows = sweep_p(cfg, [0.3])
        assert rows[0].n == 249
        assert rows[0].stats.kind == "total"

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_sweep(self, monkeypatch, workers, pools):
        created = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", CountingPool)
        rows = sweep_p(bernoulli_config(trials=16, workers=workers), [0.2, 0.5, 0.8])
        assert len(rows) == 3 and len(created) == pools

    @pytest.mark.parametrize("affinity", [True, False])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, affinity):
        """workers=10000 still splits the trials into 4 * 10000 chunks, but the
        pool gets no more workers than the usable CPUs (sched_getaffinity, or
        cpu_count where that does not exist).  The fake pool starts no process."""
        sizes, spans = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                spans.extend(zip(*columns))
                return [np.zeros((len(grid), stop - start, 3))
                        for _, _, grid, start, stop in zip(*columns)]

        monkeypatch.setattr(ensemble, "ProcessPoolExecutor", FakePool)
        if affinity:
            monkeypatch.setattr(ensemble.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                                raising=False)
        else:
            monkeypatch.delattr(ensemble.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 3)
        values = ensemble._collect(bernoulli_config(trials=40000, workers=10000), 128, (0.5,))
        assert sizes == [3]
        assert len(spans) == 40000 and values.shape == (1, 40000, 3)


class TestCompare:
    @staticmethod
    def stats(mean, stderr, kind="per_pixel"):
        return EnsembleStats(kind=kind, mean=mean, std=stderr * math.sqrt(9),
                             stderr=stderr, trials=9, realized_rho_mean=0.5)

    @staticmethod
    def prediction(value, kind="per_pixel"):
        from apmi.asymptotic import PredictionResult
        return PredictionResult(value=value, kind=kind, method="closed_form")

    def test_exact_match(self):
        rec = compare(self.stats(0.4, 0.01), self.prediction(0.4))
        assert rec.relative_gap == 0.0
        assert rec.z_score == 0.0

    def test_two_sigma(self):
        rec = compare(self.stats(0.42, 0.01), self.prediction(0.4))
        assert rec.z_score == pytest.approx(2.0)
        assert rec.relative_gap == pytest.approx(0.05)

    def test_kind_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            compare(self.stats(1.0, 0.1, kind="total"), self.prediction(1.0))
        with pytest.raises(InvalidArgumentError):
            compare(self.stats(1.0, 0.1), self.prediction(1.0, kind="total"))

    def test_excl_dc_pairs_with_per_pixel(self):
        rec = compare(self.stats(0.4, 0.01, kind="per_pixel_excl_dc"),
                      self.prediction(0.4))
        assert rec.z_score == 0.0

    def test_zero_stderr(self):
        assert compare(self.stats(0.4, 0.0), self.prediction(0.4)).z_score == 0.0
        assert math.isinf(compare(self.stats(0.5, 0.0),
                                  self.prediction(0.4)).z_score)
