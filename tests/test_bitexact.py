"""Bit-exact regression values for the ensemble and exact-MI paths.

The hex floats were recorded (float.hex) before the FFT -> log1p sum was
shared between spectral.py and ensemble.py; every refactor of that path must
reproduce them exactly, not just within a tolerance.  The sweep rows were
recorded from the engine that ran one ensemble, with its own draws and one
process pool, per p.
"""

from dataclasses import astuple, replace

import pytest

from apmi import (
    EnsembleConfig,
    EnsembleStats,
    NoiseModel,
    ScenePrior,
    gen_mls,
    mutual_information,
    run_ensemble,
    sweep_p,
)
from apmi import ensemble

NOISE = NoiseModel(0.01, 1.0)

CONFIGS = {
    "bernoulli-iid": EnsembleConfig(n=64, trials=16, family="bernoulli", prior=ScenePrior.IID,
                                    noise=NOISE, master_seed=7, p=0.3),
    "bernoulli-1f": EnsembleConfig(n=63, trials=16, family="bernoulli",
                                   prior=ScenePrior.ONE_OVER_F, noise=NOISE, master_seed=7, p=0.3),
    "gaussian": EnsembleConfig(n=51, trials=16, family="gaussian", prior=ScenePrior.ONE_OVER_F,
                               noise=NOISE, master_seed=5),
    "uniform": EnsembleConfig(n=64, trials=16, family="uniform", prior=ScenePrior.IID,
                              noise=NOISE, master_seed=3),
}

# kind, mean, std, stderr, trials, realized_rho_mean
RECORDED = {
    "bernoulli-iid": ("per_pixel_excl_dc", "0x1.cae8473ca0f76p-2", "0x1.48615176bbbd9p-5",
                      "0x1.48615176bbbd9p-7", 16, "0x1.2e00000000000p-2"),
    "bernoulli-1f": ("total", "0x1.b29f1c6d17044p+2", "0x1.144f2f32fcd07p-1",
                     "0x1.144f2f32fcd07p-3", 16, "0x1.2fbefbefbefbfp-2"),
    "gaussian": ("total", "0x1.73e786c542a7cp+2", "0x1.5b7cddd83c3d1p+0",
                 "0x1.5b7cddd83c3d1p-2", 16, "-0x1.682cee6504000p-16"),
    "uniform": ("per_pixel_excl_dc", "0x1.2100f0246d2dep-3", "0x1.27eb184c3884cp-6",
                "0x1.27eb184c3884cp-8", 16, "0x1.f80d4f6118634p-2"),
}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ensemble_stats_bit_exact(name):
    stats = run_ensemble(CONFIGS[name])
    assert isinstance(stats, EnsembleStats)
    assert tuple(_hex(v) for v in astuple(stats)) == RECORDED[name]


@pytest.mark.parametrize("prior, total", [
    (ScenePrior.IID, "0x1.9de92016e5de3p+8"),
    (ScenePrior.ONE_OVER_F, "0x1.7909bfe86a289p+3"),
])
def test_mls10_total_bit_exact(prior, total):
    assert mutual_information(gen_mls(10), prior, NOISE).total.hex() == total


# name -> (config fields, p grid).  At n=4095 a block holds fewer trials than
# T=70, so the serial run crosses block boundaries; the 5-trial blocks below
# make every worker chunk cross one as well.
SWEEPS = {
    "iid": (dict(n=4095, trials=70, prior=ScenePrior.IID, master_seed=11), (0.1, 0.5, 0.9)),
    "iid-nominal": (dict(n=100, trials=40, prior=ScenePrior.IID, master_seed=2,
                         rho_mode="nominal"), (0.05, 0.5)),
    "iid-per-pixel": (dict(n=100, trials=40, prior=ScenePrior.IID, master_seed=2,
                           metric="per_pixel"), (0.05, 0.5)),
    "1f": (dict(n=249, trials=70, prior=ScenePrior.ONE_OVER_F, master_seed=3),
           (0.05, 0.5, 0.95)),
    "1f-nominal": (dict(n=101, trials=40, prior=ScenePrior.ONE_OVER_F, master_seed=5,
                        rho_mode="nominal"), (0.2, 0.7)),
}

# per grid p: mean, std, stderr, realized_rho_mean, predicted
RECORDED_SWEEPS = {
    "iid": [
        ("0x1.09e8b497026c3p-1", "0x1.3446c55c37266p-9", "0x1.26c4c73cc8475p-12",
         "0x1.96504071bdf71p-4", "0x1.09d44573f3a7ap-1"),
        ("0x1.6c37e212e72aap-2", "0x1.270c7a810979dp-8", "0x1.1a1edd09141fdp-11",
         "0x1.0002494926dbap-1", "0x1.6c690528748ccp-2"),
        ("0x1.7188da2990da4p-4", "0x1.0979dc0c4f5b6p-8", "0x1.fbafef29a02d2p-12",
         "0x1.cd0a8783e5f54p-1", "0x1.733e2fde20897p-4"),
    ],
    "iid-nominal": [
        ("0x1.0084449f6dba6p-1", "0x1.1856c71128784p-3", "0x1.629a974d766edp-6",
         "0x1.9ba5e353f7cedp-5", "0x1.03b7b0a57cdfdp-1"),
        ("0x1.68d54d63e13dep-2", "0x1.366cd6463b9a0p-7", "0x1.88a902dcc9cacp-10",
         "0x1.feb851eb851ebp-2", "0x1.6c690528748ccp-2"),
    ],
    "iid-per-pixel": [
        ("0x1.0a8456f0003f6p-1", "0x1.1504d1f8d6e2ep-5", "0x1.5e677872ebb30p-8",
         "0x1.9ba5e353f7cedp-5", "0x1.03b7b0a57cdfdp-1"),
        ("0x1.935f90d4ce88cp-2", "0x1.9f093ef5b8f3fp-6", "0x1.067dec61cb3c1p-8",
         "0x1.feb851eb851ebp-2", "0x1.6c690528748ccp-2"),
    ],
    "1f": [
        ("0x1.1665264c9bfc2p+3", "0x1.993bc503253efp-1", "0x1.874d52dde3b6ep-4",
         "0x1.8e15cbc59a6c2p-5", "0x1.18914e2619376p+3"),
        ("0x1.1b82d5910f28dp+3", "0x1.2e7f002912873p-1", "0x1.213dd8e387fd8p-4",
         "0x1.f9f2e61ef5fbcp-2", "0x1.1c2f797cbccf6p+3"),
        ("0x1.797eaccbf8a72p+2", "0x1.c35a4d6429cf4p-4", "0x1.af9365a063d98p-7",
         "0x1.e66a28f2c0858p-1", "0x1.791b2d89f328fp+2"),
    ],
    "1f-nominal": [
        ("0x1.ed3663e7537a8p+2", "0x1.042c2aec90c03p+0", "0x1.4918593df3c2ap-3",
         "0x1.9280c2a9509a2p-3", "0x1.f200f0194e6a8p+2"),
        ("0x1.8e654d265c6b5p+2", "0x1.40a966a83901cp-2", "0x1.959bcaa488ca8p-5",
         "0x1.6645f4d8f761ep-1", "0x1.8ec514bdc4f6fp+2"),
    ],
}


def _sweep_config(name, workers=1):
    fields, grid = SWEEPS[name]
    return EnsembleConfig(family="bernoulli", noise=NOISE, p=grid[0], workers=workers,
                          **fields), grid


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_rows_bit_exact(monkeypatch, name, workers, small_blocks):
    """small_blocks: 5 trials per block and 2 p per pass over the trials."""
    config, grid = _sweep_config(name, workers)
    if small_blocks:
        monkeypatch.setattr(ensemble, "BLOCK_BYTES", 8 * config.n * 5)
        monkeypatch.setattr(ensemble, "VALUES_BYTES", 24 * config.trials * 2)
    rows = sweep_p(config, grid)
    assert [tuple(v.hex() for v in (r.stats.mean, r.stats.std, r.stats.stderr,
                                    r.stats.realized_rho_mean, r.predicted))
            for r in rows] == RECORDED_SWEEPS[name]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_row_equals_its_ensemble(name):
    config, grid = _sweep_config(name)
    rows = sweep_p(config, grid)
    assert [row.stats for row in rows] == [run_ensemble(replace(config, p=p)) for p in grid]
