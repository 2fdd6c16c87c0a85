"""Bit-exact regression values for the ensemble and exact-MI paths.

The hex floats were recorded (float.hex) before the FFT -> log1p sum was
shared between spectral.py and ensemble.py; every refactor of that path must
reproduce them exactly, not just within a tolerance.
"""

from dataclasses import astuple

import pytest

from apmi import (
    EnsembleConfig,
    EnsembleStats,
    NoiseModel,
    ScenePrior,
    gen_mls,
    mutual_information,
    run_ensemble,
)

NOISE = NoiseModel(0.01, 1.0)

CONFIGS = {
    "bernoulli-iid": EnsembleConfig(n=64, trials=16, family="bernoulli", prior=ScenePrior.IID,
                                    noise=NOISE, master_seed=7, p=0.3),
    "bernoulli-1f": EnsembleConfig(n=63, trials=16, family="bernoulli",
                                   prior=ScenePrior.ONE_OVER_F, noise=NOISE, master_seed=7, p=0.3),
    "gaussian": EnsembleConfig(n=51, trials=16, family="gaussian", prior=ScenePrior.ONE_OVER_F,
                               noise=NoiseModel(0.01, 0.0), rho_j_fixed=1.0, master_seed=5),
    "uniform": EnsembleConfig(n=64, trials=16, family="uniform", prior=ScenePrior.IID,
                              noise=NOISE, master_seed=3),
}

# kind, mean, std, stderr, trials, realized_rho_mean, log_base
RECORDED = {
    "bernoulli-iid": ("per_pixel_excl_dc", "0x1.cae8473ca0f76p-2", "0x1.48615176bbbd9p-5",
                      "0x1.48615176bbbd9p-7", 16, "0x1.2e00000000000p-2", "nats"),
    "bernoulli-1f": ("total", "0x1.b29f1c6d17044p+2", "0x1.144f2f32fcd07p-1",
                     "0x1.144f2f32fcd07p-3", 16, "0x1.2fbefbefbefbfp-2", "nats"),
    "gaussian": ("total", "0x1.73e786c542a7cp+2", "0x1.5b7cddd83c3d1p+0",
                 "0x1.5b7cddd83c3d1p-2", 16, "-0x1.682cee6504000p-16", "nats"),
    "uniform": ("per_pixel_excl_dc", "0x1.2100f0246d2dep-3", "0x1.27eb184c3884cp-6",
                "0x1.27eb184c3884cp-8", 16, "0x1.f80d4f6118634p-2", "nats"),
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
