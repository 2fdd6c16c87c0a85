"""Mutual information of 1D coded-aperture imaging systems.

Exact spectral evaluation, large-n predictors, transmissivity optimization
and reproducible Monte Carlo ensembles for circulant optical systems under
Gaussian scene priors with thermal and shot noise.
"""

from .asymptotic import (
    PredictionResult,
    explog_exp1,
    optimal_p_iid,
    optimal_p_onef,
    predict_bernoulli_iid,
    predict_bernoulli_onef,
    predict_flat_iid,
    predict_flat_onef,
    predict_gaussian_onef,
    predict_pinhole,
    predict_uniform_iid,
)
from .ensemble import (
    ComparisonRecord,
    EnsembleConfig,
    EnsembleStats,
    SweepRow,
    compare,
    run_ensemble,
    sweep_p,
    trial_seed,
)
from .errors import (
    ApmiError,
    DegenerateNoiseError,
    FlatnessCheckError,
    InvalidArgumentError,
    NumericalError,
)
from .model import NoiseModel, ScenePrior, db_to_linear, gamma, spectral_weights
from .patterns import (
    AperturePattern,
    PatternFamily,
    gen_bernoulli,
    gen_mls,
    gen_mura,
    gen_pinhole,
    gen_uniform,
    load_pattern,
    save_pattern,
)
from .spectral import (
    MIResult,
    SpectrumResult,
    circulant_spectrum,
    jensen_bound,
    mi_excluding_dc,
    mutual_information,
)

__version__ = "0.1.0"
