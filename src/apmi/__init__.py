"""Mutual information of 1D coded-aperture imaging systems.

Exact spectral evaluation, large-n predictors, transmissivity optimization
and reproducible Monte Carlo ensembles for circulant optical systems under
Gaussian scene priors with thermal and shot noise.

The package re-exports each module's ``__all__``, the one list of its public
names; errors.py, which defines only its public classes, needs none.
"""

from .asymptotic import *
from .ensemble import *
from .errors import *
from .model import *
from .patterns import *
from .spectral import *

__version__ = "0.1.0"
