"""Scene priors and noise model for 1D circulant imaging systems.

The imaging model is y = A x + noise, where A is an n x n circulant
transfer matrix built from an aperture row a, the scene x is a zero-mean
Gaussian with a diagonal spectral covariance d (the prior), and the noise
combines a thermal floor W with signal-dependent shot noise rho*J.
Everything downstream (exact MI, asymptotic predictors, ensembles) consumes
the two quantities defined here: the per-frequency weight vector d and the
inverse noise power gamma = 1/(W + rho*J).  The odd-n policy of the 1/f
formulas, the one integer rule of seeds and sizes (check_int), the one rule of
real arguments such as W, J and p (check_real), the one raise for a noise power
without a finite inverse, the nats-to-bits conversion, the mask family names and
the atomic file writer (the CLI needs both without the pattern layer) live here
too.  numpy is imported only where an array is made.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

from .errors import DegenerateNoiseError, InvalidArgumentError

__all__ = [
    "ScenePrior",
    "NoiseModel",
    "spectral_weights",
    "gamma",
    "degenerate_noise",
    "db_to_linear",
    "effective_n",
    "to_log_base",
]

LN2 = math.log(2.0)

# What an ensemble records, and which rho sets a trial's shot noise.  The
# CLI offers both as choices, so they live here and not in the ensemble
# engine, which the CLI loads only for the commands that run ensembles.
# Metric -> (the prediction kind it pairs with, its column of a trial's
# (mi_total, mi_total_excl_dc, rho) row); a per_pixel metric is divided by n.
METRICS = {"per_pixel": ("per_pixel", 0), "per_pixel_excl_dc": ("per_pixel", 1),
           "total": ("total", 0)}
RHO_MODES = ("realized", "nominal")

# The mask families that patterns.PATTERNS generates, in its order.  The CLI
# offers them as --family choices without loading the pattern layer.
PATTERN_FAMILIES = ("pinhole", "mls", "mura", "bernoulli", "uniform")


class ScenePrior(enum.Enum):
    """Spectral shape of the scene covariance."""

    IID = "iid"                 # white scene: every frequency weighted 1
    ONE_OVER_F = "one_over_f"   # natural-scene prior: weight falls off as 1/k

    @classmethod
    def parse(cls, text: str) -> "ScenePrior":
        key = text.strip().lower() if isinstance(text, str) else None
        aliases = {
            "iid": cls.IID,
            "1f": cls.ONE_OVER_F,
            "1/f": cls.ONE_OVER_F,
            "one_over_f": cls.ONE_OVER_F,
            "one-over-f": cls.ONE_OVER_F,
        }
        if key not in aliases:
            raise InvalidArgumentError(f"unknown scene prior {text!r}")
        return aliases[key]


@dataclass(frozen=True)
class NoiseModel:
    """Thermal and shot noise powers, in linear units.

    Parameters
    ----------
    W : float
        Thermal (signal-independent) noise power, >= 0.
    J : float
        Shot-noise coefficient; the signal-dependent contribution is
        rho * J where rho is the aperture transmissivity. >= 0.
    """

    W: float
    J: float

    def __post_init__(self):
        check_real(self.W, "W", "nonnegative")
        check_real(self.J, "J", "nonnegative")
        if self.W == 0 and self.J == 0:
            raise InvalidArgumentError("W and J cannot both be zero")


def check_int(value, what: str, least: int = 0, none: bool = False):
    """The one rule of seeds and sizes: an int >= least (a size's smallest valid
    value), not a bool or a numpy integer, or None if `none`.  Returns the value."""
    if not (type(value) is int and value >= least or none and value is None):
        raise InvalidArgumentError(f"{what} must be {'None/null or ' if none else ''}"
                                   f"an integer >= {least}, got {value!r}")
    return value


_SPANS = {"real": lambda x: True, "nonnegative": lambda x: x >= 0,
          "positive": lambda x: x > 0, "in [0, 1]": lambda x: 0 <= x <= 1}


def check_real(value, what: str, span: str = "real"):
    """The one rule of real arguments: an int, a float or another numbers.Real (numpy's
    included), not a bool, finite and in `span`, a key of _SPANS that its error prints
    (`p must be finite and in [0, 1], got 1.5`).  Returns the value unchanged."""
    if not ((isinstance(value, (int, float)) or isinstance(value, numbers.Real))  # ABC: slower
            and not isinstance(value, bool) and math.isfinite(value) and _SPANS[span](value)):
        raise InvalidArgumentError(f"{what} must be finite and {span}, got {value!r}")
    return value


def spectral_weights(prior: ScenePrior, n: int) -> np.ndarray:
    """Per-frequency scene weights d, DC at index 0.

    For the IID prior every entry is 1.  For the 1/f prior the weights decay
    with frequency index away from DC.  Odd n pairs the mirror frequencies
    (k, n+2-k) at weight 1/k for k = 2..(n+1)/2, with the DC weight 1.
    Even n uses the doubled block [1, 1/2, ..., 2/n, 1, 1/2, ..., 2/n], which
    is not Hermitian-symmetric (n = 8: d[1] = 1/2 but d[7] = 1/4), so an
    even-n 1/f MI is the MI of no real-valued scene.  That convention is
    kept as is; predictors and ensembles run at odd n (effective_n).

    Parameters
    ----------
    prior : ScenePrior
    n : int
        Number of frequencies (system size), >= 2.

    Returns
    -------
    np.ndarray of shape (n,), entries in (0, 1], d[0] == 1.
    """
    check_int(n, "n", 2)
    import numpy as np
    if prior is ScenePrior.IID:
        return np.ones(n)
    if prior is ScenePrior.ONE_OVER_F:
        d = np.empty(n)
        if n % 2 == 0:
            half = n // 2
            d[:half] = 1.0 / np.arange(1, half + 1)
            d[half:] = d[:half]
        else:
            h = (n + 1) // 2
            d[0] = 1.0
            d[1:h] = 1.0 / np.arange(2, h + 1)
            d[h:] = d[1:h][::-1]
        return d
    raise InvalidArgumentError(f"unknown prior {prior!r}")


def degenerate_noise(total):
    """True where a total noise power W + rho*J (a float or an array) has no
    finite inverse: zero, or below about 5.6e-309, where 1/total overflows.
    Every noise check uses this test; a scalar is tested in math as a Python
    float (no numpy overflow warning), pinned by the tests to the array result."""
    if isinstance(total, (int, float)):
        total = float(total)
        return total == 0 or not math.isfinite(1.0 / total)
    import numpy as np
    with np.errstate(divide="ignore", over="ignore"):
        return ~np.isfinite(np.reciprocal(np.asarray(total, dtype=float)))


def noise_level(total: float) -> str:
    """A degenerate total noise power as error messages name it."""
    return "zero" if total == 0 else f"{float(total)}, too small to invert"


def inverse_noise(total: float, what: str = "W + rho*J", numerator: float = 1.0) -> float:
    """numerator / total for a scalar total noise power (named `what` in
    errors), numerator > 0.  Every scalar check of a noise power raises here.

    Raises
    ------
    DegenerateNoiseError
        If total has no finite inverse (degenerate_noise).
    """
    if degenerate_noise(total):
        raise DegenerateNoiseError(f"{what} must be positive" if total == 0
                                   else f"{what} is {noise_level(total)}")
    return numerator / total


def gamma(noise: NoiseModel, rho: float) -> float:
    """Inverse total noise power 1/(W + rho*J) at transmissivity rho; a
    degenerate W + rho*J raises DegenerateNoiseError (inverse_noise)."""
    return inverse_noise(noise.W + check_real(rho, "rho", "in [0, 1]") * noise.J)


def db_to_linear(x_db: float) -> float:
    """Convert a power ratio in dB to linear units (10^(x/10))."""
    try:
        return math.pow(10.0, check_real(x_db, "x_db") / 10.0)
    except OverflowError:
        raise InvalidArgumentError(f"{x_db} dB has no finite linear value") from None


def check_odd_n(n: int) -> None:
    """The 1/f formulas need an odd n >= 5 (effective_n gives one); a non-int fails check_int."""
    if type(n) is int and (n < 5 or n % 2 == 0):
        raise InvalidArgumentError(f"the 1/f-prior formulas need odd n >= 5, got {n}")
    check_int(n, "n", 5)


def effective_n(prior: ScenePrior, n: int) -> int:
    """System size of the 1/f formulas: they pair mirror frequencies, so an
    even n is reduced by one, with a UserWarning.  IID n passes unchanged."""
    if prior is ScenePrior.ONE_OVER_F and n % 2 == 0:
        warnings.warn(f"n reduced to {n - 1} (odd-n formula)", stacklevel=2)
        return n - 1
    return n


def to_log_base(nats, log_base: str):
    """Express a value (or an array) given in nats in log_base, 'nats' or 'bits'."""
    if log_base == "nats":
        return nats
    if log_base == "bits":
        return nats / LN2
    raise InvalidArgumentError(f"log_base must be 'nats' or 'bits', got {log_base!r}")


def write_atomic(files: dict) -> None:
    """Write each ``{path: text chunks}`` entry to a temporary sibling, then
    rename them all into place.  If anything fails, the temporaries and every
    file this call has already renamed into place are removed, so a failed
    write leaves no partial output."""
    staged, placed = [], []
    try:
        for path, chunks in files.items():
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            staged.append((tmp, path))
            with open(tmp, "w") as fh:
                fh.writelines(chunks)
        for tmp, path in staged:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        raise
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
