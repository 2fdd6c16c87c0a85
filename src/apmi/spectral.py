"""Exact mutual information of a circulant system from its power spectrum.

The circulant transfer matrix diagonalizes in the DFT basis, so the MI of
the Gaussian channel splits into one log term per frequency:

    I_total = sum_k log(gamma * d_k * |lambda_k|^2 / n + 1)

with lambda = DFT of the aperture row (unnormalized, DC at index 0),
d the scene prior weights and gamma the inverse noise power.  Every exact MI
goes through mi_sums, on power_spectrum (the package's one FFT) or, for a
MURA row that proves its label by its values, a theorem spectrum; an MLS row
that proves it sums by theorem in asymptotic.mls_mi_sums.  In nats.
"""

import math
from dataclasses import dataclass

import numpy as np

from .asymptotic import mls_mi_sums
from .model import NoiseModel, ScenePrior, check_int, gamma, spectral_weights

__all__ = [
    "MIResult",
    "power_spectrum",
    "mi_sums",
    "mutual_information",
    "mi_excluding_dc",
    "jensen_bound",
]


@dataclass(frozen=True)
class MIResult:
    total: float
    per_pixel: float
    per_pixel_excl_dc: float  # (total - DC term) / n


def power_spectrum(a: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """|lambda_k|^2 of a real row, DC first, or of each row of a (T, n) batch;
    unchecked (ensemble hot path).

    out : optional (complex, float) pair of arrays shaped like a.  The row is
        copied into the first (a new complex array without out) and
        transformed in place, with the bits of fft(a) and no cast temporary;
        the power is written into the second, which is returned.  numpy.fft
        takes out= from numpy 2.0 on, hence the numpy>=2.0 floor.
    """
    spectrum, power = out or (np.empty(a.shape, complex), None)
    spectrum[...] = a
    power = np.abs(np.fft.fft(spectrum, out=spectrum), out=power)
    return np.square(power, out=power)


def mi_sums(lambda_sq: np.ndarray, weights: np.ndarray, gamma_: float | np.ndarray):
    """Total MI in nats and the same total with the DC term removed.

    One spectrum (n,) with a scalar gamma gives two floats.  A (T, n) batch
    with one gamma per row (shape (T,)) gives two length-T arrays, each row
    bitwise equal to its own one-spectrum call.  A term that overflows makes
    its sums inf or nan without a numpy warning; the CLI's outputs reject them.
    """
    if lambda_sq.ndim == 2:
        gamma_ = np.asarray(gamma_)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # log1p(gamma * weights * lambda_sq / n) in one temporary; lambda_sq
        # may be a pattern's cached spectrum, so it is never written
        terms = np.multiply(gamma_, weights)
        terms *= lambda_sq
        terms /= lambda_sq.shape[-1]
        np.log1p(terms, out=terms)
        total = terms.sum(axis=-1)
        excl = total - terms[..., 0]
    if lambda_sq.ndim == 1:
        return float(total), float(excl)
    return total, excl


def mutual_information(pattern, prior: ScenePrior, noise: NoiseModel) -> MIResult:
    """Exact MI of the circulant system built from `pattern`.

    gamma is computed from the pattern's realized transmissivity (mean of
    the entries), not from any nominal family parameter.

    Returns
    -------
    MIResult with the total over all n frequencies, the per-pixel value
    total/n and the bulk per-pixel value with the DC term removed, all in
    nats from the pattern's one power spectrum, or, for an MLS row that
    proves its label, from mls_mi_sums, with no n-sized array.
    """
    n = pattern.n
    if pattern._proven and pattern.family == "mls":
        total, bulk = mls_mi_sums(n, prior, gamma(noise, pattern.rho))
    else:
        total, bulk = mi_sums(pattern.lambda_sq, spectral_weights(prior, n),
                              gamma(noise, pattern.rho))
    return MIResult(total=total, per_pixel=total / n, per_pixel_excl_dc=bulk / n)


def mi_excluding_dc(pattern, noise: NoiseModel) -> float:
    """Bulk per-pixel MI under the IID prior, DC term removed.

    (1/n) * sum_{k>=2} log(gamma |lambda_k|^2 / n + 1).  This is the
    quantity the large-n limit theorems describe: the DC contribution is
    O(log n / n) and vanishes in the limit but biases finite-n comparisons.
    """
    return mutual_information(pattern, ScenePrior.IID, noise).per_pixel_excl_dc


def jensen_bound(pattern, noise: NoiseModel) -> float:
    """Concavity upper bound on the bulk per-pixel MI (IID prior).

        (n-1)/n * log(gamma * S / ((n-1) n) + 1),  S = sum_{k>=2} |lambda_k|^2

    It dominates mi_excluding_dc for every pattern and is attained exactly
    when all off-DC eigenvalue magnitudes are equal (spectrally flat masks).
    """
    g = gamma(noise, pattern.rho)
    n = check_int(pattern.n, "n", 2)
    s = float(pattern.lambda_sq[1:].sum())
    return (n - 1) / n * math.log1p(g * s / ((n - 1) * n))
