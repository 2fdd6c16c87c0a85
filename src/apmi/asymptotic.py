"""Large-n mutual information predictors and transmissivity optimizers.

Random-mask MI concentrates as n grows: the bulk eigenvalue distribution of
the circulant only depends on the entry mean and variance, so the per-pixel
MI of on-off and gray random masks tends to a closed expectation over an
exponential (chi-squared with 2 dof, halved) spectral density.  Every such
expectation is routed through a single audited kernel:

    explog_exp1(c) = E_{Y ~ Exp(1)}[log(c Y + 1)] = e^(1/c) E1(1/c)

All predictor values are in nats.  Per-pixel predictors describe the bulk
(DC-excluded) per-pixel MI; the 1/f-prior predictors return total MI and
include the DC term explicitly.  Their bulk sums over k = 2..(n-1)/2 share one
engine, _bulk_sum: an exact head of at most 63 terms past n = 8193 and closed
Euler-Maclaurin sums past it, so their cost grows neither with n nor with the SNR s.
numpy is imported only where an array is made.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

from .errors import InvalidArgumentError
from .model import NoiseModel, ScenePrior, check_int, check_odd_n, check_real, inverse_noise

__all__ = [
    "PredictionResult", "PREDICTORS", "BERNOULLI_PREDICTOR", "predict", "explog_exp1",
    "predict_pinhole", "predict_flat_iid", "predict_bernoulli_iid", "optimal_p_iid",
    "predict_uniform_iid", "predict_flat_onef", "predict_gaussian_onef",
    "predict_bernoulli_onef", "optimal_p_onef",
]

# Documented numerical contract of the kernel and the Gaussian quadrature.
EXPLOG_ABS_TOL = 1e-10
GAUSS_QUAD_ABS_TOL = 1e-8
GAUSS_TRUNC_SD = 10.0

# Below this c the exp(1/c)*E1(1/c) product would overflow/underflow;
# an 8-term asymptotic series is accurate to ~1e-21 there.
_SERIES_CUTOFF = 1.0 / 600.0

# Series coefficients a_j of the 1/f bulk terms in c = s/k, j = 1..8: explog_exp1's
# (-1)^(j-1) (j-1)! and log1p's (-1)^(j-1) / j.
_EXPLOG_SERIES = tuple((-1) ** (j - 1) * math.factorial(j - 1) for j in range(1, 9))
_LOG1P_SERIES = tuple((-1) ** (j - 1) / j for j in range(1, 9))

# B_2m / (2m)! for m = 1..8, the Euler-Maclaurin weights of the bulk-sum tails.
_EULER_MACLAURIN = tuple(b / math.factorial(2 * m) for m, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), 1))

# B_2m / (2m)! j (j+1) ... (j+2m-2), the weights of sum_k k^-j's (2m-1)-th derivatives
_POWER_WEIGHTS = tuple(tuple(coef * math.prod(range(j, j + 2 * m - 1))
                             for m, coef in enumerate(_EULER_MACLAURIN, 1)) for j in range(1, 9))


@dataclass(frozen=True)
class PredictionResult:
    """An asymptotic MI prediction."""

    value: float                # predicted MI in nats
    kind: str                   # "per_pixel" or "total"
    method: str                 # "closed_form" or "quadrature"
    est_abs_error: float = 0.0  # bound on the numerical error of `value` (0.0 for closed forms)


def explog_exp1(c: float | np.ndarray) -> float | np.ndarray:
    """E[log(c*Y + 1)] for Y ~ Exp(1), c >= 0, elementwise over an array.

    Uses the exponential-integral identity e^(1/c) E1(1/c); for c below ~1/600
    the product is numerically degenerate and the asymptotic series c - c^2 + 2c^3
    - ... - 7! c^8 (truncation error <= 8! c^9) takes over.  Absolute error is
    far below EXPLOG_ABS_TOL everywhere.

    A scalar (a numbers.Real, numpy's included) is computed in math and returns
    a Python float; an array returns a float array of the same shape.  Both run
    each element's operations in the same order (_explog_series is the one series
    body), so an array element is bitwise the scalar result; tests pin it.
    """
    if (isinstance(c, (int, float)) or isinstance(c, numbers.Real)) and not isinstance(c, bool):
        c = float(c) + 0.0  # -0.0 becomes 0.0, as in the array path
        if not 0.0 <= c < math.inf:
            raise InvalidArgumentError(f"need finite c >= 0, got {c}")
        if c >= _SERIES_CUTOFF:
            from scipy import special
            return math.exp(1.0 / c) * float(special.exp1(1.0 / c))
        return _explog_series(c)
    import numpy as np
    if np.asarray(c).dtype.kind not in "iuf":  # a bool, str or object array is no c
        raise InvalidArgumentError(f"need finite c >= 0, got {c!r}")
    arr = np.asarray(c, dtype=float)
    if arr.size and not (arr.min() >= 0 and arr.max() < math.inf):  # min and max propagate NaN
        bad = ~np.isfinite(arr) | (arr < 0)
        raise InvalidArgumentError(f"need finite c >= 0, got {arr[bad].flat[0]}")
    out = np.zeros(arr.shape)
    for mask, branch in (((arr > 0) & (arr < _SERIES_CUTOFF), _explog_series),
                         (arr >= _SERIES_CUTOFF, _explog_identity)):
        if mask.any():
            out[mask] = branch(arr[mask])
    return float(out) if arr.ndim == 0 else out


def _explog_series(c: float | np.ndarray) -> float | np.ndarray:
    """c - c^2 + 2c^3 - ... - 7! c^8 of a float or an array, from the first term on."""
    acc = term = c
    for k in range(1, 8):
        term = term * (-k * c)
        acc = acc + term
    return acc


def _explog_identity(arr: np.ndarray) -> np.ndarray:
    """e^x E1(x) at x = 1/arr (1-D); math.exp, as numpy's SIMD exp is 1 ulp off on some x."""
    import numpy as np
    from scipy import special
    x = 1.0 / arr
    return np.fromiter(map(math.exp, x.tolist()), float, x.size) * special.exp1(x)


####################### IID-prior (white scene) predictors #######################

def predict_pinhole(n: int, W: float, J: float) -> PredictionResult:
    """Exact per-pixel MI of the n-element pinhole: log(1/(n W + J) + 1)."""
    NoiseModel(W, J)
    check_int(n, "n", 1)
    return PredictionResult(math.log1p(inverse_noise(n * W + J, "n*W + J")),
                            "per_pixel", "closed_form")


def predict_flat_iid(W: float, J: float) -> PredictionResult:
    """Large-n per-pixel MI of a spectrally flat half-open mask.

    Bulk eigenvalue power is (n+1)/4 ~ n/4 and rho -> 1/2, giving
    log((1/4)/(W + J/2) + 1).
    """
    NoiseModel(W, J)
    return PredictionResult(math.log1p(inverse_noise(W + J / 2.0, "W + J/2", 0.25)),
                            "per_pixel", "closed_form")


def predict_bernoulli_iid(p: float, W: float, J: float) -> PredictionResult:
    """Large-n bulk per-pixel MI of a random on-off mask with open fraction p.

    The bulk spectrum |lambda_k|^2/n tends to p(1-p) * Exp(1), so the
    per-pixel MI tends to explog_exp1(p(1-p) / (W + p J)).
    """
    NoiseModel(W, J)
    check_real(p, "p", "in [0, 1]")
    c = inverse_noise(W + p * J, "W + p*J", p * (1.0 - p))
    return PredictionResult(explog_exp1(c), "per_pixel", "quadrature",
                            est_abs_error=EXPLOG_ABS_TOL)


def optimal_p_iid(W: float, J: float) -> float:
    """Open fraction maximizing the on-off bulk MI under the IID prior.

    Closed form (W/J) (sqrt(1 + J/W) - 1): the argmax of
    c(p) = p(1-p)/(W + pJ), i.e. the root of p^2 J + 2 p W - W = 0 in (0, 1/2].
    Shot-dominant noise (W << J) drives p* toward sqrt(W/J); thermal-dominant
    noise drives it toward 1/2, which it is at J = 0.  It is evaluated as the
    equal 1 / (1 + sqrt(1 + J/W)), which does not cancel to 0 when J/W is tiny.
    """
    NoiseModel(W, J)
    if W == 0:
        raise InvalidArgumentError("the closed form of p* needs W > 0")
    if not math.isfinite(J / W):
        raise InvalidArgumentError(f"the closed form of p* is not finite at W={W}, J={J}")
    return 1.0 / (1.0 + math.sqrt(1.0 + J / W))


def predict_uniform_iid(W: float, J: float, bulk_variance: float = 1.0 / 24.0) -> PredictionResult:
    """Large-n bulk per-pixel MI of a uniform [0,1] gray mask.

    explog_exp1(bulk_variance / (W + J/2)); rho -> 1/2.  The bulk variance
    of the limiting spectrum is configurable: the default 1/24 reproduces
    the published constant, while the entry variance of Uniform[0,1] is
    1/12 (the value the simulations in the acceptance suite validate).
    """
    NoiseModel(W, J)
    check_real(bulk_variance, "bulk_variance", "positive")
    c = inverse_noise(W + J / 2.0, "W + J/2", bulk_variance)
    return PredictionResult(explog_exp1(c), "per_pixel", "quadrature",
                            est_abs_error=EXPLOG_ABS_TOL)


####################### 1/f-prior (natural scene) predictors #######################

def predict_flat_onef(n: int, W: float, J: float, form: str = "midsum") -> PredictionResult:
    """Total MI of a flat half-open mask under the 1/f prior (odd n).

    form="midsum": DC term plus twice the sum over the paired bulk frequencies,

        log((n/4)/(W+J/2) + 1) + 2 sum_{k=2}^{(n-1)/2} log((1/4)/(W+J/2)/k + 1)

    form="closed": the further approximation
    log(n/4 / (W+J/2)) + (1/2)/(W+J/2) * (log(n/2) - 1), which makes the
    O(log n) growth explicit.  It replaces log(x + 1) by log(x) and the sum
    by an integral, so it holds only at high SNR (small W + J/2) and large
    n; elsewhere it can turn negative, which is rejected.
    """
    NoiseModel(W, J)
    check_odd_n(n)
    g = inverse_noise(W + J / 2.0, "W + J/2")
    if form == "midsum":
        value = math.log1p(g * n / 4.0)  # an infinite DC term needs no bulk sum
        if math.isfinite(value):
            import numpy as np
            value += 2.0 * _bulk_sum(np.log1p, _LOG1P_SERIES, g / 4.0, n, _log1p_ends)
    elif form == "closed":
        value = math.log(g * n / 4.0) + g / 2.0 * (math.log(n / 2.0) - 1.0)
        if value < 0:
            raise InvalidArgumentError(
                f"the closed form is negative ({value:.6g}) at n={n}, W={W}, J={J}: it holds "
                "only at high SNR and large n; use the midsum form (--form midsum)")
    else:
        raise InvalidArgumentError(f"form must be 'midsum' or 'closed', got {form!r}")
    return PredictionResult(value, "total", "closed_form")


@functools.cache
def _qagse():
    """QUADPACK's qagse from scipy.integrate's extension module alone, without the package's
    ODE, BVP, sparse and linalg code (~25 MB, ~0.25 s cold).  A module already imported is
    reused; one loaded here is registered, so scipy.integrate, imported later, shares it."""
    import sys
    name = "scipy.integrate._quadpack"
    if name not in sys.modules:
        import os
        from importlib.machinery import PathFinder
        from importlib.util import module_from_spec
        import scipy
        spec = PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], "integrate")])
        spec.loader.exec_module(module := module_from_spec(spec))
        sys.modules[name] = module
    return sys.modules[name]._qagse


def _normal_expect_log(gamma_: float, sd: float, mean: float) -> tuple[float, float]:
    """E_G[log(gamma*(sd*G + mean)^2 + 1)] over G ~ N(0,1), truncated at
    +-GAUSS_TRUNC_SD standard deviations (tail contribution < 1e-20); if that
    overflows, as log(gamma) + E_G[log((sd*G + mean)^2 + 1/gamma)].  Each integral is
    the qagse call scipy's quad makes for finite limits, so value and error are quad's
    bit for bit (tests pin it on both CI legs); a nonzero QUADPACK ier warns."""
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def quad(integrand):
        val, err, ier = _qagse()(integrand, -GAUSS_TRUNC_SD, GAUSS_TRUNC_SD, (), 0,
                                 GAUSS_QUAD_ABS_TOL, 1e-10, 200)
        if ier:
            warnings.warn(f"DC quadrature: QUADPACK ier={ier}, error estimate {err:.3g}")
        return val, err

    val, err = quad(lambda g: math.log1p(gamma_ * (sd * g + mean) ** 2)
                    * norm * math.exp(-0.5 * g * g))
    if val == math.inf:  # only here, so the finite path keeps its integrand and its cost
        val, err = quad(lambda g: math.log((sd * g + mean) ** 2 + 1.0 / gamma_)
                        * norm * math.exp(-0.5 * g * g))
        val += math.log(gamma_)
    return float(val), float(err)


def _power_tails(s: float, a: int, b: int) -> list[float]:
    """[sum_{k=a}^{b} (s/k)^j for j = 1..8] for integers 30 <= a <= b, by
    Euler-Maclaurin through B_16: the remainder is below 1e-19 of each sum (1e-50
    at a > 4096).  They are evaluated in s/a and s/b, below 1 in the bulk sums,
    so no power overflows."""
    ia, ib = 1 / a, 1 / b
    x, y = s * ia, s * ib
    log_ratio = math.log1p((b - a) / a)
    odd = [(ia ** (2 * m - 1), ib ** (2 * m - 1)) for m in range(1, 9)]
    sums = []
    for j, weights in enumerate(_POWER_WEIGHTS, 1):
        # s^j (a^(1-j) - b^(1-j)) / (j-1) = s x^(j-1) (1 - (a/b)^(j-1)) / (j-1): no cancellation
        integral = (s * log_ratio if j == 1
                    else -s * x ** (j - 1) * math.expm1((1 - j) * log_ratio) / (j - 1))
        xj, yj = x ** j, y ** j
        sums.append(math.fsum([integral, (xj + yj) / 2.0, *(
            w * (xj * pa - yj * pb) for w, (pa, pb) in zip(weights, odd))]))
    return sums


def _explog_cf(x):
    """e^x E1(x) at a long double x >= 0.4 by the even part of DLMF 6.9.1, 1/(x+1- 1/(x+3-
    4/(x+5- ...))), cut after n = 180/x + 12 levels: below 1e-21 of it up to x = 1e4."""
    t = x + 2 * (n := int(180 / x) + 12) + 1
    for j in range(n, 0, -1):
        t = x + 2 * j - 1 - j * j / t
    return 1 / t


def _e1_ends(s: float, a: int, b: int):
    """For f(k) = g(k/s), g(x) = e^x E1(x), and integers 64 < a <= b: the integral of f
    over [a, b] in long double, and [f, f', f''', f^(5), f^(7)] at a and at b.

    E1' = -e^-x/x (DLMF 6.2.1) gives g' = g - 1/x: G = g + log x is an antiderivative, and
    f^(r) = f^(r-1) / s + (-1)^r (r-1)! k^-r overflows at no s.  At x >= 0.4 g comes from
    _explog_cf; below, E1 = Ein(x) - gamma - log x (DLMF 6.6.2), Ein(x) = sum_j (-1)^(j+1)
    x^j / (j j!), and G + gamma = e^x Ein(x) - expm1(x) (gamma + log x) adds two positive terms."""
    import numpy as np
    ls, euler = np.longdouble(s), np.longdouble("0.57721566490153286060651209008240243")
    xa, xb = np.longdouble(a) / ls, np.longdouble(b) / ls
    ends = []  # g, G + gamma and the derivatives of f at each end
    for k, x in ((a, xa), (b, xb)):
        if x >= 0.4:
            g = _explog_cf(x)
            h = g + np.log(x) + euler
        else:
            ein = term = x
            for j in range(2, 18):  # the first omitted term is below 1e-22 of Ein(x)
                term *= -x / j
                ein += term / j
            exp, log = np.exp(x), np.log(x) + euler
            g, h = exp * (ein - log), exp * ein - np.expm1(x) * log
        d = [float(g)]
        for r, coef in enumerate(_EXPLOG_SERIES[:7], 1):  # coef = -(-1)^r (r-1)!
            d.append(d[-1] / s - coef / k ** r)
        ends.append((g, h, [d[0], *d[1::2]]))
    (ga, ha, da), (gb, hb, db) = ends
    # with both ends on the continued fraction, log xb - log xa is one log1p
    return ls * (np.log1p(np.longdouble(b - a) / a) + gb - ga if xa >= 0.4 else hb - ha), da, db


def _log1p_ends(s: float, a: int, b: int):
    """For f(k) = log1p(s/k) and integers 0 < a <= b: the integral of f over [a, b],
    b log1p(s/b) - a log1p(s/a) + s log1p((b-a)/(a+s)), in long double, and
    [f, f', f''', f^(5), f^(7)] at a and at b.  The odd derivatives (m-1)! ((k+s)^-m - k^-m)
    are taken as (m-1)! k^-m expm1(-m f), free of cancellation."""
    import numpy as np
    ls, la, lb = np.longdouble(s), np.longdouble(a), np.longdouble(b)
    whole = lb * np.log1p(ls / lb) - la * np.log1p(ls / la) + ls * np.log1p((lb - la) / (la + ls))
    ends = []
    for k in (a, b):
        f = math.log1p(s / k)
        ends.append([f, *(coef * math.expm1(-m * f) / k ** m  # coef = (m-1)!
                          for m, coef in zip((1, 3, 5, 7), _EXPLOG_SERIES[::2]))])
    return whole, *ends


def _bulk_sum(term, series: tuple, s: float, n: int, ends) -> float:
    """sum_{k=2}^{top} f(k), f(k) = term(s / k), top = (n-1)/2, for an elementwise array
    function term(c) equal to sum_j series[j-1] c^j for c < _SERIES_CUTOFF, and ends(s, a, b)
    giving f's integral over [a, b] and f's values and odd derivatives at a and b.

    The head k <= H is one call of term: H = top up to top = 4096, else max(30, min(K, 64))
    at every s, K = floor(s / _SERIES_CUTOFF) + 1.  H < k <= min(K, top) is one Euler-Maclaurin
    range through B_8, its integral kept as two doubles; past K every c is on the series:
    sum_j series[j-1] sum_{k>K} (s/k)^j (_power_tails).  One math.fsum rounds all parts."""
    import numpy as np
    top = (n - 1) // 2
    # K, at most top + 1; float test first: s may be too large for an int
    branch = int(s / _SERIES_CUTOFF) + 1 if s < top * _SERIES_CUTOFF else top + 1
    head = max(30, min(branch, 64)) if top > 4096 else top
    parts = term(s / np.arange(2, head + 1)).tolist()
    if head < min(branch, top):
        whole, fa, fb = ends(s, head + 1, min(branch, top))
        parts += [float(whole), float(whole - float(whole)), (fa[0] + fb[0]) / 2.0,
                  *(w * (db - da) for w, da, db in zip(_EULER_MACLAURIN, fa[1:], fb[1:]))]
    if max(head, branch) < top:
        parts += [a * tail for a, tail in zip(series, _power_tails(s, max(head, branch) + 1, top))]
    return math.fsum(parts)


def _random_onef(n: int, g: float, var: float, mean: float) -> PredictionResult:
    """Expected total MI under the 1/f prior (odd n), at inverse noise g, of a random
    mask whose lambda_1/sqrt(n) tends to N(mean, var) and each bulk |lambda_k|^2/n to
    var * Exp(1); the error estimate adds EXPLOG_ABS_TOL per bulk term to the DC's."""
    dc, dc_err = _normal_expect_log(g, sd=math.sqrt(var), mean=mean)
    bulk = 2.0 * _bulk_sum(explog_exp1, _EXPLOG_SERIES, var * g, n, _e1_ends)
    err = dc_err + 2 * ((n - 1) // 2 - 1) * EXPLOG_ABS_TOL
    return PredictionResult(dc + bulk, "total", "quadrature", est_abs_error=err)


def predict_gaussian_onef(n: int, W: float, rho_j_product: float) -> PredictionResult:
    """Expected total MI of a circulant with IID standard-Gaussian row entries
    under the 1/f prior, at fixed inverse noise gamma = 1/(W + rho_j_product).

    The DC gain satisfies lambda_1^2/n ~ G^2 with G standard normal, and each
    paired bulk frequency contributes a chi-squared(2 dof) term:

        E_G[log(gamma G^2 + 1)] + 2 sum_{k=2}^{(n-1)/2} explog_exp1(gamma / k)
    """
    NoiseModel(W, check_real(rho_j_product, "rho_j", "nonnegative"))
    check_odd_n(n)
    return _random_onef(n, inverse_noise(W + rho_j_product, "W + rho_j"), 1.0, 0.0)


def predict_bernoulli_onef(n: int, p: float, W: float, J: float) -> PredictionResult:
    """Expected total MI of a random on-off mask under the 1/f prior (odd n).

    DC term: E_G[log(gamma (sqrt(p(1-p)) G + p sqrt(n))^2 + 1)] by normal
    quadrature (lambda_1/sqrt(n) is asymptotically normal with mean p sqrt(n)
    and variance p(1-p)); bulk: 2 sum_{k=2}^{(n-1)/2}
    explog_exp1(p(1-p) gamma / k), with gamma = 1/(W + pJ).
    """
    NoiseModel(W, J)
    check_odd_n(n)
    check_real(p, "p", "in [0, 1]")
    return _random_onef(n, inverse_noise(W + p * J, "W + p*J"), p * (1.0 - p), p * math.sqrt(n))


####################### transmissivity optimization #######################

_R_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the maximizer of a unimodal f on [lo, hi]."""
    x1 = hi - _R_GOLDEN * (hi - lo)
    x2 = lo + _R_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    width = math.inf
    # The second test ends the search once float resolution stops the shrinking.
    while tol < hi - lo < width:
        width = hi - lo
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _R_GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _R_GOLDEN * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def optimal_p_onef(n: int, W: float, J: float, tol: float = 1e-4) -> float:
    """Open fraction maximizing the on-off total-MI prediction under the
    1/f prior, by golden-section search over p in (0.005, 0.995)."""
    NoiseModel(W, J)
    check_odd_n(n)
    check_real(tol, "tol", "positive")
    return _golden_max(lambda p: predict_bernoulli_onef(n, p, W, J).value, 0.005, 0.995, tol)


####################### predictor registry #######################

# Predictor name -> (the options its function takes, in call order; the call).
# Each call looks its function up in this module when it runs, so a patched module
# attribute (a tracer, a test double) is the one called.  The options are also the
# JSON parameters of `apmi predict`; the "-1f" predictors run at the odd n of model.effective_n.
PREDICTORS = {
    "pinhole": (("n", "W", "J"), lambda *a: predict_pinhole(*a)),
    "flat-iid": (("W", "J"), lambda *a: predict_flat_iid(*a)),
    "bernoulli-iid": (("p", "W", "J"), lambda *a: predict_bernoulli_iid(*a)),
    "uniform-iid": (("W", "J", "bulk_variance"), lambda *a: predict_uniform_iid(*a)),
    "flat-1f": (("n", "W", "J", "form"), lambda *a: predict_flat_onef(*a)),
    "gaussian-1f": (("n", "W", "rho_j"), lambda *a: predict_gaussian_onef(*a)),
    "bernoulli-1f": (("n", "p", "W", "J"), lambda *a: predict_bernoulli_onef(*a)),
}

# The on-off predictor of each scene prior, for Bernoulli ensembles and their optimal p.
BERNOULLI_PREDICTOR = {ScenePrior.IID: "bernoulli-iid", ScenePrior.ONE_OVER_F: "bernoulli-1f"}


def predict(which: str, **params) -> PredictionResult:
    """Call PREDICTORS[which] on the params it lists, by name; others are ignored."""
    if which not in tuple(PREDICTORS):  # a tuple: an unhashable name is unknown, not a TypeError
        raise InvalidArgumentError(f"unknown predictor {which!r}; known: {', '.join(PREDICTORS)}")
    names, call = PREDICTORS[which]
    if missing := [name for name in names if name not in params]:
        raise InvalidArgumentError(f"predictor {which!r} needs {', '.join(missing)}")
    return call(*(params[name] for name in names))
