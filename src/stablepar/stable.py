"""Symmetric alpha-stable primitives.

This module provides the distributional machinery the rest of the package
builds on: one-dimensional and multivariate symmetric alpha-stable (SaS)
sampling, the characteristic function of a discretely-supported spectral
measure, quantile-based parameter estimation, numerical evaluation of the
1-D distribution function, and a Monte Carlo goodness-of-fit test.

Conventions used throughout:

* only *symmetric* laws: zero location, zero skewness;
* ``alpha`` is the stability index, restricted to ``(1, 2]`` wherever an
  estimator depends on it (the sampling and characteristic-function code
  tolerates the full ``(0, 2]`` where noted);
* a 1-D SaS variable with scale ``sigma`` has characteristic function
  ``exp(-(sigma*|t|)**alpha)``; at ``alpha = 2`` this is a centered
  Gaussian with variance ``2 * sigma**2`` (not ``sigma**2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._mcculloch import ALPHA_GRID, C_TABLE, NU_TABLE
from .exceptions import DataError, TableRangeError
from .rng import RandomStream

__all__ = [
    "StableParams",
    "DiscreteSpectralMeasure",
    "signed_power",
    "sample_sas_1d",
    "sample_stable_vector",
    "char_function",
    "empirical_char_function",
    "mcculloch_estimate",
    "stable_cdf",
    "stable_quantile",
    "ad_stable_test",
]

#: smallest stability index an estimate is allowed to take
ALPHA_FLOOR = 1.0001


@dataclass(frozen=True)
class StableParams:
    """Parameters of a one-dimensional symmetric alpha-stable law.

    Attributes
    ----------
    alpha : float
        Stability index, in ``(1, 2]``.
    scale : float
        Scale parameter sigma, strictly positive.
    """

    alpha: float
    scale: float

    def __post_init__(self) -> None:
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not (self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(eq=False)
class DiscreteSpectralMeasure:
    """A discrete measure on the unit sphere of R^m.

    Point masses ``weights[j] > 0`` sit at unit-norm directions
    ``points[j]``.  Such a measure fully specifies the law of a symmetric
    alpha-stable random vector (together with the stability index), and in
    this package it doubles as the noise description of the periodic
    autoregression.

    Parameters
    ----------
    points : (k, m) array_like
        Unit-norm directions (Euclidean norm 1 within 1e-12).
    weights : (k,) array_like
        Strictly positive masses.
    """

    points: np.ndarray
    weights: np.ndarray
    symmetrized: bool = field(default=False)

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.points.shape[0] != self.weights.shape[0]:
            raise ValueError("points and weights must have the same length")
        if self.points.shape[0] == 0:
            raise ValueError("a spectral measure needs at least one atom")
        norms = np.linalg.norm(self.points, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(
                f"all atoms must be unit-norm (worst deviation {worst:.2e})"
            )
        if np.any(self.weights <= 0.0):
            raise ValueError("all weights must be strictly positive")

    @classmethod
    def symmetric(cls, points, weights) -> "DiscreteSpectralMeasure":
        """Build a measure closed under negation: each supplied atom is
        mirrored to ``-s`` with the same weight."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.asarray(weights, dtype=float).ravel()
        return cls(
            np.vstack([pts, -pts]), np.concatenate([w, w]), symmetrized=True
        )

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        """Check closure under negation with matching weights."""
        for p, w in zip(self.points, self.weights):
            d = np.linalg.norm(self.points + p, axis=1)
            j = int(np.argmin(d))
            if d[j] > tol or abs(self.weights[j] - w) > tol:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiscreteSpectralMeasure":
        return cls(np.asarray(d["points"]), np.asarray(d["weights"]))


def signed_power(x, a):
    """Signed power ``x^<a> = |x|**a * sign(x)``.

    Odd in ``x`` for every exponent; ``0^<0>`` is defined as 0 (the sign
    factor vanishes), which keeps the function total.  Accepts scalars or
    arrays.
    """
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.abs(x) ** a
    if out.ndim == 0:
        return float(out)
    return out


def _sample_standard_sas(alpha: float, size, gen: np.random.Generator):
    """Standard (unit-scale) SaS draws via the trigonometric construction
    of Chambers, Mallows and Stuck (symmetric case)."""
    u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = gen.standard_exponential(size=size)
    if alpha == 1.0:
        return np.tan(u)
    x = (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * u) / e) ** ((1.0 - alpha) / alpha)
    )
    return x


def sample_sas_1d(params: StableParams, n: int, rng: RandomStream) -> np.ndarray:
    """Draw ``n`` independent SaS(alpha, scale) variates.

    For ``alpha = 2`` the output is Gaussian with variance
    ``2 * scale**2``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator()
    return params.scale * _sample_standard_sas(params.alpha, n, gen)


def sample_stable_vector(
    measure: DiscreteSpectralMeasure, alpha: float, n: int, rng: RandomStream
) -> np.ndarray:
    """Draw ``n`` vectors from the SaS law with the given spectral measure.

    Each atom ``(s_j, gamma_j)`` contributes an independent 1-D standard
    SaS factor ``W_j`` scaled by ``gamma_j**(1/alpha)`` along direction
    ``s_j``; the sum over atoms has exactly the characteristic function
    implied by the measure.  Returns an ``(n, m)`` array.
    """
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator()
    w = _sample_standard_sas(alpha, (n, measure.n_atoms), gen)
    return (w * measure.weights ** (1.0 / alpha)) @ measure.points


def char_function(measure: DiscreteSpectralMeasure, alpha: float, theta):
    """Characteristic function ``exp(-sum_j |<theta, s_j>|^alpha gamma_j)``.

    Real-valued because the measures handled here are symmetric.  ``theta``
    may be a single point in R^m or an array of shape ``(q, m)``; the
    result is a scalar or a length-``q`` array correspondingly.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    if th.shape[1] != measure.dim:
        raise ValueError(
            f"theta has dimension {th.shape[1]}, measure has {measure.dim}"
        )
    proj = th @ measure.points.T  # (q, k)
    val = np.exp(-np.abs(proj) ** alpha @ measure.weights)
    return float(val[0]) if single else val


def empirical_char_function(sample: np.ndarray, theta) -> np.ndarray:
    """Real part of the empirical characteristic function of an ``(n, m)``
    sample at one or more theta points.  (For symmetric laws the imaginary
    part estimates zero, so the real part is the natural statistic.)"""
    x = np.atleast_2d(np.asarray(sample, dtype=float))
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    val = np.mean(np.cos(x @ th.T), axis=0)
    return float(val[0]) if single else val


# ---------------------------------------------------------------------------
# Quantile-based parameter estimation
# ---------------------------------------------------------------------------

def mcculloch_estimate(sample) -> StableParams:
    """Estimate (alpha, scale) of a symmetric stable sample from its
    empirical 0.05/0.25/0.75/0.95 quantiles.

    The tail statistic ``nu = (q95 - q05) / (q75 - q25)`` is inverted
    through a precomputed table of the standard law's quantile ratios
    (symmetric case, so the skewness dimension of the classical lookup
    collapses and the interpolation is one-dimensional); the scale comes
    from the interquartile range divided by the tabulated ``c(alpha)``.

    Estimates of ``alpha`` are clipped to ``(1.0001, 2]``.

    Raises
    ------
    DataError
        If the sample is shorter than 100 observations.
    TableRangeError
        If the quantile ratio falls outside the tabulated range (heavier
        tails than alpha = 0.6) or the interquartile range vanishes.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 100:
        raise DataError(
            f"need at least 100 observations for quantile estimation, got {x.size}"
        )
    q05, q25, q75, q95 = np.quantile(x, [0.05, 0.25, 0.75, 0.95])
    iqr = q75 - q25
    if iqr <= 0.0:
        raise TableRangeError("interquartile range is zero; degenerate sample")
    nu = (q95 - q05) / iqr

    # NU_TABLE decreases in alpha; np.interp needs ascending abscissae.
    nu_asc = NU_TABLE[::-1]
    alpha_desc = ALPHA_GRID[::-1]
    if nu > nu_asc[-1]:
        raise TableRangeError(
            f"quantile ratio {nu:.3f} beyond tabulated range "
            f"(max {nu_asc[-1]:.3f}); tails too heavy to invert"
        )
    if nu <= nu_asc[0]:
        alpha_hat = 2.0  # lighter-tailed than Gaussian: boundary estimate
    else:
        alpha_hat = float(np.interp(nu, nu_asc, alpha_desc))
    alpha_hat = min(max(alpha_hat, ALPHA_FLOOR), 2.0)
    c = float(np.interp(alpha_hat, ALPHA_GRID, C_TABLE))
    return StableParams(alpha=alpha_hat, scale=iqr / c)


# ---------------------------------------------------------------------------
# Distribution function
# ---------------------------------------------------------------------------

#: |z| from which the distribution function uses the power-tail series
_TAIL_Z = 50.0


def _tail_upper_prob(z, alpha: float, kmax: int = 10):
    """Asymptotic series for P(X > z) of the standard law, valid for large
    positive z.  Terms: (1/pi) * (-1)^(k+1) Gamma(alpha k)/k! *
    sin(k pi alpha / 2) * z^(-alpha k)."""
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    for k in range(1, kmax + 1):
        term = (
            (-1.0) ** (k + 1)
            / math.pi
            * math.gamma(alpha * k)
            / math.factorial(k)
            * math.sin(k * math.pi * alpha / 2.0)
            * z ** (-alpha * k)
        )
        total += term
    return np.clip(total, 0.0, 0.5)


def _half_cdf_quad(z: float, alpha: float) -> float:
    """G(z) = F(z) - 1/2 for the standard law at z >= 0, by adaptive
    quadrature of the characteristic-function inversion integral."""
    if z == 0.0:
        return 0.0
    from scipy.integrate import quad  # scipy is imported on first use only

    upper = 37.0 ** (1.0 / alpha)  # exp(-37) truncation of the CF factor

    def integrand(u: float) -> float:
        if u == 0.0:
            return z
        return math.sin(z * u) / u * math.exp(-(u ** alpha))

    val, _ = quad(integrand, 0.0, upper, limit=800, epsabs=1e-10, epsrel=1e-10)
    return val / math.pi


def _density_quad(z: float, alpha: float) -> float:
    """Density of the standard law at z >= 0, by quadrature of the
    cosine inversion integral."""
    from scipy.integrate import quad  # scipy is imported on first use only

    upper = 37.0 ** (1.0 / alpha)
    val, _ = quad(
        lambda u: math.cos(z * u) * math.exp(-(u ** alpha)),
        0.0, upper, limit=800, epsabs=1e-12, epsrel=1e-10,
    )
    return val / math.pi


def stable_cdf(params: StableParams, x):
    """Distribution function of SaS(alpha, scale) at ``x`` (scalar or
    array).

    Computed by numerical inversion of the characteristic function for
    moderate arguments and by the power-tail expansion far in the tails.
    Symmetry ``F(-x) = 1 - F(x)`` holds to rounding because only ``|x|``
    is ever evaluated.
    """
    xs = np.asarray(x, dtype=float)
    single = xs.ndim == 0
    z = np.atleast_1d(xs / params.scale)
    out = np.empty_like(z)
    for i, zi in enumerate(z):
        az = abs(zi)
        if az >= _TAIL_Z:
            g = 0.5 - _tail_upper_prob(az, params.alpha)
        else:
            g = _half_cdf_quad(az, params.alpha)
        out[i] = 0.5 + math.copysign(g, zi) if zi != 0.0 else 0.5
    return float(out[0]) if single else out


def stable_quantile(params: StableParams, q: float) -> float:
    """Quantile of order ``q`` of SaS(alpha, scale), the inverse of
    :func:`stable_cdf`.

    Orders whose quantile lies past ``_TAIL_Z``, where :func:`stable_cdf`
    switches to the power-tail series, are inverted by bisection on that
    series.  Below it, Newton's method runs on the quadrature
    distribution function from z = 0: G is concave on z >= 0, so the
    iterates rise monotonically to the root (4 to 11 steps for orders
    0.55 to 0.99).  Symmetry gives the lower half.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile order must lie strictly in (0, 1), got {q}")
    g = abs(q - 0.5)
    a = params.alpha
    if g >= 0.5 - float(_tail_upper_prob(_TAIL_Z, a)):
        lo, hi = _TAIL_Z, 2.0 * _TAIL_Z
        while 0.5 - float(_tail_upper_prob(hi, a)) < g:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if 0.5 - float(_tail_upper_prob(mid, a)) < g:
                lo = mid
            else:
                hi = mid
        z = 0.5 * (lo + hi)
    else:
        z = 0.0
        for _ in range(100):
            step = (g - _half_cdf_quad(z, a)) / _density_quad(z, a)
            z += step
            if step <= 1e-12 * max(z, 1.0):
                break
    return math.copysign(params.scale * z, q - 0.5)


class _CdfInterpolator:
    """Tabulated G(z) = F(z) - 1/2 of the standard law on an
    (alpha, z) grid, with asymptotic tails beyond the grid.

    Exists to make the Monte Carlo goodness-of-fit loop affordable: the
    test statistic needs the model distribution function at every sample
    point of every bootstrap replicate.  Both the observed and the
    simulated statistics are computed through the same interpolated
    functional, so the bootstrap comparison stays internally consistent.
    """

    Z_MAX = 30.0

    def __init__(self, n_alpha: int = 101, n_z: int = 480, n_u: int = 6001):
        self.alphas = np.linspace(1.0, 2.0, n_alpha)
        # asinh spacing: dense near 0 where the CDF bends fastest
        self.z_asinh = np.linspace(0.0, np.arcsinh(self.Z_MAX), n_z)
        self.z = np.sinh(self.z_asinh)
        u = np.linspace(0.0, 37.0, n_u)
        # Simpson weights (n_u odd)
        w = np.ones(n_u)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (u[1] - u[0]) / 3.0
        # sin(z u)/u with the u -> 0 limit z patched in, built in place:
        # the (n_z, n_u) array is the largest allocation of the package
        ratio = np.empty((n_z, n_u))
        body = ratio[:, 1:]
        np.outer(self.z, u[1:], out=body)
        np.sin(body, out=body)
        body /= u[1:]
        ratio[:, 0] = self.z
        self.table = np.empty((n_alpha, n_z))
        for ia, a in enumerate(self.alphas):
            damp = np.exp(-(u ** a)) * w
            self.table[ia] = ratio @ damp / np.pi

    def half_cdf(self, z: np.ndarray, alpha: float) -> np.ndarray:
        """G(|z|) for an array of nonnegative z at a single alpha."""
        a = min(max(alpha, self.alphas[0]), self.alphas[-1])
        ia = min(
            int(np.searchsorted(self.alphas, a, side="right") - 1),
            len(self.alphas) - 2,
        )
        frac = (a - self.alphas[ia]) / (self.alphas[ia + 1] - self.alphas[ia])
        out = np.empty_like(z)
        inside = z < self.Z_MAX
        zi = np.arcsinh(z[inside])
        lo = np.interp(zi, self.z_asinh, self.table[ia])
        hi = np.interp(zi, self.z_asinh, self.table[ia + 1])
        out[inside] = (1.0 - frac) * lo + frac * hi
        if np.any(~inside):
            out[~inside] = 0.5 - _tail_upper_prob(z[~inside], a)
        return out

    def cdf(self, x: np.ndarray, params: StableParams) -> np.ndarray:
        z = np.asarray(x, dtype=float) / params.scale
        g = self.half_cdf(np.abs(z), params.alpha)
        return 0.5 + np.sign(z) * g


_CDF_TABLE: _CdfInterpolator | None = None


def _cdf_table() -> _CdfInterpolator:
    global _CDF_TABLE
    if _CDF_TABLE is None:
        _CDF_TABLE = _CdfInterpolator()
    return _CDF_TABLE


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

def _ad_statistic(sample: np.ndarray, params: StableParams) -> float:
    """Anderson-Darling statistic of a sample against the fitted law."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    u = _cdf_table().cdf(x, params)
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    return float(-n - s / n)


def ad_stable_test(sample, n_sims: int, rng: RandomStream) -> float:
    """Monte Carlo goodness-of-fit test for the symmetric stable law.

    Fits ``(alpha, scale)`` to the sample by quantiles, computes the
    Anderson-Darling distance to the fitted distribution, then simulates
    ``n_sims`` samples of the same length from the fitted law, re-fitting
    the parameters on each replicate before computing its statistic
    (parametric bootstrap with re-estimation).  The returned p-value is
    the fraction of simulated statistics at least as large as the
    observed one.

    Raises
    ------
    DataError
        If the sample has fewer than 100 points or ``n_sims < 100``.
    TableRangeError
        Propagated from the quantile fit.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size < 100:
        raise DataError(f"need at least 100 observations, got {x.size}")
    if n_sims < 100:
        raise DataError(f"need at least 100 bootstrap simulations, got {n_sims}")
    params = mcculloch_estimate(x)
    observed = _ad_statistic(x, params)
    exceed = 0
    for k in range(n_sims):
        sim = sample_sas_1d(params, x.size, rng.substream(k))
        sim_params = mcculloch_estimate(sim)
        if _ad_statistic(sim, sim_params) >= observed:
            exceed += 1
    return exceed / n_sims
