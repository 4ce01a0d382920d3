"""Symmetric alpha-stable primitives.

This module provides the distributional machinery the rest of the package
builds on: one-dimensional and multivariate symmetric alpha-stable (SaS)
sampling, the characteristic function of a discretely-supported spectral
measure, quantile-based parameter estimation, numerical evaluation of the
1-D distribution function, and a Monte Carlo goodness-of-fit test.
The CDF, quantile, goodness-of-fit and quantile-estimation code share one
kernel, :func:`_inversion`, a fixed Gauss-Legendre rule for the inversion
integrals (Samorodnitsky & Taqqu 1994, ch. 1; Nolan 1997); no scipy is
used.  McCulloch's (1986) quantile functionals nu(alpha) and c(alpha) are
derived from it on first use (:func:`_quantile_functionals`), not stored.

Conventions used throughout:

* only *symmetric* laws: zero location, zero skewness;
* ``alpha`` is the stability index, restricted to ``(1, 2]`` (only
  :func:`char_function` tolerates the full ``(0, 2]``);
* a 1-D SaS variable with scale ``sigma`` has characteristic function
  ``exp(-(sigma*|t|)**alpha)``; at ``alpha = 2`` this is a centered
  Gaussian with variance ``2 * sigma**2`` (not ``sigma**2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .exceptions import DataError, NumericalError, TableRangeError
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
    "iqr_constant",
    "stable_cdf",
    "stable_quantile",
    "ad_stable_test",
]

#: smallest stability index an estimate is allowed to take
ALPHA_FLOOR = 1.0001

#: fewest observations a quantile-based fit (McCulloch or projection) accepts
MIN_QUANTILE_OBS = 100

#: nu(0.6) of the standard law, the heaviest tail an estimate accepts.  The
#: inversion rule is accurate only for alpha >= 1, so nu is derived on
#: [1, 2] only; a ratio between nu(1) and this bound clips to ALPHA_FLOOR.
NU_MAX = 23.6121892334


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
        return cls(np.vstack([pts, -pts]), np.concatenate([w, w]))

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

    def folded(self) -> "DiscreteSpectralMeasure":
        """The same law with one atom per line through the origin.

        The law depends on the measure only through ``|<theta, s>|**alpha``,
        so the atoms ``s`` and ``-s`` are interchangeable.  An atom equal
        to an earlier kept atom, or to its negation, within 1e-12 adds its
        weight to that atom.  Kept atoms are the first listed on their
        line, in order of first appearance, with their sign unchanged; a
        measure with no such pair comes back atom for atom.
        """
        kept: list[np.ndarray] = []
        weights: list[float] = []
        for p, w in zip(self.points, self.weights):
            for j, q in enumerate(kept):
                if min(np.linalg.norm(p - q), np.linalg.norm(p + q)) <= 1e-12:
                    weights[j] += w
                    break
            else:
                kept.append(p)
                weights.append(w)
        return DiscreteSpectralMeasure(np.array(kept), np.array(weights))

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
    of Chambers, Mallows and Stuck (symmetric case, alpha in (1, 2])."""
    u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    e = gen.standard_exponential(size=size)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * u) / e) ** ((1.0 - alpha) / alpha)
    )


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

    Every atom gets its own factor, so a measure with mirror pairs
    ``s, -s`` takes twice the draws its law needs;
    :func:`~stablepar.par_model.simulate_par1` passes
    :meth:`DiscreteSpectralMeasure.folded` measures, folded once per call.
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

def sorted_quantiles(x_sorted: np.ndarray, qs) -> list:
    """Quantiles of samples already sorted along the last axis.

    Returns one entry per level in ``qs``, each of shape
    ``x_sorted.shape[:-1]``.  The order statistics are read by index
    arithmetic with numpy's ``linear`` rule: with virtual index
    ``i = (n-1) q``, ``lo = floor(i)``, ``t = i - lo`` and
    ``d = x[lo+1] - x[lo]``, the quantile is ``x[lo] + d t``, or
    ``x[lo+1] - d (1-t)`` when ``t >= 0.5``.  Every value therefore equals
    ``np.quantile(x, q, axis=-1)`` exactly, with no axis move and no
    partition.  A sample holding a NaN (sorted to its end) gives NaN, as
    ``np.quantile`` does.
    """
    n = x_sorted.shape[-1]
    out = []
    for q in qs:
        i = (n - 1) * float(q)
        lo = math.floor(i)
        t = i - lo
        a = x_sorted[..., lo]
        b = x_sorted[..., min(lo + 1, n - 1)]
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    has_nan = np.isnan(x_sorted[..., -1])
    if np.any(has_nan):
        out = [np.where(has_nan, np.nan, v) for v in out]
    return out


def mcculloch_estimate(sample) -> StableParams:
    """Estimate (alpha, scale) of a symmetric stable sample from its
    empirical 0.05/0.25/0.75/0.95 quantiles (McCulloch 1986).

    The tail statistic ``nu = (q95 - q05) / (q75 - q25)`` is inverted
    through the standard law's nu(alpha) (symmetric case, so the skewness
    dimension of the classical lookup collapses and the inversion is
    one-dimensional); the scale is the interquartile range divided by
    :func:`iqr_constant` at the estimate.  Both are linear reads of
    :func:`_quantile_functionals`: from the kernel's exact nu, alpha-hat is
    within 1e-7, and c within 1e-9 relative.

    Estimates of ``alpha`` are clipped to ``[1.0001, 2]``.

    Raises
    ------
    DataError
        If the sample is shorter than ``MIN_QUANTILE_OBS`` observations or
        holds a NaN or infinite value.
    TableRangeError
        If the quantile ratio exceeds ``NU_MAX`` (heavier tails than
        alpha = 0.6) or the interquartile range vanishes.
    """
    return _mcculloch_sorted(np.sort(np.asarray(sample, dtype=float).ravel()))


def _mcculloch_sorted(x: np.ndarray) -> StableParams:
    """:func:`mcculloch_estimate` of a sorted 1-D float sample."""
    if x.size < MIN_QUANTILE_OBS:
        raise DataError(f"need at least {MIN_QUANTILE_OBS} observations "
                        f"for quantile estimation, got {x.size}")
    # NaN sorts last and -inf, inf to the ends, so the ends tell
    if not (np.isfinite(x[0]) and np.isfinite(x[-1])):
        raise DataError("sample holds non-finite values (NaN or infinite); "
                        "quantile estimation needs finite data")
    q05, q25, q75, q95 = sorted_quantiles(x, (0.05, 0.25, 0.75, 0.95))
    iqr = q75 - q25
    if iqr <= 0.0:
        raise TableRangeError("interquartile range is zero; degenerate sample")
    nu = (q95 - q05) / iqr
    if nu > NU_MAX:
        raise TableRangeError(
            f"quantile ratio {nu:.3f} beyond nu(0.6) = {NU_MAX:.3f}; "
            "tails too heavy to invert"
        )
    # np.interp clamps: nu <= nu(2) reads 2, and nu >= nu(1) reads 1,
    # which the floor lifts.
    _, _, nu_rising, alpha_falling = _quantile_functionals()
    alpha_hat = max(float(np.interp(nu, nu_rising, alpha_falling)), ALPHA_FLOOR)
    return StableParams(alpha=alpha_hat, scale=float(iqr) / iqr_constant(alpha_hat))


def iqr_constant(alpha: float) -> float:
    """c(alpha) = (q75 - q25) / sigma of SaS(alpha, sigma), for alpha in
    [1, 2]; within 1e-9 relative of the inversion kernel's quantiles."""
    alpha_grid, c, _, _ = _quantile_functionals()
    return float(np.interp(alpha, alpha_grid, c))


# ---------------------------------------------------------------------------
# Distribution function
# ---------------------------------------------------------------------------

#: |z| from which the distribution function uses the power-tail series
_TAIL_Z = 50.0
#: terms of that series summed
_TAIL_TERMS = 10


def _tail_upper_prob(z, alpha: float):
    """Asymptotic series for P(X > z) of the standard law, valid for large
    positive z.  Terms: (1/pi) * (-1)^(k+1) Gamma(alpha k)/k! *
    sin(k pi alpha / 2) * z^(-alpha k)."""
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    for k in range(1, _TAIL_TERMS + 1):
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


@cache
def _inversion_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre rule on [0, 37], 1968 nodes: panels
    of width 0.4 from 0.4 on, and below 0.4 panels that halve thirty times
    toward 0 (plus one from 0) to resolve the u**alpha cusp.  The weights
    carry the 1/pi of the inversion integrals.  Built on first use, so
    importing the package loads no ``numpy.polynomial``."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate([
        [0.0], 0.4 * 2.0 ** -np.arange(30.0, 0.0, -1.0),
        0.4 * np.arange(1, 93), [37.0],
    ])
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (1.0 + x)
    return nodes.ravel(), (half * w / np.pi).ravel()


def _damping(alpha) -> np.ndarray:
    """Rows ``exp(-u**alpha) w`` of the inversion rule, one per alpha."""
    u, w = _inversion_nodes()
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    return np.exp(-(u ** alpha[:, None])) * w


def _oscillation(z, density: bool = False) -> np.ndarray:
    """Columns ``sin(z u)/u``, or with ``density`` ``cos(z u)``, of the
    inversion rule, one per z."""
    u, _ = _inversion_nodes()
    zu = np.multiply.outer(u, np.atleast_1d(np.asarray(z, dtype=float)))
    if density:
        np.cos(zu, out=zu)
    else:
        np.sin(zu, out=zu)
        zu /= u[:, None]
    return zu


#: z values per kernel call in stable_cdf: a (1968, 256) matrix, 4 MB
_CDF_BLOCK = 256


def _inversion(z, alpha, density: bool = False) -> np.ndarray:
    """The ``(len(alpha), len(z))`` matrix of G(z) = F(z) - 1/2 =
    (1/pi) int_0^37 sin(z u)/u exp(-u**alpha) du of the standard law, or with
    ``density`` of f(z) = (1/pi) int_0^37 cos(z u) exp(-u**alpha) du, for
    1-D arrays or scalars ``alpha`` and ``z >= 0``.  On alpha in [1, 2] and z
    in [0, 50] both agree with converged adaptive quadrature within 1e-13.
    """
    return _damping(alpha) @ _oscillation(z, density)


def _solve_half_cdf(g, alpha, z) -> np.ndarray:
    """Solve G(z_k) = g_k of the standard law with index alpha_k, for 1-D
    arrays of equal length, by Newton's method on the kernel's G and
    density from the starts ``z``.

    G is concave on z >= 0, so the iterates rise monotonically to the root
    once they are below it (at once from z = 0).  Each root stops when its
    step falls below 1e-8 of max(z, 1): by quadratic convergence the error
    left is then below 1e-15 of it.
    """
    g = np.asarray(g, dtype=float)
    z = np.array(z, dtype=float)
    alphas, row = np.unique(alpha, return_inverse=True)
    damp = _damping(alphas)[row]
    todo = np.arange(z.size)
    for _ in range(100):
        rows, zt = damp[todo], z[todo]
        step = (g[todo] - np.einsum("kj,jk->k", rows, _oscillation(zt))) / (
            np.einsum("kj,jk->k", rows, _oscillation(zt, True))
        )
        z[todo] = zt + step
        todo = todo[np.abs(step) > 1e-8 * np.maximum(z[todo], 1.0)]
        if todo.size == 0:
            return z
    raise NumericalError("Newton's method for a stable quantile did not converge")


#: alpha values tabulated by _quantile_functionals, h = 1/16384 apart: a
#: linear read of c(alpha) errs by at most h^2 max|c''| / (8 c) = 3.1e-10
#: relative
_FUNCTIONAL_POINTS = 16385


@cache
def _quantile_functionals() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """McCulloch's functionals of the standard law for alpha in [1, 2]:
    nu(alpha) = (q95 - q05) / (q75 - q25) = q95 / q75 and
    c(alpha) = q75 - q25 = 2 q75.

    :func:`_solve_half_cdf` finds q75 and q95 at the 17 Chebyshev-Lobatto
    nodes of [1, 2].  Its starts join the closed forms at alpha = 1
    (Cauchy: 1 and tan(0.45 pi)) and at alpha = 2 (Gaussian of variance 2:
    sqrt(2) Phi^-1(0.75) and sqrt(2) Phi^-1(0.95)), linearly for q75 and
    log-linearly in 1/alpha for q95, so Newton takes 3 and 4 steps.  The
    degree-16 Chebyshev interpolants of nu and c, within 7e-8 and 6e-11
    relative of the kernel's quantiles, are tabulated on
    ``_FUNCTIONAL_POINTS`` evenly spaced alpha.

    Returns ``(alpha, c, nu, alpha_by_nu)``: alpha rising with its c, and
    nu rising with its alpha, as ``np.interp`` reads them.  Built on first
    use, in about 15 ms.
    """
    x = np.cos(np.pi * np.arange(16, -1, -1) / 16)
    a = 1.5 + 0.5 * x
    q75 = 1.0 + (0.9539 - 1.0) * (a - 1.0)
    q95 = 6.3138 * (2.3262 / 6.3138) ** (2.0 - 2.0 / a)
    q = _solve_half_cdf(
        np.repeat([0.25, 0.45], a.size), np.tile(a, 2), np.concatenate([q75, q95])
    ).reshape(2, a.size)
    coef = np.polynomial.chebyshev.chebfit(x, np.stack([q[1] / q[0], 2.0 * q[0]], 1), 16)
    alpha = np.linspace(1.0, 2.0, _FUNCTIONAL_POINTS)
    nu, c = np.polynomial.chebyshev.chebval(2.0 * alpha - 3.0, coef)
    return alpha, c, nu[::-1].copy(), alpha[::-1].copy()


def stable_cdf(params: StableParams, x):
    """Distribution function of SaS(alpha, scale) at ``x`` (scalar or
    array).

    Computed by :func:`_inversion` in blocks of ``_CDF_BLOCK`` points for
    ``|z| < _TAIL_Z`` and by the power-tail expansion beyond.  Symmetry
    ``F(-x) = 1 - F(x)`` holds to rounding because only ``|x|`` is ever
    evaluated.
    """
    xs = np.asarray(x, dtype=float)
    z = np.atleast_1d(xs / params.scale)
    az = np.abs(z)
    g = np.empty_like(az)
    tail = az >= _TAIL_Z
    g[tail] = 0.5 - _tail_upper_prob(az[tail], params.alpha)
    inner = np.flatnonzero(~tail)
    for start in range(0, inner.size, _CDF_BLOCK):
        rows = inner[start:start + _CDF_BLOCK]
        g[rows] = _inversion(az[rows], params.alpha)[0]
    out = 0.5 + np.copysign(g, z)
    return float(out[0]) if xs.ndim == 0 else out


def stable_quantile(params: StableParams, q: float) -> float:
    """Quantile of order ``q`` of SaS(alpha, scale), the inverse of
    :func:`stable_cdf`.

    Orders whose quantile lies past ``_TAIL_Z``, where :func:`stable_cdf`
    switches to the power-tail series, are inverted by bisection on that
    series.  Below it, :func:`_solve_half_cdf` runs Newton's method from
    z = 0 (3 to 11 steps for orders 0.55 to 0.99).  Symmetry gives the
    lower half.
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
        z = float(_solve_half_cdf([g], [a], [0.0])[0])
    return math.copysign(params.scale * z, q - 0.5)


#: The goodness-of-fit table's grid: 101 alpha by 480 z, asinh-spaced
#: (dense near 0, where the CDF bends fastest) up to _GOF_Z_MAX; beyond
#: it the tail series takes over.
_GOF_ALPHAS = np.linspace(1.0, 2.0, 101)
_GOF_Z_MAX = 30.0
_GOF_Z_ASINH = np.linspace(0.0, np.arcsinh(_GOF_Z_MAX), 480)


@cache
def _gof_table() -> np.ndarray:
    """G(z) = F(z) - 1/2 of the standard law at the goodness-of-fit grid's
    ``(alpha, z)`` nodes: one :func:`_inversion` call.  The bootstrap needs
    the CDF at every point of every replicate, so both the observed and
    the simulated statistics interpolate this one table."""
    return _inversion(np.sinh(_GOF_Z_ASINH), _GOF_ALPHAS)


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

def _ad_statistic(sample: np.ndarray, params: StableParams) -> float:
    """Anderson-Darling statistic of a sample against the fitted law."""
    return _ad_sorted(np.sort(np.asarray(sample, dtype=float)), params)


def _ad_sorted(x: np.ndarray, params: StableParams) -> float:
    """:func:`_ad_statistic` of a sorted sample."""
    n = x.size
    z = x / params.scale
    # G(|z|) by linear interpolation in asinh z and in alpha
    a = min(max(params.alpha, _GOF_ALPHAS[0]), _GOF_ALPHAS[-1])
    ia = min(int(np.searchsorted(_GOF_ALPHAS, a, side="right") - 1), len(_GOF_ALPHAS) - 2)
    frac = (a - _GOF_ALPHAS[ia]) / (_GOF_ALPHAS[ia + 1] - _GOF_ALPHAS[ia])
    table = _gof_table()
    az = np.abs(z)
    g = np.empty_like(az)
    inside = az < _GOF_Z_MAX
    zi = np.arcsinh(az[inside])
    lo = np.interp(zi, _GOF_Z_ASINH, table[ia])
    hi = np.interp(zi, _GOF_Z_ASINH, table[ia + 1])
    g[inside] = (1.0 - frac) * lo + frac * hi
    if not inside.all():
        g[~inside] = 0.5 - _tail_upper_prob(az[~inside], a)
    u = np.clip(0.5 + np.sign(z) * g, 1e-15, 1.0 - 1e-15)
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
        If ``n_sims < 100``, or the sample is too short to fit or holds a
        non-finite value (see :func:`mcculloch_estimate`).
    TableRangeError
        Propagated from the quantile fit.
    """
    if n_sims < 100:
        raise DataError(f"need at least 100 bootstrap simulations, got {n_sims}")
    # Each sample is sorted once and shared by its quantile fit and its
    # statistic.
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    params = _mcculloch_sorted(x)
    observed = _ad_sorted(x, params)
    exceed = 0
    for k in range(n_sims):
        sim = np.sort(sample_sas_1d(params, x.size, rng.substream(k)))
        if _ad_sorted(sim, _mcculloch_sorted(sim)) >= observed:
            exceed += 1
    return exceed / n_sims
