"""Empirical dependence measures for heavy-tailed series.

Covariance is unavailable when second moments are infinite, so dependence
is quantified by *covariation*: for a jointly symmetric alpha-stable pair
``(X, Y)`` with spectral measure ``Gamma``,

    CV(X, Y) = sum_j s_{1,j} * s_{2,j}^<alpha-1> * gamma_j,

linear in the first argument and generally asymmetric.  Two empirical
routes to it are implemented here:

* sign-weighted moment sums estimating the *normalized* covariation
  ``CV(X, Y) / sigma_Y^alpha`` (no knowledge of alpha required);
* an explicit estimate of the two-dimensional spectral measure by the
  projection method, from which the covariation is read off directly
  (requires alpha).

Both exist in a stationary flavor and in a per-phase flavor for
periodically non-stationary series, where the sums run over the
sub-sample of one phase of the period.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateSeriesError, NumericalError
from .stable import DiscreteSpectralMeasure, signed_power
from ._mcculloch import ALPHA_GRID, C_TABLE

__all__ = [
    "PhaseCovMatrix",
    "ncv_auto",
    "ncv_cross",
    "ncv_phase_matrix",
    "cv_from_spectral",
    "estimate_spectral_measure_2d",
    "cv_phase_matrix_spectral",
]


@dataclass
class PhaseCovMatrix:
    """An m-by-m matrix of per-phase dependence values at one lag.

    Attributes
    ----------
    period : int
        Period T of the underlying series.
    phase : int
        Phase index v; 0 stands for the wrapped phase preceding v = 1.
    lag : int
        Lag h (0 or 1 for the estimation systems).
    values : ndarray
        The matrix; entry (r, l) measures component r against the lagged
        component l.
    kind : str
        ``"normalized-moment"`` or ``"spectral"``.
    """

    period: int
    phase: int
    lag: int
    values: np.ndarray
    kind: str


def _check_lag(n: int, h: int) -> None:
    if abs(h) >= n:
        raise ValueError(f"|lag| must be smaller than the series length ({n})")


def ncv_auto(series, h: int) -> float:
    """Normalized auto-covariation estimate of a stationary series at lag h:
    :func:`ncv_cross` of a one-component trajectory with itself,

        sum_{t=r..l} x(t) sign(x(t-h))  /  sum_{t=r..L} |x(t)|.

    At h = 0 the value is exactly 1.
    """
    return ncv_cross(np.ravel(series), 1, 1, h)


def ncv_cross(traj, i: int, j: int, h: int) -> float:
    """Normalized cross-covariation of components i and j (1-based) of a
    stationary multivariate trajectory at lag h.

    With summation limits ``r = max(1, 1+h)`` and ``l = min(L, L+h)`` (in
    1-based time), the estimate is

        sum_{t=r..l} x_i(t) sign(x_j(t-h))  /  sum_{t=r..L} |x_j(t)|.

    Note the denominator runs to L, not l; the two ranges coincide for
    h >= 0 and differ by |h| terms otherwise.

    Raises
    ------
    DegenerateSeriesError
        If the denominator vanishes.
    """
    values = traj.values if hasattr(traj, "values") else np.atleast_2d(traj)
    xi = np.asarray(values[i - 1], dtype=float)
    xj = np.asarray(values[j - 1], dtype=float)
    L = xi.size
    _check_lag(L, h)
    r = max(1, 1 + h)
    l = min(L, L + h)
    num = float(np.sum(xi[r - 1 : l] * np.sign(xj[r - 1 - h : l - h])))
    den = float(np.sum(np.abs(xj[r - 1 : L])))
    if den == 0.0:
        raise DegenerateSeriesError(f"component {j} vanishes in the summation range")
    return num / den


def _phase_samples(traj, T: int, v: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase-v sub-sample of every component and its h-lagged partner.

    Returns ``(cur, lagged)``, both ``(m, n_obs)``: ``cur`` holds the
    observations at 1-based times ``n*T + v`` and ``lagged`` those at
    ``n*T + v - h``, with n running from n0 to N-1, N = floor(L/T).  The
    starting counter n0 is 0 exactly when both v and v - h are positive
    (otherwise 1, which shifts the sub-sample one period forward instead
    of wrapping around).
    """
    values = traj.values if hasattr(traj, "values") else np.atleast_2d(traj)
    L = values.shape[1]
    if L < 2 * T:
        raise ValueError(f"need at least two full periods (L >= {2 * T}), got {L}")
    if not (0 <= v <= T):
        raise ValueError(f"phase must lie in 0..{T}, got {v}")
    n0 = 0 if (v > 0 and v - h > 0) else 1
    idx = np.arange(n0, L // T) * T + v
    return values[:, idx - 1], values[:, idx - 1 - h]


def ncv_phase_matrix(traj, T: int, v: int, h: int) -> PhaseCovMatrix:
    """Per-phase normalized covariation matrix of a periodic trajectory.

    Entry (r, l) estimates the normalized covariation of ``X_r`` at phase
    v on ``X_l`` lagged by h, using only observations of the form
    ``x(n T + v)``:

        sum_n x_r(nT+v) sign(x_l(nT+v-h))  /  sum_n |x_l(nT+v-h)|,

    over the sub-samples of :func:`_phase_samples`.  The special value
    v = 0 addresses the phase preceding v = 1.

    Equivalent to the stationary estimator applied to the two phase
    sub-samples.  At h = 0 the diagonal is exactly 1.
    """
    cur, lagged = _phase_samples(traj, T, v, h)
    m = cur.shape[0]
    out = np.empty((m, m))
    den = np.sum(np.abs(lagged), axis=1)  # per conditioning component l
    sign_lagged = np.sign(lagged)
    for l in range(m):
        if den[l] == 0.0:
            raise DegenerateSeriesError(
                f"phase-{v} sub-sample of component {l + 1} is identically zero"
            )
        out[:, l] = cur @ sign_lagged[l] / den[l]
    if h == 0:
        np.fill_diagonal(out, 1.0)
    return PhaseCovMatrix(period=T, phase=v, lag=h, values=out, kind="normalized-moment")


def cv_from_spectral(measure2d: DiscreteSpectralMeasure, alpha: float) -> float:
    """Covariation of a 2-D jointly stable pair read off its (discrete)
    spectral measure: ``sum_j s_{1,j} * s_{2,j}^<alpha-1> * gamma_j``."""
    if measure2d.dim != 2:
        raise ValueError(f"need a 2-D measure, got dimension {measure2d.dim}")
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    s1 = measure2d.points[:, 0]
    s2 = measure2d.points[:, 1]
    return float(np.sum(s1 * signed_power(s2, alpha - 1.0) * measure2d.weights))


@lru_cache(maxsize=16)
def _projection_design(
    alpha: float, n_grid: int
) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """The data-free half of the projection method for one (alpha, n_grid).

    Returns ``(dirs, a_aug, c, rank_deficient)``: the ``n_grid/2`` grid
    directions on the upper half-circle as rows, the ridge-augmented NNLS
    matrix, the tabulated interquartile range ``c`` of the standard
    symmetric alpha-stable law, and whether the projection-scale kernel
    is numerically rank-deficient.  Both arrays are read-only because
    every caller shares them.
    """
    half = n_grid // 2
    phi = np.pi * np.arange(half) / half
    dirs = np.column_stack([np.cos(phi), np.sin(phi)])

    # One unknown per +- pair: both mirrored atoms load every projection
    # identically, so the design matrix uses 2|cos(phi_k - phi_j)|^alpha.
    A = 2.0 * np.abs(np.cos(phi[:, None] - phi[None, :])) ** alpha

    # Ridge-regularized nonnegative least squares: min ||A g - b||^2
    # + lam^2 ||g||^2 over g >= 0, via NNLS on the stacked system.  The
    # ridge weight is far below the kernel's leading singular value, so
    # it only breaks ties between exact minimizers.
    svals = np.linalg.svd(A, compute_uv=False)
    rank_deficient = bool(svals[-1] < 1e-8 * svals[0])
    a_aug = np.vstack([A, 1e-6 * svals[0] * np.eye(half)])
    c = float(np.interp(alpha, ALPHA_GRID, C_TABLE))
    dirs.flags.writeable = False
    a_aug.flags.writeable = False
    return dirs, a_aug, c, rank_deficient


def estimate_spectral_measure_2d(
    sample, alpha: float, n_grid: int = 40
) -> DiscreteSpectralMeasure:
    """Estimate a discrete 2-D spectral measure by the projection method.

    The scale of every one-dimensional projection of a stable vector is a
    known functional of the spectral measure:

        sigma(theta)^alpha = sum_j |<theta, s_j>|^alpha gamma_j.

    Estimating the left side for ``n_grid/2`` directions on the upper
    half-circle (quantile-based scale with the supplied alpha) gives a
    linear system for nonnegative weights sitting on ``n_grid`` equally
    spaced directions; symmetric pairs share one unknown.  The weights
    solve a nonnegative least-squares problem with a tiny ridge term
    that selects the minimum-norm solution whenever the fit alone does
    not pin the weights down (at alpha = 2 the design matrix has rank 3
    no matter how many directions are used, because a Gaussian law only
    determines a 2x2 covariance; the minimum-norm tie-break then spreads
    mass evenly instead of parking it on arbitrary vertices).  Atoms
    whose weight hits zero are dropped.

    Everything that does not depend on the sample (the grid, the design
    matrix with its ridge rows, the rank check and the IQR constant) is
    built once per ``(alpha, n_grid)`` and cached, so a per-phase matrix
    of many pair fits pays for it once.  Per call, the quartiles of all
    projections come from a single quantile pass.

    Parameters
    ----------
    sample : (n, 2) array_like
        Finite observations; at least 100 are required.
    alpha : float
        Stability index in (1, 2].
    n_grid : int
        Even number of grid directions on the full circle.

    Raises
    ------
    ValueError
        If the sample has the wrong shape, too few rows or a non-finite
        entry, or if alpha or n_grid is out of range.
    NumericalError
        If every fitted weight is zero (nothing to build a measure from).

    Warns
    -----
    UserWarning
        When the projection-scale system is numerically rank-deficient,
        i.e. the directions are not identifiable from the data and only
        the ridge tie-break makes the answer unique.  The warning is
        issued on every such call, cached design or not.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError("sample must be an (n, 2) array")
    if x.shape[0] < 100:
        raise ValueError(f"need at least 100 observations, got {x.shape[0]}")
    n_bad = x.size - int(np.count_nonzero(np.isfinite(x)))
    if n_bad:
        raise ValueError(f"sample contains {n_bad} non-finite entries")
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if n_grid < 4 or n_grid % 2:
        raise ValueError("n_grid must be an even number >= 4")
    from scipy.optimize import nnls  # scipy is imported on first use only

    dirs, a_aug, c, rank_deficient = _projection_design(float(alpha), int(n_grid))
    if rank_deficient:
        warnings.warn(
            "projection-scale system is rank-deficient: the direction "
            "grid is not identifiable from these projections and the "
            "returned weights are the minimum-norm nonnegative fit",
            stacklevel=2,
        )
    # (half, n) with each projection contiguous: one quantile pass along
    # rows is faster than the column-wise pass on the transposed layout.
    q25, q75 = np.quantile(dirs @ x.T, [0.25, 0.75], axis=1)
    b = (np.maximum(q75 - q25, 0.0) / c) ** alpha
    g, _ = nnls(a_aug, np.concatenate([b, np.zeros_like(b)]))

    keep = g > 0.0
    if not np.any(keep):
        raise NumericalError("projection-method fit collapsed to the zero measure")
    return DiscreteSpectralMeasure.symmetric(dirs[keep], g[keep])


def cv_phase_matrix_spectral(
    traj, T: int, v: int, h: int, alpha: float, n_grid: int = 40
) -> PhaseCovMatrix:
    """Per-phase covariation matrix via estimated pair spectral measures.

    Entry (r, l) pairs the phase-v sub-sample of component r with the
    h-lagged sub-sample of component l, estimates the 2-D spectral
    measure of that pair by the projection method, and evaluates the
    covariation from the measure.  The sub-samples come from
    :func:`_phase_samples`, as for :func:`ncv_phase_matrix`, so the two
    matrix families describe the same observations.

    Raises
    ------
    NumericalError
        If a pair fit collapses to the zero measure; the message names
        the phase, the lag and the 1-based entry (r, l).
    """
    cur, lagged = _phase_samples(traj, T, v, h)
    m = cur.shape[0]
    out = np.empty((m, m))
    for r in range(m):
        for l in range(m):
            pair = np.column_stack([cur[r], lagged[l]])
            try:
                measure = estimate_spectral_measure_2d(pair, alpha, n_grid)
            except NumericalError as exc:
                raise NumericalError(
                    f"phase {v}, lag {h}, entry ({r + 1}, {l + 1}): {exc}"
                ) from None
            out[r, l] = cv_from_spectral(measure, alpha)
    return PhaseCovMatrix(period=T, phase=v, lag=h, values=out, kind="spectral")
