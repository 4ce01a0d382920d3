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
sub-sample of one phase of the period.  Only :func:`_phase_samples`
knows period, phase and lag; the one phase-matrix builder of each route
(:func:`ncv_phase_matrix`, :func:`cv_phase_matrix_spectral`) takes its
sub-samples of a whole block of replicates.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .exceptions import DegenerateSeriesError, NumericalError
from .stable import (
    MIN_QUANTILE_OBS,
    DiscreteSpectralMeasure,
    _linear_index,
    _linear_read,
    iqr_constant,
    signed_power,
    sorted_quantiles,
)

__all__ = [
    "ncv_cross",
    "ncv_phase_matrix",
    "estimate_spectral_measure_2d",
    "cv_phase_matrix_spectral",
]


def _check_lag(n: int, h: int) -> None:
    if abs(h) >= n:
        raise ValueError(f"|lag| must be smaller than the series length ({n})")


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
    ValueError
        If i or j lies outside 1..m.
    DegenerateSeriesError
        If the denominator vanishes.
    """
    values = traj.values if hasattr(traj, "values") else np.atleast_2d(traj)
    for name, k in (("i", i), ("j", j)):
        if not 1 <= k <= len(values):
            raise ValueError(f"{name} must lie in 1..{len(values)}, got {k}")
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


def _phase_samples(values, T: int, v: int, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase-v sub-sample of every component and its h-lagged partner.

    Returns ``(cur, lagged)`` of ``(m, L)`` values, both ``(m, n_obs)``:
    ``cur`` holds the observations at 1-based times ``n*T + v`` and
    ``lagged`` those at ``n*T + v - h``, for each n in 0..floor(L/T)-1
    with both times in 1..L (for h in {0, 1}: n starts at 1 unless v and
    v - h are positive, so no sub-sample wraps around).  At h = 0
    ``lagged`` is ``cur``.  Time is the last axis, so a ``(M, m, L)``
    block of replicates gives ``(M, m, n_obs)`` sub-samples.  A lag that
    leaves no such pair of times is a ``ValueError``.
    """
    L = values.shape[-1]
    if L < 2 * T:
        raise ValueError(f"need at least two full periods (L >= {2 * T}), got {L}")
    if not (0 <= v <= T):
        raise ValueError(f"phase must lie in 0..{T}, got {v}")
    # 1 <= n*T + t <= L for both times t = v and t = v - h
    first = -((min(v, v - h) - 1) // T)
    stop = min(L // T, (L - max(v, v - h)) // T + 1)
    if first >= stop:
        raise ValueError(f"lag {h} leaves no phase-{v} pair inside the series (L = {L})")
    idx = np.arange(first, stop) * T + v
    cur = values[..., idx - 1]
    return cur, cur if h == 0 else values[..., idx - 1 - h]


def ncv_phase_matrix(cur, lagged) -> tuple[np.ndarray, dict]:
    """Normalized covariation matrices of the ``(M, m, n)`` phase-v and
    h-lagged sub-sample stacks of :func:`_phase_samples`.

    Entry (r, l) of each replicate is ``sum_n x_r(nT+v) sign(x_l(nT+v-h))
    / sum_n |x_l(nT+v-h)|``, the stationary estimator on the two phase
    sub-samples.  ``lagged is cur`` is lag 0, whose diagonal is exactly
    1.  Returns the ``(M, m, m)`` matrices and a dict that maps each
    replicate with an identically zero conditioning component (row of
    ``lagged``) to its :class:`DegenerateSeriesError`; that replicate's
    matrix is not finite.  One matmul forms every ``cur @ sign(lagged_l)``
    as its own matrix-vector product, so a replicate's matrix is the same
    bits whatever block it rides in.
    """
    M, m = cur.shape[:2]
    den = np.sum(np.abs(lagged), axis=-1)  # (M, m): per conditioning component l
    # (M, 1, m, n) @ (M, m, n, 1): entry [k, l, r] = cur[k, r] . sign(lagged[k, l])
    prod = (cur[:, None] @ np.sign(lagged)[..., None])[..., 0]
    out = np.empty((M, m, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(prod.transpose(0, 2, 1), den[:, None, :], out=out)
    if lagged is cur:
        out[:, range(m), range(m)] = 1.0
    failed = {}
    for k, l in zip(*np.nonzero(den == 0.0)):
        failed.setdefault(int(k), DegenerateSeriesError(
            f"sub-sample of component {l + 1} is identically zero"
        ))
    return out, failed


def _phase_failure(exc, T: int, v: int, h: int):
    """Failure ``exc`` of the (phase v, lag h) matrix, worded to follow the
    ``phase s: `` prefix of the Yule-Walker system it enters (s = v at lag
    1, v + 1 at lag 0): the phase of a vanishing sub-sample (v - h, in
    1..T), or the matrix's lag, and at lag 0 its phase, which is not s."""
    if isinstance(exc, DegenerateSeriesError):
        return DegenerateSeriesError(f"phase-{(v - h - 1) % T + 1} {exc}")
    return type(exc)(f"lag {h}, {exc}" if h else f"phase {v}, lag 0, {exc}")


#: Most projection values one block holds (128 KB of float64).  A long
#: pair's directions are split over several blocks, and a projection
#: longer than half a block fills one alone; :func:`_quartiles` selects
#: its quartiles instead of sorting it.  Larger blocks raised the peak
#: resident memory (by 8 MB on a 10^5-row model2 estimate at 2^20) for no
#: measurable speed gain there.
_BLOCK_ELEMENTS = 1 << 14

#: Equally spaced directions of the projection-method grid on the full
#: circle; mirror pairs share a weight, so a fit reads N_GRID/2
#: projection scales.
N_GRID = 40

_COLLAPSED = "projection-method fit collapsed to the zero measure"


@lru_cache(maxsize=16)
def _projection_design(alpha: float) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """The data-free half of the projection method for one alpha.

    Returns ``(dirs, a_aug, c, rank_deficient)``: the ``N_GRID/2`` grid
    directions on the upper half-circle as rows, the ridge-augmented NNLS
    matrix, the interquartile range ``c`` of the standard
    symmetric alpha-stable law, and whether the projection-scale kernel
    is numerically rank-deficient.  Both arrays are read-only because
    every caller shares them.
    """
    half = N_GRID // 2
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
    c = iqr_constant(alpha)
    dirs.flags.writeable = False
    a_aug.flags.writeable = False
    return dirs, a_aug, c, rank_deficient


def _nnls_weights(a_aug: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ridge NNLS weights for each row of projection scales ``b``."""
    from scipy.optimize import nnls  # scipy is imported on first use only

    rhs = np.zeros(a_aug.shape[0])
    g = np.empty_like(b)
    for p, row in enumerate(b):
        rhs[: row.size] = row
        g[p] = nnls(a_aug, rhs)[0]
    return g


def _cv_weights(dirs: np.ndarray, alpha: float) -> np.ndarray:
    """Covariation per unit weight of each +- atom pair on the grid, so
    that the covariation ``sum_j s_1j s_2j^<alpha-1> gamma_j`` of a fit
    with weights g is their dot."""
    return 2.0 * dirs[:, 0] * signed_power(dirs[:, 1], alpha - 1.0)


def _coordinate_swap() -> np.ndarray:
    """The grid permutation that swapping a pair's coordinates induces.

    Direction k at angle phi maps to pi/2 - phi, which is grid direction
    ``swap[k] = (N_GRID/4 - k) mod N_GRID/2`` up to a mirror.  The design
    matrix depends only on angle differences, so it is invariant under
    the permutation, and the permutation is its own inverse: the fit to
    (y, x) has weights ``g[swap]`` when the fit to (x, y) has weights g,
    and the covariation of (y, x) is ``g . _cv_weights(dirs)[swap]``.
    The grid weights are indexed rather than recomputed from swapped
    directions: cos(pi/2) rounds to 6e-17, whose signed power is not
    small for alpha near 1.
    """
    if N_GRID % 4:
        raise ValueError(f"the coordinate swap needs N_GRID divisible by 4, got {N_GRID}")
    half = N_GRID // 2
    return (half // 2 - np.arange(half)) % half


@lru_cache(maxsize=16)
def _diagonal_cv_constant(alpha: float) -> float:
    """Covariation K of the fit to the pair (x, x) of a unit-IQR sample.

    Every projection of (x, x) is (cos phi + sin phi) x, so its scale row
    is |cos phi + sin phi|^alpha times (IQR(x)/c)^alpha, and the ridge
    NNLS is positively homogeneous: the lag-0 diagonal entry of a phase
    matrix is (IQR(x)/c)^alpha K, with no pair fit.
    """
    dirs, a_aug, _, _ = _projection_design(alpha)
    b = np.abs(dirs[:, 0] + dirs[:, 1]) ** alpha
    g = _nnls_weights(a_aug, b[None])[0]
    return float(np.sum(_cv_weights(dirs, alpha) * g))


def _checked_design(alpha: float, *samples: np.ndarray) -> tuple:
    """Validate a fit's alpha and samples (observations along the last
    axis), warn if the design is rank-deficient, and return the cached
    :func:`_projection_design`."""
    n = samples[0].shape[-1]
    if n < MIN_QUANTILE_OBS:
        raise ValueError(f"need at least {MIN_QUANTILE_OBS} observations, got {n}")
    n_bad = sum(x.size - int(np.count_nonzero(np.isfinite(x))) for x in samples)
    if n_bad:
        raise ValueError(f"sample contains {n_bad} non-finite entries")
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    design = _projection_design(float(alpha))
    if design[3]:
        warnings.warn(
            "projection-scale system is rank-deficient: the direction "
            "grid is not identifiable from these projections and the "
            "returned weights are the minimum-norm nonnegative fit",
            stacklevel=3,
        )
    return design


def _quartiles(rows: np.ndarray) -> list:
    """``sorted_quantiles(np.sort(rows), (0.25, 0.75))`` of finite ``rows``
    (observations along the last axis), bit for bit; ``rows`` is
    reordered in place.

    Rows longer than ``_BLOCK_ELEMENTS // 2`` are not sorted.  One
    partition at the upper quartile's index ``lo`` and one, in the part
    below it, at the lower quartile's put both order statistics in place,
    and the one at ``lo + 1`` is the minimum of the part above ``lo``.
    Partitions with one ``kth`` take numpy's SIMD selection, linear in n;
    on a few hundred values the sort is faster.
    """
    n = rows.shape[-1]
    if n <= _BLOCK_ELEMENTS // 2:
        rows.sort(axis=-1)
        return sorted_quantiles(rows, (0.25, 0.75))
    (lo25, t25), (lo75, t75) = _linear_index(n, 0.25), _linear_index(n, 0.75)
    rows.partition(lo75, axis=-1)
    rows[..., :lo75].partition(lo25, axis=-1)
    return [_linear_read(rows[..., lo25], rows[..., lo25 + 1 : lo75 + 1].min(axis=-1), t25),
            _linear_read(rows[..., lo75], rows[..., lo75 + 1 :].min(axis=-1), t75)]


def _fit_pairs(x: np.ndarray, y: np.ndarray, rs, ls, alpha: float) -> np.ndarray:
    """Projection-method weights of the pairs ``(x[rs[p]], y[ls[p]])``.

    ``x`` and ``y`` are ``(m, n)`` sample stacks; the result is
    ``(P, N_GRID/2)``, one NNLS weight per grid direction (and its mirror
    image) for each of the P pairs.  Each pair's projections are built
    block by block, each block one matrix product of at most
    ``_BLOCK_ELEMENTS`` values (or one projection, if that is longer),
    whose quartiles :func:`_quartiles` reads in place: by a sort, or by
    selection on a projection that fills its block alone.
    """
    dirs, a_aug, c, _ = _projection_design(alpha)
    half, n = dirs.shape[0], x.shape[1]
    n_dirs = min(half, max(1, _BLOCK_ELEMENTS // n))
    # One pair buffer and one projection buffer serve every block: fresh
    # arrays per block raised the peak resident memory of a 10^5-row
    # estimate by about 1 MB.
    pair, proj_buf = np.empty((2, n)), np.empty((n_dirs, n))
    iqr = np.empty((len(rs), half))
    for p, (r, l) in enumerate(zip(rs, ls)):
        pair[0], pair[1] = x[r], y[l]
        for k in range(0, half, n_dirs):
            d = dirs[k : k + n_dirs]
            q25, q75 = _quartiles(np.matmul(d, pair, out=proj_buf[: len(d)]))
            iqr[p, k : k + len(d)] = q75 - q25
    return _nnls_weights(a_aug, (np.maximum(iqr, 0.0) / c) ** alpha)


def estimate_spectral_measure_2d(sample, alpha: float) -> DiscreteSpectralMeasure:
    """Estimate a discrete 2-D spectral measure by the projection method.

    The scale of every one-dimensional projection of a stable vector is a
    known functional of the spectral measure:

        sigma(theta)^alpha = sum_j |<theta, s_j>|^alpha gamma_j.

    Estimating the left side for ``N_GRID/2`` directions on the upper
    half-circle (quantile-based scale with the supplied alpha) gives a
    linear system for nonnegative weights sitting on ``N_GRID`` equally
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
    built once per alpha and cached, so many pair fits pay for it once.
    This is the one-pair case of the block fit that
    :func:`cv_phase_matrix_spectral` runs: each projection's quartiles
    are read by :func:`_quartiles`, exactly as from the sorted projection.

    Parameters
    ----------
    sample : (n, 2) array_like
        Finite observations; at least ``MIN_QUANTILE_OBS`` are required.
    alpha : float
        Stability index in (1, 2].

    Raises
    ------
    ValueError
        If the sample has the wrong shape, too few rows or a non-finite
        entry, or if alpha is out of range.
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
    dirs = _checked_design(alpha, x.T)[0]
    g = _fit_pairs(x.T[:1], x.T[1:], [0], [0], float(alpha))[0]

    keep = g > 0.0
    if not np.any(keep):
        raise NumericalError(_COLLAPSED)
    return DiscreteSpectralMeasure.symmetric(dirs[keep], g[keep])


def cv_phase_matrix_spectral(cur, lagged, alpha: float) -> tuple[np.ndarray, dict]:
    """Covariation matrices of the ``(M, m, n)`` sub-sample stacks of
    :func:`_phase_samples` from estimated pair spectral measures.

    Entry (r, l) pairs row r of ``cur`` with row l of ``lagged`` and
    equals the covariation ``sum_j s_1j s_2j^<alpha-1> gamma_j`` of
    :func:`estimate_spectral_measure_2d` on that pair, up to rounding.
    One :func:`_fit_pairs` call fits every
    replicate's pairs in blocks of at most ``_BLOCK_ELEMENTS`` projection
    values (one matrix product and one in-place :func:`_quartiles` read
    per block, then one NNLS per pair), so a replicate's matrix is the
    same bits whatever block it rides in.  ``lagged is cur`` is lag 0: one
    :func:`_quartiles` read of a copy of the stack gives the diagonal
    ``(IQR(x_r)/c)^alpha K(alpha)``
    (:func:`_diagonal_cv_constant`), and entry (l, r) reuses the fit of
    (x_r, x_l) (:func:`_coordinate_swap`), so m(m-1)/2 pairs are fitted
    at lag 0 and m^2 at other lags.  Returns the ``(M, m, m)`` matrices
    and a dict that maps each replicate with a collapsed fit (a zero IQR
    on the lag-0 diagonal; a shared fit fails both its entries) to its
    :class:`NumericalError`, naming the first such 1-based entry (r, l)
    in row-major order; that replicate's matrix holds no usable estimate.

    Raises
    ------
    ValueError
        For the whole block: fewer than ``MIN_QUANTILE_OBS`` observations,
        a non-finite value, or alpha out of (1, 2].

    Warns
    -----
    UserWarning
        Once per call when the projection-scale system is rank-deficient
        (alpha = 2).
    """
    lag0 = lagged is cur
    # At lag 0 both stacks hold the same observations: count them once.
    samples = (cur,) if lag0 else (cur, lagged)
    dirs, _, c, _ = _checked_design(alpha, *samples)
    alpha = float(alpha)
    M, m, n = cur.shape
    # At lag 0, entry (l, r) is read off the fit of (r, l): fit r < l only.
    fitted = np.ones((m, m), dtype=bool)
    rs, ls = np.nonzero(np.triu(fitted, 1) if lag0 else fitted)  # row-major entry order
    # Replicate k's components are rows k*m .. k*m + m-1 of the stacks.
    first = np.repeat(np.arange(M) * m, len(rs))
    g = _fit_pairs(cur.reshape(-1, n), lagged.reshape(-1, n),
                   first + np.tile(rs, M), first + np.tile(ls, M), alpha)
    out = np.empty((M, m, m))
    collapsed = np.zeros((M, m, m), dtype=bool)
    weights = _cv_weights(dirs, alpha)
    out[:, rs, ls] = np.sum(g * weights, axis=1).reshape(M, -1)
    collapsed[:, rs, ls] = ~np.any(g > 0.0, axis=1).reshape(M, -1)
    if lag0:
        out[:, ls, rs] = np.sum(g * weights[_coordinate_swap()], axis=1).reshape(M, -1)
        collapsed[:, ls, rs] = collapsed[:, rs, ls]
        q25, q75 = _quartiles(cur.copy())
        iqr = np.maximum(q75 - q25, 0.0)
        diag = np.arange(m)
        out[:, diag, diag] = (iqr / c) ** alpha * _diagonal_cv_constant(alpha)
        collapsed[:, diag, diag] = iqr == 0.0
    failed = {}
    for k, r, l in np.argwhere(collapsed):  # row-major: first entry first
        failed.setdefault(int(k), NumericalError(
            f"entry ({r + 1}, {l + 1}): {_COLLAPSED}"
        ))
    return out, failed
