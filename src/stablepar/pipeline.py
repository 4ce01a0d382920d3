"""End-to-end workflow for fitting periodic stable models to raw series.

The intended data are seasonal series (hourly electricity prices and
volumes are the motivating case): each component carries a linear trend
and a within-period mean profile on top of the stochastic part.  The
pipeline removes the deterministic structure, fits the periodic
autoregression to what remains, inspects the residuals for the stable
i.i.d. hypothesis, and turns the fitted model into predictive quantile
bands computed from its law.

Stages
------
1. :func:`fit_deterministic` — least-squares line per component, then
   per-phase means of the detrended series; exactly invertible.
2. :func:`fit_model` — one :func:`~stablepar.estimators.estimate` call
   (YW-CV or YW-T) on the deseasonalized series, its one-step residuals,
   and the predictive model.
3. :func:`diagnose_residuals` — tail-index and scale fits, bootstrap
   goodness-of-fit p-values and dependence screens over lags;
   :func:`fit_par1` is :func:`fit_model` plus this stage.  The joint
   noise measure is fitted once, by :func:`build_predictive_model`.
4. :func:`simulate_quantile_lines` / :func:`one_step_quantiles` — exact
   pointwise quantiles of the fitted law, deterministic structure added
   back.  Every component of the stationary solution, and of the noise,
   is SaS, so a band is a scale times a standard SaS quantile
   (:func:`stable_quantile`); nothing is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariation import estimate_spectral_measure_2d, ncv_cross
from .estimators import EstimationResult, estimate, pooled_alpha
from .estimators import yw_cv_estimate, yw_t_estimate  # unused here; the benchmark tracer patches these names
from .exceptions import DataError
from .par_model import MultiTrajectory, ParModel, _covariation_stack, _write_csv
from .rng import RandomStream
from .stable import (
    MIN_GOF_SIMS,
    MIN_QUANTILE_OBS,
    DiscreteSpectralMeasure,
    StableParams,
    ad_stable_test,
    mcculloch_estimate,
    sample_stable_vector,  # unused here; the benchmark tracer patches this name
    stable_quantile,
)

__all__ = [
    "DeterministicComponents",
    "DiagnosticsReport",
    "QuantilePaths",
    "FitResult",
    "fit_deterministic",
    "diagnose_residuals",
    "residuals_from_estimate",
    "build_predictive_model",
    "fit_model",
    "fit_par1",
    "simulate_quantile_lines",
    "one_step_quantiles",
]


@dataclass
class DeterministicComponents:
    """Per-component linear trend plus within-period mean profile.

    ``evaluate(t)`` returns the deterministic value at integer times
    ``t``: ``intercept_i + slope_i * t + profile_i[phase(t)]``.
    """

    period: int
    intercept: np.ndarray  # (m,)
    slope: np.ndarray  # (m,)
    periodic_mean: np.ndarray  # (m, T)

    def __post_init__(self):
        self.intercept = np.atleast_1d(np.asarray(self.intercept, dtype=float))
        self.slope = np.atleast_1d(np.asarray(self.slope, dtype=float))
        self.periodic_mean = np.atleast_2d(
            np.asarray(self.periodic_mean, dtype=float)
        )
        m = self.intercept.shape[0]
        if self.slope.shape != (m,) or self.periodic_mean.shape != (m, self.period):
            raise ValueError("inconsistent deterministic-component shapes")

    @property
    def dim(self) -> int:
        return self.intercept.shape[0]

    def evaluate(self, t) -> np.ndarray:
        """Deterministic part at integer time(s) ``t``; shape (m,) or (m, len(t))."""
        t = np.asarray(t)
        phase_idx = (t - 1) % self.period  # 0-based column into the profile
        trend = self.intercept[:, None] + self.slope[:, None] * t.reshape(1, -1)
        out = trend + self.periodic_mean[:, phase_idx.reshape(-1)]
        return out[:, 0] if t.ndim == 0 else out

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "intercept": self.intercept.tolist(),
            "slope": self.slope.tolist(),
            "periodic_mean": self.periodic_mean.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeterministicComponents":
        return cls(
            period=int(payload["period"]),
            intercept=payload["intercept"],
            slope=payload["slope"],
            periodic_mean=payload["periodic_mean"],
        )


def fit_deterministic(
    traj: MultiTrajectory, T: int
) -> tuple[DeterministicComponents, MultiTrajectory]:
    """Split a series into deterministic structure and a residual series.

    Per component, a first-degree polynomial in ``t`` and a sum-zero
    within-period mean profile are fitted *jointly* by least squares
    (one orthogonal projection), so a drift cannot leak into the phase
    means nor an unbalanced seasonal pattern into the slope: a pure line
    comes back entirely as trend, a pure zero-mean periodic pattern
    entirely as profile, and in both cases the residual is zero to
    rounding.  Adding ``evaluate`` back to the returned series
    reproduces the input exactly.
    """
    if T < 1:
        raise ValueError(f"period must be >= 1, got {T}")
    if traj.length < 2 * T:
        raise DataError(
            f"need at least two full periods (L >= {2 * T}), got {traj.length}"
        )
    t = np.arange(traj.t0, traj.t0 + traj.length, dtype=float)
    tc = t - t.mean()  # centered time keeps the design well-conditioned
    phase_idx = (np.arange(traj.t0, traj.t0 + traj.length) - 1) % T

    # Design: constant, centered time, and T-1 reduced phase dummies
    # encoding a profile constrained to sum to zero over the period.
    design = np.empty((traj.length, 2 + (T - 1)))
    design[:, 0] = 1.0
    design[:, 1] = tc
    for v in range(T - 1):
        design[:, 2 + v] = (phase_idx == v).astype(float) - (
            phase_idx == T - 1
        ).astype(float)
    coef, *_ = np.linalg.lstsq(design, traj.values.T, rcond=None)
    coef = coef.T  # (m, 2 + T - 1)

    slope = coef[:, 1]
    intercept = coef[:, 0] - slope * t.mean()
    profile = np.empty((traj.dim, T))
    profile[:, : T - 1] = coef[:, 2:]
    profile[:, T - 1] = -coef[:, 2:].sum(axis=1)

    det = DeterministicComponents(
        period=T, intercept=intercept, slope=slope, periodic_mean=profile
    )
    residual = traj.values - det.evaluate(np.arange(traj.t0, traj.t0 + traj.length))
    return det, MultiTrajectory(values=residual, t0=traj.t0)


@dataclass
class DiagnosticsReport:
    """Residual screens: marginals and dependence curves.

    ``params[i]`` is the quantile-based fit of component i+1 (named
    ``x{i+1}`` in the tables) and ``p_values[i]`` its bootstrap
    goodness-of-fit p-value.  ``ncv[(i, j)]``, i <= j, maps lag h in
    -h_max..h_max to the normalized covariation curve of components i+1
    and j+1: the auto curves (i == j, exactly 1 at lag 0) come first,
    then the cross curves.
    """

    params: list
    p_values: list
    lags: np.ndarray
    ncv: dict

    @property
    def alphas(self) -> np.ndarray:
        return np.array([p.alpha for p in self.params])

    def table_rows(self) -> list:
        """Rows of (name, A-D p-value, alpha-hat) for a summary table."""
        return [
            (f"x{i + 1}", round(p_val, 4), round(p.alpha, 4))
            for i, (p, p_val) in enumerate(zip(self.params, self.p_values))
        ]

    def to_csv(self, path) -> None:
        _write_csv(
            path,
            ["component", "alpha_hat", "sigma_hat", "ad_p_value"],
            ([f"x{i + 1}", repr(p.alpha), repr(p.scale), repr(p_val)]
             for i, (p, p_val) in enumerate(zip(self.params, self.p_values))),
        )

    def ncv_to_csv(self, path) -> None:
        """Long-format dependence curves: ``kind,i,j,lag,value``."""
        _write_csv(
            path,
            ["kind", "i", "j", "lag", "value"],
            (["auto" if i == j else "cross", i + 1, j + 1, h, repr(float(val))]
             for (i, j), curve in self.ncv.items()
             for h, val in zip(self.lags, curve)),
        )


#: fewest residuals :func:`diagnose_residuals` screens
MIN_DIAGNOSTIC_RESIDUALS = 200


def _check_screens(h_max: int, n_sims: int, residuals: int) -> None:
    """Refuse a lag range the dependence curves cannot span (every lag in
    ``-h_max..h_max`` must be smaller in size than the residual count), as
    a ``ValueError``, and a bootstrap below ``MIN_GOF_SIMS``, as a
    :class:`DataError`."""
    if not 0 <= h_max < residuals:
        raise ValueError(f"h_max must lie in [0, {residuals - 1}] for "
                         f"{residuals} residuals, got {h_max}")
    if n_sims < MIN_GOF_SIMS:
        raise DataError(f"need at least {MIN_GOF_SIMS} bootstrap simulations, got {n_sims}")


def diagnose_residuals(
    res: MultiTrajectory,
    h_max: int = 10,
    n_sims: int = 1000,
    rng: RandomStream | None = None,
) -> DiagnosticsReport:
    """Screen residuals against the i.i.d. symmetric-stable hypothesis.

    Per component: quantile-based (alpha, scale) fit and a parametric
    bootstrap goodness-of-fit p-value.  ``n_sims`` caps the bootstrap's
    simulations: it stops at its 10th exceedance (see
    :func:`~stablepar.stable.ad_stable_test`).
    Dependence is screened by normalized auto- and cross-covariation
    curves over lags ``-h_max..h_max`` — for an adequate model these
    show no structure beyond lag 0.  An ``h_max`` outside
    ``[0, res.length)`` is a ``ValueError``, and an ``n_sims`` below
    ``MIN_GOF_SIMS`` a :class:`DataError`, before anything is fitted.
    """
    if res.length < MIN_DIAGNOSTIC_RESIDUALS:
        raise DataError(f"need at least {MIN_DIAGNOSTIC_RESIDUALS} residuals "
                        f"for diagnostics, got {res.length}")
    _check_screens(h_max, n_sims, res.length)
    if rng is None:
        rng = RandomStream(0)
    params, p_values = [], []
    for i, x in enumerate(res.values):
        params.append(mcculloch_estimate(x))
        p_values.append(ad_stable_test(x, n_sims=n_sims, rng=rng.substream(i)))
    lags = np.arange(-h_max, h_max + 1)
    pairs = [(i, i) for i in range(res.dim)]
    pairs += [(i, j) for i in range(res.dim) for j in range(i + 1, res.dim)]
    ncv = {
        (i, j): np.array([ncv_cross(res, i + 1, j + 1, int(h)) for h in lags])
        for i, j in pairs
    }
    return DiagnosticsReport(params=params, p_values=p_values, lags=lags, ncv=ncv)


def residuals_from_estimate(
    detrended: MultiTrajectory, estimate: EstimationResult
) -> MultiTrajectory:
    """One-step-ahead residuals ``x(t) - Theta-hat(t) x(t-1)``, t from the
    second observation on, computed phase by phase over time-major
    copies (one matrix-vector product per time, as a per-step loop)."""
    x = detrended.values.T  # (L, m)
    L, T = detrended.length, estimate.period
    out = np.empty((L - 1, detrended.dim))
    for k0 in range(1, T + 1):
        ks = np.arange(k0, L, T)  # every column of the phase of t0 + k0
        th = estimate.theta_at(detrended.t0 + k0)
        out[ks - 1] = x[ks] - np.matvec(th, x[ks - 1])
    return MultiTrajectory(values=out.T, t0=detrended.t0 + 1)


def build_predictive_model(
    residuals: MultiTrajectory, estimate: EstimationResult
) -> ParModel:
    """Assemble the simulation model implied by a fit.

    Each residual component gets its :func:`mcculloch_estimate`; the
    noise vector gets one stability index, their
    :func:`~stablepar.estimators.pooled_alpha` (the median).  For
    two-component fits the noise measure is the projection-method
    estimate on the raw residual pairs; otherwise an
    independent-components fallback puts mass ``sigma_i^alpha / 2`` on
    each signed coordinate axis, reproducing the marginal scales.
    """
    marginals = [mcculloch_estimate(x) for x in residuals.values]
    alpha = pooled_alpha(marginals)
    if residuals.dim == 2:
        noise = estimate_spectral_measure_2d(residuals.values.T, alpha)
    else:
        scales = np.array([p.scale for p in marginals])
        noise = DiscreteSpectralMeasure.symmetric(np.eye(residuals.dim), scales**alpha / 2.0)
    return ParModel(
        period=estimate.period,
        theta=estimate.theta_hat,
        alpha=alpha,
        noise=noise,
    )


@dataclass
class FitResult:
    """Everything produced by one run of the fitting pipeline.

    ``diagnostics`` is None for a :func:`fit_model` result.
    """

    deterministic: DeterministicComponents
    estimate: EstimationResult
    diagnostics: DiagnosticsReport | None
    detrended: MultiTrajectory = field(repr=False)
    residuals: MultiTrajectory = field(repr=False)
    model: ParModel = field(repr=False)


def _require_residuals(traj: MultiTrajectory, count: int, purpose: str) -> None:
    """Refuse, before anything is fitted, a series whose residuals (one per
    observation after the first) number fewer than ``count``."""
    if traj.length - 1 < count:
        raise DataError(f"fit needs {count} residuals for its {purpose} "
                        f"(L >= {count + 1}), got L = {traj.length}")


def fit_model(
    traj: MultiTrajectory,
    T: int,
    method: str = "yw-cv",
    alpha: float | None = None,
) -> FitResult:
    """Deterministic split, coefficient fit, residuals and predictive
    model, without the residual diagnostics.

    ``method`` names the estimator (see
    :func:`~stablepar.estimators.method_name`); ``alpha`` optionally fixes the index for the
    spectral-measure method instead of estimating it.  This is all the
    predictive operations need; the result has ``diagnostics=None``.
    A series of fewer than ``MIN_QUANTILE_OBS + 1`` rows, whose residuals
    are too few for a quantile fit, is a :class:`DataError` up front.
    """
    _require_residuals(traj, MIN_QUANTILE_OBS, "quantile fits")
    det, detrended = fit_deterministic(traj, T)
    result = estimate(detrended, T, method, alpha=alpha)
    residuals = residuals_from_estimate(detrended, result)
    return FitResult(
        deterministic=det,
        estimate=result,
        diagnostics=None,
        detrended=detrended,
        residuals=residuals,
        model=build_predictive_model(residuals, result),
    )


def fit_par1(
    traj: MultiTrajectory,
    T: int,
    method: str = "yw-cv",
    alpha: float | None = None,
    h_max: int = 10,
    n_sims: int = 1000,
    rng: RandomStream | None = None,
) -> FitResult:
    """Full pipeline: :func:`fit_model` followed by
    :func:`diagnose_residuals` on its residuals (``h_max``, ``n_sims``
    and ``rng`` go to the diagnostics).

    The residuals run along the whole series, one per observation after
    the first, whatever phase it starts in.  A series of fewer than
    ``MIN_DIAGNOSTIC_RESIDUALS + 1`` rows leaves too few for the
    diagnostics and is a :class:`DataError` before anything is fitted
    (one that names :func:`fit_model`'s floor when it is below that too).
    So is an ``n_sims`` below ``MIN_GOF_SIMS``, and, as a ``ValueError``,
    an ``h_max`` outside ``[0, L - 1)``.
    """
    _require_residuals(traj, MIN_QUANTILE_OBS, "quantile fits")
    _require_residuals(traj, MIN_DIAGNOSTIC_RESIDUALS, "diagnostics")
    _check_screens(h_max, n_sims, traj.length - 1)
    fit = fit_model(traj, T, method=method, alpha=alpha)
    fit.diagnostics = diagnose_residuals(
        fit.residuals, h_max=h_max, n_sims=n_sims, rng=rng
    )
    return fit


@dataclass
class QuantilePaths:
    """Pointwise quantile bands, one length-L line per (component, q)."""

    t0: int
    quantiles: tuple
    lines: np.ndarray  # (n_q, m, L)

    def __post_init__(self):
        self.quantiles = tuple(float(q) for q in self.quantiles)
        self.lines = np.asarray(self.lines, dtype=float)
        if self.lines.ndim != 3 or self.lines.shape[0] != len(self.quantiles):
            raise ValueError("lines must have shape (n_q, m, L)")
        order = np.argsort(self.quantiles)
        sorted_lines = self.lines[order]
        if not np.all(np.diff(sorted_lines, axis=0) >= -1e-12):
            raise ValueError("quantile lines are not monotone in q")

    @property
    def dim(self) -> int:
        return self.lines.shape[1]

    @property
    def length(self) -> int:
        return self.lines.shape[2]

    def line(self, q: float, component: int) -> np.ndarray:
        """The series for quantile ``q`` of 1-based ``component``."""
        try:
            qi = self.quantiles.index(float(q))
        except ValueError:
            raise KeyError(f"quantile {q} not among {self.quantiles}") from None
        if not 1 <= component <= self.dim:
            raise ValueError(f"component must lie in 1..{self.dim}, got {component}")
        return self.lines[qi, component - 1]

    def to_csv(self, path) -> None:
        """Columns ``t`` then ``x{i}_q{q}`` per component and quantile."""
        header = ["t"] + [
            f"x{i + 1}_q{q:g}"
            for i in range(self.dim)
            for q in self.quantiles
        ]
        # (L, m * n_q), component-major like the header; one row of
        # Python floats at a time keeps memory flat in L
        values = self.lines.transpose(2, 1, 0).reshape(self.length, -1)
        times = range(self.t0, self.t0 + self.length)
        rows = ([t, *map(repr, row.tolist())] for t, row in zip(times, values))
        _write_csv(path, header, rows)


def _bands(center, sigma, alpha: float, q_list, t0: int) -> QuantilePaths:
    """Bands ``center + z_q sigma`` for each order q, ``z_q`` the standard
    SaS quantile at ``alpha``; ``center`` is (m, L) and ``sigma``
    broadcasts against it."""
    q_arr = np.asarray(sorted(float(q) for q in q_list))
    if q_arr.size == 0 or np.any((q_arr <= 0) | (q_arr >= 1)):
        raise ValueError("quantile orders must lie strictly between 0 and 1")
    repeated = q_arr[1:][np.diff(q_arr) == 0]
    if repeated.size:
        raise ValueError(f"quantile order {repeated[0]:g} is given more than once")
    unit = StableParams(alpha, 1.0)
    z_q = np.array([stable_quantile(unit, q) for q in q_arr])
    lines = center[None] + z_q[:, None, None] * sigma[None]
    return QuantilePaths(t0=t0, quantiles=tuple(q_arr), lines=lines)


def simulate_quantile_lines(
    model: ParModel,
    det: DeterministicComponents,
    q_list,
    L: int,
    t0: int = 1,
) -> QuantilePaths:
    """Quantile bands of the marginal law of the fitted process.

    Each component of the periodically stationary solution is SaS with a
    scale that depends only on the phase, so the band of order ``q`` is
    ``det_r(t) + sigma_r(phase t) z_q``, with ``z_q`` the standard SaS
    quantile.  Exact; no paths are drawn.

    Raises
    ------
    UnboundedModelError
        When the model fails :func:`check_boundedness`.
    NumericalError
        When the scale series does not converge (near-unit monodromy).
    """
    if L < 1:
        raise ValueError("L must be positive")
    # sigma_r(v)^alpha = CV(X_r(v), X_r(v)), the lag-0 diagonal
    scales = np.diagonal(_covariation_stack(model, 0), axis1=1, axis2=2) ** (
        1.0 / model.alpha
    )  # (T, m)
    times = np.arange(t0, t0 + L)
    sigma = scales[(times - 1) % model.period].T  # (m, L)
    return _bands(det.evaluate(times), sigma, model.alpha, q_list, t0)


def one_step_quantiles(
    model: ParModel,
    det: DeterministicComponents,
    traj: MultiTrajectory,
    q_list,
) -> QuantilePaths:
    """Conditional next-step quantile bands along an observed series.

    At each time ``t`` past the first observation, the predictive law is
    ``det(t) + Theta-hat(t) (x(t-1) - det(t-1)) + Z``.  Component r of
    the noise is SaS with ``sigma_r^alpha = sum_a gamma_a |s_{a,r}|^alpha``,
    so its quantile of order q is ``sigma_r z_q``: the bands are exact.
    """
    times = np.arange(traj.t0, traj.t0 + traj.length)
    det_vals = det.evaluate(times)
    centered = traj.values - det_vals
    thetas = np.stack(model.theta)[(times[1:] - 1) % model.period]  # (L-1, m, m)
    predictor = np.einsum("kij,jk->ik", thetas, centered[:, :-1]) + det_vals[:, 1:]
    sigma = (np.abs(model.noise.points) ** model.alpha).T @ model.noise.weights
    sigma = sigma ** (1.0 / model.alpha)
    return _bands(predictor, sigma[:, None], model.alpha, q_list, traj.t0 + 1)
