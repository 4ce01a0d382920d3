"""Modified Yule-Walker estimators for periodic stable autoregressions.

Multiplying the recursion X(t) = Theta(t) X(t-1) + Z(t) through by
sign-weighted functions of the lagged vector and averaging kills the
noise term (independence plus symmetry), leaving per-phase systems

    M1(v) = Theta(v) M0(v),

where M1(v) collects lag-1 and M0(v) lag-0 dependence measures of the
phase sub-samples.  Two routes to those matrices give the two
estimators:

* ``yw_cv_estimate`` — normalized covariations from sign-weighted moment
  sums; no tail-index input needed;
* ``yw_t_estimate`` — covariations read off estimated two-dimensional
  spectral measures (projection method); uses alpha, estimated from the
  data when not supplied.

Both share the solve step, so on *exact* input matrices they return the
exact coefficients; per-column rescalings of both matrices cancel, which
is why the normalized and unnormalized routes solve the same system.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .covariation import cv_phase_matrix_spectral, ncv_phase_matrix
from .exceptions import DataError, DegenerateSeriesError
from .par_model import MultiTrajectory, _read_csv
from .solvers import SolveReport, solve_yw
from .stable import mcculloch_estimate

__all__ = [
    "EstimationResult",
    "yw_cv_estimate",
    "yw_t_estimate",
    "theta_from_cov_matrices",
    "estimate_alpha",
]


@dataclass
class EstimationResult:
    """Per-phase coefficient estimates with their solve diagnostics."""

    theta_hat: tuple
    method: str  # "YW-CV" | "YW-T"
    alpha_used: float | None = None
    solve_reports: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.theta_hat = tuple(np.asarray(th, dtype=float) for th in self.theta_hat)
        for v, th in enumerate(self.theta_hat, start=1):
            if th.ndim != 2 or th.shape[0] != th.shape[1]:
                raise ValueError(f"theta_hat({v}) must be square, got {th.shape}")
            if not np.all(np.isfinite(th)):
                raise ValueError(f"theta_hat({v}) contains non-finite entries")

    @property
    def period(self) -> int:
        return len(self.theta_hat)

    @property
    def dim(self) -> int:
        return self.theta_hat[0].shape[0]

    def theta_at(self, t: int) -> np.ndarray:
        return self.theta_hat[(t - 1) % self.period]

    @property
    def all_converged(self) -> bool:
        return all(rep.converged for rep in self.solve_reports)

    def to_csv(self, path) -> None:
        """Write one row per phase: ``v, theta_11, theta_12, ..., theta_mm``."""
        m = self.dim
        header = ["v"] + [
            f"theta_{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)
        ]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for v, th in enumerate(self.theta_hat, start=1):
                writer.writerow([v] + [repr(float(x)) for x in th.ravel()])

    @classmethod
    def from_csv(cls, path, method: str = "YW-CV") -> "EstimationResult":
        """Read a :meth:`to_csv` file; malformed input raises :class:`DataError`."""

        def select(header):
            n = len(header) - 1
            if header[0] != "v":
                raise DataError(f"{path}: expected header 'v,theta_11,...'")
            if n < 1 or math.isqrt(n) ** 2 != n:
                raise DataError(f"{path}: {n} coefficient columns "
                                "do not form a square matrix")
            return range(n + 1)

        data, labeled = _read_csv(path, select)
        if labeled or not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
            raise DataError(f"{path}: column 'v' must read 1..T in file order")
        m = math.isqrt(data.shape[1] - 1)
        return cls(theta_hat=tuple(data[:, 1:].reshape(-1, m, m)), method=method)


def _check_traj(traj: MultiTrajectory, T: int) -> None:
    if T < 1:
        raise ValueError(f"period must be >= 1, got {T}")
    if traj.dim < 1:
        raise ValueError("trajectory must have at least one component")
    if traj.length < 4 * T:
        raise DataError(
            f"need at least four full periods (L >= {4 * T}), got {traj.length}"
        )


def theta_from_cov_matrices(
    m0s, m1s, method: str = "YW-CV", alpha_used: float | None = None
) -> EstimationResult:
    """Solve the per-phase systems for explicitly supplied matrix pairs.

    ``m0s[v-1]`` and ``m1s[v-1]`` are the lag-0 and lag-1 dependence
    matrices of phase ``v``; inputs may be plain arrays or the matrix
    containers produced by the covariation routines.  This is the shared
    back end of both estimators and the entry point for feeding exact
    (theoretical) matrices.
    """
    if len(m0s) != len(m1s) or not m0s:
        raise ValueError("need equally many lag-0 and lag-1 matrices, at least one")
    thetas = []
    reports = []
    for v, (m0, m1) in enumerate(zip(m0s, m1s), start=1):
        a0 = m0.values if hasattr(m0, "values") else np.asarray(m0, dtype=float)
        a1 = m1.values if hasattr(m1, "values") else np.asarray(m1, dtype=float)
        rep = solve_yw(a0, a1)
        thetas.append(rep.solution)
        reports.append(rep)
    return EstimationResult(
        theta_hat=tuple(thetas),
        method=method,
        alpha_used=alpha_used,
        solve_reports=reports,
    )


def yw_cv_estimate(traj: MultiTrajectory, T: int) -> EstimationResult:
    """Coefficients from per-phase *normalized* covariation matrices.

    For each phase v the lag-1 matrix conditions on the phase-(v-1)
    vector and the lag-0 matrix describes that same lagged vector, so
    their columns share the normalization and the solve recovers
    Theta(v).  Phase 0 of the lag-0 family is the wrapped form of phase
    T: same matrix entries, index bookkeeping shifted one period, which
    keeps the two matrices of each system on literally the same
    sub-sample.

    Solve failures are carried in the result's reports; a phase whose
    conditioning component is identically zero aborts with a diagnostic.
    """
    _check_traj(traj, T)
    m0s, m1s = [], []
    for v in range(1, T + 1):
        try:
            m1s.append(ncv_phase_matrix(traj, T, v, 1))
            m0s.append(ncv_phase_matrix(traj, T, v - 1, 0))
        except DegenerateSeriesError as exc:
            raise DegenerateSeriesError(f"phase {v}: {exc}") from None
    result = theta_from_cov_matrices(m0s, m1s, method="YW-CV")
    return result


def estimate_alpha(traj: MultiTrajectory) -> float:
    """Pooled stability index: median of per-component quantile estimates."""
    return float(
        np.median([mcculloch_estimate(row).alpha for row in traj.values])
    )


def yw_t_estimate(
    traj: MultiTrajectory, T: int, alpha: float | None = None, n_grid: int = 40
) -> EstimationResult:
    """Coefficients from spectral-measure-based covariation matrices.

    Each matrix entry pairs two phase sub-samples, estimates their 2-D
    spectral measure by the projection method and evaluates the
    covariation from it; the per-phase systems are then identical in
    shape to the normalized-covariation ones (per-column scale factors
    cancel in the solve).  ``alpha`` defaults to the median of the
    per-component quantile estimates on the full series.
    """
    _check_traj(traj, T)
    if alpha is None:
        alpha = estimate_alpha(traj)
    if not (1.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    m0s, m1s = [], []
    for v in range(1, T + 1):
        m1s.append(cv_phase_matrix_spectral(traj, T, v, 1, alpha, n_grid=n_grid))
        m0s.append(cv_phase_matrix_spectral(traj, T, v - 1, 0, alpha, n_grid=n_grid))
    return theta_from_cov_matrices(
        m0s, m1s, method="YW-T", alpha_used=float(alpha)
    )
