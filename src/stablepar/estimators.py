"""Modified Yule-Walker estimators for periodic stable autoregressions.

Multiplying the recursion X(t) = Theta(t) X(t-1) + Z(t) through by
sign-weighted functions of the lagged vector and averaging kills the
noise term (independence plus symmetry), leaving per-phase systems

    M1(v) = Theta(v) M0(v),

where M1(v) collects lag-1 and M0(v) lag-0 dependence measures of the
phase sub-samples.  Two routes to those matrices give the two
estimators:

* YW-CV — normalized covariations from sign-weighted moment sums
  (:func:`~stablepar.covariation.ncv_phase_stack`); no tail-index input
  needed;
* YW-T — covariations read off estimated two-dimensional spectral
  measures, by the projection method
  (:func:`~stablepar.covariation.cv_phase_stack_spectral`); uses alpha,
  estimated from the data when not supplied.

Both share the solve step, so on *exact* input matrices they return the
exact coefficients; per-column rescalings of both matrices cancel, which
is why the normalized and unnormalized routes solve the same system.

Both methods are block-first: :func:`estimate_block` estimates a
``(M, m, L)`` block of Monte Carlo replicates at once, one phase-stack
call per (phase, lag) for the matrices and one stacked direct solve for
every phase of every replicate; the method only picks the phase-stack
builder.  :func:`estimate` is its one-replicate case.  Failures stay per
replicate: a vanishing conditioning component or a collapsed spectral
fit fails only its replicate, and an ill-conditioned phase takes the
iterative fallback only for its replicate and phase.

This module alone reads a method name (:func:`method_name`) and picks
the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covariation import cv_phase_stack_spectral, ncv_phase_stack
from .covariation import cv_phase_matrix_spectral, ncv_phase_matrix  # unused here; the benchmark tracer patches these names
from .exceptions import DataError, SolverError
from .par_model import MultiTrajectory, _read_csv, _write_csv
from .solvers import solve_direct, solve_yw
from .stable import mcculloch_estimate

__all__ = [
    "METHODS",
    "method_name",
    "estimate",
    "estimate_block",
    "EstimationResult",
    "YwCvBlock",
    "yw_cv_estimate",
    "yw_t_estimate",
    "theta_from_cov_matrices",
    "estimate_alpha",
]

METHODS = ("YW-CV", "YW-T")


def method_name(name) -> str:
    """The :data:`METHODS` spelling of ``name``: case, ``_`` for ``-`` and
    surrounding blanks do not matter.  Any other name is a ``ValueError``."""
    key = str(name).strip().upper().replace("_", "-")
    if key not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {METHODS}")
    return key


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
        rows = ([v] + [repr(float(x)) for x in th.ravel()]
                for v, th in enumerate(self.theta_hat, start=1))
        _write_csv(path, header, rows)

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


def _check_shape(m: int, L: int, T: int) -> None:
    if T < 1:
        raise ValueError(f"period must be >= 1, got {T}")
    if m < 1:
        raise ValueError("trajectory must have at least one component")
    if L < 4 * T:
        raise DataError(f"need at least four full periods (L >= {4 * T}), got {L}")


def _solve_phases(m0: np.ndarray, m1: np.ndarray, failures: dict) -> tuple:
    """Solve the ``(M, T, m, m)`` systems of every replicate not in ``failures``.

    One :func:`solve_direct` call serves all of them; a system it leaves
    to the fallback goes through :func:`solve_yw` on its own.  A replicate
    stops at its first phase whose fallback raises, and that error enters
    ``failures`` as ``(phase, error)``.  Returns ``theta`` (``NaN`` for
    failed replicates) and each replicate's list of per-phase reports
    (empty for failed ones).
    """
    M, T, m = m0.shape[:3]
    # Both solve routes return Theta as the transpose of a C-ordered array;
    # storing Theta^T keeps that layout, so later products with a
    # Theta(v) round exactly as they did on the per-phase solution.
    theta_t = np.full(m0.shape, np.nan)
    reports = [[] for _ in range(M)]
    keep = [k for k in range(M) if k not in failures]
    direct = solve_direct(m0[keep].reshape(-1, m, m), m1[keep].reshape(-1, m, m))
    for i, k in enumerate(keep):
        for v in range(T):
            rep = direct[i * T + v]
            if rep is None:
                try:
                    rep = solve_yw(m0[k, v], m1[k, v])
                except (SolverError, np.linalg.LinAlgError) as exc:
                    failures[k] = (v + 1, exc)
                    theta_t[k] = np.nan
                    reports[k] = []
                    break
            theta_t[k, v] = rep.solution.T
            reports[k].append(rep)
    return theta_t.transpose(0, 1, 3, 2), reports


def theta_from_cov_matrices(m0s, m1s) -> EstimationResult:
    """Solve the per-phase systems for explicitly supplied matrix pairs.

    ``m0s[v-1]`` and ``m1s[v-1]`` are the lag-0 and lag-1 dependence
    matrices of phase ``v``.  This is the entry point for feeding exact
    (theoretical) matrices; it solves as :func:`estimate_block` does.
    """
    if len(m0s) != len(m1s) or not m0s:
        raise ValueError("need equally many lag-0 and lag-1 matrices, at least one")
    failures = {}
    theta, reports = _solve_phases(
        np.asarray(m0s, dtype=float)[None], np.asarray(m1s, dtype=float)[None], failures
    )
    if failures:
        raise failures[0][1]
    return EstimationResult(
        theta_hat=tuple(theta[0]), method="YW-CV", solve_reports=reports[0]
    )


@dataclass
class YwCvBlock:
    """Estimates of a block of replicates, from :func:`estimate_block`.

    ``theta[k, v-1]`` is replicate k's Theta(v), all ``NaN`` when the
    replicate failed; ``solve_reports[k]`` holds its T per-phase
    :class:`SolveReport` (empty when it failed); ``failures`` maps each
    failed replicate to ``(phase, error)``, the error being what
    :func:`estimate` raises on that replicate alone.
    """

    theta: np.ndarray
    solve_reports: list
    failures: dict


#: The phase-stack builder of each method: ``(values, T, v, h, alpha)``
#: to the ``(M, m, m)`` matrices of a block and the failed replicates.
_PHASE_STACKS = {
    "YW-CV": lambda values, T, v, h, alpha: ncv_phase_stack(values, T, v, h),
    "YW-T": cv_phase_stack_spectral,
}


def estimate_block(values, T: int, method, alpha: float | None = None) -> YwCvBlock:
    """A ``(M, m, L)`` block of replicates by the named method.

    For each (phase, lag) one phase-stack call builds the matrices of
    every replicate, and one stacked condition estimate and solve
    (:func:`solve_direct`) covers every phase of every replicate.  For
    phase v the lag-1 matrix conditions on the phase-(v-1) vector and the
    lag-0 matrix describes that same lagged vector, so their columns
    share the normalization and the solve recovers Theta(v).  Phase 0 of
    the lag-0 family is the wrapped form of phase T: same matrix entries,
    index bookkeeping shifted one period, which keeps the two matrices of
    each system on literally the same sub-sample.

    YW-CV reads normalized covariations
    (:func:`~stablepar.covariation.ncv_phase_stack`) and ignores
    ``alpha``; YW-T reads spectral covariations
    (:func:`~stablepar.covariation.cv_phase_stack_spectral`) at the known
    ``alpha``, which it requires.  Each replicate's result is the same
    bits as :func:`estimate` on it alone, and its failures stay its own:

    * a conditioning component that is identically zero on a phase
      sub-sample (YW-CV, :class:`DegenerateSeriesError`) or a pair fit
      that collapses to the zero measure (YW-T, :class:`NumericalError`)
      fails that replicate at the first phase where it occurs, with the
      message prefixed ``phase v: ``;
    * a phase whose ``m0`` is not finite or whose condition estimate
      exceeds ``COND_LIMIT`` takes the BiCGSTAB fallback
      (:func:`~stablepar.solvers.solution1`) for that replicate and phase
      only; if the fallback raises, the replicate fails at that phase.

    The other replicates are estimated as if the failed ones were absent.
    """
    method = method_name(method)
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"need a (M, m, L) block, got shape {values.shape}")
    M, m, L = values.shape
    _check_shape(m, L, T)
    if not np.all(np.isfinite(values)):
        raise ValueError("trajectory contains missing or non-finite entries")
    if method == "YW-T" and alpha is None:
        raise ValueError("YW-T on a block needs the known alpha")
    build = _PHASE_STACKS[method]
    m0 = np.empty((M, T, m, m))
    m1 = np.empty((M, T, m, m))
    failures = {}
    for v in range(1, T + 1):
        # The lag-0 family at phase v - 1 conditions on the same lagged
        # vector as the lag-1 family at v; phase 0 is the wrapped phase T.
        for mats, phase, h in ((m1, v, 1), (m0, v - 1, 0)):
            mats[:, v - 1], failed = build(values, T, phase, h, alpha)
            for k, exc in failed.items():
                failures.setdefault(k, (v, type(exc)(f"phase {v}: {exc}")))
    theta, reports = _solve_phases(m0, m1, failures)
    return YwCvBlock(theta=theta, solve_reports=reports, failures=failures)


def estimate_alpha(traj: MultiTrajectory) -> float:
    """Pooled stability index: median of per-component quantile estimates."""
    return float(
        np.median([mcculloch_estimate(row).alpha for row in traj.values])
    )


def estimate(
    traj: MultiTrajectory, T: int, method, alpha: float | None = None
) -> EstimationResult:
    """One series by the named method: the one-replicate case of
    :func:`estimate_block`, whose first failure it raises.

    ``alpha`` reaches YW-T only, where it defaults to
    :func:`estimate_alpha` of the whole series and is reported as
    ``alpha_used``.  A series shorter than four periods is a
    :class:`DataError`; a phase whose conditioning component is
    identically zero (YW-CV) or whose pair fit collapses (YW-T) raises
    its error naming the phase; a fallback solve that fails raises its
    error.
    """
    method = method_name(method)
    if method == "YW-T":
        _check_shape(traj.dim, traj.length, T)
        if alpha is None:
            alpha = estimate_alpha(traj)
        if not (1.0 < alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
        alpha = float(alpha)
    else:
        alpha = None
    block = estimate_block(traj.values[None], T, method, alpha)
    if block.failures:
        raise block.failures[0][1]
    return EstimationResult(
        theta_hat=tuple(block.theta[0]),
        method=method,
        alpha_used=alpha,
        solve_reports=block.solve_reports[0],
    )


def yw_cv_estimate(traj: MultiTrajectory, T: int) -> EstimationResult:
    """Coefficients from per-phase *normalized* covariation matrices:
    :func:`estimate` by YW-CV."""
    return estimate(traj, T, "YW-CV")


def yw_t_estimate(
    traj: MultiTrajectory, T: int, alpha: float | None = None
) -> EstimationResult:
    """Coefficients from spectral-measure-based covariation matrices:
    :func:`estimate` by YW-T.

    Each matrix entry pairs two phase sub-samples, estimates their 2-D
    spectral measure by the projection method and evaluates the
    covariation from it; the per-phase systems are then identical in
    shape to the normalized-covariation ones (per-column scale factors
    cancel in the solve).  ``alpha`` defaults to the median of the
    per-component quantile estimates on the full series.
    """
    return estimate(traj, T, "YW-T", alpha)
