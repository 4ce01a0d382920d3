"""Modified Yule-Walker estimators for periodic stable autoregressions.

Multiplying the recursion X(t) = Theta(t) X(t-1) + Z(t) through by
sign-weighted functions of the lagged vector and averaging kills the
noise term (independence plus symmetry), leaving per-phase systems

    M1(v) = Theta(v) M0(v),

where M1(v) collects lag-1 and M0(v) lag-0 dependence measures of the
phase sub-samples.  Two routes to those matrices give the two
estimators:

* YW-CV — normalized covariations from sign-weighted moment sums
  (:func:`~stablepar.covariation.ncv_phase_matrix`); no tail-index input
  needed;
* YW-T — covariations read off estimated two-dimensional spectral
  measures, by the projection method
  (:func:`~stablepar.covariation.cv_phase_matrix_spectral`); uses alpha,
  estimated from the data when not supplied.

Both share the solve step, so on *exact* input matrices they return the
exact coefficients; per-column rescalings of both matrices cancel, which
is why the normalized and unnormalized routes solve the same system.

Both methods are block-first: :func:`estimate_block` estimates a
``(M, m, L)`` block of Monte Carlo replicates at once: one gather and
two phase-matrix builder calls per phase, M1 on (phase, lagged) and M0
on (lagged, lagged), and one stacked solve that routes every phase of
every replicate once; the method only picks the phase-matrix builder.
:func:`estimate` is its one-replicate case.  Failures stay per
replicate: a vanishing conditioning component or a collapsed spectral
fit fails only its replicate, and an ill-conditioned phase takes the
iterative fallback only for its replicate and phase.

This module alone reads a method name (:func:`method_name`) and picks
the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .covariation import _phase_failure, _phase_samples
from .covariation import cv_phase_matrix_spectral, ncv_phase_matrix
from .exceptions import DataError
from .par_model import MultiTrajectory, _read_csv, _write_csv
from .solvers import solve_stack, solve_yw
from .stable import MIN_QUANTILE_OBS, mcculloch_estimate

__all__ = [
    "METHODS",
    "method_name",
    "estimate",
    "estimate_block",
    "EstimationResult",
    "BlockEstimate",
    "yw_cv_estimate",
    "yw_t_estimate",
    "theta_from_cov_matrices",
    "estimate_alpha",
    "pooled_alpha",
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
    """Per-phase coefficient estimates with their solve diagnostics.

    ``method`` is read by :func:`method_name`, so it holds a
    :data:`METHODS` spelling; any other name is a ``ValueError``.
    """

    theta_hat: tuple
    method: str  # "YW-CV" | "YW-T"
    alpha_used: float | None = None
    solve_reports: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.method = method_name(self.method)
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


def _check_shape(m: int, L: int, T: int, method: str) -> None:
    """Refuse a series below a sample floor of ``method``: four full
    periods, and for YW-T ``MIN_QUANTILE_OBS`` pairs in the shortest
    lagged phase (phase 1, with ``L // T - 1`` pairs)."""
    if T < 1:
        raise ValueError(f"period must be >= 1, got {T}")
    if m < 1:
        raise ValueError("trajectory must have at least one component")
    if L < 4 * T:
        raise DataError(f"need at least four full periods (L >= {4 * T}), got {L}")
    if method == "YW-T" and L < (MIN_QUANTILE_OBS + 1) * T:
        raise DataError(f"YW-T needs {MIN_QUANTILE_OBS} pairs in every lagged phase "
                        f"(L >= {(MIN_QUANTILE_OBS + 1) * T}), got {L}")


def _solve_phases(m0: np.ndarray, m1: np.ndarray, failures: dict) -> tuple:
    """Solve the ``(M, T, m, m)`` systems of every replicate not in ``failures``.

    One :func:`solve_stack` call routes each system once.  A replicate
    fails at its first phase whose solve ended in an error, and that
    error enters ``failures`` as ``(phase, error)``.  Returns ``theta``
    (``NaN`` for failed replicates) and each replicate's list of
    per-phase reports (empty for failed ones).
    """
    M, T, m = m0.shape[:3]
    # Both solve routes return Theta as the transpose of a C-ordered array;
    # storing Theta^T keeps that layout, so later products with a
    # Theta(v) round exactly as they did on the per-phase solution.
    theta_t = np.full(m0.shape, np.nan)
    reports = [[] for _ in range(M)]
    keep = [k for k in range(M) if k not in failures]
    solved = solve_stack(m0[keep].reshape(-1, m, m), m1[keep].reshape(-1, m, m))
    for i, k in enumerate(keep):
        phases = solved[i * T : (i + 1) * T]
        failed = [v for v, rep in enumerate(phases) if isinstance(rep, Exception)]
        if failed:
            failures[k] = (failed[0] + 1, phases[failed[0]])
            continue
        theta_t[k] = [rep.solution.T for rep in phases]
        reports[k] = phases
    return theta_t.transpose(0, 1, 3, 2), reports


def theta_from_cov_matrices(m0s, m1s) -> EstimationResult:
    """Solve the per-phase systems for explicitly supplied matrix pairs.

    ``m0s[v-1]`` and ``m1s[v-1]`` are the lag-0 and lag-1 dependence
    matrices of phase ``v``.  This is the entry point for feeding exact
    (theoretical) matrices; each phase goes through :func:`solve_yw`,
    routed as :func:`estimate_block` routes it, and the first phase
    whose fallback fails raises its error.
    """
    if len(m0s) != len(m1s) or not m0s:
        raise ValueError("need equally many lag-0 and lag-1 matrices, at least one")
    reports = [solve_yw(m0, m1) for m0, m1 in zip(m0s, m1s)]
    return EstimationResult(tuple(rep.solution for rep in reports), "YW-CV",
                            solve_reports=reports)


@dataclass
class BlockEstimate:
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


def estimate_block(values, T: int, method, alpha: float | None = None) -> BlockEstimate:
    """A ``(M, m, L)`` block of replicates by the named method.

    Each phase v is gathered once: its sub-sample and the lagged
    phase-(v-1) vector (phase T one period earlier at v = 1).  The lag-1
    matrix pairs the two and the lag-0 matrix pairs the lagged vector
    with itself, so both sit on the same conditioning sub-sample, their
    columns share the normalization and the solve recovers Theta(v).
    Each matrix is one call of the method's phase-matrix builder for
    every replicate, and one :func:`~stablepar.solvers.solve_stack` call
    routes every phase of every replicate once.

    YW-CV reads normalized covariations
    (:func:`~stablepar.covariation.ncv_phase_matrix`) and ignores
    ``alpha``; YW-T reads spectral covariations
    (:func:`~stablepar.covariation.cv_phase_matrix_spectral`) at the known
    ``alpha``, which it requires.  Each replicate's result is the same
    bits as :func:`estimate` on it alone, and its failures stay its own:

    * a conditioning component that is identically zero on a phase
      sub-sample (YW-CV, :class:`DegenerateSeriesError`) or a pair fit
      that collapses to the zero measure (YW-T, :class:`NumericalError`)
      fails that replicate at the first phase where it occurs, with the
      message prefixed ``phase v: `` and naming the vanishing sub-sample's
      phase (YW-CV) or the failed matrix's lag, and at lag 0 its phase
      v - 1 (YW-T);
    * a phase whose ``m0`` or ``m1`` is not finite is a :class:`SolverError`;
      one whose condition estimate exceeds ``COND_LIMIT`` takes the
      BiCGSTAB fallback (:func:`~stablepar.solvers.solution1`) for that
      replicate and phase only, and if it raises, the replicate fails there.

    The other replicates are estimated as if the failed ones were absent.
    """
    method = method_name(method)
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"need a (M, m, L) block, got shape {values.shape}")
    M, m, L = values.shape
    _check_shape(m, L, T, method)
    if not np.all(np.isfinite(values)):
        raise ValueError("trajectory contains missing or non-finite entries")
    if method == "YW-T" and alpha is None:
        raise ValueError("YW-T on a block needs the known alpha")
    build = (ncv_phase_matrix if method == "YW-CV"
             else partial(cv_phase_matrix_spectral, alpha=alpha))
    m0, m1 = np.empty((2, M, T, m, m))
    failures = {}
    for v in range(1, T + 1):
        cur, lagged = _phase_samples(values, T, v, 1)
        m1[:, v - 1], failed1 = build(cur, lagged)
        m0[:, v - 1], failed0 = build(lagged, lagged)
        # m0's lagged phase is v - 1, or T at v = 1; m1's failure comes first
        named = {k: _phase_failure(e, T, (v - 2) % T + 1, 0) for k, e in failed0.items()}
        named.update({k: _phase_failure(e, T, v, 1) for k, e in failed1.items()})
        for k, exc in named.items():
            failures.setdefault(k, (v, type(exc)(f"phase {v}: {exc}")))
    theta, reports = _solve_phases(m0, m1, failures)
    return BlockEstimate(theta=theta, solve_reports=reports, failures=failures)


def pooled_alpha(marginals) -> float:
    """The one stability index of a vector series: the median of the
    indices of its per-component :func:`mcculloch_estimate` fits."""
    return float(np.median([p.alpha for p in marginals]))


def estimate_alpha(traj: MultiTrajectory) -> float:
    """:func:`pooled_alpha` of the quantile fits of each component."""
    return pooled_alpha([mcculloch_estimate(row) for row in traj.values])


def estimate(
    traj: MultiTrajectory, T: int, method, alpha: float | None = None
) -> EstimationResult:
    """One series by the named method: the one-replicate case of
    :func:`estimate_block`, whose first failure it raises.

    Phases follow the time stamps: the estimate reads the series from
    its first time t with t = 1 (mod T), so observations before it are
    not used.  ``alpha`` reaches YW-T only, where it defaults to
    :func:`estimate_alpha` of the whole series and is reported as
    ``alpha_used``.  A series that from its first phase-1 time on holds
    fewer than four periods, or for YW-T fewer than ``101 T``
    observations, is a :class:`DataError`; a phase whose
    conditioning component is identically zero (YW-CV) or whose pair
    fit collapses (YW-T) raises its error naming the phase; a fallback
    solve that fails raises its error.
    """
    method = method_name(method)
    values = traj.values[None, :, (1 - traj.t0) % max(T, 1) :]  # _check_shape rejects T < 1
    _check_shape(traj.dim, values.shape[-1], T, method)
    if method == "YW-T":
        alpha = float(estimate_alpha(traj) if alpha is None else alpha)
    else:
        alpha = None
    block = estimate_block(values, T, method, alpha)
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
