"""Periodic vector autoregression of order one with stable noise.

The model is the recursion

    X(t) = Theta(t) X(t-1) + Z(t),

where the m x m coefficient matrices are periodic, Theta(t) = Theta(t + T),
and the noise vectors Z(t) are i.i.d. symmetric alpha-stable with a
discrete spectral measure.  Under a boundedness condition the recursion
has a unique causal solution, a moving average over the coefficient
products

    g(t, t-j+1) = Theta(t) Theta(t-1) ... Theta(t-j+1),   g(t, t+1) = I,

and every pairwise covariation of the solution is an explicit series in
those products.  This module provides simulation, the g-products, the
boundedness check, and the theoretical covariations (general series and
the diagonal closed form) that serve as oracles for the estimators.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, UnboundedModelError
from .rng import RandomStream
from .stable import DiscreteSpectralMeasure, sample_stable_vector, signed_power

__all__ = [
    "ParModel",
    "MultiTrajectory",
    "GProduct",
    "BoundednessReport",
    "simulate_par1",
    "simulate_replicates",
    "simulate_paths",
    "g_product",
    "check_boundedness",
    "theoretical_cv",
    "theoretical_cv_diagonal",
    "theoretical_phase_matrix",
]


@dataclass
class ParModel:
    """A periodic AR(1) model description.

    Attributes
    ----------
    period : int
        Length ``T`` of the coefficient cycle.
    theta : tuple of (m, m) ndarrays
        ``theta[v-1]`` is the matrix applied at times congruent to ``v``,
        ``v = 1..T``.  Periodicity in ``t`` is enforced by indexing
        (:meth:`theta_at`), never by storing repeats.
    alpha : float
        Stability index of the noise, in (1, 2].
    noise : DiscreteSpectralMeasure
        Spectral measure of the i.i.d. noise vectors, dimension ``m``.
    """

    period: int
    theta: tuple
    alpha: float
    noise: DiscreteSpectralMeasure

    def __post_init__(self):
        self.theta = tuple(np.asarray(th, dtype=float) for th in self.theta)
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if len(self.theta) != self.period:
            raise ValueError(
                f"need {self.period} coefficient matrices, got {len(self.theta)}"
            )
        m = self.noise.dim
        for v, th in enumerate(self.theta, start=1):
            if th.shape != (m, m):
                raise ValueError(
                    f"theta({v}) has shape {th.shape}, expected {(m, m)}"
                )
            if not np.all(np.isfinite(th)):
                raise ValueError(f"theta({v}) contains non-finite entries")
        if not (1.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")

    @property
    def dim(self) -> int:
        return self.noise.dim

    def theta_at(self, t: int) -> np.ndarray:
        """Coefficient matrix at integer time ``t`` (any sign), by periodicity."""
        return self.theta[(t - 1) % self.period]

    def is_diagonal(self, tol: float = 0.0) -> bool:
        """True when every coefficient matrix is diagonal (within ``tol``)."""
        return all(
            np.all(np.abs(th - np.diag(np.diag(th))) <= tol) for th in self.theta
        )

    def period_products(self) -> np.ndarray:
        """Diagonal per-component products ``P_r = theta_rr(1)...theta_rr(T)``.

        Meaningful as a one-cycle gain only for diagonal models, where the
        solution exists iff ``|P_r| < 1`` for every component.
        """
        return np.prod([np.diag(th) for th in self.theta], axis=0)

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "theta": [th.tolist() for th in self.theta],
            "alpha": self.alpha,
            "noise": self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParModel":
        return cls(
            period=int(payload["period"]),
            theta=tuple(np.asarray(th, dtype=float) for th in payload["theta"]),
            alpha=float(payload["alpha"]),
            noise=DiscreteSpectralMeasure.from_dict(payload["noise"]),
        )


@dataclass
class MultiTrajectory:
    """An observed or simulated m-dimensional series.

    ``values[i, k]`` is component ``i+1`` at time ``t0 + k``; time indices
    are 1-based by default so phase arithmetic matches the estimators.
    """

    values: np.ndarray
    t0: int = 1

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array (components x time)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory contains missing or non-finite entries")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def component(self, i: int) -> np.ndarray:
        """1-based component accessor."""
        if not (1 <= i <= self.dim):
            raise ValueError(f"component must lie in 1..{self.dim}, got {i}")
        return self.values[i - 1]

    def to_csv(self, path) -> None:
        """Write ``t,x1,...,xm`` rows at full precision."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i}" for i in range(1, self.dim + 1)])
            writer.writerows(
                [t, *map(repr, row.tolist())]
                for t, row in zip(range(self.t0, self.t0 + self.length), self.values.T)
            )

    @classmethod
    def from_csv(cls, path, columns: str | None = None) -> "MultiTrajectory":
        """Read a trajectory CSV.

        Default layout is ``t,x1,...,xm``.  ``columns`` maps other layouts:
        a comma-separated list naming the time column first and the value
        columns in component order (e.g. ``timestamp,price,volume``).  A
        numeric time column must hold consecutive integers; a non-numeric
        one is replaced by row order, indexed from 1.

        Raises
        ------
        DataError
            On a missing or empty file, an unknown layout, a missing,
            non-numeric or non-finite value cell, or a numeric time column
            that is not consecutive integers.
        """
        if not Path(path).is_file():
            raise DataError(f"input file not found: {path}")
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            rows = [row for row in reader if "".join(row).strip()]
        if not rows:
            raise DataError(f"{path}: no data rows")

        if columns:
            names = [c.strip() for c in columns.split(",")]
            if len(names) < 2:
                raise DataError(
                    "columns needs a time column and at least one value column"
                )
            try:
                idx = [header.index(n) for n in names]
            except ValueError as exc:
                raise DataError(f"{path}: {exc}; header is {header}") from None
        else:
            if header[0] != "t":
                raise DataError(
                    f"{path}: expected header 't,x1,...,xm' (got {header}); "
                    "map other layouts with columns (CLI: --columns)"
                )
            idx = list(range(len(header)))

        width = max(idx) + 1
        bad = [r for r, row in enumerate(rows) if len(row) < width]
        if not bad:
            cols = [[row[c].strip() for row in rows] for c in idx]
            bad = [col.index("") for col in cols if "" in col]
        if bad:
            raise DataError(f"{path}: missing cell in data row {min(bad) + 2}")
        try:
            data = np.column_stack([_parse_floats(col) for col in cols[1:]])
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric value cell ({exc})") from None
        if not np.all(np.isfinite(data)):
            raise DataError(f"{path}: non-finite values present")
        return cls(values=data.T, t0=_start_time(path, header[idx[0]], cols[0]))


def _parse_floats(cells: list) -> np.ndarray:
    return np.fromiter(map(float, cells), dtype=float, count=len(cells))


def _start_time(path, name: str, cells: list) -> int:
    """First index of a time column whose numeric cells must count up by one."""
    try:
        float(cells[0])
    except ValueError:
        return 1  # non-numeric timestamps: keep row order, index from 1
    try:
        t = _parse_floats(cells)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric time cell ({exc})") from None
    if not (np.all(t == np.round(t)) and np.all(np.diff(t) == 1.0)):
        raise DataError(f"{path}: time column {name!r} is not consecutive integers")
    return int(t[0])


@dataclass
class GProduct:
    """The coefficient product ``g(t, t-j+1)`` with its index pair."""

    t: int
    j: int
    matrix: np.ndarray


@dataclass
class BoundednessReport:
    bounded: bool
    diagonal: bool
    detail: str
    spectral_radius: float | None = None
    period_products: np.ndarray | None = None


def g_product(model: ParModel, t: int, j: int) -> GProduct:
    """Product ``Theta(t) Theta(t-1) ... Theta(t-j+1)`` (identity at j=0)."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    out = np.eye(model.dim)
    for k in range(j):
        out = out @ model.theta_at(t - k)
    return GProduct(t=t, j=j, matrix=out)


def _monodromy(model: ParModel, t: int) -> np.ndarray:
    """One full period of coefficients ending at time ``t``."""
    return g_product(model, t, model.period).matrix


def check_boundedness(model: ParModel, tol: float = 1e-8) -> BoundednessReport:
    """Decide whether the causal solution of the recursion exists.

    Diagonal models admit an exact criterion: the per-component one-cycle
    products must satisfy ``|P_r| < 1``.  Otherwise the spectral radius of
    the one-period monodromy product is tested against ``1 - tol``; a
    radius below one makes the g-products decay geometrically, which is
    sufficient for the absolute convergence of the moving-average
    solution.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if model.is_diagonal():
        p = model.period_products()
        ok = bool(np.all(np.abs(p) < 1.0))
        return BoundednessReport(
            bounded=ok,
            diagonal=True,
            detail=f"diagonal model, |P_r| = {np.abs(p)!r} (need all < 1)",
            period_products=p,
        )
    rho = float(np.max(np.abs(np.linalg.eigvals(_monodromy(model, model.period)))))
    ok = rho < 1.0 - tol
    return BoundednessReport(
        bounded=ok,
        diagonal=False,
        detail=f"monodromy spectral radius {rho:.6g} (need < {1.0 - tol:.6g})",
        spectral_radius=rho,
    )


def simulate_par1(
    model: ParModel,
    L: int,
    rng: RandomStream,
    burn_in: int | None = None,
    allow_unbounded: bool = False,
) -> MultiTrajectory:
    """Simulate ``X(1..L)`` from the periodic recursion.

    The recursion starts at the zero vector ``burn_in`` steps before time
    1 (default ``50 * T``) so the retained stretch is effectively a draw
    from the periodically stationary solution; the phase of the retained
    samples is anchored so that ``X(t)`` uses ``Theta(t)``.  This is
    :func:`simulate_replicates` with one stream.

    Raises
    ------
    UnboundedModelError
        When the model fails :func:`check_boundedness` and
        ``allow_unbounded`` is not set.
    """
    paths = simulate_replicates(model, L, [rng], burn_in, allow_unbounded)
    return MultiTrajectory(values=paths[0], t0=1)


def simulate_replicates(
    model: ParModel,
    L: int,
    streams: list[RandomStream],
    burn_in: int | None = None,
    allow_unbounded: bool = False,
) -> np.ndarray:
    """Simulate one trajectory ``X(1..L)`` per stream, all in one pass.

    Replicate ``i`` draws its ``burn_in + L`` noise vectors from
    ``streams[i]`` exactly as :func:`simulate_par1` does, and the
    recursion runs once over time for all replicates, so row ``i`` equals
    ``simulate_par1(model, L, streams[i], burn_in).values``.  The model is
    checked once per call.  Returns an ``(M, m, L)`` view of the
    ``(burn_in + L, M, m)`` noise buffer the recursion overwrote.

    Raises
    ------
    UnboundedModelError
        When the model fails :func:`check_boundedness` and
        ``allow_unbounded`` is not set.
    """
    if L < model.period:
        raise ValueError(f"need L >= one period ({model.period}), got {L}")
    if burn_in is None:
        burn_in = 50 * model.period
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    if not allow_unbounded:
        report = check_boundedness(model)
        if not report.bounded:
            raise UnboundedModelError(
                f"no bounded solution: {report.detail}; "
                "pass allow_unbounded=True to simulate anyway"
            )
    n_steps = burn_in + L
    buf = np.empty((n_steps, len(streams), model.dim))
    for i, rng in enumerate(streams):
        buf[:, i] = sample_stable_vector(model.noise, model.alpha, n_steps, rng)
    _recurse(model, buf, 1 - burn_in, np.zeros(model.dim))
    return buf[burn_in:].transpose(1, 2, 0)


def _recurse(model: ParModel, buf: np.ndarray, t_first: int, x: np.ndarray) -> None:
    """Run the recursion in place over ``buf`` of shape ``(n_steps, M, m)``.

    On entry ``buf[k]`` holds the noise ``Z(t_first + k)`` of every
    replicate, on exit the state ``X(t_first + k)``; ``x`` is the state
    at ``t_first - 1``, shared by all replicates when it is one vector.
    ``np.matvec`` takes one matrix-vector product per replicate, so each
    row's arithmetic does not depend on how many replicates share the
    buffer (a matrix-matrix product may round differently by batch size).
    """
    T = model.period
    for k in range(buf.shape[0]):
        buf[k] += np.matvec(model.theta[(t_first - 1 + k) % T], x)
        x = buf[k]


def simulate_paths(
    model: ParModel,
    x0: np.ndarray,
    t_start: int,
    n_steps: int,
    n_paths: int,
    rng: RandomStream,
) -> np.ndarray:
    """Batch-simulate ``n_paths`` forward paths from a common state.

    All paths start at ``x0`` (time ``t_start``) and receive independent
    noise; the result has shape ``(n_paths, m, n_steps)`` with entry
    ``[.., .., k]`` holding ``X(t_start + 1 + k)``.  Noise at step ``k``
    comes from ``rng.substream(k)``, so path counts can change without
    reshuffling other steps.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(f"x0 must have shape ({model.dim},), got {x0.shape}")
    buf = np.empty((n_steps, n_paths, model.dim))
    for k in range(n_steps):
        buf[k] = sample_stable_vector(model.noise, model.alpha, n_paths, rng.substream(k))
    _recurse(model, buf, t_start + 1, x0)
    return buf.transpose(1, 2, 0)


def theoretical_cv(
    model: ParModel,
    r: int,
    l: int,
    s: int,
    t: int,
    truncation: int = 500,
    tail_tol: float = 1e-10,
) -> float:
    """Covariation ``CV(X_r(s), X_l(t))`` of the stationary solution.

    Expands both coordinates in the causal moving average and sums the
    atom contributions over shared noise times ``min(s, t) - j``,
    ``j = 0 .. truncation - 1``:

        sum_j sum_a gamma_a <row_r g(s, m*-j+1), u_a>
                            <row_l g(t, m*-j+1), u_a>^<alpha-1>,

    with ``m* = min(s, t)``.  Also serves as the alpha-th power of the
    covariation norm via ``r = l, s = t``.

    Warns when the last retained term still exceeds ``tail_tol`` times
    the partial sum in magnitude (insufficient truncation).
    """
    _check_component(model, r, "r")
    _check_component(model, l, "l")
    if truncation < model.period:
        raise ValueError(
            f"truncation must cover a period ({model.period}), got {truncation}"
        )
    m_star = min(s, t)
    a_s = g_product(model, s, s - m_star).matrix[r - 1]
    a_t = g_product(model, t, t - m_star).matrix[l - 1]
    u = model.noise.points  # (n_atoms, m)
    gam = model.noise.weights
    exp = model.alpha - 1.0
    row_s = a_s.copy()
    row_t = a_t.copy()
    total = 0.0
    term = 0.0
    for j in range(truncation):
        vs = row_s @ u.T
        vt = row_t @ u.T
        term = float(np.sum(gam * vs * signed_power(vt, exp)))
        total += term
        th = model.theta_at(m_star - j)
        row_s = row_s @ th
        row_t = row_t @ th
    if abs(term) > tail_tol * max(abs(total), 1e-300):
        warnings.warn(
            f"covariation series tail not negligible after {truncation} terms "
            f"(last term {term:.3g} vs partial sum {total:.3g}); "
            "increase truncation or check boundedness",
            stacklevel=2,
        )
    return total


def theoretical_cv_diagonal(
    model: ParModel, r: int, l: int, s: int, t: int
) -> float:
    """Closed-form ``CV(X_r(s), X_l(t))`` for diagonal coefficient matrices.

    For diagonal models each component is a scalar periodic AR(1) and the
    covariation series telescopes across whole periods into a geometric
    factor ``1 / (1 - P_l^<alpha-1> P_r)``, leaving one finite sum over a
    single period.  Exact (up to rounding), hence the oracle against
    which the truncated general series is validated.
    """
    _check_component(model, r, "r")
    _check_component(model, l, "l")
    if not model.is_diagonal():
        raise ValueError("closed form only applies to diagonal models")
    p = model.period_products()
    p_r, p_l = p[r - 1], p[l - 1]
    if not (abs(p_r) < 1.0 and abs(p_l) < 1.0):
        raise ValueError(
            f"no bounded solution for components ({r}, {l}): "
            f"|P| = ({abs(p_r):.4g}, {abs(p_l):.4g})"
        )
    exp = model.alpha - 1.0
    u = model.noise.points
    gam = model.noise.weights
    atom_integral = float(np.sum(gam * u[:, r - 1] * signed_power(u[:, l - 1], exp)))
    denom = 1.0 - signed_power(p_l, exp) * p_r

    def g_entry(i: int, hi: int, lo_excl: int) -> float:
        # (i, i) entry of Theta(hi) ... Theta(lo_excl + 1), diagonal model
        out = 1.0
        for tau in range(lo_excl + 1, hi + 1):
            out *= model.theta_at(tau)[i - 1, i - 1]
        return out

    T = model.period
    if s >= t:
        lead = g_entry(r, s, t)
        period_sum = sum(
            signed_power(g_entry(l, t, t - k), exp) * g_entry(r, t, t - k)
            for k in range(T)
        )
    else:
        lead = signed_power(g_entry(l, t, s), exp)
        period_sum = sum(
            signed_power(g_entry(l, s, s - k), exp) * g_entry(r, s, s - k)
            for k in range(T)
        )
    return lead * atom_integral / denom * period_sum


def theoretical_phase_matrix(
    model: ParModel,
    v: int,
    h: int,
    normalized: bool = True,
    truncation: int = 500,
):
    """Model-implied per-phase (normalized) covariation matrix.

    Entry ``(r, l)`` is ``CV(X_r(v), X_l(v - h))``, divided when
    ``normalized`` by the alpha-th covariation-norm power of the lagged
    variable, ``CV(X_l(v-h), X_l(v-h))`` — the population counterpart of
    the per-phase sample matrices, used as the exact-recovery oracle for
    the estimation stage.  Returns a plain ``(m, m)`` array.
    """
    m = model.dim
    out = np.empty((m, m))
    for r in range(1, m + 1):
        for l in range(1, m + 1):
            out[r - 1, l - 1] = theoretical_cv(
                model, r, l, v, v - h, truncation=truncation
            )
    if normalized:
        for l in range(1, m + 1):
            norm = theoretical_cv(model, l, l, v - h, v - h, truncation=truncation)
            out[:, l - 1] /= norm
    return out


def _check_component(model: ParModel, i: int, name: str) -> None:
    if not (1 <= i <= model.dim):
        raise ValueError(f"{name} must lie in 1..{model.dim}, got {i}")
