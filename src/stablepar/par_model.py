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
those products.  This module provides simulation (:func:`simulate_par1`,
one recursion for one replicate stream or many), the g-products, the
boundedness check, and one kernel (:func:`_covariation_stack`) that sums
the covariation series for every phase and component pair at a given
lag, one period per step, until a further period no longer changes its
absolute majorant in floating point.  The stationary scales of the
predictive bands read its lag-0 diagonal; the test suite's exact
covariation oracles are views of it too.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, NumericalError, UnboundedModelError
from .rng import RandomStream
from .stable import DiscreteSpectralMeasure, sample_stable_vector, signed_power

__all__ = [
    "ParModel",
    "MultiTrajectory",
    "BoundednessReport",
    "simulate_par1",
    "g_product",
    "check_boundedness",
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
        times = range(self.t0, self.t0 + self.length)
        rows = ([t, *map(repr, row.tolist())] for t, row in zip(times, self.values.T))
        _write_csv(path, ["t"] + [f"x{i}" for i in range(1, self.dim + 1)], rows)

    @classmethod
    def from_csv(cls, path, columns: str | None = None) -> "MultiTrajectory":
        """Read a trajectory CSV.

        Default layout is ``t,x1,...,xm``.  ``columns`` maps other layouts:
        a comma-separated list naming the time column first and the value
        columns in component order (e.g. ``timestamp,price,volume``).  A
        numeric time column must hold consecutive integers; one whose
        first cell is not a number is replaced by row order, indexed from 1.

        Raises
        ------
        DataError
            On a missing or empty file, an unknown layout, a missing,
            short, non-numeric or non-finite cell, or a numeric time column
            that is not consecutive integers.
        """
        names = [c.strip() for c in columns.split(",")] if columns else None

        def select(header):
            if names is None:
                if header[0] != "t":
                    raise DataError(
                        f"{path}: expected header 't,x1,...,xm' (got {header}); "
                        "map other layouts with columns (CLI: --columns)"
                    )
                return range(len(header))
            if len(names) < 2:
                raise DataError(
                    "columns needs a time column and at least one value column"
                )
            try:
                return [header.index(n) for n in names]
            except ValueError as exc:
                raise DataError(f"{path}: {exc}; header is {header}") from None

        data, labels = _read_csv(path, select)
        t = data[:, 0]
        if not (labels or (np.all(t == np.round(t)) and np.all(np.diff(t) == 1.0))):
            name = names[0] if names else "t"
            raise DataError(f"{path}: time column {name!r} is not consecutive integers")
        return cls(values=data[:, 1:].T, t0=1 if labels else int(t[0]))


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: ``header`` then ``rows``, cells already formatted.

    :mod:`csv` dialect ``excel``: ``\\r\\n`` line ends, and a cell holding a
    comma, quote or line break is quoted.  ``rows`` may be a generator, so
    a long table is never held as strings all at once.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# A row holding only these characters has all of its cells blank.
_BLANK = ' \t\n\r\v\f,"'


def _read_csv(path, select) -> tuple[np.ndarray, bool]:
    """The one CSV reader: the columns ``select(header)`` names, as floats.

    ``select`` gets the stripped header names and returns column indices,
    key column first, or raises :class:`DataError`.  All-blank rows are
    skipped; one :func:`numpy.loadtxt` call parses the rest.  A key column
    whose first cell is not a number holds non-blank labels, read as 0, and
    the returned flag is True.  Every other cell must be a finite number.
    The file is UTF-8 text, with or without a byte-order mark; a malformed
    row is named by its 1-based line in the file.
    """
    if not Path(path).is_file():
        raise DataError(f"input file not found: {path}")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path}: empty file")
            usecols = select([h.strip() for h in header])
            key = usecols[0]
            rows = (line for line in fh if line.strip(_BLANK))
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: no data rows")
            try:
                float(next(csv.reader([first]))[key])
                converters = None
            except (ValueError, IndexError):
                # a blank label fails float(), so loadtxt rejects it
                converters = {key: lambda cell: float(cell) if not cell.strip() else 0.0}
            try:
                data = np.loadtxt(itertools.chain([first], rows), delimiter=",", quotechar='"',
                                  comments=None, usecols=usecols, converters=converters,
                                  ndmin=2)
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                # loadtxt stops at the bad row, so it is the last line read;
                # its "row" counts the non-blank rows after the header
                with open(path, encoding="utf-8-sig") as again:
                    line = sum(1 for _ in again) - sum(1 for _ in fh)
                detail = re.sub(r" at row \d+", "", str(exc))
                raise DataError(f"{path}: malformed data row on line {line} ({detail})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: non-finite values present")
    return data, converters is not None


@dataclass
class BoundednessReport:
    bounded: bool
    spectral_radius: float
    detail: str


def g_product(model: ParModel, t: int, j: int) -> np.ndarray:
    """Product ``Theta(t) Theta(t-1) ... Theta(t-j+1)`` (identity at j=0)."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    out = np.eye(model.dim)
    for k in range(j):
        out = out @ model.theta_at(t - k)
    return out


# Margin below one that the monodromy spectral radius must keep.
_BOUNDEDNESS_TOL = 1e-8


def check_boundedness(model: ParModel) -> BoundednessReport:
    """Decide whether the causal solution of the recursion exists.

    The spectral radius of the one-period monodromy product
    ``Theta(T) ... Theta(1)`` must stay below ``1 - 1e-8``; a radius below
    one makes the g-products decay geometrically, which is sufficient for
    the absolute convergence of the moving-average solution.  For a
    diagonal model the monodromy is ``diag(P_r)``, so the radius is
    ``max |P_r|``.
    """
    monodromy = g_product(model, model.period, model.period)
    rho = float(np.max(np.abs(np.linalg.eigvals(monodromy))))
    limit = 1.0 - _BOUNDEDNESS_TOL
    return BoundednessReport(
        bounded=rho < limit,
        spectral_radius=rho,
        detail=f"monodromy spectral radius {rho:.6g} (need < {limit:.6g})",
    )


def _require_bounded(model: ParModel) -> BoundednessReport:
    """The model's :func:`check_boundedness` report, or an
    :class:`UnboundedModelError` when it has no bounded solution."""
    report = check_boundedness(model)
    if not report.bounded:
        raise UnboundedModelError(f"no bounded solution: {report.detail}")
    return report


def simulate_par1(
    model: ParModel,
    L: int,
    streams: list[RandomStream],
    burn_in: int | None = None,
) -> np.ndarray:
    """Simulate one trajectory ``X(1..L)`` per stream, all in one pass.

    The recursion starts at the zero vector ``burn_in`` steps before time
    1 (default ``50 * T``) so the retained stretch is effectively a draw
    from the periodically stationary solution; the phase of the retained
    samples is anchored so that ``X(t)`` uses ``Theta(t)``.  Replicate
    ``i`` draws its ``burn_in + L`` noise vectors from ``streams[i]``, and
    the recursion runs once over time for all replicates, so row ``i``
    does not depend on which other streams share the call.  Once per
    call, the model is checked and its noise measure is folded to one atom
    per mirror pair (:meth:`~stablepar.stable.DiscreteSpectralMeasure.folded`:
    the same law, one draw per pair instead of two).  Returns an
    ``(M, m, L)`` view of the ``(burn_in + L, M, m)`` noise buffer the
    recursion overwrote; one path is
    ``MultiTrajectory(simulate_par1(model, L, [rng])[0])``.

    Raises
    ------
    UnboundedModelError
        When the model fails :func:`check_boundedness`.
    """
    if L < model.period:
        raise ValueError(f"need L >= one period ({model.period}), got {L}")
    if burn_in is None:
        burn_in = 50 * model.period
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    _require_bounded(model)
    n_steps = burn_in + L
    noise = model.noise.folded()
    buf = np.empty((n_steps, len(streams), model.dim))
    for i, rng in enumerate(streams):
        buf[:, i] = sample_stable_vector(noise, model.alpha, n_steps, rng)
    # In place over time from the zero state: buf[k] holds Z(1 - burn_in + k)
    # of every replicate, then its X.  np.matvec takes one matrix-vector
    # product per replicate, so each row's arithmetic does not depend on
    # how many replicates share the buffer (a matrix-matrix product may
    # round differently by batch size).
    for k in range(1, n_steps):
        buf[k] += np.matvec(model.theta[(k - burn_in) % model.period], buf[k - 1])
    return buf[burn_in:].transpose(1, 2, 0)


#: Cap on the periods the covariation series may take to converge.
_MAX_PERIODS = 20_000


def _covariation_stack(model: ParModel, h: int) -> np.ndarray:
    """``(T, m, m)`` stack ``C[v-1, r, l] = CV(X_r(v), X_l(v-h))`` at lag ``h``.

    Both coordinates load on the noise at the shared times
    ``v - h+ - j``, ``j >= 0`` (``h+ = max(h, 0)``, ``h- = max(-h, 0)``),
    through ``A_j = Phi(v, h+ + j)`` and ``B_j = Phi(v - h, h- + j)`` with
    ``Phi(t, j) = Theta(t) ... Theta(t-j+1)``.  The first period builds
    them for ``j < T``; after that both advance one period per step by the
    same factor ``Phi(v - h+ - j, T)``, and each period adds

        sum_j  A_j U diag(gamma) (B_j U)^<alpha-1>'

    over the atoms ``U`` and weights ``gamma`` of the noise measure, for
    every phase at once.  The sum stops when one more period leaves every
    entry of the absolute majorant ``sum gamma |A_j U| |B_j U|^(alpha-1)``
    unchanged in floating point.

    Raises
    ------
    UnboundedModelError
        When the model fails :func:`check_boundedness`.
    NumericalError
        When the series has not converged after ``_MAX_PERIODS`` periods
        (a near-unit monodromy); the message names its spectral radius.
    """
    report = _require_bounded(model)
    T = model.period
    thetas = np.stack(model.theta)
    phases = np.arange(T)  # phase v - 1, also the lag j within a period
    h_plus, h_minus = max(h, 0), max(-h, 0)
    # prods[k][p] = Phi(p + 1, k), the k coefficients ending at phase p + 1
    prods = [np.tile(np.eye(model.dim), (T, 1, 1))]
    for k in range(max(h_plus, h_minus) + T):
        prods.append(prods[-1] @ thetas[(phases - k) % T])
    a = np.stack([prods[h_plus + j] for j in phases], axis=1)  # (T, T, m, m): [v, j]
    b = np.stack([prods[h_minus + j][(phases - h) % T] for j in phases], axis=1)
    step = prods[T][(phases[:, None] - h_plus - phases[None, :]) % T]
    pts_t = model.noise.points.T  # (m, k)
    gam = model.noise.weights
    exp = model.alpha - 1.0
    total = np.zeros((T, model.dim, model.dim))
    bound = np.zeros_like(total)
    for _ in range(_MAX_PERIODS):
        au, bu = a @ pts_t, b @ pts_t
        total += np.einsum("vjrk,k,vjlk->vrl", au, gam, signed_power(bu, exp))
        grown = bound + np.einsum(
            "vjrk,k,vjlk->vrl", np.abs(au), gam, np.abs(bu) ** exp
        )
        if np.array_equal(grown, bound):
            return total
        bound = grown
        a, b = a @ step, b @ step
    raise NumericalError(
        f"covariation series did not converge in {_MAX_PERIODS} periods "
        f"(monodromy spectral radius {report.spectral_radius:.6g})"
    )
