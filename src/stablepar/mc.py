"""Replicated Monte Carlo studies of the coefficient estimators.

A study simulates ``M`` independent trajectories of a chosen model,
runs the requested estimators on every one of them, and aggregates each
coefficient across replicates into its median and empirical 5%/95%
quantiles — the summary behind boxplot-style method comparisons.  A
sweep over stability indices re-runs the whole experiment with the same
coefficient matrices and noise geometry at each alpha.

Determinism: replicate ``i`` of the ``k``-th alpha draws from
``base_stream.substream(k, i)``, so reports are bit-identical across
runs and replicates can be distributed without coordination.  Both
estimation methods see the *same* trajectory within a replicate, which
makes the width comparison between the methods a paired one.

Replicates are simulated together, in blocks of at most
``REPLICATE_BLOCK``, by one recursion over time
(:func:`~stablepar.par_model.simulate_replicates`); replicate ``i``
still draws from ``substream(k, i)`` and its trajectory equals
``simulate_par1`` on that stream.  Boundedness is checked once per
alpha, on the first block.  YW-CV estimates each block in one call
(:func:`~stablepar.estimators.yw_cv_block`), whose result for every
replicate is bit-identical to ``yw_cv_estimate`` on it alone and whose
failures stay per replicate; YW-T runs replicate by replicate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .estimators import yw_cv_block, yw_t_estimate
from .estimators import yw_cv_estimate  # unused here; the benchmark tracer patches this name
from .exceptions import NumericalError, StableParError
from .par_model import MultiTrajectory, ParModel, _write_csv, simulate_replicates
from .par_model import simulate_par1  # unused here; the benchmark tracer patches this name
from .rng import RandomStream
from .stable import DiscreteSpectralMeasure

__all__ = [
    "McConfig",
    "McCell",
    "McReport",
    "model1_preset",
    "model2_preset",
    "run_mc_study",
    "DEFAULT_ALPHA_SWEEP",
]

# Default stability-index sweep for width-vs-alpha studies.
DEFAULT_ALPHA_SWEEP = tuple(round(0.1 * k, 1) for k in range(11, 20))

METHODS = ("YW-CV", "YW-T")

# Replicates simulated in one batch: memory stays O(REPLICATE_BLOCK * L * m)
# however large M is.
REPLICATE_BLOCK = 64


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo experiment description.

    ``alphas`` defaults to the model's own index (no sweep); each swept
    alpha replaces the noise index while keeping coefficients and noise
    geometry.  ``methods`` is any subset of {"YW-CV", "YW-T"}.  The
    spectral-measure method receives the current alpha as known — the
    study setting is simulation, where it is.  ``replicate_seeds``
    optionally overrides the per-replicate streams (it must have length
    M); its main use is degenerate replication in tests.
    """

    model: ParModel
    L: int
    M: int
    alphas: tuple = ()
    methods: tuple = METHODS
    seed: int = 0
    burn_in: int | None = None
    replicate_seeds: tuple | None = None

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"need at least 2 replicates, got {self.M}")
        if self.L < 4 * self.model.period:
            raise ValueError(
                f"need L >= {4 * self.model.period} (four periods), got {self.L}"
            )
        object.__setattr__(self, "alphas", tuple(self.alphas) or (self.model.alpha,))
        object.__setattr__(self, "methods", tuple(self.methods))
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(f"unknown method {meth!r}; choose from {METHODS}")
        if not self.methods:
            raise ValueError("need at least one method")
        if self.replicate_seeds is not None:
            object.__setattr__(
                self, "replicate_seeds", tuple(self.replicate_seeds)
            )
            if len(self.replicate_seeds) != self.M:
                raise ValueError(
                    f"replicate_seeds must have length M={self.M}, "
                    f"got {len(self.replicate_seeds)}"
                )


@dataclass(frozen=True)
class McCell:
    """Aggregates for one coefficient under one method and one alpha."""

    method: str
    alpha: float
    L: int
    v: int
    i: int
    j: int
    median: float
    q05: float
    q95: float
    true_value: float
    # Quartiles ride along for width comparisons; they are not part of
    # the CSV table, whose column set is fixed.
    q25: float = np.nan
    q75: float = np.nan

    def __post_init__(self):
        if not (self.q05 <= self.median <= self.q95):
            raise ValueError(
                f"quantile ordering violated in cell {self}: "
                f"{self.q05} / {self.median} / {self.q95}"
            )

    @property
    def iqr(self) -> float:
        return self.q75 - self.q25


@dataclass
class McReport:
    """Long-format study results plus per-(method, alpha) failure counts.

    ``failure_causes[(method, alpha)]`` splits that count by cause: it
    maps ``(exception class name, phase)`` to a count, the phase being
    ``None`` where the estimator does not report it (YW-T).
    """

    cells: list
    failures: dict
    config: McConfig = field(repr=False, default=None)
    failure_causes: dict = field(default_factory=dict)

    def select(self, **criteria) -> list:
        """Cells matching all given field values, e.g. ``method="YW-CV"``."""
        out = self.cells
        for key, val in criteria.items():
            out = [c for c in out if getattr(c, key) == val]
        return out

    def coefficient_matrix(self, method: str, alpha: float, v: int, stat: str = "median"):
        """Reassemble one aggregated matrix from the long table."""
        sel = self.select(method=method, alpha=alpha, v=v)
        if not sel:
            raise KeyError(f"no cells for {method}, alpha={alpha}, v={v}")
        m = max(c.i for c in sel)
        out = np.full((m, m), np.nan)
        for c in sel:
            out[c.i - 1, c.j - 1] = getattr(c, stat)
        return out

    def to_csv(self, path) -> None:
        """One row per cell: ``method,alpha,L,v,i,j,median,q05,q95,true_value``."""
        _write_csv(
            path,
            ["method", "alpha", "L", "v", "i", "j",
             "median", "q05", "q95", "true_value"],
            ([c.method, c.alpha, c.L, c.v, c.i, c.j,
              repr(c.median), repr(c.q05), repr(c.q95), repr(c.true_value)]
             for c in self.cells),
        )


def model1_preset() -> ParModel:
    """Two-dimensional, period-3 benchmark model.

    Coefficients:
        Theta(1) = [[0.5, 0.1], [-0.6, 0.4]]
        Theta(2) = [[0.8, -0.1], [0.3, 0.7]]
        Theta(3) = [[0.1, -0.4], [-0.5, 0.3]]
    Noise: atom pairs +-(1/2, sqrt(3)/2) with weight 0.5 each and
    +-(-1/2, sqrt(3)/2) with weight 0.2 each (total mass 1.4); index 1.8.
    """
    s3 = np.sqrt(3.0) / 2.0
    noise = DiscreteSpectralMeasure.symmetric(
        [[0.5, s3], [-0.5, s3]], [0.5, 0.2]
    )
    return ParModel(
        period=3,
        theta=(
            np.array([[0.5, 0.1], [-0.6, 0.4]]),
            np.array([[0.8, -0.1], [0.3, 0.7]]),
            np.array([[0.1, -0.4], [-0.5, 0.3]]),
        ),
        alpha=1.8,
        noise=noise,
    )


def model2_preset() -> ParModel:
    """Three-dimensional, period-2 benchmark model.

    Coefficients:
        Theta(1) = [[0.8, -0.2, 0.7], [0.1, 0.5, -0.6], [0.4, 0.3, -0.1]]
        Theta(2) = [[0.4, -0.1, 0.3], [0.5, -0.2, 0.4], [-0.3, 0.8, -0.6]]
    Noise: the eight sign patterns of z = (1/2, 1/2, sqrt(2)/2) in
    mirror pairs with weights (0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.5, 0.5);
    index 1.8.
    """
    z1, z2, z3 = 0.5, 0.5, np.sqrt(2.0) / 2.0
    points = np.array(
        [
            [z1, z2, z3], [-z1, -z2, -z3],
            [-z1, z2, z3], [z1, -z2, -z3],
            [z1, -z2, z3], [-z1, z2, -z3],
            [z1, z2, -z3], [-z1, -z2, z3],
        ]
    )
    weights = np.array([0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.5, 0.5])
    return ParModel(
        period=2,
        theta=(
            np.array([[0.8, -0.2, 0.7], [0.1, 0.5, -0.6], [0.4, 0.3, -0.1]]),
            np.array([[0.4, -0.1, 0.3], [0.5, -0.2, 0.4], [-0.3, 0.8, -0.6]]),
        ),
        alpha=1.8,
        noise=DiscreteSpectralMeasure(points=points, weights=weights),
    )


def run_mc_study(config: McConfig) -> McReport:
    """Execute the study described by ``config``.

    For every alpha in the sweep and every replicate, one trajectory is
    simulated (block by block, see the module notes) and handed to each
    requested method.  Replicates whose estimation raises a
    numerical/data error are excluded from the aggregates and counted
    per (method, alpha), and by exception class and phase in
    ``failure_causes``; the study aborts when
    more than 20% of replicates fail for any such pair, since medians
    over a heavily censored sample would be misleading.
    """
    base = RandomStream(config.seed)
    T = config.model.period
    m = config.model.dim
    cells = []
    failures = {}
    failure_causes = {}
    for k, alpha in enumerate(config.alphas):
        model = dc_replace(config.model, alpha=float(alpha))
        estimates = {meth: [] for meth in config.methods}
        causes = {meth: Counter() for meth in config.methods}
        if config.replicate_seeds is not None:
            streams = [RandomStream(seed) for seed in config.replicate_seeds]
        else:
            streams = [base.substream(k, rep) for rep in range(config.M)]
        for start in range(0, config.M, REPLICATE_BLOCK):
            paths = simulate_replicates(
                model,
                config.L,
                streams[start : start + REPLICATE_BLOCK],
                burn_in=config.burn_in,
                allow_unbounded=start > 0,  # the first block checked this model
            )
            if "YW-CV" in config.methods:
                block = yw_cv_block(paths, T)
                estimates["YW-CV"].append(np.delete(block.theta, list(block.failures), axis=0))
                causes["YW-CV"].update(
                    (type(exc).__name__, phase) for phase, exc in block.failures.values()
                )
            if "YW-T" in config.methods:
                for values in paths:
                    traj = MultiTrajectory(values=values)
                    try:
                        result = yw_t_estimate(traj, T, alpha=float(alpha))
                    except (StableParError, np.linalg.LinAlgError) as exc:
                        causes["YW-T"][(type(exc).__name__, None)] += 1
                        continue
                    estimates["YW-T"].append(np.stack(result.theta_hat)[None])
        for meth in config.methods:
            n_failed = sum(causes[meth].values())
            failures[(meth, float(alpha))] = n_failed
            failure_causes[(meth, float(alpha))] = dict(causes[meth])
            if n_failed > 0.2 * config.M:
                raise NumericalError(
                    f"{meth} failed on {n_failed} of {config.M} "
                    f"replicates at alpha={alpha}; study aborted"
                )
            stack = np.concatenate(estimates[meth])  # (kept, T, m, m)
            med = np.median(stack, axis=0)
            # np.quantile's default is linear interpolation of order
            # statistics, matching the aggregation convention here.
            q05, q25, q75, q95 = np.quantile(stack, [0.05, 0.25, 0.75, 0.95], axis=0)
            for v in range(1, T + 1):
                true = model.theta[v - 1]
                for i in range(1, m + 1):
                    for j in range(1, m + 1):
                        idx = (v - 1, i - 1, j - 1)
                        cells.append(
                            McCell(
                                method=meth,
                                alpha=float(alpha),
                                L=config.L,
                                v=v,
                                i=i,
                                j=j,
                                median=float(med[idx]),
                                q05=float(q05[idx]),
                                q95=float(q95[idx]),
                                true_value=float(true[i - 1, j - 1]),
                                q25=float(q25[idx]),
                                q75=float(q75[idx]),
                            )
                        )
    return McReport(
        cells=cells, failures=failures, config=config, failure_causes=failure_causes
    )
