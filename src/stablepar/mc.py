"""Replicated Monte Carlo studies of the coefficient estimators.

A study simulates ``M`` independent trajectories of a chosen model,
runs the requested estimators on every one of them, and aggregates each
coefficient across replicates into its median and empirical 5/25/75/95%
quantiles (:data:`STATS`, one ``(5, T, m, m)`` array per method and
alpha) — the summary behind boxplot-style method comparisons.  A sweep
over stability indices re-runs the whole experiment with the same
coefficient matrices and noise geometry at each alpha.

Determinism: replicate ``i`` of the ``k``-th alpha draws from
``base_stream.substream(k, i)``, so reports are bit-identical across
runs and replicates can be distributed without coordination.  Both
estimation methods see the *same* trajectory within a replicate, which
makes the width comparison between the methods a paired one.

Replicates are simulated together, in blocks of at most
``REPLICATE_BLOCK``, by one recursion over time
(:func:`~stablepar.par_model.simulate_par1`); replicate ``i`` still
draws from ``substream(k, i)`` and its trajectory equals a one-stream
simulation on that stream.  Boundedness is checked once per block, by
the simulation itself.  Each method estimates each block in one
:func:`~stablepar.estimators.estimate_block` call, whose failures stay
per replicate and carry the phase where they occurred.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .estimators import METHODS, _check_shape, estimate_block, method_name
from .estimators import yw_cv_estimate, yw_t_estimate  # unused here; the benchmark tracer patches these names
from .exceptions import NumericalError
from .par_model import ParModel, _write_csv, simulate_par1
from .rng import RandomStream
from .stable import DiscreteSpectralMeasure

__all__ = [
    "McConfig",
    "McReport",
    "STATS",
    "model1_preset",
    "model2_preset",
    "run_mc_study",
]

# Replicates simulated in one batch: memory stays O(REPLICATE_BLOCK * L * m)
# however large M is.
REPLICATE_BLOCK = 64

# The replicate statistics of ``McReport.stats``, in the order of its
# first axis.
STATS = ("median", "q05", "q25", "q75", "q95")


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo experiment description.

    ``alphas`` defaults to the model's own index (no sweep); each swept
    alpha replaces the noise index while keeping coefficients and noise
    geometry.  ``methods`` is any subset of ``METHODS``, each name read
    by :func:`~stablepar.estimators.method_name`.  The
    spectral-measure method receives the current alpha as known — the
    study setting is simulation, where it is.  ``L`` must meet the
    sample floor of every method (four periods; ``101 T`` for YW-T) and
    each alpha :class:`ParModel`'s range; both are checked up front.
    """

    model: ParModel
    L: int
    M: int
    alphas: tuple = ()
    methods: tuple = METHODS
    seed: int = 0
    burn_in: int | None = None

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"need at least 2 replicates, got {self.M}")
        object.__setattr__(self, "alphas", tuple(self.alphas) or (self.model.alpha,))
        if len(set(map(float, self.alphas))) < len(self.alphas):
            raise ValueError(f"alphas must be distinct, got {self.alphas}")
        for alpha in self.alphas:  # ParModel's rule, before anything is simulated
            dc_replace(self.model, alpha=float(alpha))
        object.__setattr__(self, "methods", tuple(map(method_name, self.methods)))
        if not self.methods:
            raise ValueError("need at least one method")
        for method in self.methods:
            _check_shape(self.model.dim, self.L, self.model.period, method)


@dataclass
class McReport:
    """Study results per (method, alpha).

    ``stats[(method, alpha)][STATS.index(stat), v - 1]`` is the ``(m, m)``
    matrix of that replicate statistic for Theta(v), over the replicates
    that did not fail.  ``failure_causes[(method, alpha)]`` maps
    ``(exception class name, phase)`` to the number of failed replicates.
    """

    stats: dict
    config: McConfig
    failure_causes: dict

    @property
    def failures(self) -> dict:
        """Failed replicates per (method, alpha): ``failure_causes`` summed."""
        return {key: sum(causes.values()) for key, causes in self.failure_causes.items()}

    def coefficient_matrix(self, method: str, alpha: float, v: int, stat: str = "median"):
        """One aggregated ``(m, m)`` matrix: ``stat`` of Theta(v)."""
        if (method, alpha) not in self.stats or not 1 <= v <= self.config.model.period:
            raise KeyError(f"no results for {method}, alpha={alpha}, v={v}")
        return self.stats[(method, alpha)][STATS.index(stat), v - 1].copy()

    def to_csv(self, path) -> None:
        """One row per coefficient, alpha outer, then method, then v, i, j:
        ``method,alpha,L,v,i,j,median,q05,q95,true_value``."""
        true = np.stack(self.config.model.theta)
        columns = [STATS.index(stat) for stat in ("median", "q05", "q95")]
        tables = {key: np.concatenate([stats[columns], true[None]]).reshape(4, -1).T.tolist()
                  for key, stats in self.stats.items()}
        _write_csv(
            path,
            ["method", "alpha", "L", "v", "i", "j", "median", "q05", "q95", "true_value"],
            ([meth, alpha, self.config.L, v + 1, i + 1, j + 1, *map(repr, row)]
             for (meth, alpha), table in tables.items()
             for (v, i, j), row in zip(np.ndindex(true.shape), table)),
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
    requested method.  Each (method, alpha) gets its :data:`STATS` over
    the replicates as one ``(len(STATS), T, m, m)`` array.  Replicates
    whose estimation raises a numerical/data error are excluded from the
    statistics and counted in ``failure_causes`` by exception class and
    phase; the study aborts when more than 20% of replicates fail for
    any (method, alpha), since medians over a heavily censored sample
    would be misleading.
    """
    base = RandomStream(config.seed)
    T = config.model.period
    stats = {}
    failure_causes = {}
    for k, alpha in enumerate(config.alphas):
        model = dc_replace(config.model, alpha=float(alpha))
        estimates = {meth: [] for meth in config.methods}
        causes = {meth: Counter() for meth in config.methods}
        streams = [base.substream(k, rep) for rep in range(config.M)]
        for start in range(0, config.M, REPLICATE_BLOCK):
            paths = simulate_par1(
                model,
                config.L,
                streams[start : start + REPLICATE_BLOCK],
                burn_in=config.burn_in,
            )
            for meth in config.methods:
                block = estimate_block(paths, T, meth, alpha=float(alpha))
                estimates[meth].append(np.delete(block.theta, list(block.failures), axis=0))
                causes[meth].update(
                    (type(exc).__name__, phase) for phase, exc in block.failures.values()
                )
        for meth in config.methods:
            failure_causes[(meth, float(alpha))] = dict(causes[meth])
            n_failed = sum(causes[meth].values())
            if n_failed > 0.2 * config.M:
                raise NumericalError(
                    f"{meth} failed on {n_failed} of {config.M} "
                    f"replicates at alpha={alpha}; study aborted"
                )
            stack = np.concatenate(estimates[meth])  # (kept, T, m, m)
            # np.quantile's default is linear interpolation of order
            # statistics, matching the aggregation convention here.
            stats[(meth, float(alpha))] = np.stack(
                [np.median(stack, axis=0),
                 *np.quantile(stack, [0.05, 0.25, 0.75, 0.95], axis=0)]
            )
    return McReport(stats=stats, config=config, failure_causes=failure_causes)
