"""Benchmark inputs, generated apart from the program under test.

The trajectories come from this module's own numpy code: a symmetric
Chambers-Mallows-Stuck draw per spectral atom and the periodic
recursion ``X(t) = Theta(t) X(t-1) + Z(t)``.  Nothing here imports
``stablepar``, so a change to the program's sampler does not change the
benchmark's inputs, and the generating model below is the reference the
correctness checks compare against.
"""

from __future__ import annotations

import csv

import numpy as np

_S3 = np.sqrt(3.0) / 2.0
_Z3 = np.sqrt(2.0) / 2.0

#: model1: m=2, T=3, alpha=1.8, two mirrored atom pairs.
MODEL1 = {
    "theta": np.array([
        [[0.5, 0.1], [-0.6, 0.4]],
        [[0.8, -0.1], [0.3, 0.7]],
        [[0.1, -0.4], [-0.5, 0.3]],
    ]),
    "alpha": 1.8,
    "points": np.array([[0.5, _S3], [-0.5, _S3], [-0.5, -_S3], [0.5, -_S3]]),
    "weights": np.array([0.5, 0.2, 0.5, 0.2]),
}

#: model2: m=3, T=2, alpha=1.8, the eight sign patterns of (1/2, 1/2, sqrt(2)/2).
MODEL2 = {
    "theta": np.array([
        [[0.8, -0.2, 0.7], [0.1, 0.5, -0.6], [0.4, 0.3, -0.1]],
        [[0.4, -0.1, 0.3], [0.5, -0.2, 0.4], [-0.3, 0.8, -0.6]],
    ]),
    "alpha": 1.8,
    "points": np.array([
        [0.5, 0.5, _Z3], [-0.5, -0.5, -_Z3],
        [-0.5, 0.5, _Z3], [0.5, -0.5, -_Z3],
        [0.5, -0.5, _Z3], [-0.5, 0.5, -_Z3],
        [0.5, 0.5, -_Z3], [-0.5, -0.5, _Z3],
    ]),
    "weights": np.array([0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.5, 0.5]),
}

#: Deterministic part added to model1 for the fit-predict input: a linear
#: trend plus a zero-mean periodic profile per component.
TREND = {
    "intercept": np.array([2.0, -1.0]),
    "slope": np.array([0.001, -0.0005]),
    "profile": np.array([[0.5, -0.3, -0.2], [1.0, 0.0, -1.0]]),
}


def cms_symmetric(alpha: float, size, gen: np.random.Generator) -> np.ndarray:
    """Standard symmetric alpha-stable draws (Chambers, Mallows & Stuck 1976),
    characteristic function ``exp(-|t|**alpha)``."""
    u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
    w = gen.standard_exponential(size=size)
    return (
        np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def simulate(model: dict, L: int, seed: int, burn_in: int | None = None) -> np.ndarray:
    """``(m, L)`` trajectory of the periodic AR(1); ``values[:, k]`` is X(k+1).

    Noise: one independent symmetric stable factor per atom, scaled by
    ``weight**(1/alpha)`` along the atom's direction.  The recursion starts
    from zero ``burn_in`` steps (default 50 periods) before time 1, and
    time t uses ``theta[(t - 1) % T]``.
    """
    theta, alpha = model["theta"], model["alpha"]
    T, m = theta.shape[0], theta.shape[1]
    burn_in = 50 * T if burn_in is None else burn_in
    gen = np.random.default_rng(seed)
    n = burn_in + L
    w = cms_symmetric(alpha, (n, len(model["weights"])), gen)
    z = (w * model["weights"] ** (1.0 / alpha)) @ model["points"]
    x = np.zeros(m)
    out = np.empty((m, L))
    for k, t in enumerate(range(1 - burn_in, L + 1)):
        x = theta[(t - 1) % T] @ x + z[k]
        if t >= 1:
            out[:, t - 1] = x
    return out


def deterministic(L: int) -> np.ndarray:
    """``(2, L)`` trend plus periodic profile at times 1..L."""
    t = np.arange(1, L + 1)
    T = TREND["profile"].shape[1]
    return (
        TREND["intercept"][:, None]
        + TREND["slope"][:, None] * t[None, :]
        + TREND["profile"][:, (t - 1) % T]
    )


def write_csv(path, values: np.ndarray) -> None:
    """Write ``t,x1,...,xm`` rows at full precision, t from 1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i + 1}" for i in range(values.shape[0])])
        for k in range(values.shape[1]):
            writer.writerow([k + 1] + [repr(float(v)) for v in values[:, k]])
