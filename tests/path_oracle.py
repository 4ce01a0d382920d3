"""Test-only oracle: many forward paths of a periodic AR(1) model."""

import numpy as np

from stablepar.stable import sample_stable_vector


def simulate_paths(model, x0, t_start, n_steps, n_paths, rng):
    """``n_paths`` paths from the common state ``x0`` at time ``t_start``.

    Returns shape ``(n_paths, m, n_steps)``; entry ``[.., .., k]`` holds
    ``X(t_start + 1 + k)``, driven by ``n_paths`` noise draws from
    ``rng.substream(k)``.  The recursion is a plain per-step product,
    independent of the package's simulation kernel.
    """
    x = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, model.dim))
    out = np.empty((n_paths, model.dim, n_steps))
    for k in range(n_steps):
        z = sample_stable_vector(model.noise, model.alpha, n_paths, rng.substream(k))
        x = x @ model.theta_at(t_start + 1 + k).T + z
        out[:, :, k] = x
    return out
