"""Test-only reference code that no package code reads.

* Exact population covariations of the periodic AR(1) solution: the
  series of :func:`stablepar.par_model._covariation_stack` read per entry
  (:func:`theoretical_cv`) or per phase (:func:`theoretical_phase_matrix`),
  and the independent closed form for diagonal coefficients
  (:func:`theoretical_cv_diagonal`).
* The characteristic function of a discrete spectral measure, its
  empirical counterpart, the covariation read off a 2-D measure, and a
  check that a measure is closed under negation.
* Many forward paths from an independent loop (:func:`simulate_paths`),
  and one trajectory from the package's simulator (:func:`one_path`).
* A Monte Carlo study run one alpha at a time, in blocks of at most
  ``REPLICATE_BLOCK`` replicates (:func:`reference_mc_study`).
"""

from collections import Counter
from dataclasses import replace

import numpy as np

import stablepar.mc as mc
from stablepar.exceptions import NumericalError
from stablepar.par_model import MultiTrajectory, _covariation_stack, simulate_par1
from stablepar.rng import RandomStream
from stablepar.stable import sample_stable_vector, signed_power


def one_path(model, L, rng, **kwargs):
    """One trajectory: :func:`simulate_par1` on the single stream ``rng``."""
    return MultiTrajectory(simulate_par1(model, L, [rng], **kwargs)[0])


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


def reference_mc_study(config):
    """:func:`stablepar.mc.run_mc_study` as a loop over the sweep: per
    alpha, replicate blocks of at most ``mc.REPLICATE_BLOCK`` simulated at
    that alpha, each estimated whole.  It calls the simulator and the
    block estimator at the names ``mc`` looks up, so a test's patches of
    those names apply to both drivers.
    """
    base = RandomStream(config.seed)
    T = config.model.period
    stats = {}
    failure_causes = {}
    for k, alpha in enumerate(config.alphas):
        model = replace(config.model, alpha=float(alpha))
        estimates = {meth: [] for meth in config.methods}
        causes = {meth: Counter() for meth in config.methods}
        streams = [base.substream(k, rep) for rep in range(config.M)]
        for start in range(0, config.M, mc.REPLICATE_BLOCK):
            paths = mc.simulate_par1(model, config.L, streams[start : start + mc.REPLICATE_BLOCK],
                                     burn_in=config.burn_in)
            for meth in config.methods:
                block = mc.estimate_block(paths, T, meth, alpha=float(alpha))
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
            stack = np.concatenate(estimates[meth])
            stats[(meth, float(alpha))] = np.stack(
                [np.median(stack, axis=0),
                 *np.quantile(stack, [0.05, 0.25, 0.75, 0.95], axis=0)]
            )
    return mc.McReport(stats=stats, config=config, failure_causes=failure_causes)


def is_diagonal(model) -> bool:
    """True when every coefficient matrix of ``model`` is exactly diagonal."""
    return all(np.all(th == np.diag(np.diag(th))) for th in model.theta)


def period_products(model) -> np.ndarray:
    """Diagonal per-component products ``P_r = theta_rr(1)...theta_rr(T)``.

    Meaningful as a one-cycle gain only for diagonal models, where the
    solution exists iff ``|P_r| < 1`` for every component.
    """
    return np.prod([np.diag(th) for th in model.theta], axis=0)


def theoretical_cv(model, r: int, l: int, s: int, t: int) -> float:
    """Covariation ``CV(X_r(s), X_l(t))`` of the stationary solution.

    The moving-average series

        sum_j sum_a gamma_a <row_r Phi(s, s-m*+j), u_a>
                            <row_l Phi(t, t-m*+j), u_a>^<alpha-1>,

    over the shared noise times ``m* - j`` with ``m* = min(s, t)``,
    summed to convergence: one entry of :func:`_covariation_stack` at
    lag ``s - t`` and the phase of ``s``.  Also serves as the alpha-th
    power of the covariation norm via ``r = l, s = t``.
    """
    stack = _covariation_stack(model, s - t)
    return float(stack[(s - 1) % model.period, r - 1, l - 1])


def theoretical_cv_diagonal(model, r: int, l: int, s: int, t: int) -> float:
    """Closed-form ``CV(X_r(s), X_l(t))`` for diagonal coefficient matrices.

    For diagonal models each component is a scalar periodic AR(1) and the
    covariation series telescopes across whole periods into a geometric
    factor ``1 / (1 - P_l^<alpha-1> P_r)``, leaving one finite sum over a
    single period.  Exact (up to rounding), hence the oracle against
    which the general series is validated.
    """
    if not is_diagonal(model):
        raise ValueError("closed form only applies to diagonal models")
    p = period_products(model)
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


def theoretical_phase_matrix(model, v: int, h: int, normalized: bool = True) -> np.ndarray:
    """Model-implied per-phase (normalized) covariation matrix.

    Entry ``(r, l)`` is ``CV(X_r(v), X_l(v - h))``, divided when
    ``normalized`` by the alpha-th covariation-norm power of the lagged
    variable, ``CV(X_l(v-h), X_l(v-h))`` — the population counterpart of
    the per-phase sample matrices, used as the exact-recovery oracle for
    the estimation stage.  Returns a plain ``(m, m)`` array.
    """
    T = model.period
    stack = _covariation_stack(model, h)
    out = stack[(v - 1) % T]
    if normalized:
        lag0 = stack if h == 0 else _covariation_stack(model, 0)
        out = out / np.diagonal(lag0[(v - h - 1) % T])
    return out


def char_function(measure, alpha: float, theta):
    """Characteristic function ``exp(-sum_j |<theta, s_j>|^alpha gamma_j)``.

    Real-valued because the measures handled here are symmetric.  ``theta``
    may be a single point in R^m or an array of shape ``(q, m)``; the
    result is a scalar or a length-``q`` array correspondingly.
    """
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    proj = th @ measure.points.T  # (q, k)
    val = np.exp(-np.abs(proj) ** alpha @ measure.weights)
    return float(val[0]) if single else val


def empirical_char_function(sample: np.ndarray, theta) -> np.ndarray:
    """Real part of the empirical characteristic function of an ``(n, m)``
    sample at one or more theta points.  (For symmetric laws the imaginary
    part estimates zero, so the real part is the natural statistic.)"""
    x = np.atleast_2d(np.asarray(sample, dtype=float))
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    val = np.mean(np.cos(x @ th.T), axis=0)
    return float(val[0]) if single else val


def cv_from_spectral(measure2d, alpha: float) -> float:
    """Covariation of a 2-D jointly stable pair read off its (discrete)
    spectral measure: ``sum_j s_{1,j} * s_{2,j}^<alpha-1> * gamma_j``."""
    s1 = measure2d.points[:, 0]
    s2 = measure2d.points[:, 1]
    return float(np.sum(s1 * signed_power(s2, alpha - 1.0) * measure2d.weights))


def is_symmetric(measure, tol: float = 1e-10) -> bool:
    """Check closure of ``measure`` under negation with matching weights."""
    for p, w in zip(measure.points, measure.weights):
        d = np.linalg.norm(measure.points + p, axis=1)
        j = int(np.argmin(d))
        if d[j] > tol or abs(measure.weights[j] - w) > tol:
            return False
    return True
