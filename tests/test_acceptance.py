"""Acceptance gate: eleven end-to-end criteria, one test each.

Every test produces a single human-readable pass/fail line with the
measured numbers, shown in the "acceptance criteria" section of the
terminal summary (and inline with ``pytest -s``), then asserts.
Criterion 10 runs the goodness-of-fit size study and is marked
``slow``; everything else completes in well under a minute combined.
"""

import time
import warnings

import numpy as np
import pytest

from stablepar.covariation import estimate_spectral_measure_2d
from stablepar.estimators import theta_from_cov_matrices, yw_cv_estimate
from stablepar.mc import McConfig, model1_preset, model2_preset, run_mc_study
from stablepar.par_model import MultiTrajectory, ParModel
from stablepar.pipeline import (
    DeterministicComponents,
    fit_par1,
    one_step_quantiles,
    simulate_quantile_lines,
)
from stablepar.rng import RandomStream
from stablepar.solvers import solution1
from stablepar.stable import (
    DiscreteSpectralMeasure,
    StableParams,
    ad_stable_test,
    sample_sas_1d,
    sample_stable_vector,
)

from oracles import (
    char_function,
    cv_from_spectral,
    empirical_char_function,
    one_path,
    theoretical_cv,
    theoretical_cv_diagonal,
    theoretical_phase_matrix,
)


# one line per criterion, echoed by the terminal-summary hook in conftest
REPORT_LINES: list = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {detail} -> {status}"
    REPORT_LINES.append(line)
    print("\n" + line)


def test_criterion_01_exact_recovery_from_theoretical_matrices():
    """Exact per-phase dependence matrices recover the exact coefficients."""
    t0 = time.perf_counter()
    model = model1_preset()
    m0s = [theoretical_phase_matrix(model, v - 1, 0) for v in (1, 2, 3)]
    m1s = [theoretical_phase_matrix(model, v, 1) for v in (1, 2, 3)]
    res = theta_from_cov_matrices(m0s, m1s)
    err = max(
        float(np.max(np.abs(res.theta_hat[v] - model.theta[v]))) for v in range(3)
    )
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and elapsed < 10.0
    _report(1, "exact recovery", ok, f"max err {err:.2e} (tol 1e-6), {elapsed:.2f}s")
    assert err <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_series_matches_diagonal_closed_form():
    """Covariation series summed to convergence vs exact closed form, 20
    random diagonal models, indices 1.2/1.5/1.8, one-cycle products
    capped at 0.9."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    worst = 0.0
    for k in range(20):
        alpha = (1.2, 1.5, 1.8)[k % 3]
        T = int(gen.integers(1, 4))
        m = int(gen.integers(1, 3))
        mats = [np.diag(gen.uniform(-0.95, 0.95, size=m)) for _ in range(T)]
        prod = np.ones(m)
        for mat in mats:
            prod = prod * np.diag(mat)
        scale = np.max(np.abs(prod)) ** (1.0 / T)
        cap = 0.9 ** (1.0 / T)
        if scale > cap:
            mats = [mat * (cap / scale) for mat in mats]
        pts = np.vstack([np.eye(m), -np.eye(m)])
        model = ParModel(
            period=T,
            theta=tuple(mats),
            alpha=alpha,
            noise=DiscreteSpectralMeasure(
                points=pts, weights=gen.uniform(0.2, 1.0, size=2 * m)
            ),
        )
        for s, t in [(1, 1), (3, 2), (2, 4), (T + 1, 1)]:
            for r in range(1, m + 1):
                for l in range(1, m + 1):
                    worst = max(
                        worst,
                        abs(
                            theoretical_cv(model, r, l, s, t)
                            - theoretical_cv_diagonal(model, r, l, s, t)
                        ),
                    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(2, "diagonal closed form", ok,
            f"worst dev {worst:.2e} (tol 1e-8), {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_03_model1_mc_medians():
    """200 replicates of length 1000: every coefficient median within 0.1."""
    model = model1_preset()
    cfg = McConfig(model=model, L=1000, M=200, methods=("YW-CV",), seed=2026)
    rep = run_mc_study(cfg)
    devs = [
        float(np.max(np.abs(rep.coefficient_matrix("YW-CV", 1.8, v) - model.theta[v - 1])))
        for v in (1, 2, 3)
    ]
    worst = max(devs)
    ok = worst <= 0.1
    _report(3, "benchmark 1 medians", ok, f"worst median dev {worst:.4f} (tol 0.1)")
    assert worst <= 0.1


def test_criterion_04_model2_mc_medians_both_methods():
    """The 3-D benchmark: all 18 medians within 0.15 for each method."""
    model = model2_preset()
    cfg = McConfig(model=model, L=1000, M=200, seed=2027)
    rep = run_mc_study(cfg)
    worst = {}
    for method in ("YW-CV", "YW-T"):
        worst[method] = max(
            float(np.max(np.abs(rep.coefficient_matrix(method, 1.8, v) - model.theta[v - 1])))
            for v in (1, 2)
        )
    ok = all(w <= 0.15 for w in worst.values())
    _report(4, "benchmark 2 medians", ok,
            f"worst dev YW-CV {worst['YW-CV']:.4f}, YW-T {worst['YW-T']:.4f} (tol 0.15)")
    assert worst["YW-CV"] <= 0.15
    assert worst["YW-T"] <= 0.15


def test_criterion_05_confidence_band_shrinkage():
    """Replicate-quantile bands must not widen as the series grows:
    (q95 - q05) non-increasing in L for at least 10 of 12 coefficients."""
    model = model1_preset()
    widths = {}
    for L in (500, 1000, 2000):
        cfg = McConfig(
            model=model, L=L, M=200, alphas=(1.5,), methods=("YW-CV",), seed=77
        )
        rep = run_mc_study(cfg)
        widths[L] = np.stack(
            [
                rep.coefficient_matrix("YW-CV", 1.5, v, "q95")
                - rep.coefficient_matrix("YW-CV", 1.5, v, "q05")
                for v in (1, 2, 3)
            ]
        )
    n_monotone = int(
        np.sum(
            (widths[1000] <= widths[500] + 1e-12)
            & (widths[2000] <= widths[1000] + 1e-12)
        )
    )
    ok = n_monotone >= 10
    _report(5, "band shrinkage", ok, f"non-increasing for {n_monotone}/12 (need >= 10)")
    assert n_monotone >= 10


def test_criterion_06_moment_route_narrower_than_spectral():
    """Paired comparison on identical trajectories: the moment-based
    estimator's interquartile range at most the spectral one's for a
    majority of coefficients."""
    model = model1_preset()
    cfg = McConfig(model=model, L=1000, M=200, seed=123)
    rep = run_mc_study(cfg)

    def iqrs(method):
        return np.stack(
            [
                rep.coefficient_matrix(method, 1.8, v, "q75")
                - rep.coefficient_matrix(method, 1.8, v, "q25")
                for v in (1, 2, 3)
            ]
        )

    n_narrower = int(np.sum(iqrs("YW-CV") <= iqrs("YW-T")))
    ok = n_narrower > 6
    _report(6, "method comparison", ok,
            f"moment route narrower for {n_narrower}/12 (need majority)")
    assert n_narrower > 6


def test_criterion_07_gaussian_endpoint_sanity():
    """At the Gaussian endpoint the covariation is half the covariance and
    the 1-D sampler's variance is 2 sigma^2."""
    measure = DiscreteSpectralMeasure.symmetric(
        [[0.5, np.sqrt(3) / 2], [-0.5, np.sqrt(3) / 2]], [0.5, 0.2]
    )
    # exact identity on the true measure
    cov12 = 2.0 * float(np.sum(measure.weights * measure.points[:, 0] * measure.points[:, 1]))
    exact_gap = abs(cv_from_spectral(measure, 2.0) - cov12 / 2.0)

    # estimated route on a 10^5 sample
    z = sample_stable_vector(measure, 2.0, 10**5, RandomStream(2601))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank deficiency is expected here
        est = estimate_spectral_measure_2d(z, 2.0)
    half_cov = float(np.cov(z.T)[0, 1]) / 2.0
    rel = abs(cv_from_spectral(est, 2.0) - half_cov) / abs(half_cov)

    v1 = sample_sas_1d(StableParams(2.0, 1.0), 10**5, RandomStream(123).substream(1)).var()
    v2 = sample_sas_1d(StableParams(2.0, 1.7), 10**5, RandomStream(2602)).var()
    var_rel = max(abs(v1 - 2.0) / 2.0, abs(v2 - 2.0 * 1.7**2) / (2.0 * 1.7**2))

    ok = exact_gap < 1e-12 and rel <= 0.05 and var_rel <= 0.02
    _report(7, "gaussian endpoint", ok,
            f"covariation vs cov/2 rel {rel:.4f} (tol 0.05), "
            f"sampler variance rel {var_rel:.4f} (tol 0.02)")
    assert exact_gap < 1e-12
    assert rel <= 0.05
    assert var_rel <= 0.02


def test_criterion_08_characteristic_function_match():
    """Empirical vs analytic characteristic function of the benchmark
    noise on a 3x3 theta grid at n = 10^5."""
    model = model1_preset()
    z = sample_stable_vector(model.noise, model.alpha, 10**5, RandomStream(123).substream(4))
    grid = np.array([[t1, t2] for t1 in (-2.0, 0.0, 2.0) for t2 in (-2.0, 0.0, 2.0)])
    sup = float(
        np.max(
            np.abs(
                empirical_char_function(z, grid)
                - char_function(model.noise, model.alpha, grid)
            )
        )
    )
    ok = sup <= 0.02
    _report(8, "characteristic function", ok, f"sup dev {sup:.4f} over 9 points (tol 0.02)")
    assert sup <= 0.02


def test_criterion_09_column_solver_matches_direct():
    """Column-wise iterative solve equals the dense direct solve on 100
    well-conditioned systems; consistent singular systems solve to the
    solver tolerance."""
    gen = np.random.default_rng(7)
    worst = 0.0
    n_done = 0
    while n_done < 100:
        m = int(gen.integers(2, 7))
        m0 = gen.normal(size=(m, m))
        if np.linalg.cond(m0) > 100.0:
            continue
        m1 = gen.normal(size=(m, m)) @ m0
        rep = solution1(m0, m1)
        direct = np.linalg.solve(m0.T, m1.T).T
        worst = max(worst, float(np.max(np.abs(rep.solution - direct))))
        n_done += 1

    gen2 = np.random.default_rng(8)
    worst_res = 0.0
    for _ in range(20):
        u = gen2.normal(size=(4, 3))
        v = gen2.normal(size=(3, 4))
        m0 = u @ v  # rank 3
        m1 = gen2.normal(size=(4, 4)) @ m0  # in range: consistent
        rep = solution1(m0, m1)
        worst_res = max(
            worst_res,
            float(np.linalg.norm(rep.solution @ m0 - m1, "fro"))
            / float(np.linalg.norm(m1, "fro")),
        )
    ok = worst <= 1e-8 and worst_res <= 1e-10
    _report(9, "iterative vs direct solve", ok,
            f"max dev {worst:.2e} (tol 1e-8); singular residual {worst_res:.2e} (tol 1e-10)")
    assert worst <= 1e-8
    assert worst_res <= 1e-10


@pytest.mark.slow
def test_criterion_10_goodness_of_fit_test_size():
    """Size of the bootstrap goodness-of-fit test: 100 true-null samples
    (length 1000, index 1.5), 200 bootstrap simulations each; the 5%-level
    rejection rate must sit in [0.02, 0.10]."""
    base = RandomStream(501)
    rejections = 0
    for k in range(100):
        sample = sample_sas_1d(StableParams(1.5, 1.0), 1000, base.substream(k, 0))
        p = ad_stable_test(sample, n_sims=200, rng=base.substream(k, 1))
        rejections += p < 0.05
    rate = rejections / 100.0
    ok = 0.02 <= rate <= 0.10
    _report(10, "goodness-of-fit size", ok, f"rejection rate {rate:.3f} (band [0.02, 0.10])")
    assert 0.02 <= rate <= 0.10


def test_criterion_11_pipeline_round_trip():
    """Fit on simulated data, simulate from the fitted model, re-fit: the
    re-fit medians must land within 0.15 of the generating coefficients,
    and both quantile-band constructions must cover about 80% of
    self-simulated observations."""
    model = model1_preset()
    det0 = DeterministicComponents(
        period=3,
        intercept=[2.0, -1.0],
        slope=[0.001, 0.0],
        periodic_mean=[[0.5, -0.3, -0.2], [1.0, 0.0, -1.0]],
    )
    L = 3000
    data = one_path(model, L, RandomStream(21))
    obs = data.values + det0.evaluate(np.arange(1, L + 1))

    # marginal quantile-line coverage on data from the same model
    lines = simulate_quantile_lines(model, det0, q_list=[0.1, 0.5, 0.9], L=L)
    cover_lines = float(np.mean((obs >= lines.lines[0]) & (obs <= lines.lines[2])))

    # conditional one-step coverage
    osq = one_step_quantiles(
        model, det0, MultiTrajectory(values=obs), q_list=[0.1, 0.5, 0.9]
    )
    cover_step = float(
        np.mean((obs[:, 1:] >= osq.lines[0]) & (obs[:, 1:] <= osq.lines[2]))
    )

    # simulate-from-fitted re-fit round trip
    gen_fit = fit_par1(
        MultiTrajectory(values=obs), 3, method="yw-cv", n_sims=150, rng=RandomStream(30)
    )
    thetas = []
    for rep in range(50):
        sim = one_path(gen_fit.model, 2000, RandomStream(31).substream(rep))
        sim_obs = sim.values + gen_fit.deterministic.evaluate(np.arange(1, 2001))
        refit = fit_par1(
            MultiTrajectory(values=sim_obs), 3, method="yw-cv",
            n_sims=150, rng=RandomStream(32),
        )
        thetas.append(np.stack(refit.estimate.theta_hat))
    med = np.median(np.stack(thetas), axis=0)
    round_trip_dev = float(np.max(np.abs(med - np.stack(gen_fit.model.theta))))

    ok = (
        round_trip_dev <= 0.15
        and 0.75 <= cover_lines <= 0.85
        and 0.75 <= cover_step <= 0.85
    )
    _report(11, "pipeline round trip", ok,
            f"median dev {round_trip_dev:.4f} (tol 0.15); coverage lines "
            f"{cover_lines:.4f}, one-step {cover_step:.4f} (band 0.80 +/- 0.05)")
    assert round_trip_dev <= 0.15
    assert 0.75 <= cover_lines <= 0.85
    assert 0.75 <= cover_step <= 0.85
