"""Fitting pipeline: deterministic decomposition, residual diagnostics,
predictive model assembly, and quantile-line prediction."""

import dataclasses

import numpy as np
import pytest

from stablepar import pipeline
from stablepar.covariation import ncv_cross
from stablepar.estimators import EstimationResult, estimate, estimate_alpha
from stablepar.exceptions import DataError, NumericalError, UnboundedModelError
from stablepar.mc import model1_preset
from stablepar.par_model import MultiTrajectory, ParModel, check_boundedness
from stablepar.pipeline import (
    DeterministicComponents,
    QuantilePaths,
    build_predictive_model,
    diagnose_residuals,
    fit_deterministic,
    fit_model,
    fit_par1,
    one_step_quantiles,
    residuals_from_estimate,
    simulate_quantile_lines,
)
from stablepar.rng import RandomStream
from stablepar.stable import (
    ALPHA_FLOOR,
    DiscreteSpectralMeasure,
    StableParams,
    mcculloch_estimate,
    sample_sas_1d,
    sample_stable_vector,
    stable_quantile,
)

from oracles import is_symmetric, one_path, simulate_paths, theoretical_cv


def _zero_det(model):
    return DeterministicComponents(
        period=model.period,
        intercept=np.zeros(model.dim),
        slope=np.zeros(model.dim),
        periodic_mean=np.zeros((model.dim, model.period)),
    )


def _within_binomial_error(x, lines, q_arr, n_se=4.0):
    """The share of draws ``x`` (axis 0) at or below each exact quantile
    line is within ``n_se`` binomial standard errors of its order."""
    n = x.shape[0]
    for qi, q in enumerate(q_arr):
        share = np.mean(x <= lines[qi][None], axis=0)
        assert np.all(np.abs(share - q) <= n_se * np.sqrt(q * (1 - q) / n)), (q, share)


@pytest.fixture(scope="module")
def observed_model1():
    """Model-1 trajectory plus a known trend and seasonal profile."""
    m1 = model1_preset()
    traj = one_path(m1, 2000, RandomStream(43))
    t = np.arange(1, 2001)
    trend = np.vstack([1.0 + 0.002 * t, -0.5 + 0.0 * t])
    profile = np.array([[0.5, -0.3, -0.2], [1.0, 0.0, -1.0]])
    obs = traj.values + trend + profile[:, (t - 1) % 3]
    return m1, MultiTrajectory(values=obs)


@pytest.fixture(scope="module")
def iid_diagnostics():
    x = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(48).substream(0))
    y = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(48).substream(1))
    res = MultiTrajectory(values=np.vstack([x, y]))
    return diagnose_residuals(res, n_sims=100, rng=RandomStream(148))


class TestDeterministicComponents:
    def test_evaluate_combines_trend_and_profile(self):
        det = DeterministicComponents(
            period=2, intercept=[1.0], slope=[0.5], periodic_mean=[[0.2, -0.2]]
        )
        # t = 3 is phase 1: 1.0 + 0.5 * 3 + 0.2
        assert det.evaluate(np.array([3]))[0, 0] == pytest.approx(2.7)
        assert det.evaluate(np.array([4]))[0, 0] == pytest.approx(2.8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DeterministicComponents(
                period=3, intercept=[1.0], slope=[0.5], periodic_mean=[[0.2, -0.2]]
            )

    def test_dict_round_trip(self):
        det = DeterministicComponents(
            period=3,
            intercept=[1.0, -2.0],
            slope=[0.01, 0.0],
            periodic_mean=[[0.5, -0.3, -0.2], [1.0, 0.0, -1.0]],
        )
        back = DeterministicComponents.from_dict(det.to_dict())
        assert back.period == det.period
        assert np.array_equal(back.intercept, det.intercept)
        assert np.array_equal(back.slope, det.slope)
        assert np.array_equal(back.periodic_mean, det.periodic_mean)


class TestFitDeterministic:
    def test_pure_line_comes_back_as_trend(self):
        """A noiseless line must be absorbed entirely by the trend part:
        zero profile, zero residual (to rounding).  L is deliberately not
        a multiple of the period."""
        t = np.arange(1, 98)
        vals = np.vstack([2.0 + 0.3 * t, -1.0 - 0.05 * t])
        det, res = fit_deterministic(MultiTrajectory(values=vals), 4)
        assert np.allclose(det.slope, [0.3, -0.05], atol=1e-12)
        assert np.allclose(det.intercept, [2.0, -1.0], atol=1e-10)
        assert np.max(np.abs(det.periodic_mean)) < 1e-10
        assert np.max(np.abs(res.values)) < 1e-10

    def test_pure_periodic_comes_back_as_profile(self):
        """A zero-mean periodic pattern must be absorbed entirely by the
        profile: zero slope even though the trailing partial period leaves
        the phase counts unbalanced."""
        t = np.arange(1, 98)
        pat = np.array([1.0, -2.0, 0.5, 0.5])
        vals = np.vstack([pat[(t - 1) % 4], 2 * pat[(t - 1) % 4]])
        det, res = fit_deterministic(MultiTrajectory(values=vals), 4)
        assert np.max(np.abs(det.slope)) < 1e-12
        assert np.allclose(det.periodic_mean, np.vstack([pat, 2 * pat]), atol=1e-10)
        assert np.max(np.abs(res.values)) < 1e-10

    def test_profile_sums_to_zero(self):
        vals = RandomStream(50).generator().normal(size=(2, 53))
        det, _ = fit_deterministic(MultiTrajectory(values=vals), 4)
        assert np.allclose(det.periodic_mean.sum(axis=1), 0.0, atol=1e-10)

    def test_decomposition_is_exact(self):
        vals = RandomStream(51).generator().normal(size=(3, 41))
        traj = MultiTrajectory(values=vals, t0=7)
        det, res = fit_deterministic(traj, 5)
        recon = res.values + det.evaluate(np.arange(7, 48))
        assert np.allclose(recon, vals, atol=1e-12)

    def test_needs_two_periods(self):
        with pytest.raises(DataError):
            fit_deterministic(MultiTrajectory(values=np.ones((1, 7))), 4)


class TestDiagnoseResiduals:
    def test_marginal_fits(self, iid_diagnostics):
        assert np.allclose(iid_diagnostics.alphas, 1.8, atol=0.15)
        for p_val in iid_diagnostics.p_values:
            assert 0.0 <= p_val <= 1.0
            # correctly specified marginals should not be rejected here
            assert p_val > 0.05

    def test_dependence_curves(self, iid_diagnostics):
        rep = iid_diagnostics
        assert np.array_equal(rep.lags, np.arange(-10, 11))
        for i in range(2):
            curve = rep.ncv[(i, i)]
            assert curve[rep.lags == 0][0] == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(curve[rep.lags != 0])) < 0.15
        assert np.max(np.abs(rep.ncv[(0, 1)])) < 0.15

    def test_csv_outputs(self, iid_diagnostics, tmp_path):
        p1 = tmp_path / "diag.csv"
        p2 = tmp_path / "ncv.csv"
        iid_diagnostics.to_csv(p1)
        iid_diagnostics.ncv_to_csv(p2)
        head1 = p1.read_text().splitlines()[0]
        head2 = p2.read_text().splitlines()[0]
        assert head1 == "component,alpha_hat,sigma_hat,ad_p_value"
        assert head2 == "kind,i,j,lag,value"
        # 2 auto curves + 1 cross curve, 21 lags each
        assert len(p2.read_text().splitlines()) == 1 + 3 * 21

    def test_requires_enough_data(self):
        with pytest.raises(DataError):
            diagnose_residuals(MultiTrajectory(values=np.ones((1, 150))))

    def test_csv_order_and_plain_float_p_values(self, tmp_path):
        """Three components: ``ncv.csv`` lists the three auto curves, each
        bit for bit :func:`ncv_cross` of the component with itself, before
        the three cross curves, and
        ``diagnostics.csv`` writes each p-value as a plain float."""
        gen_stream = RandomStream(49)
        vals = np.vstack([sample_sas_1d(StableParams(1.8, 1.0), 300, gen_stream.substream(i))
                          for i in range(3)])
        res = MultiTrajectory(values=vals)
        rep = diagnose_residuals(res, h_max=2, n_sims=100, rng=RandomStream(149))
        assert all(type(p_val) is float for p_val in rep.p_values)
        for i in range(3):
            auto = [ncv_cross(np.ravel(vals[i]), 1, 1, h) for h in range(-2, 3)]
            assert np.array_equal(rep.ncv[(i, i)], auto)
        rep.ncv_to_csv(tmp_path / "ncv.csv")
        rows = [r.split(",") for r in (tmp_path / "ncv.csv").read_text().splitlines()[1:]]
        curves = [tuple(r[:3]) for r in rows[::5]]
        assert curves == [("auto", "1", "1"), ("auto", "2", "2"), ("auto", "3", "3"),
                          ("cross", "1", "2"), ("cross", "1", "3"), ("cross", "2", "3")]
        rep.to_csv(tmp_path / "diag.csv")
        rows = [r.split(",") for r in (tmp_path / "diag.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["x1", "x2", "x3"]
        assert [float(r[3]) for r in rows] == rep.p_values
        assert [r[3] for r in rows] == [repr(p_val) for p_val in rep.p_values]


class TestResiduals:
    def test_matches_hand_computation(self):
        est = EstimationResult(
            theta_hat=(np.array([[0.5]]), np.array([[-0.2]])), method="YW-CV"
        )
        traj = MultiTrajectory(values=np.array([[1.0, 2.0, 3.0, 4.0]]), t0=1)
        res = residuals_from_estimate(traj, est)
        # t=2 uses theta(2) = -0.2; t=3 uses theta(3) = theta(1) = 0.5; ...
        assert res.t0 == 2
        assert np.allclose(
            res.values[0], [2.0 + 0.2 * 1.0, 3.0 - 0.5 * 2.0, 4.0 + 0.2 * 3.0]
        )


    @pytest.mark.parametrize("t0", [5, 7, -4])
    def test_matches_per_step_loop(self, model1, t0):
        """Phase-by-phase residuals equal the per-step loop exactly, also
        when t0 is not 1 modulo the period."""
        traj = one_path(model1, 500, RandomStream(61))
        detrended = MultiTrajectory(values=traj.values, t0=t0)
        est = EstimationResult(
            theta_hat=tuple(th + 0.01 for th in model1.theta), method="YW-CV"
        )
        x = detrended.values
        loop = np.empty((2, 499))
        for k in range(1, 500):
            loop[:, k - 1] = x[:, k] - est.theta_at(t0 + k) @ x[:, k - 1]
        res = residuals_from_estimate(detrended, est)
        assert res.t0 == t0 + 1
        assert np.array_equal(res.values, loop)


class TestBuildPredictiveModel:
    def test_axis_fallback_for_three_components(self):
        """Above two dimensions the noise falls back to independent signed
        axis atoms reproducing the marginal scales."""
        gen_stream = RandomStream(52)
        vals = np.vstack(
            [
                sample_sas_1d(StableParams(1.6, s), 3000, gen_stream.substream(i))
                for i, s in enumerate((1.0, 2.0, 0.5))
            ]
        )
        res = MultiTrajectory(values=vals)
        est = EstimationResult(
            theta_hat=(np.zeros((3, 3)), np.zeros((3, 3))), method="YW-CV"
        )
        model = build_predictive_model(res, est)
        assert model.noise.n_atoms == 6
        assert is_symmetric(model.noise, tol=1e-12)
        # per-axis mass is sigma_i^alpha / 2, so the mass ordering must
        # follow the true scale ordering sigma = (1.0, 2.0, 0.5)
        axis = np.argmax(np.abs(model.noise.points), axis=1)
        mass = np.array([model.noise.weights[axis == k].sum() for k in range(3)])
        assert np.array_equal(np.argsort(mass), [2, 0, 1])

    def test_pair_measure_reproduces_residual_scales(self, model1):
        """The one joint noise fit of a two-component series is closed
        under negation, and its marginal scales
        ``(sum_a gamma_a |s_{a,r}|^alpha)^(1/alpha)`` match each residual
        component's quantile-based scale (within 2.3 % at these seeds)."""
        for seed in range(1, 6):
            fit = fit_model(one_path(model1, 3000, RandomStream(seed)), 3)
            noise, alpha = fit.model.noise, fit.model.alpha
            assert is_symmetric(noise, tol=1e-8), seed
            sigma = ((np.abs(noise.points) ** alpha).T @ noise.weights) ** (1.0 / alpha)
            marginal = [mcculloch_estimate(x).scale for x in fit.residuals.values]
            assert np.allclose(sigma, marginal, rtol=0.05, atol=0.0), (seed, sigma, marginal)

    def test_alpha_is_the_pooled_residual_index(self, model1, model2):
        """The predictive index is the median of the residual indices,
        :func:`estimate_alpha` of the residuals; for two components that
        is their mean, so model1 keeps the clipped mean bit for bit."""
        fit = fit_model(one_path(model2, 2000, RandomStream(7)), 2)
        assert fit.model.alpha == estimate_alpha(fit.residuals)
        fit = fit_model(one_path(model1, 3000, RandomStream(7)), 3)
        alphas = [mcculloch_estimate(x).alpha for x in fit.residuals.values]
        assert fit.model.alpha == float(np.clip(np.mean(alphas), ALPHA_FLOOR, 2.0))

    def test_alpha_clipped_into_valid_range(self, observed_model1):
        _, obs = observed_model1
        fr = fit_par1(obs, 3, n_sims=100, rng=RandomStream(44))
        assert 1.0 < fr.model.alpha <= 2.0


class TestFitPar1:
    def test_end_to_end_recovery(self, observed_model1):
        m1, obs = observed_model1
        fr = fit_par1(obs, 3, n_sims=100, rng=RandomStream(44))
        dev = np.max(np.abs(np.stack(fr.estimate.theta_hat) - np.stack(m1.theta)))
        assert dev < 0.25
        assert np.max(np.abs(fr.deterministic.slope - [0.002, 0.0])) < 0.01
        assert fr.model.alpha == pytest.approx(1.8, abs=0.15)
        assert fr.model.period == 3
        assert fr.residuals.length == fr.detrended.length - 1

    def test_method_selection(self, observed_model1):
        _, obs = observed_model1
        fr = fit_par1(obs, 3, method="yw-t", alpha=1.8, n_sims=100, rng=RandomStream(44))
        assert fr.estimate.method == "YW-T"
        with pytest.raises(ValueError):
            fit_par1(obs, 3, method="nope")

    @pytest.mark.parametrize("method", ["yw-cv", "yw-t"])
    def test_is_model_fit_plus_diagnostics(self, observed_model1, method):
        """Splitting off fit_model changes nothing: same coefficients and
        model, and the bootstrap p-values pinned at this seed (pinned again
        when the noise sampler folded its mirror atoms, and when the
        bootstrap began to stop at its tenth exceedance)."""
        _, obs = observed_model1
        fr = fit_par1(obs, 3, method=method, n_sims=100, rng=RandomStream(44))
        fm = fit_model(obs, 3, method=method)
        assert fm.diagnostics is None
        assert np.array_equal(np.stack(fr.estimate.theta_hat), np.stack(fm.estimate.theta_hat))
        assert fr.model.to_dict() == fm.model.to_dict()
        diag = diagnose_residuals(fm.residuals, n_sims=100, rng=RandomStream(44))
        assert fr.diagnostics.table_rows() == diag.table_rows()
        expected = {"yw-cv": [10 / 11, 10 / 20], "yw-t": [10 / 11, 10 / 19]}[method]
        assert fr.diagnostics.p_values == expected


class TestFitModelEdges:
    def test_four_periods_fail_at_the_quantile_floor(self, model1):
        """L = 4T passes the estimator's floor, but the 11 residuals
        fall short of the 100 observations a quantile fit needs."""
        traj = one_path(model1, 12, RandomStream(0))
        with pytest.raises(DataError, match=r"\(L >= 101\), got L = 12$"):
            fit_model(traj, 3, "yw-cv")

    def test_quantile_floor_is_checked_before_estimating(self, model1, monkeypatch):
        """100 rows pass YW-CV's floor (4T = 12) but leave 99 residuals:
        the fit refuses them before it estimates anything."""
        traj = one_path(model1, 100, RandomStream(0))

        def no_estimate(*args, **kwargs):
            raise AssertionError("estimate called below the fit floor")

        monkeypatch.setattr(pipeline, "estimate", no_estimate)
        with pytest.raises(DataError, match=r"\(L >= 101\), got L = 100$"):
            fit_model(traj, 3, "yw-cv")

    @pytest.mark.parametrize("t0", [1, 2])
    @pytest.mark.parametrize("L", [150, 200])
    def test_diagnostic_floor_is_checked_before_estimating(
        self, model1, monkeypatch, L, t0
    ):
        """``fit_par1`` leaves L - 1 residuals, from whatever phase the
        series starts in; below MIN_DIAGNOSTIC_RESIDUALS it refuses the
        series before it estimates anything."""
        traj = one_path(model1, L, RandomStream(0))

        def no_estimate(*args, **kwargs):
            raise AssertionError("estimate called below the fit floor")

        monkeypatch.setattr(pipeline, "estimate", no_estimate)
        with pytest.raises(DataError, match=rf"\(L >= 201\), got L = {L}$"):
            fit_par1(MultiTrajectory(traj.values, t0=t0), 3, n_sims=100)

    @pytest.mark.parametrize("t0", [1, 2])
    def test_diagnostic_floor_admits_201_rows(self, model1, t0):
        assert pipeline.MIN_DIAGNOSTIC_RESIDUALS == 200
        traj = one_path(model1, 201, RandomStream(0))
        fit = fit_par1(MultiTrajectory(traj.values, t0=t0), 3, n_sims=100)
        assert fit.residuals.length == 200
        assert len(fit.diagnostics.params) == len(fit.diagnostics.p_values) == 2

    @pytest.mark.parametrize("h_max", [-1, 200, 5000])
    def test_h_max_is_checked_before_estimating(self, model1, monkeypatch, h_max):
        """201 rows leave 200 residuals, so the lags -h_max..h_max fit only
        for h_max in [0, 199]: ``fit_par1`` refuses any other before it
        estimates anything, and ``diagnose_residuals`` before its
        bootstrap."""
        traj = one_path(model1, 201, RandomStream(0))
        residuals = fit_model(traj, 3, "yw-cv").residuals

        def no_call(*args, **kwargs):
            raise AssertionError("called with an out-of-range h_max")

        monkeypatch.setattr(pipeline, "estimate", no_call)
        monkeypatch.setattr(pipeline, "ad_stable_test", no_call)
        message = rf"^h_max must lie in \[0, 199\] for 200 residuals, got {h_max}$"
        with pytest.raises(ValueError, match=message):
            fit_par1(traj, 3, h_max=h_max, n_sims=100)
        with pytest.raises(ValueError, match=message):
            diagnose_residuals(residuals, h_max=h_max, n_sims=100)

    @pytest.mark.parametrize("n_sims", [0, 50, 99])
    def test_n_sims_is_checked_before_estimating(self, model1, monkeypatch, n_sims):
        """A bootstrap below MIN_GOF_SIMS is refused by ``fit_par1`` before
        it estimates anything, and by ``diagnose_residuals`` before its
        bootstrap."""
        traj = one_path(model1, 201, RandomStream(0))
        residuals = fit_model(traj, 3, "yw-cv").residuals

        def no_call(*args, **kwargs):
            raise AssertionError("called with too few bootstrap simulations")

        monkeypatch.setattr(pipeline, "estimate", no_call)
        monkeypatch.setattr(pipeline, "ad_stable_test", no_call)
        message = rf"^need at least 100 bootstrap simulations, got {n_sims}$"
        with pytest.raises(DataError, match=message):
            fit_par1(traj, 3, n_sims=n_sims)
        with pytest.raises(DataError, match=message):
            diagnose_residuals(residuals, n_sims=n_sims)

    def test_h_max_admits_one_less_than_the_residuals(self, model1):
        traj = one_path(model1, 201, RandomStream(0))
        fit = fit_par1(traj, 3, h_max=199, n_sims=100)
        assert fit.diagnostics.lags.tolist() == list(range(-199, 200))
        assert all(np.all(np.isfinite(c)) for c in fit.diagnostics.ncv.values())

    def test_pooled_alpha_at_the_gaussian_endpoint(self, model1):
        """Gaussian data pool to alpha-hat = 2, where the noise fit warns
        that its design is rank-deficient; the bands stay finite."""
        traj = one_path(dataclasses.replace(model1, alpha=2.0), 2000, RandomStream(2))
        with pytest.warns(UserWarning, match="rank-deficient"):
            fit = fit_model(traj, 3, "yw-cv")
        assert fit.model.alpha == 2.0
        q = (0.05, 0.5, 0.95)
        lines = simulate_quantile_lines(fit.model, fit.deterministic, q, 30)
        one_step = one_step_quantiles(fit.model, fit.deterministic, traj, q)
        assert np.all(np.isfinite(lines.lines)) and np.all(np.isfinite(one_step.lines))

    @pytest.mark.parametrize("alpha", [1.05, 1.02])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_index_near_one_stays_finite(self, model1, alpha, seed):
        """Near the Cauchy end both estimators give finite coefficients,
        YW-T's pooled index stays just above the floor, and a YW-T fit
        gives finite quantile lines."""
        traj = one_path(dataclasses.replace(model1, alpha=alpha), 1200, RandomStream(seed))
        assert np.all(np.isfinite(estimate(traj, 3, "yw-cv").theta_hat))
        yw_t = estimate(traj, 3, "yw-t")
        assert np.all(np.isfinite(yw_t.theta_hat))
        assert ALPHA_FLOOR <= yw_t.alpha_used < 1.1
        fit = fit_model(traj, 3, "yw-t")
        lines = simulate_quantile_lines(fit.model, fit.deterministic, (0.05, 0.5, 0.95), 30)
        assert np.all(np.isfinite(lines.lines))

    @pytest.mark.filterwarnings("ignore:projection-scale system is rank-deficient")
    @pytest.mark.parametrize("method", ["yw-cv", "yw-t"])
    def test_near_unit_root_gives_bands_or_a_named_error(self, model1, method):
        """A non-diagonal period-2 model with monodromy radius 0.99: a
        fitted model may land past the unit circle, but every run ends in
        finite bands from both builders or in a named error, never in a
        NaN; at least one of three seeds gives bands."""
        theta = [np.array([[0.5, 0.3], [0.2, 0.4]]), np.array([[1.2, -0.3], [0.4, 1.1]])]
        rho = check_boundedness(ParModel(2, theta, 1.5, model1.noise)).spectral_radius
        model = ParModel(2, [th * np.sqrt(0.99 / rho) for th in theta], 1.5, model1.noise)
        assert check_boundedness(model).spectral_radius == pytest.approx(0.99, rel=1e-12)
        q = (0.05, 0.5, 0.95)
        banded = 0
        for seed in (1, 2, 3):
            traj = one_path(model, 3000, RandomStream(seed))
            try:
                fit = fit_model(traj, 2, method)
                lines = simulate_quantile_lines(fit.model, fit.deterministic, q, 30)
                one_step = one_step_quantiles(fit.model, fit.deterministic, traj, q)
            except (UnboundedModelError, NumericalError):
                continue
            assert np.all(np.isfinite(lines.lines)) and np.all(np.isfinite(one_step.lines))
            banded += 1
        assert banded >= 1


class TestQuantilePaths:
    def test_monotonicity_enforced(self):
        lines = np.zeros((2, 1, 4))
        lines[0] = 1.0  # q=0.1 line above q=0.9 line
        with pytest.raises(ValueError):
            QuantilePaths(t0=1, quantiles=(0.1, 0.9), lines=lines)

    def test_line_accessor(self):
        lines = np.arange(8.0).reshape(2, 1, 4)
        qp = QuantilePaths(t0=3, quantiles=(0.1, 0.9), lines=lines)
        assert np.array_equal(qp.line(0.9, 1), [4.0, 5.0, 6.0, 7.0])
        with pytest.raises(KeyError):
            qp.line(0.5, 1)

    @pytest.mark.parametrize("component", [0, 3])
    def test_line_refuses_a_component_outside_1_to_m(self, component):
        """Component 0 would wrap to the last line and 3 would be past it."""
        qp = QuantilePaths(t0=1, quantiles=(0.5,), lines=np.zeros((1, 2, 4)))
        with pytest.raises(ValueError, match=rf"^component must lie in 1\.\.2, got {component}$"):
            qp.line(0.5, component)

    def test_csv_header(self, tmp_path):
        lines = np.arange(8.0).reshape(2, 1, 4)
        qp = QuantilePaths(t0=3, quantiles=(0.1, 0.9), lines=lines)
        path = tmp_path / "lines.csv"
        qp.to_csv(path)
        rows = path.read_text().splitlines()
        assert rows[0] == "t,x1_q0.1,x1_q0.9"
        assert rows[1].startswith("3,")
        assert len(rows) == 5


class TestSimulateQuantileLines:
    def test_degenerate_noise_collapses_to_deterministic(self):
        """With zero coefficients and vanishing noise mass every path sits
        on the deterministic skeleton, so all quantile lines coincide
        with it."""
        tiny = ParModel(
            period=2,
            theta=(np.zeros((2, 2)), np.zeros((2, 2))),
            alpha=1.5,
            noise=DiscreteSpectralMeasure.symmetric(
                [[1.0, 0.0], [0.0, 1.0]], [1e-30, 1e-30]
            ),
        )
        det = DeterministicComponents(
            period=2,
            intercept=[1.0, -2.0],
            slope=[0.1, 0.0],
            periodic_mean=[[0.3, -0.3], [0.0, 0.0]],
        )
        qp = simulate_quantile_lines(tiny, det, q_list=[0.1, 0.5, 0.9], L=10)
        expected = det.evaluate(np.arange(1, 11))
        assert np.max(np.abs(qp.lines - expected[None])) < 1e-9

    def test_deterministic_and_ordered(self, observed_model1):
        m1, _ = observed_model1
        det = _zero_det(m1)
        a = simulate_quantile_lines(m1, det, q_list=[0.1, 0.5, 0.9], L=12)
        b = simulate_quantile_lines(m1, det, q_list=[0.1, 0.5, 0.9], L=12)
        assert np.array_equal(a.lines, b.lines)
        assert np.all(a.lines[0] < a.lines[1])
        assert np.all(a.lines[1] < a.lines[2])

    def test_input_validation(self, model1):
        det = _zero_det(model1)
        for q_list in ([0.0], [0.5, 1.0], []):
            with pytest.raises(ValueError):
                simulate_quantile_lines(model1, det, q_list=q_list, L=5)
        with pytest.raises(ValueError):
            simulate_quantile_lines(model1, det, q_list=[0.5], L=0)

    def test_repeated_orders_are_refused(self, model1, observed_model1):
        """Both band builders refuse an order given twice, which would
        write two identical columns."""
        det = _zero_det(model1)
        with pytest.raises(ValueError, match="^quantile order 0.9 is given more than once$"):
            simulate_quantile_lines(model1, det, q_list=[0.9, 0.5, 0.9], L=5)
        traj = MultiTrajectory(observed_model1[1].values[:, :50])
        with pytest.raises(ValueError, match="^quantile order 0.25 is given more than once$"):
            one_step_quantiles(model1, det, traj, q_list=[0.25, 0.75, 0.25])

    @pytest.mark.parametrize("L", [20, 4000])
    def test_unbounded_model_is_named(self, L):
        """Theta = 1.2 I has no bounded solution.  Without the check the
        bands reach 2.4e10 at L=20 and overflow at L=4000."""
        model = ParModel(
            period=2,
            theta=(1.2 * np.eye(2), 1.2 * np.eye(2)),
            alpha=1.5,
            noise=DiscreteSpectralMeasure.symmetric(np.eye(2), [1.0, 1.0]),
        )
        with pytest.raises(UnboundedModelError):
            simulate_quantile_lines(model, _zero_det(model), q_list=[0.1, 0.9], L=L)

    def test_near_unit_monodromy_is_named(self, model1):
        """A bounded model whose scale series cannot converge in the
        period cap fails with the monodromy radius in the message."""
        near = ParModel(
            period=3,
            theta=(np.array([[0.99999, 0.2], [0.0, 0.5]]), np.eye(2), np.eye(2)),
            alpha=model1.alpha,
            noise=model1.noise,
        )
        with pytest.raises(NumericalError, match="monodromy spectral radius 0.99999"):
            simulate_quantile_lines(near, _zero_det(near), q_list=[0.9], L=3)

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_scales_match_theoretical_cv(self, preset, request):
        """Band minus median over z_q is the stationary scale, whose
        alpha-th power is the covariation norm CV(X_r(v), X_r(v))."""
        model = request.getfixturevalue(preset)
        qp = simulate_quantile_lines(model, _zero_det(model), q_list=[0.5, 0.9], L=model.period)
        z = stable_quantile(StableParams(model.alpha, 1.0), 0.9)
        for v in range(1, model.period + 1):
            for r in range(1, model.dim + 1):
                cv = theoretical_cv(model, r, r, v, v)
                assert qp.lines[0, r - 1, v - 1] == 0.0
                assert qp.lines[1, r - 1, v - 1] / z == pytest.approx(
                    cv ** (1.0 / model.alpha), rel=1e-9
                )

    @pytest.mark.parametrize("preset, seed", [("model1", 61), ("model2", 62)])
    def test_agrees_with_simulated_paths(self, preset, seed, request):
        """20 000 stationary paths from the test-only ``simulate_paths``
        oracle fall below each exact line at its order's rate, within 4
        binomial standard errors."""
        model = request.getfixturevalue(preset)
        T, q_arr = model.period, [0.05, 0.1, 0.5, 0.9, 0.95]
        burn_in = 60 * T
        paths = simulate_paths(
            model, np.zeros(model.dim), 0, burn_in + T, 20_000, RandomStream(seed)
        )[:, :, burn_in:]  # times burn_in + 1 .. burn_in + T: phases 1..T
        qp = simulate_quantile_lines(model, _zero_det(model), q_list=q_arr, L=T)
        _within_binomial_error(paths, qp.lines, q_arr)


class TestOneStepQuantiles:
    def test_median_tracks_conditional_predictor(self, observed_model1):
        """Symmetric noise has zero median, so the central line must ride on
        Theta-hat(t) (x(t-1) - det(t-1)) + det(t)."""
        m1, obs = observed_model1
        fr = fit_model(obs, 3)
        osq = one_step_quantiles(fr.model, fr.deterministic, obs, q_list=[0.1, 0.5, 0.9])
        t = np.arange(1, obs.length + 1)
        cen = obs.values - fr.deterministic.evaluate(t)
        preds = np.stack(
            [
                fr.model.theta_at(int(t[k])) @ cen[:, k - 1]
                + fr.deterministic.evaluate(np.array([int(t[k])]))[:, 0]
                for k in range(1, obs.length)
            ],
            axis=1,
        )
        assert osq.t0 == obs.t0 + 1
        assert np.max(np.abs(osq.lines[1] - preds)) < 1e-12
        assert np.all(osq.lines[0] < osq.lines[2])

    @pytest.mark.parametrize("preset, seed", [("model1", 63), ("model2", 64)])
    def test_noise_quantiles_match_sampler(self, preset, seed, request):
        """From a zero state the one-step bands are the noise quantiles:
        20 000 ``sample_stable_vector`` draws fall below them at the
        right rate, within 4 binomial standard errors."""
        model = request.getfixturevalue(preset)
        q_arr = [0.05, 0.1, 0.5, 0.9, 0.95]
        obs = MultiTrajectory(values=np.zeros((model.dim, 2)))
        osq = one_step_quantiles(model, _zero_det(model), obs, q_list=q_arr)
        z = sample_stable_vector(model.noise, model.alpha, 20_000, RandomStream(seed))
        _within_binomial_error(z, osq.lines[:, :, 0], q_arr)
