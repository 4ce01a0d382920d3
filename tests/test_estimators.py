"""Coefficient estimation: exact recovery from exact matrices, invariances,
both estimation routes on simulated data, and the result container."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablepar.estimators as estimators
from stablepar.covariation import (
    _phase_samples,
    cv_phase_matrix_spectral,
    ncv_phase_matrix,
)
from stablepar.estimators import (
    EstimationResult,
    estimate,
    estimate_alpha,
    estimate_block,
    method_name,
    theta_from_cov_matrices,
    yw_cv_estimate,
    yw_t_estimate,
)
from stablepar.exceptions import DataError, DegenerateSeriesError, NumericalError, SolverError
from stablepar.mc import REPLICATE_BLOCK
from stablepar.par_model import MultiTrajectory, ParModel, simulate_par1
from stablepar.rng import RandomStream
from stablepar.stable import DiscreteSpectralMeasure

from oracles import one_path, theoretical_phase_matrix


class TestEstimationResult:
    def test_theta_at_wraps(self, model1):
        res = EstimationResult(theta_hat=model1.theta, method="YW-CV")
        assert np.array_equal(res.theta_at(1), model1.theta[0])
        assert np.array_equal(res.theta_at(4), model1.theta[0])
        assert np.array_equal(res.theta_at(0), model1.theta[2])
        assert res.period == 3
        assert res.dim == 2

    def test_rejects_non_square_or_non_finite(self):
        with pytest.raises(ValueError):
            EstimationResult(theta_hat=(np.ones((2, 3)),), method="YW-CV")
        with pytest.raises(ValueError):
            EstimationResult(theta_hat=(np.array([[np.nan]]),), method="YW-CV")

    def test_csv_round_trip(self, tmp_path, model2):
        res = EstimationResult(theta_hat=model2.theta, method="YW-T", alpha_used=1.8)
        path = tmp_path / "coef.csv"
        res.to_csv(path)
        back = EstimationResult.from_csv(path, method="YW-T")
        assert back.period == res.period
        for a, b in zip(back.theta_hat, res.theta_hat):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("method, expected", [
        ("yw_t", "YW-T"), (" yw-cv ", "YW-CV"), ("YW-T", "YW-T"), ("nonsense", None),
    ])
    def test_method_is_read_by_method_name(self, tmp_path, model2, method, expected):
        """Every spelling ``method_name`` accepts is stored as its METHODS
        name, also through ``from_csv``; any other name is refused."""
        path = tmp_path / "coef.csv"
        EstimationResult(theta_hat=model2.theta, method="YW-T").to_csv(path)
        if expected is None:
            with pytest.raises(ValueError, match="unknown method 'nonsense'"):
                EstimationResult.from_csv(path, method=method)
        else:
            assert EstimationResult.from_csv(path, method=method).method == expected
            assert EstimationResult(theta_hat=model2.theta, method=method).method == expected

    def test_from_csv_skips_a_byte_order_mark(self, tmp_path, model2):
        path = tmp_path / "coef.csv"
        EstimationResult(theta_hat=model2.theta, method="YW-T").to_csv(path)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        want, got = EstimationResult.from_csv(path), EstimationResult.from_csv(marked)
        assert got.period == want.period
        for a, b in zip(got.theta_hat, want.theta_hat):
            assert np.array_equal(a, b)

    def test_from_csv_rejects_non_square_layout(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("v,theta_11,theta_12\n1,0.5,0.2\n")
        with pytest.raises(DataError, match="square"):
            EstimationResult.from_csv(path)

    @pytest.mark.parametrize(
        "rows", ["2,0.5\n1,0.25\n", "1,0.5\n3,0.25\n", "0,0.5\n", "x,0.5\n"],
        ids=["swapped", "gap", "zero", "label"],
    )
    def test_from_csv_requires_phases_in_order(self, tmp_path, rows):
        """Rows are never reassigned to phases: ``v`` must read 1..T."""
        path = tmp_path / "coef.csv"
        path.write_text("v,theta_11\n" + rows)
        with pytest.raises(DataError, match="coef.csv.*'v'"):
            EstimationResult.from_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "phase,theta_11\n1,0.5\n",
            "v,theta_11,theta_12,theta_21,theta_22\n1,0.5,0.1,oops,0.3\n",
            "v,theta_11,theta_12,theta_21,theta_22\n1,0.5,0.1,0.2,0.3\n2,0.5,0.1\n",
        ],
        ids=["header", "text-cell", "short-row"],
    )
    def test_from_csv_malformed_is_data_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError):
            EstimationResult.from_csv(path)


class TestExactRecovery:
    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_theoretical_matrices_recover_coefficients(self, preset, request):
        """The estimating systems are exact identities of the model: feeding
        exact dependence matrices returns the exact coefficients."""
        model = request.getfixturevalue(preset)
        phases = range(1, model.period + 1)
        m0s = [theoretical_phase_matrix(model, v - 1, 0) for v in phases]
        m1s = [theoretical_phase_matrix(model, v, 1) for v in phases]
        res = theta_from_cov_matrices(m0s, m1s)
        for v in range(model.period):
            assert np.allclose(res.theta_hat[v], model.theta[v], atol=1e-10)
        assert all(rep.converged for rep in res.solve_reports)

    def test_column_scaling_cancels(self, model1):
        """Rescaling column l of both matrices by any positive factor leaves
        the solution unchanged — the algebraic fact that lets normalized
        and unnormalized covariation matrices feed the same solve."""
        m0 = theoretical_phase_matrix(model1, 0, 0)
        m1 = theoretical_phase_matrix(model1, 1, 1)
        d = np.diag([3.7, 0.04])
        plain = theta_from_cov_matrices([m0], [m1]).theta_hat[0]
        scaled = theta_from_cov_matrices([m0 @ d], [m1 @ d]).theta_hat[0]
        assert np.allclose(plain, scaled, atol=1e-12)

    def test_singular_phase_alone_takes_the_fallback(self, model1):
        """A consistent singular phase-2 system goes to BiCGSTAB; the
        other phases keep the direct solve and their exact coefficients."""
        m0s = [theoretical_phase_matrix(model1, v - 1, 0) for v in (1, 2, 3)]
        m1s = [theoretical_phase_matrix(model1, v, 1) for v in (1, 2, 3)]
        m0s[1] = np.ones((2, 2))
        m1s[1] = model1.theta[1] @ m0s[1]
        res = theta_from_cov_matrices(m0s, m1s)
        assert [r.method for r in res.solve_reports] == ["direct", "bicgstab", "direct"]
        assert all(rep.converged for rep in res.solve_reports)
        np.testing.assert_allclose(res.theta_hat[1] @ m0s[1], m1s[1], atol=1e-10)
        for v in (0, 2):
            assert np.allclose(res.theta_hat[v], model1.theta[v], atol=1e-10)

    @pytest.mark.parametrize("method", ["YW-CV", "YW-T"])
    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_driver_equals_public_phase_matrices(self, preset, method, request):
        """The block driver solves, bit for bit, the systems of the public
        per-(v, h) matrices: lag 0 at phase v - 1 (phase 0 at v = 1) and
        lag 1 at phase v."""
        model = request.getfixturevalue(preset)
        T = model.period
        traj = one_path(model, 1200, RandomStream(5))
        build = (ncv_phase_matrix if method == "YW-CV"
                 else partial(cv_phase_matrix_spectral, alpha=model.alpha))

        def matrix(v, h):
            out, failed = build(*_phase_samples(traj.values[None], T, v, h))
            assert not failed
            return out[0]

        ref = theta_from_cov_matrices(
            [matrix(v - 1, 0) for v in range(1, T + 1)],
            [matrix(v, 1) for v in range(1, T + 1)],
        )
        got = estimate(traj, T, method, alpha=model.alpha)
        assert np.array_equal(np.stack(got.theta_hat), np.stack(ref.theta_hat))

    def test_non_finite_phase_matrix_raises_naming_it(self, model1):
        """An inf in phase 2's m0 is an error, not a zero Theta(2) from a
        fallback that did not converge."""
        m0s = [theoretical_phase_matrix(model1, v - 1, 0) for v in (1, 2, 3)]
        m1s = [theoretical_phase_matrix(model1, v, 1) for v in (1, 2, 3)]
        m0s[1] = m0s[1].copy()
        m0s[1][0, 1] = np.inf
        with pytest.raises(SolverError, match="^non-finite entries in m0; "):
            theta_from_cov_matrices(m0s, m1s)

    def test_mismatched_matrix_lists(self, model1):
        m0 = theoretical_phase_matrix(model1, 0, 0)
        with pytest.raises(ValueError):
            theta_from_cov_matrices([m0], [])


class TestYwCvEstimate:
    def test_univariate_reduces_to_scalar_ratio(self):
        """For m = 1 each phase system is one scalar equation, so the
        estimate equals the ratio of the phase lag-1 to lag-0 normalized
        covariations computed directly."""
        model = ParModel(
            period=2,
            theta=(np.array([[0.6]]), np.array([[-0.4]])),
            alpha=1.7,
            noise=DiscreteSpectralMeasure.symmetric([[1.0]], [0.5]),
        )
        traj = one_path(model, 4000, RandomStream(14))
        res = yw_cv_estimate(traj, 2)
        for v in (1, 2):
            num = ncv_phase_matrix(*_phase_samples(traj.values[None], 2, v, 1))[0][0, 0, 0]
            den = ncv_phase_matrix(*_phase_samples(traj.values[None], 2, v - 1, 0))[0][0, 0, 0]
            assert res.theta_hat[v - 1][0, 0] == pytest.approx(num / den, rel=1e-10)

    def test_permutation_equivariance(self, model1):
        """Relabeling components permutes the estimate's rows and columns
        accordingly: estimating on (x2, x1) gives P Theta P^T."""
        traj = one_path(model1, 3000, RandomStream(15))
        swapped = MultiTrajectory(values=traj.values[::-1].copy(), t0=traj.t0)
        res = yw_cv_estimate(traj, 3)
        res_sw = yw_cv_estimate(swapped, 3)
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        for v in range(3):
            assert np.allclose(
                res_sw.theta_hat[v], p @ res.theta_hat[v] @ p.T, atol=1e-10
            )

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_diagonal_scaling_equivariance(self, preset, request):
        """Scaling the components by D maps the estimate to D Theta D^-1,
        exact to rounding (Kruczek et al. 2017)."""
        model = request.getfixturevalue(preset)
        traj = one_path(model, 3000, RandomStream(18))
        d = np.array([0.01, 250.0, 3.0])[: model.dim]
        scaled = MultiTrajectory(values=d[:, None] * traj.values, t0=traj.t0)
        res = yw_cv_estimate(traj, model.period)
        res_sc = yw_cv_estimate(scaled, model.period)
        for v in range(model.period):
            expected = d[:, None] * res.theta_hat[v] / d[None, :]
            np.testing.assert_allclose(res_sc.theta_hat[v], expected, rtol=1e-12, atol=0)

    def test_recovers_model1_on_moderate_sample(self, model1):
        traj = one_path(model1, 10**4, RandomStream(16))
        res = yw_cv_estimate(traj, 3)
        dev = np.max(np.abs(np.stack(res.theta_hat) - np.stack(model1.theta)))
        assert dev < 0.2
        assert res.method == "YW-CV"
        assert len(res.solve_reports) == 3

    def test_too_short_series(self, model1):
        traj = one_path(model1, 50, RandomStream(17))
        short = MultiTrajectory(values=traj.values[:, :11])
        with pytest.raises(DataError):
            yw_cv_estimate(short, 3)

    def test_degenerate_phase_names_the_phase(self):
        # component 1 is identically zero on phase 1 (t = 1, 3, 5, ...)
        vals = RandomStream(18).generator().normal(size=(2, 100))
        vals[0, ::2] = 0.0
        # phase 2's system conditions on phase 1, the vanishing sub-sample
        with pytest.raises(
            DegenerateSeriesError,
            match="^phase 2: phase-1 sub-sample of component 1 is identically zero$",
        ):
            yw_cv_estimate(MultiTrajectory(values=vals), 2)
        # phase 1's system conditions on phase T = 2
        with pytest.raises(DegenerateSeriesError, match="^phase 1: phase-2 sub-sample "):
            yw_cv_estimate(MultiTrajectory(values=vals[:, 1:]), 2)


def _block(model, M, L=300, seed=23):
    return simulate_par1(model, L, [RandomStream(seed).substream(i) for i in range(M)])


class TestYwCvBlock:
    """YW-CV on replicate blocks: the ``"YW-CV"`` case of :func:`estimate_block`."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_bit_identical_to_per_replicate_estimate(self, preset, alpha, request):
        model = replace(request.getfixturevalue(preset), alpha=alpha)
        values = _block(model, REPLICATE_BLOCK + 3)
        block = estimate_block(values, model.period, "YW-CV")
        assert block.failures == {}
        for k, row in enumerate(values):
            single = yw_cv_estimate(MultiTrajectory(values=row), model.period)
            assert np.array_equal(block.theta[k], np.stack(single.theta_hat)), k
            assert [(r.method, r.residual_norm, r.detail) for r in block.solve_reports[k]] == [
                (r.method, r.residual_norm, r.detail) for r in single.solve_reports
            ]

    def test_zero_component_fails_only_its_replicate(self, model1):
        values = _block(model1, 6)
        clean = estimate_block(values, 3, "YW-CV")
        # component 1 of replicate 4 vanishes on phase 1 (t = 1, 4, 7, ...),
        # which conditions the lag-1 system of phase 2
        values[4, 0, ::3] = 0.0
        block = estimate_block(values, 3, "YW-CV")
        assert list(block.failures) == [4]
        phase, exc = block.failures[4]
        assert phase == 2 and isinstance(exc, DegenerateSeriesError)
        assert str(exc) == "phase 2: phase-1 sub-sample of component 1 is identically zero"
        with pytest.raises(DegenerateSeriesError, match="^phase 2: "):
            yw_cv_estimate(MultiTrajectory(values=values[4]), 3)
        assert np.all(np.isnan(block.theta[4])) and block.solve_reports[4] == []
        others = [0, 1, 2, 3, 5]
        assert np.array_equal(block.theta[others], clean.theta[others])

    def test_degenerate_phase_names_the_lagged_phase(self, model1):
        """Replicate w - 1 has component 2 vanish on phase w.  Phase w
        conditions the systems of phase w + 1 (phase 1 for w = T), and the
        failure names phase w, the vanishing sub-sample's phase."""
        values = _block(model1, 4)
        for w in (1, 2, 3):
            values[w - 1, 1, w - 1 :: 3] = 0.0
        block = estimate_block(values, 3, "YW-CV")
        assert sorted(block.failures) == [0, 1, 2]
        for w in (1, 2, 3):
            phase, exc = block.failures[w - 1]
            assert phase == w % 3 + 1 and isinstance(exc, DegenerateSeriesError)
            assert str(exc) == (f"phase {phase}: phase-{w} sub-sample "
                                "of component 2 is identically zero")

    def test_singular_replicate_alone_takes_the_fallback(self, model1):
        values = _block(model1, 5)
        values[2, 1] = values[2, 0]  # component 2 = component 1: m0 is singular
        block = estimate_block(values, 3, "YW-CV")
        assert block.failures == {}
        for k, reports in enumerate(block.solve_reports):
            expected = "bicgstab" if k == 2 else "direct"
            assert [r.method for r in reports] == [expected] * 3, k
        single = yw_cv_estimate(MultiTrajectory(values=values[2]), 3)
        assert np.array_equal(block.theta[2], np.stack(single.theta_hat))

    def test_one_condition_estimate_per_block(self, model1, monkeypatch):
        """The singular replicate's fallback phases reuse the block's one
        stacked condition estimate."""
        values = _block(model1, 5)
        values[2, 1] = values[2, 0]
        calls, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(a) or cond(*a, **k))
        assert estimate_block(values, 3, "YW-CV").failures == {}
        assert len(calls) == 1

    def test_rejects_non_finite_and_short_blocks(self, model1):
        values = _block(model1, 3)
        with pytest.raises(DataError):
            estimate_block(values[:, :, :11], 3, "YW-CV")
        values[1, 0, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            estimate_block(values, 3, "YW-CV")


class TestYwTEstimate:
    def test_recovers_model1_with_known_alpha(self, model1):
        traj = one_path(model1, 10**4, RandomStream(16))
        res = yw_t_estimate(traj, 3, alpha=1.8)
        dev = np.max(np.abs(np.stack(res.theta_hat) - np.stack(model1.theta)))
        assert dev < 0.25
        assert res.method == "YW-T"
        assert res.alpha_used == 1.8

    def test_alpha_estimated_when_not_given(self, model1):
        traj = one_path(model1, 3000, RandomStream(19))
        res = yw_t_estimate(traj, 3)
        assert res.alpha_used is not None
        assert 1.0 < res.alpha_used <= 2.0

    def test_rejects_alpha_out_of_range(self, model1):
        traj = one_path(model1, 500, RandomStream(19))
        with pytest.raises(ValueError):
            yw_t_estimate(traj, 3, alpha=0.8)

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_permutation_equivariance(self, preset, request):
        """Relabeling the components permutes the estimate's rows and
        columns accordingly, exact to rounding."""
        model = request.getfixturevalue(preset)
        traj = one_path(model, 3000, RandomStream(15))
        perm = np.roll(np.arange(model.dim), 1)
        permuted = MultiTrajectory(values=traj.values[perm], t0=traj.t0)
        res = np.stack(yw_t_estimate(traj, model.period, alpha=1.8).theta_hat)
        res_p = np.stack(yw_t_estimate(permuted, model.period, alpha=1.8).theta_hat)
        expected = res[:, perm][:, :, perm]
        assert np.abs(res_p - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_common_scaling_invariance(self, preset, request):
        """Scaling the whole series by one factor scales every covariation
        by the same power of it, which the solve cancels."""
        model = request.getfixturevalue(preset)
        traj = one_path(model, 3000, RandomStream(18))
        res = np.stack(yw_t_estimate(traj, model.period, alpha=1.8).theta_hat)
        for c in (0.01, 250.0):
            scaled = MultiTrajectory(values=c * traj.values, t0=traj.t0)
            res_sc = np.stack(yw_t_estimate(scaled, model.period, alpha=1.8).theta_hat)
            assert np.abs(res_sc - res).max() <= 1e-12 * np.abs(res).max(), c


class TestMethodDispatch:
    @pytest.mark.parametrize(
        "name, expected",
        [("YW-CV", "YW-CV"), ("yw-cv", "YW-CV"), ("YW_CV", "YW-CV"),
         (" yw_t ", "YW-T"), ("Yw-T", "YW-T")],
    )
    def test_method_name_spellings(self, name, expected):
        assert method_name(name) == expected

    @pytest.mark.parametrize("name", ["nope", "ywcv", "", "YW CV", 3])
    def test_unknown_method_is_a_value_error(self, name):
        with pytest.raises(ValueError, match="unknown method"):
            method_name(name)

    def test_yw_t_block_fails_only_the_failing_replicate(self, model1):
        """A replicate whose component vanishes fails YW-T alone, at the
        first phase whose pair fit collapses."""
        values = _block(model1, 4, L=303)  # 100 observations per phase
        values[2, 1] = 0.0
        block = estimate_block(values, 3, "YW-T", alpha=1.8)
        assert list(block.failures) == [2]
        phase, exc = block.failures[2]
        assert phase == 1 and isinstance(exc, NumericalError)
        assert str(exc).startswith("phase 1: lag 1, entry (2, 2)")
        assert np.all(np.isnan(block.theta[2])) and block.solve_reports[2] == []
        for k in (0, 1, 3):
            single = yw_t_estimate(MultiTrajectory(values=values[k]), 3, alpha=1.8)
            assert np.array_equal(block.theta[k], np.stack(single.theta_hat)), k
            assert len(block.solve_reports[k]) == 3

    def test_yw_t_lag0_failure_names_the_lagged_phase(self, model1):
        """A component with no spread on phase T collapses the lag-0
        diagonal of phase 1's system, which conditions on phase T; the
        lag-1 pair fits of phase 1 still succeed."""
        values = _block(model1, 3, L=303)
        values[1, 1, 2::3] = 0.0  # t = 3, 6, 9, ...: phase 3
        block = estimate_block(values, 3, "YW-T", alpha=1.8)
        assert list(block.failures) == [1]
        phase, exc = block.failures[1]
        assert phase == 1 and isinstance(exc, NumericalError)
        assert str(exc).startswith("phase 1: phase 3, lag 0, entry (2, 2): ")

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_yw_t_block_bit_identical_to_per_replicate_estimate(
        self, preset, alpha, request
    ):
        """Each row of a YW-T block is yw_t_estimate on that row alone,
        theta and solve reports alike."""
        model = replace(request.getfixturevalue(preset), alpha=alpha)
        values = _block(model, 5, L=100 * model.period + model.period)
        block = estimate_block(values, model.period, "YW-T", alpha)
        assert block.failures == {}
        for k, row in enumerate(values):
            single = yw_t_estimate(MultiTrajectory(values=row), model.period, alpha)
            assert np.array_equal(block.theta[k], np.stack(single.theta_hat)), k
            assert [(r.method, r.residual_norm, r.detail) for r in block.solve_reports[k]] == [
                (r.method, r.residual_norm, r.detail) for r in single.solve_reports
            ]

    @pytest.mark.parametrize("method", ["YW-CV", "YW-T"])
    def test_block_driver_calls_the_builder_by_its_name(self, model1, method, monkeypatch):
        """estimate_block looks each phase-matrix builder up by its module
        name at call time: two calls per phase (M1 and M0) of the method's
        builder, none of the other's."""
        calls = {"YW-CV": 0, "YW-T": 0}
        for name, key in [("ncv_phase_matrix", "YW-CV"), ("cv_phase_matrix_spectral", "YW-T")]:
            def counted(*args, _fn=getattr(estimators, name), _key=key, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(estimators, name, counted)
        block = estimate_block(_block(model1, 2, L=303), 3, method, alpha=1.8)
        assert block.failures == {}
        assert calls == {"YW-CV": 0, "YW-T": 0, method: 2 * model1.period}

    def test_yw_t_block_needs_alpha(self, model1):
        with pytest.raises(ValueError, match="alpha"):
            estimate_block(_block(model1, 2, L=303), 3, "YW-T")


class TestPhaseAnchor:
    """Phases follow the time stamps: ``estimate`` reads a series from its
    first phase-1 time on."""

    @pytest.mark.parametrize("method", ["YW-CV", "YW-T"])
    @pytest.mark.parametrize("t0", [2, 3, -4])
    def test_series_is_read_from_its_first_phase_one_time(self, model1, t0, method):
        values = one_path(model1, 1200, RandomStream(1)).values
        skip = (1 - t0) % 3  # columns before the first t = 1 (mod 3)
        got = estimate(MultiTrajectory(values=values, t0=t0), 3, method, alpha=1.8)
        trimmed = estimate(MultiTrajectory(values=values[:, skip:]), 3, method, alpha=1.8)
        assert np.array_equal(np.stack(got.theta_hat), np.stack(trimmed.theta_hat))

    @pytest.mark.parametrize("method", ["YW-CV", "YW-T"])
    def test_length_check_reads_the_trimmed_series(self, method):
        """13 observations from t = 2 leave 11 from t = 4: under four periods."""
        traj = MultiTrajectory(values=RandomStream(2).generator().normal(size=(2, 13)), t0=2)
        with pytest.raises(DataError, match="got 11"):
            estimate(traj, 3, method)

    def test_yw_t_alpha_reads_the_whole_series(self, model1):
        traj = MultiTrajectory(values=one_path(model1, 400, RandomStream(3)).values, t0=2)
        assert estimate(traj, 3, "YW-T").alpha_used == estimate_alpha(traj)


class TestSampleFloors:
    """YW-T needs MIN_QUANTILE_OBS lagged pairs in phase 1, which holds
    L // T - 1 of them: L >= 101 T.  YW-CV needs four periods."""

    @pytest.mark.parametrize("preset, floor", [("model1", 303), ("model2", 202)])
    def test_yw_t_runs_from_101_periods(self, preset, floor, request):
        model = request.getfixturevalue(preset)
        values = one_path(model, floor, RandomStream(4)).values
        short = values[:, :-1]
        with pytest.raises(DataError, match=f"L >= {floor}"):
            estimate(MultiTrajectory(values=short), model.period, "YW-T", alpha=1.8)
        with pytest.raises(DataError, match=f"L >= {floor}"):
            estimate_block(short[None], model.period, "YW-T", alpha=1.8)
        single = estimate(MultiTrajectory(values=values), model.period, "YW-T", alpha=1.8)
        block = estimate_block(values[None], model.period, "YW-T", alpha=1.8)
        assert not block.failures
        assert np.array_equal(block.theta[0], np.stack(single.theta_hat))

    def test_yw_cv_runs_at_four_periods(self, model1):
        values = one_path(model1, 12, RandomStream(5)).values
        res = estimate(MultiTrajectory(values=values), 3, "YW-CV")
        assert len(res.solve_reports) == 3
        assert not estimate_block(values[None], 3, "YW-CV").failures


class TestEstimateAlpha:
    def test_close_to_truth_on_long_sample(self, model1):
        traj = one_path(model1, 10**4, RandomStream(16))
        a = estimate_alpha(traj)
        assert a == pytest.approx(1.8, abs=0.15)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_always_in_valid_range(self, seed, model1):
        traj = one_path(model1, 600, RandomStream(seed))
        assert 1.0 < estimate_alpha(traj) <= 2.0
