"""Dependence measures for heavy-tailed series: normalized covariation
estimators, per-phase matrices, and the projection-method spectral fit."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

import stablepar.covariation as covariation
from stablepar.covariation import (
    _phase_samples,
    _projection_design,
    cv_phase_matrix_spectral,
    estimate_spectral_measure_2d,
    ncv_cross,
    ncv_phase_matrix,
)
from stablepar.exceptions import DegenerateSeriesError, NumericalError
from stablepar.par_model import MultiTrajectory
from stablepar.rng import RandomStream
from stablepar.stable import (
    DiscreteSpectralMeasure,
    StableParams,
    iqr_constant,
    sample_sas_1d,
    sample_stable_vector,
    sorted_quantiles,
)

from oracles import cv_from_spectral, is_symmetric, one_path


class TestNcvAuto:
    """The auto case of :func:`ncv_cross`: one series with itself."""

    def test_constant_series_lag_one(self):
        """Frozen hand value.  For x = (1,1,1,1) at h = 1 the sum runs over
        t = 1..3 in both numerator and denominator, so the ratio is 3/3 = 1;
        at h = -1 it runs over t = 2..4 in the numerator but the denominator
        normalizes by the lagged values' window, giving 3/4.  The pair of
        values pins down the one-sided summation-limit convention."""
        x = [1.0, 1.0, 1.0, 1.0]
        assert ncv_cross(np.ravel(x), 1, 1, 1) == pytest.approx(1.0, abs=1e-15)
        assert ncv_cross(np.ravel(x), 1, 1, -1) == pytest.approx(0.75, abs=1e-15)

    def test_lag_zero_is_one(self):
        x = RandomStream(1).generator().normal(size=500)
        assert ncv_cross(np.ravel(x), 1, 1, 0) == pytest.approx(1.0, abs=1e-15)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            ncv_cross(np.ravel([1.0, 2.0]), 1, 1, 2)

    @given(
        h=st.integers(-3, 3),
        c=st.floats(0.01, 100.0),
        seed=st.integers(0, 50),
    )
    def test_scale_invariant(self, h, c, seed):
        """Numerator and denominator are 1-homogeneous in the series, so a
        positive rescaling cancels."""
        x = np.random.default_rng(seed).normal(size=40)
        assert ncv_cross(np.ravel(c * x), 1, 1, h) == pytest.approx(
            ncv_cross(np.ravel(x), 1, 1, h), rel=1e-10
        )

    def test_near_zero_for_iid_noise(self):
        x = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(34).substream(0))
        for h in (-5, -3, -1, 1, 2, 3, 5):
            assert abs(ncv_cross(np.ravel(x), 1, 1, h)) < 0.1


class TestNcvCross:
    def test_accepts_trajectory_and_array(self):
        vals = np.arange(12.0).reshape(2, 6) + 1.0
        traj = MultiTrajectory(values=vals)
        assert ncv_cross(traj, 1, 2, 1) == ncv_cross(vals, 1, 2, 1)

    def test_self_pair_reduces_to_auto(self):
        vals = RandomStream(2).generator().normal(size=(2, 300))
        traj = MultiTrajectory(values=vals)
        for h in (-2, 0, 3):
            assert ncv_cross(traj, 1, 1, h) == pytest.approx(
                ncv_cross(np.ravel(vals[0]), 1, 1, h), abs=1e-15
            )

    def test_near_zero_for_independent_noise(self):
        x = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(34).substream(0))
        y = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(34).substream(1))
        traj = MultiTrajectory(values=np.vstack([x, y]))
        for h in (-2, -1, 0, 1, 2):
            assert abs(ncv_cross(traj, 1, 2, h)) < 0.1

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_refuses_a_component_outside_1_to_m(self, k):
        """Index 0 or -1 would wrap to the last row and 3 would be past it."""
        traj = MultiTrajectory(values=RandomStream(3).generator().normal(size=(2, 50)))
        with pytest.raises(ValueError, match=rf"^i must lie in 1\.\.2, got {k}$"):
            ncv_cross(traj, k, 1, 1)
        with pytest.raises(ValueError, match=rf"^j must lie in 1\.\.2, got {k}$"):
            ncv_cross(traj, 1, k, 1)


def _series_matrix(build, values, T, v, h, *args):
    """``build`` on the phase-v, lag-h sub-samples of one ``(m, L)``
    series: its matrix and its failure (``None`` when it has none)."""
    out, failed = build(*_phase_samples(np.asarray(values)[None], T, v, h), *args)
    return out[0], failed.get(0)


class TestPhaseMatrix:
    def test_unit_diagonal_at_lag_zero(self):
        vals = RandomStream(3).generator().normal(size=(3, 600))
        mat, failed = _series_matrix(ncv_phase_matrix, vals, 4, 2, 0)
        assert failed is None
        assert np.allclose(np.diag(mat), 1.0, atol=1e-14)

    def test_phase_zero_wraps(self):
        # v = 0 addresses the phase preceding v = 1; it must not fail
        vals = RandomStream(4).generator().normal(size=(2, 400))
        mat, failed = _series_matrix(ncv_phase_matrix, vals, 3, 0, 0)
        assert failed is None
        assert mat.shape == (2, 2)
        assert np.all(np.isfinite(mat))

    def test_degenerate_phase_fails(self):
        # component 1 vanishes on phase v=1 (t = 1, 3, 5, ...): the
        # normalizing sum is zero there
        vals = np.ones((2, 200))
        vals[0, ::2] = 0.0
        mat, failed = _series_matrix(ncv_phase_matrix, vals, 2, 1, 0)
        assert isinstance(failed, DegenerateSeriesError)
        assert str(failed) == "sub-sample of component 1 is identically zero"
        assert not np.all(np.isfinite(mat))

    @pytest.mark.parametrize("v, h", [(1, 0), (2, 1), (0, 0)])
    def test_degenerate_phase_names_the_lagged_phase(self, v, h):
        """:func:`_phase_failure` names the phase of the vanishing
        sub-sample, the lagged one: phase 1 at (1, 0) and (2, 1); at
        v = 0 it is phase T."""
        vals = np.ones((2, 200))
        vals[1, (v - h - 1) % 2 :: 2] = 0.0
        lagged = (v - h - 1) % 2 + 1
        _, failed = _series_matrix(ncv_phase_matrix, vals, 2, v, h)
        named = covariation._phase_failure(failed, 2, v, h)
        assert isinstance(named, DegenerateSeriesError)
        assert str(named) == f"phase-{lagged} sub-sample of component 2 is identically zero"

    def test_lag_with_no_pair_of_times_is_a_value_error(self):
        """Lag 40 on 20 observations pairs no phase-1 time with one inside
        the series: the lag is wrong, not the data."""
        vals = RandomStream(5).generator().normal(size=(2, 20))
        with pytest.raises(ValueError, match="^lag 40 leaves no phase-1 pair"):
            _series_matrix(ncv_phase_matrix, vals, 2, 1, 40)


class TestPhaseSamples:
    @staticmethod
    def _counter_rule(L, T, v, h):
        """The former rule: n from n0 to floor(L/T) - 1, n0 = 0 exactly when
        v and v - h are both positive."""
        n0 = 0 if (v > 0 and v - h > 0) else 1
        return np.arange(n0, L // T) * T + v

    @pytest.mark.parametrize("L", [20, 21, 23])
    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("h", [0, 1])
    def test_lags_zero_and_one_keep_the_counter_rule(self, L, T, h):
        """x(t) = t, so the sub-samples are their own times.  The former
        rule read time 0 at T = 1, v = 0, h = 1 only; there the counter
        now starts one period later."""
        x = np.arange(1.0, L + 1)[None]
        for v in range(T + 1):
            cur, lagged = _phase_samples(x, T, v, h)
            idx = self._counter_rule(L, T, v, h)
            if (T, v, h) == (1, 0, 1):
                idx = idx[1:]
            assert np.array_equal(cur[0], idx) and np.array_equal(lagged[0], idx - h)
            assert lagged.min() >= 1

    def test_lag_zero_gathers_once(self):
        cur, lagged = _phase_samples(np.arange(1.0, 21)[None], 2, 1, 0)
        assert lagged is cur

    def test_long_lag_stays_inside_the_series(self):
        """x(t) = t: the lag-3 partner of x(3) would be time 0, so the
        counter starts where both times lie in 1..L."""
        cur, lagged = _phase_samples(np.arange(1.0, 21)[None], 2, 1, 3)
        assert np.array_equal(cur[0], np.arange(5, 20, 2))
        assert np.array_equal(lagged[0], np.arange(2, 17, 2))

    def test_negative_lag_stops_inside_the_series(self):
        cur, lagged = _phase_samples(np.arange(1.0, 21)[None], 1, 1, -1)
        assert np.array_equal(cur[0], np.arange(1, 20))
        assert np.array_equal(lagged[0], np.arange(2, 21))


class TestCvFromSpectral:
    def test_two_atom_hand_value(self):
        # mirrored pair at 60 degrees, weight 0.5 each, alpha = 1.5:
        # CV = 2 * 0.5 * cos(60) * sin(60)^(0.5)
        m = DiscreteSpectralMeasure.symmetric([[0.5, np.sqrt(3) / 2]], [0.5])
        expected = 2 * 0.5 * 0.5 * (np.sqrt(3) / 2) ** 0.5
        assert cv_from_spectral(m, 1.5) == pytest.approx(expected, abs=1e-14)

    def test_gaussian_case_equals_half_covariance(self):
        """At alpha = 2 the covariation is half the covariance; the
        covariance of the stable vector is 2 * sum_j gamma_j s_j s_j^T."""
        m = DiscreteSpectralMeasure.symmetric(
            [[0.5, np.sqrt(3) / 2], [-0.5, np.sqrt(3) / 2]], [0.5, 0.2]
        )
        cov12 = 2.0 * float(
            np.sum(m.weights * m.points[:, 0] * m.points[:, 1])
        )
        assert cv_from_spectral(m, 2.0) == pytest.approx(cov12 / 2.0, abs=1e-14)


class TestProjectionMethod:
    def test_input_validation(self):
        good = RandomStream(5).generator().normal(size=(200, 2))
        with pytest.raises(ValueError):
            estimate_spectral_measure_2d(good[:50], 1.5)  # too few rows
        with pytest.raises(ValueError):
            estimate_spectral_measure_2d(good[:, :1], 1.5)  # not 2-D sample
        with pytest.raises(ValueError):
            estimate_spectral_measure_2d(good, 0.9)  # alpha out of range

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sample(self, bad):
        x = RandomStream(5).generator().normal(size=(500, 2))
        x[17, 1] = bad
        x[400, 0] = -bad
        with pytest.raises(ValueError, match="2 non-finite entries"):
            estimate_spectral_measure_2d(x, 1.5)

    def test_recovers_independent_axes(self):
        """Independent components concentrate the measure near the four
        semi-axes; most of the mass must land within pi/16 of an axis and
        the total mass must match sigma_1^alpha + sigma_2^alpha = 2."""
        x1 = sample_sas_1d(StableParams(1.5, 1.0), 2 * 10**4, RandomStream(31).substream(0))
        x2 = sample_sas_1d(StableParams(1.5, 1.0), 2 * 10**4, RandomStream(31).substream(1))
        m = estimate_spectral_measure_2d(np.column_stack([x1, x2]), 1.5)
        ang = np.arctan2(m.points[:, 1], m.points[:, 0])
        off_axis = np.min(
            np.abs(np.mod(ang, np.pi / 2)[:, None] - np.array([0.0, np.pi / 2])),
            axis=1,
        )
        frac = m.weights[off_axis < np.pi / 16].sum() / m.weights.sum()
        assert frac > 0.85
        assert m.weights.sum() == pytest.approx(2.0, rel=0.1)
        assert is_symmetric(m, tol=1e-8)

    def test_isotropic_gaussian_spreads_mass_evenly(self):
        """An isotropic Gaussian sample determines only the (isotropic)
        covariance; the minimum-norm tie-break must then spread weight
        nearly uniformly over the grid instead of picking arbitrary
        vertices."""
        g = RandomStream(32).generator().normal(size=(2 * 10**4, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = estimate_spectral_measure_2d(g, 2.0)
        assert m.n_atoms == 40
        assert m.weights.max() / m.weights.min() < 2.0

    def test_rank_deficiency_warns_only_at_gaussian_endpoint(self):
        """The projection-scale design matrix loses rank exactly at
        alpha = 2 (a Gaussian law carries 3 parameters, the grid many
        more); below 2 it is full rank and no warning is wanted."""
        z = RandomStream(33).generator().normal(size=(500, 2))
        with pytest.warns(UserWarning, match="rank-deficient"):
            estimate_spectral_measure_2d(z, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_spectral_measure_2d(z, 1.5)

    def test_warning_survives_warm_design_cache(self):
        """The design is cached per alpha; the rank-deficiency
        warning must still come on every call that hits the cache."""
        z = RandomStream(33).generator().normal(size=(500, 2))
        for _ in range(2):
            with pytest.warns(UserWarning, match="rank-deficient"):
                estimate_spectral_measure_2d(z, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_spectral_measure_2d(z, 1.5)

    def test_cached_design_is_read_only(self):
        dirs, a_aug, _, _ = _projection_design(1.5)
        assert _projection_design(1.5)[0] is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0
        with pytest.raises(ValueError):
            a_aug[0, 0] = 0.0

    @staticmethod
    def _reference_fit(x, alpha, n_grid):
        """The per-direction formulation: one quantile call per
        projection, and the kernel, its SVD and the ridge rebuilt on
        every call."""
        half = n_grid // 2
        phi = np.pi * np.arange(half) / half
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        proj = x @ dirs.T
        c = iqr_constant(alpha)
        b = np.empty(half)
        for k in range(half):
            q25, q75 = np.quantile(proj[:, k], [0.25, 0.75])
            b[k] = (max(q75 - q25, 0.0) / c) ** alpha
        A = 2.0 * np.abs(np.cos(phi[:, None] - phi[None, :])) ** alpha
        svals = np.linalg.svd(A, compute_uv=False)
        a_aug = np.vstack([A, 1e-6 * svals[0] * np.eye(half)])
        g, _ = scipy.optimize.nnls(a_aug, np.concatenate([b, np.zeros(half)]))
        keep = g > 0.0
        return DiscreteSpectralMeasure.symmetric(dirs[keep], g[keep])

    @pytest.fixture
    def n_grid(self, request, monkeypatch):
        """The grid size, set as the module constant; the designs cached
        per alpha are dropped on both sides of the test."""
        monkeypatch.setattr(covariation, "N_GRID", request.param)
        covariation._projection_design.cache_clear()
        yield request.param
        covariation._projection_design.cache_clear()

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8, 2.0])
    @pytest.mark.parametrize("n_grid", [4, 40], indirect=True)
    @pytest.mark.parametrize("n", [100, 5000])
    def test_matches_per_direction_reference(self, model1, alpha, n_grid, n):
        z = sample_stable_vector(model1.noise, alpha, n, RandomStream(37))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = estimate_spectral_measure_2d(z, alpha)
        ref = self._reference_fit(z, alpha, n_grid)
        assert got.n_atoms == ref.n_atoms
        np.testing.assert_allclose(got.points, ref.points, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got.weights, ref.weights, rtol=1e-12, atol=0.0)
        assert cv_from_spectral(got, alpha) == pytest.approx(
            cv_from_spectral(ref, alpha), rel=1e-12, abs=0.0
        )

    def test_recovers_known_measure_functionals(self, model1):
        """Individual atoms are not identifiable from a finite sample, but
        mass and covariation are; both must come back near the truth."""
        z = sample_stable_vector(model1.noise, 1.8, 5 * 10**4, RandomStream(33))
        m = estimate_spectral_measure_2d(z, 1.8)
        assert m.weights.sum() == pytest.approx(model1.noise.weights.sum(), rel=0.1)
        assert cv_from_spectral(m, 1.8) == pytest.approx(
            cv_from_spectral(model1.noise, 1.8), abs=0.05
        )


class TestSpectralPhaseMatrix:
    def test_shape_kind_and_determinism(self):
        vals = sample_stable_vector(
            DiscreteSpectralMeasure.symmetric([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
            1.6,
            3000,
            RandomStream(36),
        ).T
        a, failed = _series_matrix(cv_phase_matrix_spectral, vals, 3, 1, 1, 1.6)
        b, _ = _series_matrix(cv_phase_matrix_spectral, vals, 3, 1, 1, 1.6)
        assert failed is None
        assert a.shape == (2, 2)
        assert np.array_equal(a, b)

    def test_lag_with_no_pair_of_times_is_a_value_error(self):
        vals = RandomStream(5).generator().normal(size=(2, 20))
        with pytest.raises(ValueError, match="^lag 40 leaves no phase-1 pair"):
            _series_matrix(cv_phase_matrix_spectral, vals, 2, 1, 40, 1.6)

    def test_collapsed_pair_fit_names_its_entry(self):
        """A component that is identically zero makes its self-pair
        collapse to the zero measure; the named failure must say which lag
        and matrix entry it came from (the system's ``phase v: `` prefix
        names the phase of a lag-1 matrix)."""
        vals = RandomStream(38).generator().normal(size=(2, 600))
        vals[1] = 0.0
        _, failed = _series_matrix(cv_phase_matrix_spectral, vals, 2, 1, 1, 1.5)
        named = covariation._phase_failure(failed, 2, 1, 1)
        assert isinstance(named, NumericalError)
        assert re.match(r"^lag 1, entry \(2, 2\): .*zero measure", str(named))

    def test_requires_two_periods(self):
        with pytest.raises(ValueError):
            _series_matrix(cv_phase_matrix_spectral, np.ones((2, 5)), 3, 1, 1, 1.5)

    @staticmethod
    def _reference_matrix(traj, T, v, h, alpha):
        """One :func:`estimate_spectral_measure_2d` per entry, read off
        with :func:`cv_from_spectral`: the per-pair formulation."""
        cur, lagged = _phase_samples(traj.values, T, v, h)
        m = cur.shape[0]
        return np.array([
            [
                cv_from_spectral(
                    estimate_spectral_measure_2d(
                        np.column_stack([cur[r], lagged[l]]), alpha
                    ),
                    alpha,
                )
                for l in range(m)
            ]
            for r in range(m)
        ])

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8, 2.0])
    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_matches_per_pair_fits(self, request, preset, alpha):
        """The block fit and the closed-form lag-0 diagonal agree with a
        separate fit per entry at every phase and lag 0 and 1."""
        model = dataclasses.replace(request.getfixturevalue(preset), alpha=alpha)
        T = model.period
        traj = one_path(model, 1200, RandomStream(39))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for v in range(T + 1):
                for h in (0, 1):
                    got, failed = _series_matrix(
                        cv_phase_matrix_spectral, traj.values, T, v, h, alpha)
                    assert failed is None, (v, h)
                    ref = self._reference_matrix(traj, T, v, h, alpha)
                    scale = np.abs(ref).max()
                    assert np.abs(got - ref).max() <= 1e-13 * scale, (v, h)

    @pytest.mark.parametrize("block", [1, 5 * 600, 16 * 600])
    @pytest.mark.parametrize("h", [0, 1])
    def test_block_size_does_not_change_the_matrix(self, model2, monkeypatch, h, block):
        """One projection per block, a pair's 20 directions in four blocks
        of 5, or in one of 16 and a short one of 4, gives the default
        single-block matrix up to the rounding of the projections."""
        traj = one_path(model2, 1200, RandomStream(40))
        ref, _ = _series_matrix(cv_phase_matrix_spectral, traj.values, 2, 1, h, 1.8)
        monkeypatch.setattr(covariation, "_BLOCK_ELEMENTS", block)
        got, _ = _series_matrix(cv_phase_matrix_spectral, traj.values, 2, 1, h, 1.8)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_zero_component_names_its_lag0_diagonal_entry(self):
        """At lag 0 the diagonal is read from the component's own
        interquartile range; a vanishing one is reported like a
        collapsed pair fit."""
        vals = RandomStream(38).generator().normal(size=(3, 600))
        vals[1] = 0.0
        _, failed = _series_matrix(cv_phase_matrix_spectral, vals, 2, 1, 0, 1.5)
        named = covariation._phase_failure(failed, 2, 1, 0)
        assert isinstance(named, NumericalError)
        assert re.match(r"^phase 1, lag 0, entry \(2, 2\): .*zero measure", str(named))

    @pytest.mark.parametrize("h", [0, 1])
    def test_rejects_non_finite_phase_sample(self, h):
        vals = RandomStream(38).generator().normal(size=(2, 600))
        vals[1, 300] = np.nan  # 1-based time 301: phase 1 of period 2
        with pytest.raises(ValueError, match="sample contains 1 non-finite entries"):
            _series_matrix(cv_phase_matrix_spectral, vals, 2, 1, h, 1.5)

    def test_warns_rank_deficient_on_every_call_at_alpha_2(self):
        z = RandomStream(33).generator().normal(size=(2, 600))
        for h in (0, 1, 0):
            with pytest.warns(UserWarning, match="rank-deficient"):
                _series_matrix(cv_phase_matrix_spectral, z, 2, 1, h, 2.0)


def _sorted_quartiles(rows):
    """The reference read: quartiles of the sorted rows."""
    return sorted_quantiles(np.sort(rows, axis=-1), (0.25, 0.75))


class TestQuartiles:
    """``_quartiles`` reads the quartiles of the sorted rows bit for bit:
    by a sort up to ``_BLOCK_ELEMENTS // 2`` values, by selection above."""

    SWITCH = covariation._BLOCK_ELEMENTS // 2

    @staticmethod
    def _assert_reads_sorted(x):
        got = covariation._quartiles(x.copy())
        want = _sorted_quartiles(x)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    # (n-1)/4 is whole at n = 4k+1; its fraction is 0.25, 0.5 and 0.75 at
    # 4k+2, 4k+3 and 4k+4, so each quartile takes both interpolation branches
    @pytest.mark.parametrize("offset", range(-3, 5))
    def test_lengths_around_the_switch(self, offset):
        n = self.SWITCH + offset
        self._assert_reads_sorted(RandomStream(41).generator().standard_cauchy(n))

    @pytest.mark.parametrize("n", [50_001, 50_002, 50_003, 50_004])
    def test_long_rows(self, n):
        self._assert_reads_sorted(RandomStream(42).generator().standard_cauchy(n))

    @pytest.mark.parametrize("n", [601, 8_193, 10_002, 20_003])
    def test_rounded_cauchy_rows_with_many_ties(self, n):
        x = np.round(RandomStream(43).generator().standard_cauchy(n))
        assert len(np.unique(x)) < n // 10
        self._assert_reads_sorted(x)

    @pytest.mark.parametrize("n", [500, 8_192, 8_193, 12_345])
    def test_block_of_rows(self, n):
        x = RandomStream(44).generator().standard_cauchy((3, n))
        x[1] = np.round(x[1])
        self._assert_reads_sorted(x)

    def test_long_row_is_selected_not_sorted(self):
        """Above the switch the row is partitioned in place, not sorted."""
        x = RandomStream(45).generator().standard_cauchy(self.SWITCH + 1)
        covariation._quartiles(x)
        assert not np.all(np.diff(x) >= 0.0)

    @pytest.mark.parametrize("h", [0, 1])
    def test_spectral_matrix_matches_the_sorted_read(self, model2, monkeypatch, h):
        """Each phase of a 20 000-row period-2 series holds 10 000 values,
        so every projection and the lag-0 diagonal take the selection; the
        matrix equals, bit for bit, the one built from sorted rows."""
        traj = one_path(model2, 20_000, RandomStream(46))
        cur, _ = _phase_samples(traj.values, 2, 1, h)
        assert cur.shape[-1] > self.SWITCH
        got, _ = _series_matrix(cv_phase_matrix_spectral, traj.values, 2, 1, h, 1.8)
        monkeypatch.setattr(covariation, "_quartiles", _sorted_quartiles)
        want, _ = _series_matrix(cv_phase_matrix_spectral, traj.values, 2, 1, h, 1.8)
        assert np.array_equal(got, want)


class TestLagZeroSharedFit:
    """At lag 0, entries (r, l) and (l, r) are covariations of one pair
    law, so the fit of (x_r, x_l) serves both."""

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8, 2.0])
    def test_swap_maps_each_direction_to_its_transpose(self, alpha):
        """Direction swap[k] is direction k with its coordinates swapped,
        up to a mirror, and the design is invariant under the swap."""
        dirs, a_aug, _, _ = _projection_design(alpha)
        swap = covariation._coordinate_swap()
        assert np.array_equal(swap[swap], np.arange(len(dirs)))
        flipped = dirs[:, ::-1]
        dev = np.minimum(np.abs(dirs[swap] - flipped).max(axis=1),
                         np.abs(dirs[swap] + flipped).max(axis=1))
        assert dev.max() <= 1e-15
        A = a_aug[: len(dirs)]
        np.testing.assert_allclose(A[swap][:, swap], A, rtol=0.0, atol=1e-14)

    def test_swap_needs_a_grid_divisible_by_four(self, monkeypatch):
        monkeypatch.setattr(covariation, "N_GRID", 42)
        with pytest.raises(ValueError, match="N_GRID divisible by 4, got 42"):
            covariation._coordinate_swap()

    @pytest.fixture
    def fitted_pairs(self, monkeypatch):
        """The pairs ``(rs, ls)`` of every :func:`_fit_pairs` call."""
        calls = []
        original = covariation._fit_pairs

        def spy(x, y, rs, ls, alpha):
            calls.append((np.asarray(rs), np.asarray(ls)))
            return original(x, y, rs, ls, alpha)

        monkeypatch.setattr(covariation, "_fit_pairs", spy)
        return calls

    @pytest.mark.parametrize("preset, m", [("model1", 2), ("model2", 3)])
    @pytest.mark.parametrize("h", [0, 1])
    def test_pairs_fitted_per_block(self, request, fitted_pairs, preset, m, h):
        """One call per block: m(m-1)/2 pairs per replicate at lag 0 (3M
        on model2, M on model1), m^2 at lag 1."""
        model = request.getfixturevalue(preset)
        M = 5
        values = np.stack([one_path(model, 1200, RandomStream(70 + k)).values
                           for k in range(M)])
        cur, lagged = _phase_samples(values, model.period, 1, h)  # lag 0: lagged is cur
        out, failed = covariation.cv_phase_matrix_spectral(cur, lagged, 1.8)
        assert not failed and np.all(np.isfinite(out))
        (rs, ls), = fitted_pairs
        assert len(rs) == M * (m * (m - 1) // 2 if h == 0 else m * m)
        if h == 0:
            assert np.all(rs % m < ls % m)

    def test_collapsed_shared_fit_fails_both_entries(self, monkeypatch):
        """A collapsed (r, l) fit zeroes entry (l, r) too, and the failure
        names (r, l), the first of the two in row-major order."""
        original = covariation._fit_pairs

        def collapse_second_pair(x, y, rs, ls, alpha):
            g = original(x, y, rs, ls, alpha)
            g[1] = 0.0  # replicate 0, entry (1, 3)
            return g

        monkeypatch.setattr(covariation, "_fit_pairs", collapse_second_pair)
        cur = RandomStream(71).generator().normal(size=(2, 3, 300))
        out, failed = covariation.cv_phase_matrix_spectral(cur, cur, 1.5)
        assert list(failed) == [0]
        assert str(failed[0]).startswith("entry (1, 3): ")
        assert out[0, 0, 2] == out[0, 2, 0] == 0.0
