"""Dependence measures for heavy-tailed series: normalized covariation
estimators, per-phase matrices, and the projection-method spectral fit."""

import dataclasses
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
    cv_from_spectral,
    cv_phase_matrix_spectral,
    estimate_spectral_measure_2d,
    ncv_auto,
    ncv_cross,
    ncv_phase_matrix,
)
from stablepar.exceptions import DegenerateSeriesError, NumericalError
from stablepar.par_model import MultiTrajectory, simulate_par1
from stablepar.rng import RandomStream
from stablepar.stable import (
    DiscreteSpectralMeasure,
    StableParams,
    iqr_constant,
    sample_sas_1d,
    sample_stable_vector,
)


class TestNcvAuto:
    def test_constant_series_lag_one(self):
        """Frozen hand value.  For x = (1,1,1,1) at h = 1 the sum runs over
        t = 1..3 in both numerator and denominator, so the ratio is 3/3 = 1;
        at h = -1 it runs over t = 2..4 in the numerator but the denominator
        normalizes by the lagged values' window, giving 3/4.  The pair of
        values pins down the one-sided summation-limit convention."""
        x = [1.0, 1.0, 1.0, 1.0]
        assert ncv_auto(x, 1) == pytest.approx(1.0, abs=1e-15)
        assert ncv_auto(x, -1) == pytest.approx(0.75, abs=1e-15)

    def test_lag_zero_is_one(self):
        x = RandomStream(1).generator().normal(size=500)
        assert ncv_auto(x, 0) == pytest.approx(1.0, abs=1e-15)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            ncv_auto([1.0, 2.0], 2)

    @given(
        h=st.integers(-3, 3),
        c=st.floats(0.01, 100.0),
        seed=st.integers(0, 50),
    )
    def test_scale_invariant(self, h, c, seed):
        """Numerator and denominator are 1-homogeneous in the series, so a
        positive rescaling cancels."""
        x = np.random.default_rng(seed).normal(size=40)
        assert ncv_auto(c * x, h) == pytest.approx(ncv_auto(x, h), rel=1e-10)

    def test_near_zero_for_iid_noise(self):
        x = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(34).substream(0))
        for h in (-5, -3, -1, 1, 2, 3, 5):
            assert abs(ncv_auto(x, h)) < 0.1


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
                ncv_auto(vals[0], h), abs=1e-15
            )

    def test_near_zero_for_independent_noise(self):
        x = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(34).substream(0))
        y = sample_sas_1d(StableParams(1.8, 1.0), 10**4, RandomStream(34).substream(1))
        traj = MultiTrajectory(values=np.vstack([x, y]))
        for h in (-2, -1, 0, 1, 2):
            assert abs(ncv_cross(traj, 1, 2, h)) < 0.1


class TestPhaseMatrix:
    def test_unit_diagonal_at_lag_zero(self):
        vals = RandomStream(3).generator().normal(size=(3, 600))
        mat = ncv_phase_matrix(MultiTrajectory(values=vals), T=4, v=2, h=0)
        assert np.allclose(np.diag(mat), 1.0, atol=1e-14)

    def test_phase_zero_wraps(self):
        # v = 0 addresses the phase preceding v = 1; it must not raise
        vals = RandomStream(4).generator().normal(size=(2, 400))
        mat = ncv_phase_matrix(MultiTrajectory(values=vals), T=3, v=0, h=0)
        assert mat.shape == (2, 2)
        assert np.all(np.isfinite(mat))

    def test_degenerate_phase_raises(self):
        # component 1 vanishes on phase v=1 (t = 1, 3, 5, ...): the
        # normalizing sum is zero there
        vals = np.ones((2, 200))
        vals[0, ::2] = 0.0
        with pytest.raises(DegenerateSeriesError):
            ncv_phase_matrix(MultiTrajectory(values=vals), T=2, v=1, h=0)


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
        frac = m.weights[off_axis < np.pi / 16].sum() / m.total_mass
        assert frac > 0.85
        assert m.total_mass == pytest.approx(2.0, rel=0.1)
        assert m.is_symmetric(tol=1e-8)

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
        assert m.total_mass == pytest.approx(model1.noise.total_mass, rel=0.1)
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
        traj = MultiTrajectory(values=vals)
        a = cv_phase_matrix_spectral(traj, T=3, v=1, h=1, alpha=1.6)
        b = cv_phase_matrix_spectral(traj, T=3, v=1, h=1, alpha=1.6)
        assert a.shape == (2, 2)
        assert np.array_equal(a, b)

    def test_collapsed_pair_fit_names_its_entry(self):
        """A component that is identically zero makes its self-pair
        collapse to the zero measure; the error must say which phase,
        lag and matrix entry it came from."""
        vals = RandomStream(38).generator().normal(size=(2, 600))
        vals[1] = 0.0
        traj = MultiTrajectory(values=vals)
        with pytest.raises(
            NumericalError, match=r"^phase 1, lag 1, entry \(2, 2\): .*zero measure"
        ):
            cv_phase_matrix_spectral(traj, T=2, v=1, h=1, alpha=1.5)

    def test_requires_two_periods(self):
        traj = MultiTrajectory(values=np.ones((2, 5)))
        with pytest.raises(ValueError):
            cv_phase_matrix_spectral(traj, T=3, v=1, h=1, alpha=1.5)

    @staticmethod
    def _reference_matrix(traj, T, v, h, alpha):
        """One :func:`estimate_spectral_measure_2d` per entry, read off
        with :func:`cv_from_spectral`: the per-pair formulation."""
        cur, lagged = _phase_samples(traj, T, v, h)
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
        traj = simulate_par1(model, 1200, RandomStream(39))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for v in range(T + 1):
                for h in (0, 1):
                    got = cv_phase_matrix_spectral(traj, T, v, h, alpha)
                    ref = self._reference_matrix(traj, T, v, h, alpha)
                    scale = np.abs(ref).max()
                    assert np.abs(got - ref).max() <= 1e-13 * scale, (v, h)

    @pytest.mark.parametrize("block", [1, 5 * 600, 16 * 600])
    @pytest.mark.parametrize("h", [0, 1])
    def test_block_size_does_not_change_the_matrix(self, model2, monkeypatch, h, block):
        """One projection per block, a pair's 20 directions in four blocks
        of 5, or in one of 16 and a short one of 4, gives the default
        single-block matrix up to the rounding of the projections."""
        traj = simulate_par1(model2, 1200, RandomStream(40))
        ref = cv_phase_matrix_spectral(traj, 2, 1, h, 1.8)
        monkeypatch.setattr(covariation, "_BLOCK_ELEMENTS", block)
        got = cv_phase_matrix_spectral(traj, 2, 1, h, 1.8)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_zero_component_names_its_lag0_diagonal_entry(self):
        """At lag 0 the diagonal is read from the component's own
        interquartile range; a vanishing one is reported like a
        collapsed pair fit."""
        vals = RandomStream(38).generator().normal(size=(3, 600))
        vals[1] = 0.0
        traj = MultiTrajectory(values=vals)
        with pytest.raises(
            NumericalError, match=r"^phase 1, lag 0, entry \(2, 2\): .*zero measure"
        ):
            cv_phase_matrix_spectral(traj, T=2, v=1, h=0, alpha=1.5)

    @pytest.mark.parametrize("h", [0, 1])
    def test_rejects_non_finite_phase_sample(self, h):
        vals = RandomStream(38).generator().normal(size=(2, 600))
        vals[1, 300] = np.nan  # 1-based time 301: phase 1 of period 2
        with pytest.raises(ValueError, match="sample contains 1 non-finite entries"):
            cv_phase_matrix_spectral(vals, T=2, v=1, h=h, alpha=1.5)

    def test_warns_rank_deficient_on_every_call_at_alpha_2(self):
        z = RandomStream(33).generator().normal(size=(2, 600))
        traj = MultiTrajectory(values=z)
        for h in (0, 1, 0):
            with pytest.warns(UserWarning, match="rank-deficient"):
                cv_phase_matrix_spectral(traj, T=2, v=1, h=h, alpha=2.0)
