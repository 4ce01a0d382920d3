"""Periodic autoregression: model container, coefficient products,
boundedness, simulation, and theoretical covariation values."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepar.exceptions import DataError, UnboundedModelError
from stablepar.par_model import (
    MultiTrajectory,
    ParModel,
    check_boundedness,
    g_product,
    simulate_par1,
    simulate_paths,
    simulate_replicates,
    theoretical_cv,
    theoretical_cv_diagonal,
    theoretical_phase_matrix,
)
from stablepar.estimators import yw_cv_estimate
from stablepar.rng import RandomStream
from stablepar.stable import DiscreteSpectralMeasure, sample_stable_vector


def _diagonal_model(diags, alpha=1.5, weights=None):
    """Diagonal PAR model from per-phase diagonal vectors."""
    diags = [np.atleast_1d(np.asarray(d, dtype=float)) for d in diags]
    m = diags[0].shape[0]
    pts = np.vstack([np.eye(m), -np.eye(m)])
    w = np.ones(2 * m) * 0.5 if weights is None else np.asarray(weights)
    return ParModel(
        period=len(diags),
        theta=tuple(np.diag(d) for d in diags),
        alpha=alpha,
        noise=DiscreteSpectralMeasure(points=pts, weights=w),
    )


class TestParModel:
    def test_theta_at_is_periodic(self, model1):
        for t in (-2, 1, 4, 7, 100):
            assert np.array_equal(model1.theta_at(t), model1.theta_at(t + 3))
        assert np.array_equal(model1.theta_at(1), model1.theta[0])
        assert np.array_equal(model1.theta_at(3), model1.theta[2])

    def test_validation(self):
        noise = DiscreteSpectralMeasure.symmetric([[1.0, 0.0]], [0.5])
        with pytest.raises(ValueError):
            ParModel(period=2, theta=(np.eye(2),), alpha=1.5, noise=noise)
        with pytest.raises(ValueError):
            ParModel(
                period=1, theta=(np.ones((2, 3)),), alpha=1.5, noise=noise
            )
        with pytest.raises(ValueError):  # noise dimension mismatch
            ParModel(
                period=1,
                theta=(np.eye(3),),
                alpha=1.5,
                noise=noise,
            )
        with pytest.raises(ValueError):  # alpha out of (1, 2]
            ParModel(period=1, theta=(np.eye(2) * 0.1,), alpha=1.0, noise=noise)

    def test_is_diagonal(self, model1):
        assert not model1.is_diagonal()
        assert _diagonal_model([[0.5, -0.3], [0.2, 0.1]]).is_diagonal()

    def test_period_products(self):
        m = _diagonal_model([[0.5, -0.3], [0.2, 0.1]])
        assert np.allclose(m.period_products(), [0.5 * 0.2, -0.3 * 0.1])

    def test_dict_round_trip(self, model2):
        back = ParModel.from_dict(model2.to_dict())
        assert back.period == model2.period
        assert back.alpha == model2.alpha
        for a, b in zip(back.theta, model2.theta):
            assert np.array_equal(a, b)
        assert np.allclose(back.noise.points, model2.noise.points)
        assert np.allclose(back.noise.weights, model2.noise.weights)


class TestMultiTrajectory:
    def test_component_is_one_based(self):
        traj = MultiTrajectory(values=np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(traj.component(1), [1.0, 2.0])
        assert np.array_equal(traj.component(2), [3.0, 4.0])
        with pytest.raises(ValueError):
            traj.component(0)

    def test_csv_round_trip_is_exact(self, tmp_path):
        vals = RandomStream(8).generator().normal(size=(3, 17))
        traj = MultiTrajectory(values=vals, t0=5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = MultiTrajectory.from_csv(path)
        assert back.t0 == 5
        assert np.array_equal(back.values, vals)

    def test_from_csv_rejects_non_consecutive_time(self, tmp_path):
        path = tmp_path / "gapped.csv"
        path.write_text("t,x1\n1,0.5\n2,-1.0\n10,0.3\n9,0.2\n11,1.1\n")
        with pytest.raises(DataError, match="consecutive"):
            MultiTrajectory.from_csv(path)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            MultiTrajectory(values=np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            MultiTrajectory(values=np.array([[1.0, np.inf]]))


class TestGProduct:
    def test_identity_at_j_zero(self, model1):
        assert np.array_equal(g_product(model1, 5, 0).matrix, np.eye(2))

    def test_single_factor(self, model1):
        assert np.array_equal(g_product(model1, 4, 1).matrix, model1.theta_at(4))

    @given(
        t=st.integers(-5, 10),
        j1=st.integers(0, 6),
        j2=st.integers(0, 6),
    )
    @settings(max_examples=40)
    def test_cocycle(self, t, j1, j2):
        """g(t, t-j1-j2+1) = g(t, t-j1+1) g(t-j1, t-j1-j2+1): products over
        adjacent index windows compose."""
        model = _diagonal_model([[0.5, -0.3], [0.2, 0.1], [0.7, 0.4]])
        full = g_product(model, t, j1 + j2).matrix
        split = g_product(model, t, j1).matrix @ g_product(model, t - j1, j2).matrix
        assert np.allclose(full, split, atol=1e-12)

    def test_periodicity(self, model2):
        for j in (0, 1, 2, 5):
            assert np.allclose(
                g_product(model2, 3, j).matrix,
                g_product(model2, 3 + model2.period, j).matrix,
            )


class TestBoundedness:
    def test_diagonal_exact_criterion(self):
        ok = _diagonal_model([[0.9, -0.9], [0.99, 0.99]])
        rep = check_boundedness(ok)
        assert rep.bounded and rep.diagonal
        assert np.allclose(np.abs(rep.period_products), [0.891, 0.8911], atol=1e-4)

        bad = _diagonal_model([[1.1], [1.0]])
        rep2 = check_boundedness(bad)
        assert not rep2.bounded
        assert "|P" in rep2.detail or "product" in rep2.detail.lower()

    def test_model2_spectral_radius(self, model2):
        """The over-one-period coefficient product of the 3-D benchmark has
        spectral radius about 0.6391; well inside the bounded region even
        though single-phase matrices are not contractions."""
        rep = check_boundedness(model2)
        assert rep.bounded and not rep.diagonal
        assert rep.spectral_radius == pytest.approx(0.639105, abs=1e-4)

    def test_benchmarks_bounded(self, model1, model2):
        assert check_boundedness(model1).bounded
        assert check_boundedness(model2).bounded


class TestSimulate:
    def test_deterministic_given_stream(self, model1):
        a = simulate_par1(model1, 300, RandomStream(9))
        b = simulate_par1(model1, 300, RandomStream(9))
        assert np.array_equal(a.values, b.values)

    def test_shape_and_t0(self, model2):
        traj = simulate_par1(model2, 250, RandomStream(10))
        assert traj.values.shape == (3, 250)
        assert traj.t0 == 1

    def test_refuses_unbounded_model(self):
        bad = _diagonal_model([[1.2]])
        with pytest.raises(UnboundedModelError):
            simulate_par1(bad, 100, RandomStream(11))
        # explicit override simulates anyway
        traj = simulate_par1(bad, 100, RandomStream(11), allow_unbounded=True)
        assert traj.values.shape == (1, 100)

    def test_zero_coefficients_give_iid_noise(self):
        """With Theta = 0 the trajectory is exactly the noise sequence, so
        lag-one products carry no dependence."""
        model = ParModel(
            period=1,
            theta=(np.zeros((2, 2)),),
            alpha=1.8,
            noise=DiscreteSpectralMeasure.symmetric([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        )
        traj = simulate_par1(model, 5000, RandomStream(12))
        x = traj.values
        lag1 = np.mean(x[:, 1:] * x[:, :-1], axis=1) / np.mean(x**2, axis=1)
        assert np.all(np.abs(lag1) < 0.1)

    def test_gaussian_ar1_special_case(self):
        """Scalar AR(1) with alpha = 2 noise (+-1 atoms, weight 0.5) is a
        Gaussian AR(1) with innovation variance 2 and lag-one
        autocorrelation theta."""
        ar = _diagonal_model([[0.5]], alpha=2.0)
        x = simulate_par1(ar, 2 * 10**4, RandomStream(6)).values[0]
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho == pytest.approx(0.5, abs=0.05)
        assert x.var() == pytest.approx(2.0 / (1.0 - 0.25), rel=0.1)

    def test_estimator_converges_on_long_sample(self, model1):
        """Consistency check at L = 10^6: every recovered coefficient within
        0.02 of the truth (heavy-tailed noise keeps shorter runs noisier
        than Gaussian intuition suggests)."""
        traj = simulate_par1(model1, 10**6, RandomStream(1))
        est = yw_cv_estimate(traj, 3)
        dev = np.max(np.abs(np.stack(est.theta_hat) - np.stack(model1.theta)))
        assert dev < 0.02

    def test_simulate_paths_shape_and_determinism(self, model1):
        x0 = np.array([0.3, -0.2])
        a = simulate_paths(model1, x0, t_start=4, n_steps=6, n_paths=50, rng=RandomStream(13))
        b = simulate_paths(model1, x0, t_start=4, n_steps=6, n_paths=50, rng=RandomStream(13))
        assert a.shape == (50, 2, 6)
        assert np.array_equal(a, b)


def _reference_recursion(model, x, t_first, z):
    """Per-step ``Theta(t) @ x + z`` loop: ``z[k]`` drives time ``t_first + k``."""
    out = np.empty((len(z), model.dim))
    for k in range(len(z)):
        x = model.theta_at(t_first + k) @ x + z[k]
        out[k] = x
    return out


class TestSimulateReplicates:
    @pytest.mark.parametrize("preset", ["model1", "model2"])
    @pytest.mark.parametrize("burn_in", [None, 0, 7])
    def test_matches_reference_loop(self, preset, burn_in, request):
        model = request.getfixturevalue(preset)
        streams = [RandomStream(31).substream(i) for i in range(5)]
        paths = simulate_replicates(model, 40, streams, burn_in=burn_in)
        assert paths.shape == (5, model.dim, 40)
        n_burn = 50 * model.period if burn_in is None else burn_in
        for i, rng in enumerate(streams):
            z = sample_stable_vector(model.noise, model.alpha, n_burn + 40, rng)
            ref = _reference_recursion(model, np.zeros(model.dim), 1 - n_burn, z)[n_burn:]
            np.testing.assert_allclose(paths[i], ref.T, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_rows_equal_single_stream_runs(self, preset, request):
        model = request.getfixturevalue(preset)
        streams = [RandomStream(32).substream(0, i) for i in range(40)]
        paths = simulate_replicates(model, 60, streams, burn_in=9)
        for i, rng in enumerate(streams):
            assert np.array_equal(paths[i], simulate_par1(model, 60, rng, burn_in=9).values)

    def test_checks_boundedness_once_per_call(self, boundedness_calls, model1):
        calls = boundedness_calls
        simulate_replicates(model1, 30, [RandomStream(33).substream(i) for i in range(8)])
        assert len(calls) == 1
        bad = _diagonal_model([[1.2]])
        with pytest.raises(UnboundedModelError):
            simulate_replicates(bad, 30, [RandomStream(34).substream(i) for i in range(8)])
        assert len(calls) == 2
        paths = simulate_replicates(
            bad, 30, [RandomStream(34)], burn_in=0, allow_unbounded=True
        )
        assert len(calls) == 2 and paths.shape == (1, 1, 30)

    def test_input_validation(self, model1):
        with pytest.raises(ValueError, match="burn_in"):
            simulate_replicates(model1, 30, [RandomStream(1)], burn_in=-1)
        with pytest.raises(ValueError, match="one period"):
            simulate_replicates(model1, 2, [RandomStream(1)])

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_simulate_paths_matches_reference_loop(self, preset, request):
        model = request.getfixturevalue(preset)
        x0 = np.linspace(-0.5, 0.7, model.dim)
        rng = RandomStream(35)
        paths = simulate_paths(model, x0, t_start=5, n_steps=8, n_paths=30, rng=rng)
        z = np.stack([
            sample_stable_vector(model.noise, model.alpha, 30, rng.substream(k))
            for k in range(8)
        ])  # (step, path, m)
        for p in range(30):
            ref = _reference_recursion(model, x0, 6, z[:, p])
            np.testing.assert_allclose(paths[p], ref.T, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


class TestTheoreticalCv:
    def test_diagonal_closed_form_vs_series(self):
        """The truncated series must agree with the exact telescoped form
        on diagonal models; a handful of randomized cases at several
        (s, t) offsets."""
        gen = np.random.default_rng(42)
        for k in range(6):
            alpha = (1.2, 1.5, 1.8)[k % 3]
            T = int(gen.integers(1, 4))
            m = int(gen.integers(1, 3))
            diags = [gen.uniform(-0.9, 0.9, size=m) for _ in range(T)]
            model = _diagonal_model(diags, alpha=alpha, weights=gen.uniform(0.2, 1.0, size=2 * m))
            if not check_boundedness(model).bounded:
                continue
            for s, t in [(1, 1), (3, 2), (2, 4)]:
                for r in range(1, m + 1):
                    for l in range(1, m + 1):
                        assert theoretical_cv(model, r, l, s, t) == pytest.approx(
                            theoretical_cv_diagonal(model, r, l, s, t), abs=1e-8
                        )

    def test_tail_warning_fires_on_short_truncation(self):
        slow = _diagonal_model([[0.97]], alpha=1.5)
        with pytest.warns(UserWarning, match="tail"):
            theoretical_cv(slow, 1, 1, 1, 1, truncation=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theoretical_cv(slow, 1, 1, 1, 1, truncation=2000)

    def test_periodic_in_both_time_indices(self, model1):
        a = theoretical_cv(model1, 1, 2, 2, 1)
        b = theoretical_cv(model1, 1, 2, 5, 4)
        assert a == pytest.approx(b, rel=1e-9)

    def test_phase_matrix_normalized_diagonal(self, model1):
        """At lag 0 the normalized matrix has unit diagonal by construction
        (each entry is divided by the matching auto-covariation)."""
        for v in (0, 1, 2, 3):
            mat = theoretical_phase_matrix(model1, v, 0)
            assert np.allclose(np.diag(mat), 1.0, atol=1e-12)

    def test_phase_matrix_unnormalized_scales(self, model1):
        raw = theoretical_phase_matrix(model1, 1, 0, normalized=False)
        nrm = theoretical_phase_matrix(model1, 1, 0, normalized=True)
        # same sign pattern, diagonal of raw holds the covariation norms
        assert np.all(np.sign(raw) == np.sign(nrm))
        assert np.all(np.diag(raw) > 0)
