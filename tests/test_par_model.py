"""Periodic autoregression: model container, coefficient products,
boundedness, simulation, and theoretical covariation values."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepar.exceptions import DataError, NumericalError, UnboundedModelError
from stablepar.par_model import (
    MultiTrajectory,
    ParModel,
    _write_csv,
    check_boundedness,
    g_product,
    simulate_par1,
)
from stablepar.estimators import yw_cv_estimate
from stablepar.rng import RandomStream
from stablepar.stable import (
    DiscreteSpectralMeasure,
    sample_stable_vector,
    signed_power,
)

from oracles import (
    char_function,
    empirical_char_function,
    is_diagonal,
    one_path,
    period_products,
    simulate_paths,
    theoretical_cv,
    theoretical_cv_diagonal,
    theoretical_phase_matrix,
)


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
        assert not is_diagonal(model1)
        assert is_diagonal(_diagonal_model([[0.5, -0.3], [0.2, 0.1]]))

    def test_period_products(self):
        m = _diagonal_model([[0.5, -0.3], [0.2, 0.1]])
        assert np.allclose(period_products(m), [0.5 * 0.2, -0.3 * 0.1])

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
        vals[0, 3], vals[2, 9] = 1e-320, 1e300  # subnormal and near-overflow
        traj = MultiTrajectory(values=vals, t0=5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = MultiTrajectory.from_csv(path)
        assert back.t0 == 5
        assert np.array_equal(back.values, vals)

    def test_csv_dialect_of_the_one_writer(self, tmp_path):
        path = tmp_path / "labeled.csv"
        _write_csv(path, ["date", "x1"], [["Jan 1, 2020", "0.5"], ["Jan 2, 2020", "-1.5"]])
        assert path.read_bytes() == (
            b'date,x1\r\n"Jan 1, 2020",0.5\r\n"Jan 2, 2020",-1.5\r\n'
        )
        back = MultiTrajectory.from_csv(path, columns="date,x1")
        assert np.array_equal(back.values, [[0.5, -1.5]])

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
        assert np.array_equal(g_product(model1, 5, 0), np.eye(2))

    def test_single_factor(self, model1):
        assert np.array_equal(g_product(model1, 4, 1), model1.theta_at(4))

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
        full = g_product(model, t, j1 + j2)
        split = g_product(model, t, j1) @ g_product(model, t - j1, j2)
        assert np.allclose(full, split, atol=1e-12)

    def test_periodicity(self, model2):
        for j in (0, 1, 2, 5):
            assert np.allclose(
                g_product(model2, 3, j),
                g_product(model2, 3 + model2.period, j),
            )


class TestBoundedness:
    def test_diagonal_exact_criterion(self):
        """A diagonal model's monodromy is diag(P_r): its spectral radius
        is max |P_r|."""
        ok = _diagonal_model([[0.9, -0.9], [0.99, 0.99]])
        rep = check_boundedness(ok)
        assert rep.bounded
        assert rep.spectral_radius == pytest.approx(0.8911, abs=1e-4)
        assert rep.spectral_radius == pytest.approx(
            np.max(np.abs(period_products(ok))), rel=1e-15
        )

        bad = _diagonal_model([[1.1], [1.0]])
        rep2 = check_boundedness(bad)
        assert not rep2.bounded
        assert "monodromy spectral radius" in rep2.detail

    def test_diagonal_near_unit_product_is_refused(self):
        """max |P_r| = 1 - 1e-9 lies inside the 1e-8 margin every model
        keeps, diagonal or not."""
        near = _diagonal_model([[1.0 - 1e-9, 0.5]])
        assert not check_boundedness(near).bounded
        with pytest.raises(UnboundedModelError, match="monodromy spectral radius"):
            one_path(near, 10, RandomStream(12))

    def test_model2_spectral_radius(self, model2):
        """The over-one-period coefficient product of the 3-D benchmark has
        spectral radius about 0.6391; well inside the bounded region even
        though single-phase matrices are not contractions."""
        rep = check_boundedness(model2)
        assert rep.bounded
        assert rep.spectral_radius == pytest.approx(0.639105, abs=1e-4)

    def test_benchmarks_bounded(self, model1, model2):
        assert check_boundedness(model1).bounded
        assert check_boundedness(model2).bounded


class TestSimulate:
    def test_deterministic_given_stream(self, model1):
        a = one_path(model1, 300, RandomStream(9))
        b = one_path(model1, 300, RandomStream(9))
        assert np.array_equal(a.values, b.values)

    def test_shape_and_t0(self, model2):
        traj = one_path(model2, 250, RandomStream(10))
        assert traj.values.shape == (3, 250)
        assert traj.t0 == 1

    def test_refuses_unbounded_model(self):
        bad = _diagonal_model([[1.2]])
        with pytest.raises(UnboundedModelError):
            one_path(bad, 100, RandomStream(11))

    def test_zero_coefficients_give_iid_noise(self):
        """With Theta = 0 the trajectory is exactly the noise sequence, so
        lag-one products carry no dependence."""
        model = ParModel(
            period=1,
            theta=(np.zeros((2, 2)),),
            alpha=1.8,
            noise=DiscreteSpectralMeasure.symmetric([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
        )
        traj = one_path(model, 5000, RandomStream(12))
        x = traj.values
        lag1 = np.mean(x[:, 1:] * x[:, :-1], axis=1) / np.mean(x**2, axis=1)
        assert np.all(np.abs(lag1) < 0.1)

    def test_gaussian_ar1_special_case(self):
        """Scalar AR(1) with alpha = 2 noise (+-1 atoms, weight 0.5) is a
        Gaussian AR(1) with innovation variance 2 and lag-one
        autocorrelation theta."""
        ar = _diagonal_model([[0.5]], alpha=2.0)
        x = one_path(ar, 2 * 10**4, RandomStream(6)).values[0]
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert rho == pytest.approx(0.5, abs=0.05)
        assert x.var() == pytest.approx(2.0 / (1.0 - 0.25), rel=0.1)

    def test_estimator_converges_on_long_sample(self, model1):
        """Consistency check at L = 10^6: every recovered coefficient within
        0.02 of the truth (heavy-tailed noise keeps shorter runs noisier
        than Gaussian intuition suggests)."""
        traj = one_path(model1, 10**6, RandomStream(1))
        est = yw_cv_estimate(traj, 3)
        dev = np.max(np.abs(np.stack(est.theta_hat) - np.stack(model1.theta)))
        assert dev < 0.02

    def test_simulate_paths_shape_and_determinism(self, model1):
        """Shape and determinism of the test-only path oracle."""
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
        paths = simulate_par1(model, 40, streams, burn_in=burn_in)
        assert paths.shape == (5, model.dim, 40)
        n_burn = 50 * model.period if burn_in is None else burn_in
        noise = model.noise.folded()
        for i, rng in enumerate(streams):
            z = sample_stable_vector(noise, model.alpha, n_burn + 40, rng)
            ref = _reference_recursion(model, np.zeros(model.dim), 1 - n_burn, z)[n_burn:]
            np.testing.assert_allclose(paths[i], ref.T, rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_rows_equal_single_stream_runs(self, preset, request):
        model = request.getfixturevalue(preset)
        streams = [RandomStream(32).substream(0, i) for i in range(40)]
        paths = simulate_par1(model, 60, streams, burn_in=9)
        for i, rng in enumerate(streams):
            assert np.array_equal(paths[i], one_path(model, 60, rng, burn_in=9).values)

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_rows_draw_at_their_own_alpha(self, preset, request):
        """With per-stream ``alphas``, row i equals a one-stream run of the
        model at ``alphas[i]``."""
        model = request.getfixturevalue(preset)
        streams = [RandomStream(36).substream(1, i) for i in range(40)]
        alphas = [(1.3, 1.9)[i % 2] for i in range(40)]
        paths = simulate_par1(model, 60, streams, burn_in=9, alphas=alphas)
        for i, rng in enumerate(streams):
            one = one_path(replace(model, alpha=alphas[i]), 60, rng, burn_in=9)
            assert np.array_equal(paths[i], one.values), i

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_noise_has_the_measure_law(self, preset, request):
        """With zero coefficients and no burn-in each path is its noise:
        10^5 draws match the measure's characteristic function on the
        (-2, 0, 2)^m grid within criterion 08's 0.02."""
        model = request.getfixturevalue(preset)
        zero = ParModel(model.period, [np.zeros((model.dim, model.dim))] * model.period,
                        model.alpha, model.noise)
        z = simulate_par1(zero, 10**5, [RandomStream(123).substream(4)], burn_in=0)[0]
        grid = np.array(list(itertools.product((-2.0, 0.0, 2.0), repeat=model.dim)))
        dev = empirical_char_function(z.T, grid) - char_function(model.noise, model.alpha, grid)
        assert np.max(np.abs(dev)) <= 0.02

    def test_checks_boundedness_once_per_call(self, boundedness_calls, model1):
        calls = boundedness_calls
        simulate_par1(model1, 30, [RandomStream(33).substream(i) for i in range(8)])
        assert len(calls) == 1
        bad = _diagonal_model([[1.2]])
        with pytest.raises(UnboundedModelError):
            simulate_par1(bad, 30, [RandomStream(34).substream(i) for i in range(8)])
        assert len(calls) == 2

    def test_input_validation(self, model1):
        with pytest.raises(ValueError, match="burn_in"):
            simulate_par1(model1, 30, [RandomStream(1)], burn_in=-1)
        with pytest.raises(ValueError, match="one period"):
            simulate_par1(model1, 2, [RandomStream(1)])
        with pytest.raises(ValueError, match="shorter"):
            simulate_par1(model1, 30, [RandomStream(1), RandomStream(2)], alphas=[1.5])

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_simulate_paths_matches_reference_loop(self, preset, request):
        """The test-only path oracle (``oracles.simulate_paths``) runs
        the recursion a per-path reference loop runs, on its documented
        draws."""
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


def _reference_cv_matrix(model, s, t, n_terms=3000):
    """``CV(X_r(s), X_l(t))`` for all (r, l): the moving-average series
    over the shared noise times ``min(s, t) - j``, one term per j."""
    m_star = min(s, t)
    lead_s = g_product(model, s, s - m_star)
    lead_t = g_product(model, t, t - m_star)
    tails = [np.eye(model.dim)]  # g_product(model, m_star, j), j = 0, 1, ...
    for j in range(1, n_terms):
        tails.append(tails[-1] @ model.theta_at(m_star - j + 1))
    tails = np.stack(tails)
    a = lead_s @ tails @ model.noise.points.T  # (n_terms, m, n_atoms)
    b = signed_power(lead_t @ tails @ model.noise.points.T, model.alpha - 1.0)
    return np.einsum("jrk,k,jlk->rl", a, model.noise.weights, b)


class TestTheoreticalCv:
    def test_diagonal_closed_form_vs_series(self):
        """The general series must agree with the exact telescoped form
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

    def test_converges_or_raises_named_error(self, model1):
        """The series is summed to convergence or fails by name: a slowly
        decaying model meets the closed form with no warning, a model
        without a bounded solution is refused, and a near-unit monodromy
        names its spectral radius."""
        slow = _diagonal_model([[0.97]], alpha=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert theoretical_cv(slow, 1, 1, 1, 1) == pytest.approx(
                theoretical_cv_diagonal(slow, 1, 1, 1, 1), rel=1e-10, abs=1e-10
            )
        explosive = _diagonal_model([[1.2, 1.2], [1.2, 1.2]])
        with pytest.raises(UnboundedModelError):
            theoretical_cv(explosive, 1, 1, 1, 1)
        with pytest.raises(UnboundedModelError):
            theoretical_phase_matrix(explosive, 1, 0)
        near = ParModel(
            period=3,
            theta=(np.array([[0.99999, 0.2], [0.0, 0.5]]), np.eye(2), np.eye(2)),
            alpha=model1.alpha,
            noise=model1.noise,
        )
        with pytest.raises(NumericalError, match="monodromy spectral radius 0.99999"):
            theoretical_cv(near, 1, 1, 1, 1)

    @pytest.mark.parametrize("preset", ["model1", "model2"])
    def test_matches_term_by_term_series(self, preset, request):
        """Every phase, component pair and lag in -T-1..T+1 against the
        moving-average series summed term by term to a fixed 3000 terms."""
        model = request.getfixturevalue(preset)
        T = model.period
        for h in range(-T - 1, T + 2):
            for v in range(1, T + 1):
                ref = _reference_cv_matrix(model, v, v - h)
                np.testing.assert_allclose(
                    theoretical_phase_matrix(model, v, h, normalized=False),
                    ref, rtol=0, atol=1e-12,
                )
                assert theoretical_cv(model, 2, 1, v, v - h) == pytest.approx(
                    ref[1, 0], rel=0, abs=1e-12
                )

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
