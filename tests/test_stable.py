"""Stable-law building blocks: signed powers, samplers, characteristic
functions, quantile parameter fits, CDF evaluation, goodness of fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from stablepar.rng import RandomStream
from stablepar.stable import (
    DiscreteSpectralMeasure,
    StableParams,
    ad_stable_test,
    char_function,
    empirical_char_function,
    mcculloch_estimate,
    sample_sas_1d,
    sample_stable_vector,
    signed_power,
    stable_cdf,
    stable_quantile,
)


class TestSignedPower:
    def test_plain_values(self):
        assert signed_power(2.0, 2.0) == 4.0
        assert signed_power(-2.0, 1.0) == -2.0
        assert signed_power(-4.0, 0.5) == -2.0
        assert signed_power(0.0, 0.8) == 0.0
        assert signed_power(0.0, 0.0) == 0.0
        # 0th signed power of a negative number is its sign
        assert signed_power(-3.0, 0.0) == -1.0

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 3.0])
        out = signed_power(x, 2.0)
        assert np.array_equal(out, [-4.0, 0.0, 9.0])

    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        a=st.floats(0.1, 3.0),
    )
    def test_odd_symmetry(self, x, a):
        assert signed_power(-x, a) == pytest.approx(-signed_power(x, a), abs=1e-12)

    @given(
        x=st.floats(-1e3, 1e3, allow_nan=False),
        a=st.floats(0.1, 3.0),
    )
    def test_magnitude(self, x, a):
        assert abs(signed_power(x, a)) == pytest.approx(abs(x) ** a, rel=1e-12)


class TestStableParams:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            StableParams(alpha=0.9, scale=1.0)
        with pytest.raises(ValueError):
            StableParams(alpha=2.1, scale=1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            StableParams(alpha=1.5, scale=-1.0)


class TestSpectralMeasure:
    def test_symmetric_constructor_mirrors_atoms(self):
        m = DiscreteSpectralMeasure.symmetric([[1.0, 0.0]], [0.3])
        assert m.n_atoms == 2
        assert m.dim == 2
        assert m.total_mass == pytest.approx(0.6)
        assert m.is_symmetric()

    def test_asymmetric_measure_detected(self):
        m = DiscreteSpectralMeasure([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.4])
        assert not m.is_symmetric()

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            DiscreteSpectralMeasure([[1.0, 0.0]], [0.0])

    def test_rejects_off_sphere_points(self):
        with pytest.raises(ValueError):
            DiscreteSpectralMeasure([[1.0, 1.0]], [0.5])

    def test_dict_round_trip(self):
        m = DiscreteSpectralMeasure.symmetric(
            [[0.5, np.sqrt(3) / 2], [-0.5, np.sqrt(3) / 2]], [0.5, 0.2]
        )
        back = DiscreteSpectralMeasure.from_dict(m.to_dict())
        assert np.allclose(back.points, m.points)
        assert np.allclose(back.weights, m.weights)


class TestSamplers:
    def test_repeated_draws_identical(self):
        """Samplers spawn a fresh generator from the stream each call, so
        the same stream always produces the same numbers."""
        rng = RandomStream(123).substream(3)
        p = StableParams(1.5, 1.0)
        a = sample_sas_1d(p, 100, rng)
        b = sample_sas_1d(p, 100, rng)
        assert np.array_equal(a, b)

    def test_gaussian_case_variance(self):
        # alpha = 2 is Gaussian with variance 2 * scale^2
        x = sample_sas_1d(StableParams(2.0, 1.0), 10**5, RandomStream(123).substream(1))
        assert x.var() == pytest.approx(2.0, rel=0.02)

    def test_one_d_ecf(self):
        # E cos(X) = exp(-sigma^alpha) for a SaS variate
        x = sample_sas_1d(StableParams(1.5, 1.0), 10**5, RandomStream(123).substream(2))
        assert np.mean(np.cos(x)) == pytest.approx(np.exp(-1.0), abs=0.01)

    def test_vector_sampler_degenerate_direction(self):
        # all mass on +-e1: second coordinate is exactly zero
        md = DiscreteSpectralMeasure.symmetric([[1.0, 0.0]], [0.3])
        z = sample_stable_vector(md, 1.5, 1000, RandomStream(123).substream(5))
        assert np.allclose(z[:, 1], 0.0)

    def test_vector_sampler_marginal_scale(self):
        # mass 0.3 on each of +-e1 gives first-coordinate scale (0.6)^(1/alpha):
        # E cos(Z_1) = exp(-0.6)
        md = DiscreteSpectralMeasure.symmetric([[1.0, 0.0]], [0.3])
        z = sample_stable_vector(md, 1.5, 10**5, RandomStream(123).substream(8))
        assert np.mean(np.cos(z[:, 0])) == pytest.approx(np.exp(-0.6), abs=0.01)

    def test_rejects_alpha_at_or_below_one(self):
        md = DiscreteSpectralMeasure.symmetric([[1.0, 0.0]], [0.3])
        with pytest.raises(ValueError):
            sample_stable_vector(md, 1.0, 10, RandomStream(0))


class TestCharFunctions:
    def test_single_atom_value(self):
        m = DiscreteSpectralMeasure([[1.0, 0.0]], [1.0])
        assert char_function(m, 2.0, [1.0, 0.0]) == pytest.approx(np.exp(-1.0))

    def test_mirrored_atoms_value(self):
        m = DiscreteSpectralMeasure.symmetric([[1.0, 0.0]], [0.5])
        assert char_function(m, 1.5, [2.0, 0.0]) == pytest.approx(np.exp(-(2.0**1.5)))

    def test_value_at_origin_is_one(self):
        m = DiscreteSpectralMeasure.symmetric([[0.6, 0.8]], [0.7])
        assert char_function(m, 1.3, [0.0, 0.0]) == pytest.approx(1.0)

    def test_batch_theta(self):
        m = DiscreteSpectralMeasure.symmetric([[0.6, 0.8]], [0.7])
        grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals = char_function(m, 1.5, grid)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(1.0)

    def test_ecf_matches_cf_on_model_noise(self, model1):
        z = sample_stable_vector(
            model1.noise, model1.alpha, 10**5, RandomStream(123).substream(4)
        )
        grid = np.array([[t1, t2] for t1 in (-2.0, 0.0, 2.0) for t2 in (-2.0, 0.0, 2.0)])
        dev = np.abs(
            empirical_char_function(z, grid) - char_function(model1.noise, model1.alpha, grid)
        )
        assert np.max(dev) < 0.02


class TestMcculloch:
    def test_recovers_alpha_and_scale(self):
        x = sample_sas_1d(StableParams(1.41, 1.0), 10**5, RandomStream(123).substream(6))
        p = mcculloch_estimate(x)
        assert p.alpha == pytest.approx(1.41, abs=0.05)
        assert p.scale == pytest.approx(1.0, rel=0.05)

    def test_gaussian_endpoint(self):
        x = sample_sas_1d(StableParams(2.0, 1.0), 10**5, RandomStream(123).substream(7))
        p = mcculloch_estimate(x)
        assert p.alpha == pytest.approx(2.0, abs=0.05)

    def test_scale_equivariance(self):
        """Multiplying the sample by c leaves alpha-hat unchanged (the
        tail statistic is a quantile ratio) and multiplies scale-hat by c."""
        x = sample_sas_1d(StableParams(1.41, 1.0), 10**4, RandomStream(123).substream(6))
        p = mcculloch_estimate(x)
        q = mcculloch_estimate(10.0 * x)
        assert q.alpha == pytest.approx(p.alpha, abs=1e-12)
        assert q.scale == pytest.approx(10.0 * p.scale, rel=1e-12)


class TestStableCdf:
    def test_median_is_half(self):
        assert stable_cdf(StableParams(2.0, 1.0), 0.0) == pytest.approx(0.5)

    def test_gaussian_case_matches_normal(self):
        # alpha=2, scale sigma is N(0, 2 sigma^2)
        for x in (-1.5, 0.3, 2.0):
            assert stable_cdf(StableParams(2.0, 1.0), x) == pytest.approx(
                norm.cdf(x / np.sqrt(2.0)), abs=1e-6
            )

    def test_symmetry(self):
        p = StableParams(1.3, 2.0)
        total = stable_cdf(p, 3.7) + stable_cdf(p, -3.7)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_monotone(self):
        p = StableParams(1.5, 1.0)
        xs = np.linspace(-20, 20, 81)
        vals = np.array([stable_cdf(p, x) for x in xs])
        assert np.all(np.diff(vals) > 0)

    def test_tail_mass(self):
        """Far tails follow the stable power law 1 - F(x) ~ C(alpha) x^-alpha
        with C(alpha) = Gamma(alpha) sin(pi alpha / 2) / pi... checked
        against quadrature rather than the constant: mass beyond 10 for
        alpha = 1.5 is about 2 percent."""
        p = StableParams(1.5, 1.0)
        upper = 1.0 - stable_cdf(p, 10.0)
        assert 0.005 < upper < 0.05


class TestStableQuantile:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8, 2.0])
    def test_inverts_stable_cdf(self, alpha):
        """At alpha = 1.1 the order 0.999 lies past z = 50 (z ~ 178),
        where the power-tail series branch inverts it."""
        p = StableParams(alpha, 1.0)
        for q in (0.001, 0.05, 0.25, 0.5, 0.9, 0.999):
            assert stable_cdf(p, stable_quantile(p, q)) == pytest.approx(q, abs=1e-6)
        assert stable_quantile(StableParams(1.1, 1.0), 0.999) > 50.0

    def test_gaussian_case_matches_normal(self):
        p = StableParams(2.0, 1.0)
        for q in (0.001, 0.05, 0.25, 0.5, 0.9, 0.999):
            assert stable_quantile(p, q) == pytest.approx(
                np.sqrt(2.0) * norm.ppf(q), abs=1e-8
            )

    def test_scale_and_symmetry(self):
        z = stable_quantile(StableParams(1.4, 1.0), 0.8)
        assert stable_quantile(StableParams(1.4, 2.5), 0.8) == pytest.approx(2.5 * z)
        assert stable_quantile(StableParams(1.4, 1.0), 0.2) == pytest.approx(-z, rel=1e-12)

    def test_order_range(self):
        for q in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                stable_quantile(StableParams(1.5, 1.0), q)


class TestAdTest:
    def test_p_value_range_and_determinism(self):
        x = sample_sas_1d(StableParams(1.5, 1.0), 1000, RandomStream(123).substream(9))
        p1 = ad_stable_test(x, n_sims=100, rng=RandomStream(123).substream(10))
        p2 = ad_stable_test(x, n_sims=100, rng=RandomStream(123).substream(10))
        assert 0.0 <= p1 <= 1.0
        assert p1 == p2

    def test_rejects_clearly_non_stable_data(self):
        # uniform on [0, 1] is nowhere near any symmetric stable law
        x = RandomStream(11).generator().uniform(0.0, 1.0, size=1000)
        p = ad_stable_test(x, n_sims=100, rng=RandomStream(12))
        assert p < 0.05


class TestTailSeries:
    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 1.8, 2.0])
    def test_matches_series_with_scipy_gamma(self, alpha):
        """The power-tail series uses math.gamma; scipy's gamma gives the
        same upper probabilities to rounding."""
        from scipy.special import gamma

        from stablepar.stable import _tail_upper_prob

        z = np.array([30.0, 50.0, 80.0, 1e3])
        k = np.arange(1, 11)[:, None]
        terms = ((-1.0) ** (k + 1) / np.pi * gamma(alpha * k)
                 / np.cumprod(k)[:, None] * np.sin(k * np.pi * alpha / 2.0)
                 * z ** (-alpha * k))
        expected = np.clip(terms.sum(axis=0), 0.0, 0.5)
        np.testing.assert_allclose(_tail_upper_prob(z, alpha), expected,
                                   rtol=1e-13, atol=1e-18)
