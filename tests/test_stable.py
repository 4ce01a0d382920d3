"""Stable-law building blocks: signed powers, samplers, characteristic
functions, quantile parameter fits, CDF evaluation, goodness of fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from stablepar import stable
from stablepar.covariation import estimate_spectral_measure_2d
from stablepar.exceptions import DataError, TableRangeError
from stablepar.rng import RandomStream
from stablepar.stable import (
    ALPHA_FLOOR,
    NU_MAX,
    _GOF_ALPHAS,
    _GOF_BLOCK,
    _GOF_EXCEEDANCES,
    _GOF_Z_MAX,
    _GOF_Z_ASINH,
    DiscreteSpectralMeasure,
    StableParams,
    _ad_sorted,
    _ad_statistic,
    _gof_table,
    _inversion,
    _mcculloch_sorted,
    _quantile_functionals,
    ad_stable_test,
    char_function,
    empirical_char_function,
    iqr_constant,
    mcculloch_estimate,
    sample_sas_1d,
    sample_stable_vector,
    signed_power,
    sorted_quantiles,
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

    def test_draws_are_the_cms_formula_on_the_stream(self):
        """Both samplers are the Chambers-Mallows-Stuck expression on the
        stream's uniforms, then its exponentials, bit for bit: a
        ``(seed, path)`` pair keeps its draws."""
        def cms(alpha, size, rng):
            gen = rng.generator()
            u = gen.uniform(-np.pi / 2.0, np.pi / 2.0, size=size)
            e = gen.standard_exponential(size=size)
            return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
                    * (np.cos(u - alpha * u) / e) ** ((1.0 - alpha) / alpha))

        rng = RandomStream(123).substream(7)
        for alpha in (1.05, 1.5, 2.0):
            got = sample_sas_1d(StableParams(alpha, 1.7), 2999, rng)
            assert np.array_equal(got, 1.7 * cms(alpha, 2999, rng))
        md = DiscreteSpectralMeasure(
            [[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]], [0.3, 0.5, 0.2])
        got = sample_stable_vector(md, 1.7, 501, rng)
        w = cms(1.7, (501, 3), rng)
        assert np.array_equal(got, (w * md.weights ** (1.0 / 1.7)) @ md.points)

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


def _fitted_measure():
    """A projection-method fit: mirror pairs on the fit's direction grid."""
    z = sample_stable_vector(
        DiscreteSpectralMeasure.symmetric([[0.6, 0.8], [1.0, 0.0]], [0.4, 0.3]),
        1.5, 5000, RandomStream(123).substream(9),
    )
    return estimate_spectral_measure_2d(z, 1.5)


#: builders of the measures to fold, called with the model1 and model2 noise
FOLD_MEASURES = {
    "model1": lambda n1, n2: n1,
    "model2": lambda n1, n2: n2,
    "fitted": lambda n1, n2: _fitted_measure(),
    "unequal mirrors": lambda n1, n2: DiscreteSpectralMeasure(
        [[0.6, 0.8], [1.0, 0.0], [-0.6, -0.8]], [0.3, 0.5, 0.1]
    ),
    "no mirrors": lambda n1, n2: DiscreteSpectralMeasure(
        [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], [0.3, 0.5, 0.1]
    ),
}


class TestFoldedMeasure:
    """``folded`` keeps one atom per line and the same law exactly."""

    @pytest.mark.parametrize("name", FOLD_MEASURES)
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_same_char_function(self, name, alpha, model1, model2):
        m = FOLD_MEASURES[name](model1.noise, model2.noise)
        theta = RandomStream(124).generator().normal(size=(50, m.dim))
        np.testing.assert_allclose(
            char_function(m.folded(), alpha, theta), char_function(m, alpha, theta),
            rtol=1e-14, atol=0.0,
        )

    def test_presets_fold_to_one_atom_per_line(self, model1, model2):
        f1 = model1.noise.folded()
        assert np.array_equal(f1.points, model1.noise.points[:2])
        assert np.array_equal(f1.weights, [1.0, 0.4])
        f2 = model2.noise.folded()
        # model2 lists each atom next to its mirror
        assert f2.n_atoms == 4
        assert np.array_equal(f2.points, model2.noise.points[::2])
        assert np.array_equal(f2.weights, 2.0 * model2.noise.weights[::2])

    def test_fitted_measure_halves(self):
        m = _fitted_measure()
        assert m.is_symmetric(tol=1e-12)
        assert m.folded().n_atoms == m.n_atoms // 2

    def test_unequal_mirrors_keep_first_atom_and_sign(self):
        f = FOLD_MEASURES["unequal mirrors"](None, None).folded()
        assert np.array_equal(f.points, [[0.6, 0.8], [1.0, 0.0]])
        assert np.array_equal(f.weights, [0.3 + 0.1, 0.5])

    def test_no_mirrors_unchanged(self):
        m = FOLD_MEASURES["no mirrors"](None, None)
        f = m.folded()
        assert np.array_equal(f.points, m.points)
        assert np.array_equal(f.weights, m.weights)

    def test_repeated_atom_adds_weight(self):
        f = DiscreteSpectralMeasure([[0.0, 1.0], [0.0, 1.0]], [0.2, 0.3]).folded()
        assert np.array_equal(f.points, [[0.0, 1.0]])
        assert np.array_equal(f.weights, [0.5])


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


class TestSortedQuantiles:
    LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)

    @pytest.mark.parametrize("n", [100, 101, 500, 50_000])
    def test_equals_numpy_linear_quantile_1d(self, n):
        x = RandomStream(40).generator().standard_cauchy(n)
        got = sorted_quantiles(np.sort(x), self.LEVELS)
        ref = np.quantile(x, self.LEVELS, method="linear")
        assert np.array_equal(got, ref)
        assert all(type(q) is np.float64 for q in got)

    @pytest.mark.parametrize("n", [100, 101, 500])
    def test_equals_numpy_linear_quantile_3d_with_ties(self, n):
        """Rounding to one decimal leaves many tied values in every row."""
        x = np.round(RandomStream(41).generator().standard_cauchy((3, 20, n)), 1)
        got = sorted_quantiles(np.sort(x, axis=-1), self.LEVELS)
        ref = np.quantile(x, self.LEVELS, axis=-1, method="linear")
        assert np.array_equal(got, ref)

    def test_nan_row_gives_nan(self):
        x = RandomStream(42).generator().normal(size=(4, 200))
        x[2, 17] = np.nan
        got = sorted_quantiles(np.sort(x, axis=-1), self.LEVELS)
        ref = np.quantile(x, self.LEVELS, axis=-1)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.isnan(np.asarray(got)[:, 2]).all()


class TestMcculloch:
    def test_ignores_sample_order(self):
        x = sample_sas_1d(StableParams(1.41, 1.0), 3000, RandomStream(123).substream(6))
        assert mcculloch_estimate(np.sort(x)) == mcculloch_estimate(x)
        assert mcculloch_estimate(x[::-1]) == mcculloch_estimate(x)

    def test_returns_python_floats(self):
        """Both estimates are floats, so CSV cells written with ``repr``
        read as numbers."""
        x = sample_sas_1d(StableParams(1.41, 1.0), 3000, RandomStream(123).substream(6))
        p = mcculloch_estimate(x)
        assert type(p.alpha) is float and type(p.scale) is float

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_a_data_error(self, bad):
        """One NaN or infinite value among 500 Cauchy draws is named as
        such, not reported as an index outside (1, 2]."""
        x = _cauchy_with(bad)
        with pytest.raises(DataError, match="^sample holds non-finite values"):
            mcculloch_estimate(x)


def _cauchy_with(bad):
    """500 Cauchy draws with ``bad`` at position 123."""
    x = RandomStream(40).generator().standard_cauchy(500)
    x[123] = bad
    return x


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


def _quad_inversion(z: float, alpha: float, density: bool = False) -> float:
    """Test-only oracle: G(z) or the density of the standard law by
    adaptive quadrature of the inversion integral over [0, 37]."""
    from scipy.integrate import quad

    if density:
        def integrand(u):
            return math.cos(z * u) * math.exp(-(u ** alpha))
    else:
        def integrand(u):
            return (math.sin(z * u) / u if u else z) * math.exp(-(u ** alpha))
    val, _ = quad(integrand, 0.0, 37.0, limit=1000, epsabs=1e-13, epsrel=0.0)
    return val / math.pi


class TestInversionKernel:
    @pytest.mark.parametrize("alpha", [1.0001, 1.05, 1.1, 1.5, 1.8, 2.0])
    def test_matches_quadrature(self, alpha):
        z = np.linspace(0.0, 50.0, 26)
        g = [_quad_inversion(zi, alpha) for zi in z]
        f = [_quad_inversion(zi, alpha, density=True) for zi in z]
        np.testing.assert_allclose(_inversion(z, alpha)[0], g, rtol=0, atol=1e-9)
        np.testing.assert_allclose(_inversion(z, alpha, density=True)[0], f,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5])
    def test_table_nodes_match_quadrature(self, alpha):
        """The goodness-of-fit table holds the same G as the kernel: every
        8th node agrees with quadrature, far out in z at small alpha too."""
        table, z = _gof_table(), np.sinh(_GOF_Z_ASINH)
        ia = int(np.argmin(np.abs(_GOF_ALPHAS - alpha)))
        assert _GOF_ALPHAS[ia] == pytest.approx(alpha, abs=1e-12)
        for j in range(0, z.size, 8):
            assert table[ia, j] == pytest.approx(_quad_inversion(z[j], alpha), abs=1e-9)

    def test_cdf_blocks_agree_with_pointwise_calls(self):
        """Inputs longer than one kernel block, tails and signed zeros
        included, give the values of one-point calls."""
        p = StableParams(1.3, 0.5)
        xs = np.concatenate([np.linspace(-40.0, 40.0, 597), [0.0, -0.0, 1e3]])
        pointwise = np.array([stable_cdf(p, x) for x in xs])
        np.testing.assert_allclose(stable_cdf(p, xs), pointwise, rtol=0, atol=1e-15)
        assert stable_cdf(p, -0.0) == 0.5


def _quad_quantile(p: float, alpha: float) -> float:
    """Test-only oracle: the standard law's quantile of order ``p > 1/2``
    by root-finding on the quadrature G."""
    from scipy.optimize import brentq

    return brentq(lambda z: _quad_inversion(z, alpha) - (p - 0.5), 0.1, 20.0,
                  xtol=1e-14, rtol=1e-14)


def _sample_with_quartiles(q75: float, q95: float) -> np.ndarray:
    """101 points whose empirical 0.05/0.25/0.75/0.95 quantiles are exactly
    -q95, -q75, q75 and q95: with n - 1 = 100 each order is one point."""
    return np.interp(np.arange(101), [0, 5, 25, 75, 95, 100],
                     [-2.0 * q95, -q95, -q75, q75, q95, 2.0 * q95])


def _nu_at(alpha):
    """nu(alpha) read from the tabulated functionals."""
    _, _, nu, alpha_by_nu = _quantile_functionals()
    return np.interp(alpha, alpha_by_nu[::-1], nu[::-1])


class TestMccullochFunctionals:
    # Off the build's Chebyshev nodes and off the table's 1/16384 grid.
    ALPHAS = np.round(np.arange(1.0125, 1.99, 0.025), 4)

    @pytest.fixture(scope="class")
    def oracle(self):
        """(alpha, q75, q95) of the standard law by quadrature."""
        return [(a, _quad_quantile(0.75, a), _quad_quantile(0.95, a)) for a in self.ALPHAS]

    def test_nu_and_c_match_quadrature(self, oracle):
        for a, q75, q95 in oracle:
            assert iqr_constant(a) == pytest.approx(2.0 * q75, rel=1e-9, abs=0)
            assert _nu_at(a) == pytest.approx(q95 / q75, rel=2e-7, abs=0)

    def test_alpha_recovered_from_exact_quantiles(self, oracle):
        """A sample whose quantiles are the law's own gives back alpha
        within 1e-6 and unit scale."""
        for a, q75, q95 in oracle:
            p = mcculloch_estimate(_sample_with_quartiles(q75, q95))
            assert p.alpha == pytest.approx(a, abs=1e-6)
            assert p.scale == pytest.approx(1.0, abs=1e-7)

    def test_closed_form_anchors(self):
        """Cauchy at alpha = 1, Gaussian of variance 2 at alpha = 2."""
        assert iqr_constant(1.0) == pytest.approx(2.0, rel=1e-12)
        assert _nu_at(1.0) == pytest.approx(math.tan(0.45 * math.pi), rel=1e-12)
        assert iqr_constant(2.0) == pytest.approx(
            2.0 * math.sqrt(2.0) * norm.ppf(0.75), rel=1e-12)
        assert _nu_at(2.0) == pytest.approx(norm.ppf(0.95) / norm.ppf(0.75), rel=1e-12)

    def test_table_is_monotone(self):
        alpha, c, nu, alpha_by_nu = _quantile_functionals()
        assert alpha[0] == 1.0 and alpha[-1] == 2.0
        assert np.all(np.diff(c) < 0) and np.all(np.diff(nu) > 0)
        assert np.array_equal(alpha_by_nu, alpha[::-1])

    def test_range_below_one_and_above_two(self):
        """A ratio between nu(1) and nu(0.6) clips alpha-hat to the floor,
        one beyond nu(0.6) is an error, one below nu(2) reads 2."""
        nu1 = math.tan(0.45 * math.pi)
        for nu in (nu1 * (1 + 1e-9), 10.0, NU_MAX):
            p = mcculloch_estimate(_sample_with_quartiles(1.0, nu))
            assert p.alpha == ALPHA_FLOOR
            assert p.scale == 2.0 / iqr_constant(ALPHA_FLOOR)
        with pytest.raises(TableRangeError, match="too heavy"):
            mcculloch_estimate(_sample_with_quartiles(1.0, NU_MAX * (1 + 1e-9)))
        p = mcculloch_estimate(_sample_with_quartiles(1.0, 2.0))
        assert p.alpha == 2.0
        assert p.scale == 2.0 / iqr_constant(2.0)


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


def _sequential_p(stats, observed) -> float:
    """The bootstrap's p-value rule replayed on every replicate's statistic
    in replicate order: h / l at the replicate l that makes the h-th
    exceedance, else the fraction of all replicates that exceed."""
    exceed = 0
    for l, stat in enumerate(stats, start=1):
        exceed += bool(stat >= observed)
        if exceed == _GOF_EXCEEDANCES:
            return _GOF_EXCEEDANCES / l
    return exceed / len(stats)


def _public_statistics(x, rng, n_sims):
    """Observed statistic and every replicate's, each from the one-sample
    ``sample_sas_1d``, ``mcculloch_estimate`` and ``_ad_statistic``."""
    params = mcculloch_estimate(x)
    stats = []
    for k in range(n_sims):
        sim = sample_sas_1d(params, x.size, rng.substream(k))
        stats.append(_ad_statistic(sim, mcculloch_estimate(sim)))
    return _ad_statistic(x, params), np.array(stats)


def _t3_sample(seed: int, n: int = 400) -> np.ndarray:
    """Student t(3): finite variance, so large samples can fail the test."""
    return RandomStream(seed).substream(0).generator().standard_t(3, size=n)


class TestAdTest:
    def test_p_value_range_and_determinism(self):
        x = sample_sas_1d(StableParams(1.5, 1.0), 1000, RandomStream(123).substream(9))
        p1 = ad_stable_test(x, n_sims=100, rng=RandomStream(123).substream(10))
        p2 = ad_stable_test(x, n_sims=100, rng=RandomStream(123).substream(10))
        assert 0.0 <= p1 <= 1.0
        assert p1 == p2

    def test_p_value_is_the_public_fit_and_statistic_per_replicate(self):
        """Sorting each sample once changes no bootstrap statistic: the
        p-value equals the sequential rule replayed on
        ``mcculloch_estimate`` and ``_ad_statistic`` of every unsorted
        replicate."""
        x = sample_sas_1d(StableParams(1.3, 2.0), 400, RandomStream(31).substream(0))
        rng = RandomStream(31).substream(1)
        params = mcculloch_estimate(x)
        observed = _ad_statistic(x, params)
        stats = []
        for k in range(100):
            sim = sample_sas_1d(params, x.size, rng.substream(k))
            stats.append(_ad_statistic(sim, mcculloch_estimate(sim)))
        assert ad_stable_test(x, n_sims=100, rng=rng) == _sequential_p(stats, observed)

    @pytest.mark.parametrize("alpha", [1.05, 2.0])
    def test_blocks_match_the_public_path_per_replicate(self, alpha):
        """At n = 600 a block holds 109 replicates, so 250 make two full
        blocks and a short one of 32.  The p-value is still the sequential
        rule replayed on ``sample_sas_1d``, ``mcculloch_estimate`` and
        ``_ad_statistic`` of each ``rng.substream(k)``, and the vectorized
        fit and statistic give every replicate's values bit for bit.  At
        alpha 1.05 fits
        clip to ALPHA_FLOOR in the table's first cell and every replicate
        has points past _GOF_Z_MAX; at 2.0 fits clip to the last edge."""
        n, n_sims = 600, 250
        assert 2 * (_GOF_BLOCK // n) < n_sims < 3 * (_GOF_BLOCK // n)
        x = sample_sas_1d(StableParams(alpha, 2.0), n, RandomStream(0).substream(0))
        rng = RandomStream(0).substream(1)
        params = mcculloch_estimate(x)
        observed = _ad_statistic(x, params)
        sims, fits, stats = [], [], []
        for k in range(n_sims):
            sims.append(sample_sas_1d(params, n, rng.substream(k)))
            fits.append(mcculloch_estimate(sims[-1]))
            stats.append(_ad_statistic(sims[-1], fits[-1]))
        stats = np.array(stats)
        assert ad_stable_test(x, n_sims=n_sims, rng=rng) == _sequential_p(stats, observed)

        block = np.sort(np.stack(sims), axis=-1)
        alphas, scales = _mcculloch_sorted(block)
        assert np.array_equal(alphas, [f.alpha for f in fits])
        assert np.array_equal(scales, [f.scale for f in fits])
        assert np.array_equal(_ad_sorted(block, alphas, scales), stats)
        tail_rows = np.any(np.abs(block) >= _GOF_Z_MAX * scales[:, None], axis=1)
        if alpha == 2.0:
            assert np.sum(alphas == 2.0) > 20 and tail_rows.any()
        else:
            assert np.sum(alphas == ALPHA_FLOOR) > 20 and tail_rows.all()

    def test_failing_row_of_a_block_raises_its_own_error(self):
        """The vectorized fit raises the error of the lowest failing row,
        with the text that row's one-sample fit raises."""
        gen = RandomStream(43).generator()
        good = np.sort(gen.standard_cauchy(101))
        flat = np.sort(np.r_[np.zeros(80), gen.standard_cauchy(21)])
        heavy = _sample_with_quartiles(1.0, 2.0 * NU_MAX)
        with pytest.raises(TableRangeError) as one_row:
            mcculloch_estimate(flat)
        with pytest.raises(TableRangeError) as block:
            _mcculloch_sorted(np.stack([good, flat, heavy, good]))
        assert str(block.value) == str(one_row.value)
        assert str(block.value).startswith("interquartile range is zero")
        with pytest.raises(TableRangeError, match="^quantile ratio"):
            _mcculloch_sorted(np.stack([good, heavy, flat]))
        bad = good.copy()
        bad[-1] = np.nan
        with pytest.raises(DataError, match="^sample holds non-finite values"):
            _mcculloch_sorted(np.stack([good, good, bad, flat]))

    def test_rejects_clearly_non_stable_data(self):
        # uniform on [0, 1] is nowhere near any symmetric stable law
        x = RandomStream(11).generator().uniform(0.0, 1.0, size=1000)
        p = ad_stable_test(x, n_sims=100, rng=RandomStream(12))
        assert p < 0.05

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_a_data_error(self, bad):
        with pytest.raises(DataError, match="^sample holds non-finite values"):
            ad_stable_test(_cauchy_with(bad), n_sims=100, rng=RandomStream(41))


class TestSequentialPValue:
    """The bootstrap stops at the replicate l of its h-th exceedance and
    returns h / l, else the full fraction at the ``n_sims`` cap."""

    @pytest.mark.parametrize("where", ["inside", "first", "last"])
    def test_stop_row_anywhere_in_a_block(self, monkeypatch, where):
        """The 10th exceedance is replicate 47 (row 46): inside the one
        default block, first of the second block of 46 rows, last of the
        first block of 47."""
        n, n_sims = 200, 100
        x = sample_sas_1d(StableParams(1.5, 1.0), n, RandomStream(2).substream(0))
        rng = RandomStream(2).substream(1)
        observed, stats = _public_statistics(x, rng, n_sims)
        stop = np.flatnonzero(stats >= observed)[_GOF_EXCEEDANCES - 1]
        rows = {"inside": _GOF_BLOCK // n, "first": stop, "last": stop + 1}[where]
        monkeypatch.setattr(stable, "_GOF_BLOCK", rows * n)
        row = stop % rows
        assert {"inside": 0 < row < min(rows, n_sims) - 1,
                "first": row == 0 and stop > 0,
                "last": row == rows - 1}[where]
        p = ad_stable_test(x, n_sims=n_sims, rng=rng)
        assert type(p) is float
        assert p == _sequential_p(stats, observed) == 10 / 47

    def test_fewer_than_h_exceedances_give_the_full_fraction(self):
        """A t(3) sample that only 9 of 200 replicates reach: the
        bootstrap runs to its cap and returns 9 / 200."""
        x = _t3_sample(14)
        rng = RandomStream(14).substream(1)
        observed, stats = _public_statistics(x, rng, 200)
        p = ad_stable_test(x, n_sims=200, rng=rng)
        assert type(p) is float
        assert p == _sequential_p(stats, observed) == np.mean(stats >= observed) == 9 / 200

    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_block_size_does_not_move_the_p_value(self, monkeypatch, rows):
        """The stop is found by row, so blocks of 1, 3 or 16 replicates
        give the default block's p-value, at a stop and at the cap."""
        cases = [(sample_sas_1d(StableParams(1.5, 1.0), 200, RandomStream(seed).substream(0)),
                  RandomStream(seed).substream(1), 100) for seed in (2, 5, 9)]
        cases.append((_t3_sample(14), RandomStream(14).substream(1), 200))
        default = [ad_stable_test(x, n_sims=n_sims, rng=rng) for x, rng, n_sims in cases]
        monkeypatch.setattr(stable, "_GOF_BLOCK", rows * 200)
        for (x, rng, n_sims), p in zip(cases, default):
            assert ad_stable_test(x, n_sims=n_sims, rng=rng) == p
            observed, stats = _public_statistics(x, rng, n_sims)
            assert p == _sequential_p(stats, observed)

    def test_five_percent_decisions_match_the_full_count(self):
        """At n_sims 200 with h = 10, p < 0.05 exactly when fewer than 10
        replicates exceed, so each decision is the full count's.  The t(3)
        samples at seeds 0-19 include a rejection (9 exceed) and
        near-misses (13 and 21 exceed)."""
        decisions = []
        for seed in range(20):
            x = _t3_sample(seed)
            rng = RandomStream(seed).substream(1)
            observed, stats = _public_statistics(x, rng, 200)
            p = ad_stable_test(x, n_sims=200, rng=rng)
            assert p == _sequential_p(stats, observed)
            full = np.mean(stats >= observed)
            assert (p < 0.05) == (full < 0.05)
            decisions.append(p < 0.05)
        assert any(decisions) and not all(decisions)


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
