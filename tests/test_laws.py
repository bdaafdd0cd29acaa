import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import baresim as bs
from baresim import engine, laws as lw
from baresim.divergence import GeneralizedKL, PowerGamma, TwoPoint

from cases import SOLVED_CASES
from conftest import make_rng


def interior_tau(law) -> float:
    """A nonzero tilt well inside the law's MGF domain."""
    lo, hi = law.mgf_dom()
    tau = 0.3 * (hi if math.isfinite(hi) else 1.0)
    if tau <= lo or tau == 0.0:
        tau = 0.5 * (lo + min(hi, 1.0))
    return tau


class TestSampleFacts:
    def test_poisson_zero_mass(self, rng):
        law = lw.ScaledPoisson(1.0)
        x = law.sample_tilted_block(0.0, 1, rng, 200_000)
        assert np.all(x >= 0)
        frac0 = float(np.mean(x == 0))
        assert frac0 == pytest.approx(math.exp(-1.0), abs=0.005)

    def test_two_point_support_and_mean(self, rng):
        law = lw.TwoPointLaw(0.0, 2.0)
        assert law.p == pytest.approx(0.5)
        x = law.sample_tilted_block(0.0, 1, rng, 100_000)
        assert set(np.unique(x)) <= {0.0, 2.0}
        assert float(x.mean()) == pytest.approx(1.0, abs=0.02)

    def test_gaussian_variance(self, rng):
        x = lw.Gaussian(4.0).sample_tilted_block(0.0, 1, rng, 200_000)
        assert float(x.var(ddof=1)) == pytest.approx(0.25, abs=0.01)

    def test_positive_support_laws(self, rng):
        for law in (lw.TiltedStable(-1.0, 1.0), lw.GammaLaw(1.0)):
            x = law.sample_tilted_block(0.0, 1, rng, 20_000)
            assert np.all(x > 0), type(law).__name__

    def test_negative_mass_laws(self, rng):
        for law in (lw.Gaussian(1.0), lw.GenAsymLaplaceLaw(1.0, 2.0, 1.5, 1.0)):
            x = law.sample_tilted_block(0.0, 1, rng, 20_000)
            assert np.mean(x < 0) > 0.0, type(law).__name__

    def test_two_point_positivity_iff_z1_positive(self, rng):
        x = lw.TwoPointLaw(0.5, 2.0).sample_tilted_block(0.0, 1, rng, 5_000)
        assert np.all(x > 0)
        y = lw.TwoPointLaw(-0.5, 2.0).sample_tilted_block(0.0, 1, rng, 5_000)
        assert np.any(y < 0)

    def test_shifted_poisson_negatives_iff_positive_anchor(self, rng):
        x = lw.ShiftedPoisson(0.5).sample_tilted_block(0.0, 1, rng, 50_000)
        assert np.any(x < 0)
        y = lw.ShiftedPoisson(-0.5).sample_tilted_block(0.0, 1, rng, 50_000)
        assert np.all(y > 0)

    def test_shifted_poisson_anchor_whose_exponential_is_lost_rejected(self):
        # e^-800 is 0: the law would be a point mass at 1
        with pytest.raises(ValueError, match="anchor -800.0: 1 - e\\^anchor rounds to 1"):
            lw.ShiftedPoisson(-800.0)

    def test_shifted_poisson_anchor_whose_exponential_overflows_rejected(self):
        with pytest.raises(ValueError, match="e\\^anchor is not a finite double"):
            lw.ShiftedPoisson(800.0)


class TestBlockSums:
    def test_gamma_block(self, rng):
        x = lw.GammaLaw(1.0).sample_tilted_block(0.0, 3, rng, 100_000)
        assert float(x.mean()) == pytest.approx(3.0, abs=0.03)
        ks = stats.ks_1samp(x, stats.gamma(a=3.0).cdf)
        assert ks.pvalue > 1e-3

    def test_poisson_block(self, rng):
        x = lw.ScaledPoisson(1.0).sample_tilted_block(0.0, 5, rng, 100_000)
        assert float(x.mean()) == pytest.approx(5.0, abs=0.05)
        assert np.all(x == np.round(x))

    def test_block_of_one_matches_sample(self, rng):
        # a single weight is Poisson(scale / gamma) many Gamma(shape, rate)
        # summands, drawn in that order
        law = lw.CompoundPoissonGamma(0.5, 1.0)
        a = law.sample_tilted_block(0.0, 1, make_rng(1), 50_000)
        draws = make_rng(1)
        n = draws.poisson(law.scale / law.gamma, size=50_000)
        b = np.zeros(50_000)
        b[n > 0] = draws.gamma(shape=law.shape * n[n > 0], scale=1.0 / law.rate)
        assert np.allclose(a, b)

    def test_block_law_wrapper(self, rng):
        x = lw.Gaussian(2.0).sample_tilted_block(0.0, 4, rng, 50_000)
        assert float(x.mean()) == pytest.approx(4.0, abs=0.03)
        assert float(x.var(ddof=1)) == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize(
        "case, tilted",
        [(c, False) for c in SOLVED_CASES] + [(c, True) for c in SOLVED_CASES],
        ids=[c.name for c in SOLVED_CASES] + [f"{c.name}, tilted" for c in SOLVED_CASES],
    )
    def test_convolution_ks(self, case, tilted):
        # the closed-form n_k-fold convolution against n_k summed single
        # draws (DistortedStable's inverters at n_k and at 1 are built
        # separately; TestDistortedStable checks them against Gil-Pelaez)
        law = case.law
        tau = interior_tau(law) if tilted else 0.0

        def draws(nk, seed):
            return law.sample_tilted_block(tau, nk, make_rng(seed), 30_000)

        n_k = 5
        blk = draws(n_k, 11)
        summed = sum(draws(1, 12 + i) for i in range(n_k))
        # align lattice values: the two paths accumulate rounding differently
        ks = stats.ks_2samp(np.round(blk, 8), np.round(summed, 8))
        assert ks.pvalue > 1e-3, (case.name, tau, ks.pvalue)


class TestTilting:
    def test_zero_tilt_is_block_law(self):
        law = lw.GammaLaw(1.0)
        a = law.sample_tilted_block(0.0, 4, make_rng(3), 50_000)
        # the engine's block sums at a zero tilt: the untilted block law
        b = engine._block_sums(law, [4], np.zeros(1), make_rng(3), 50_000)[:, 0]
        assert np.allclose(a, b)

    def test_gamma_tilt_is_rate_shift(self, rng):
        # tilted Gamma block: rate 0.5, shape 2
        x = lw.GammaLaw(1.0).sample_tilted_block(0.5, 2, rng, 100_000)
        ks = stats.ks_1samp(x, stats.gamma(a=2.0, scale=2.0).cdf)
        assert ks.pvalue > 1e-3

    def test_poisson_tilt_is_intensity_scaling(self, rng):
        x = lw.ScaledPoisson(1.0).sample_tilted_block(math.log(2.0), 3, rng, 100_000)
        assert float(x.mean()) == pytest.approx(6.0, abs=0.06)
        ks = stats.ks_2samp(x, rng.poisson(6.0, 100_000))
        assert ks.pvalue > 1e-3

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_tilted_mean_matches_cumulant_slope(self, case):
        law = case.law
        tau = interior_tau(law)
        n_k = 4
        x = law.sample_tilted_block(tau, n_k, make_rng(17), 60_000)
        target = n_k * float(law.log_mgf_slopes(tau)[0])
        se = float(x.std(ddof=1) / math.sqrt(x.size))
        assert abs(float(x.mean()) - target) < 5 * se + 1e-3, case.name

    def test_tau_outside_domain_rejected(self, rng):
        with pytest.raises(ValueError):
            lw.GammaLaw(1.0).sample_tilted_block(1.5, 2, rng, 1)
        with pytest.raises(ValueError):
            lw.GenAsymLaplaceLaw(1.0, 2.0, 1.5, 1.0).sample_tilted_block(-2.0, 2, rng, 1)

    def test_tilted_law_wrapper(self, rng):
        x = lw.Gaussian(1.0).sample_tilted_block(1.0, 2, rng, 50_000)
        assert float(x.mean()) == pytest.approx(4.0, abs=0.05)

    def test_discrete_tilting_identity_poisson(self):
        # tilted frequency = exp(tau v - Lambda(tau)) * base frequency
        law = lw.ScaledPoisson(1.0)
        tau = math.log(2.0)
        lam = float(lw.log_mgf(law, tau))
        base_v, base_p, _ = law.block_support(1, math.log(1e-12))
        tilt_p = stats.poisson.pmf(np.arange(base_v.size), math.exp(tau))
        ratio = np.exp(tau * base_v - lam) * base_p
        assert np.allclose(tilt_p, ratio, atol=1e-12)

    def test_discrete_tilting_identity_two_point_exact(self):
        # exact rational arithmetic on {0, 2} with e^tau = 3
        z1, z2 = 0, 2
        p = Fraction(z2 - 1, z2 - z1)
        e_tau = Fraction(3)
        e_lam = p * e_tau**z1 + (1 - p) * e_tau**z2  # exp(Lambda(tau))
        p_tilted = p * e_tau**z1 / e_lam
        for v, base in ((z1, p), (z2, 1 - p)):
            expected = e_tau**v / e_lam * base
            actual = p_tilted if v == z1 else 1 - p_tilted
            assert actual == expected

    def test_two_point_tilted_sampler_matches_exact(self, rng):
        law = lw.TwoPointLaw(0.0, 2.0)
        tau = math.log(3.0) / 2.0
        x = law.sample_tilted_block(tau, 1, rng, 200_000)
        p_tilt = 0.5 / (0.5 + 0.5 * math.exp(2 * tau))
        assert float(np.mean(x == 0.0)) == pytest.approx(p_tilt, abs=0.004)


class TestInverseGaussianDraws:
    """At alpha = 1/2 the tilted stable block law is inverse Gaussian with
    mean d / (2 sqrt(lam)) and shape d^2 / 2, drawn by ``Generator.wald``;
    scipy's invgauss(mu, scale) is IG(mean mu * scale, shape scale)."""

    @staticmethod
    def invgauss(mean: float, shape: float):
        return stats.invgauss(mu=mean / shape, scale=shape)

    @pytest.mark.parametrize("nk", [1, 20, 400])
    def test_tilted_stable_block_is_inverse_gaussian(self, nk):
        law = lw.TiltedStable(-1.0, 1.0)  # d = n_k sqrt(2), lam = 1/2 - tau
        tau = 0.3
        x = law.sample_tilted_block(tau, nk, make_rng(nk), 20_000)
        d, lam = nk * math.sqrt(2.0), 0.5 - tau
        ks = stats.ks_1samp(x, self.invgauss(d / (2.0 * math.sqrt(lam)), d * d / 2.0).cdf)
        assert ks.pvalue > 1e-3

    def test_tilt_near_the_mgf_boundary(self):
        # lam = 1e-4: mean 70.7 at shape 1, a heavy right tail
        law = lw.TiltedStable(-1.0, 1.0)
        x = law.sample_tilted_block(0.5 - 1e-4, 1, make_rng(5), 20_000)
        ks = stats.ks_1samp(x, self.invgauss(math.sqrt(2.0) / 0.02, 1.0).cdf)
        assert ks.pvalue > 1e-3

    def test_modified_tilted_stable_is_an_affine_inverse_gaussian(self):
        # W / beta - n_k (1 / beta - 1) with W the gamma = -1 law of scale
        # c / beta^2 tilted by tau / beta
        law, tau, nk = lw.ModTiltedStable(0.8, 1.0), 0.2, 20
        x = law.sample_tilted_block(tau, nk, make_rng(9), 20_000)
        base = law.base
        d, lam = nk * base.stable_d, base.tilt_rate - tau / law.beta
        w = self.invgauss(d / (2.0 * math.sqrt(lam)), d * d / 2.0)
        ks = stats.ks_1samp(x, lambda v: w.cdf(law.beta * (v + nk * (1.0 / law.beta - 1.0))))
        assert ks.pvalue > 1e-3


class TestExtremeTilts:
    """At a tilt of +-800 a success probability is 0 or 1 and a Poisson mean
    can pass the largest double; neither surfaces as an OverflowError."""

    @pytest.mark.parametrize("tau, value", [(-800.0, 0.0), (800.0, 20.0)])
    def test_two_point_draws_its_end(self, rng, tau, value):
        law = lw.TwoPointLaw(0.0, 2.0)
        assert math.isfinite(lw.log_mgf(law, tau))
        assert law.sample_tilted_block(tau, 10, rng, 3).tolist() == [value] * 3

    @pytest.mark.parametrize("tau, value", [(-800.0, 0.0), (800.0, 40.0)])
    def test_binomial_draws_its_end(self, rng, tau, value):
        law = lw.ScaledBinomial(4, 1.0)
        assert law.sample_tilted_block(tau, 10, rng, 3).tolist() == [value] * 3

    def test_binomial_cumulant_at_a_large_tilt(self):
        # 4 (800 + log 1/4): the tilted mass sits on the top atom
        assert float(lw.ScaledBinomial(4, 1.0).log_mgf(800.0)) == pytest.approx(
            3194.4548225555, rel=1e-13)

    @pytest.mark.parametrize("law, low", [(lw.ScaledPoisson(1.0), 0.0),
                                          (lw.ShiftedPoisson(0.3), 10 * (1 - math.exp(0.3)))],
                             ids=["scaled", "shifted"])
    def test_poisson_mean_past_a_double_names_the_tilt(self, rng, law, low):
        with pytest.raises(ValueError, match="tilt 800.0: the tilted Poisson mean is not finite"):
            law.sample_tilted_block(800.0, 10, rng, 3)
        assert law.sample_tilted_block(-800.0, 10, rng, 3).tolist() == [low] * 3


def isf_block(law, tau, nk, x):
    """Importance-sampling factor of one block sum x: exp(nk Lambda(tau) - x tau)."""
    return math.exp(nk * lw.log_mgf(law, tau) - x * tau)


class TestLogMgfAndIsf:
    def test_zero_values(self):
        for case in SOLVED_CASES:
            assert float(lw.log_mgf(case.law, 0.0)) == pytest.approx(0.0, abs=1e-12)
            assert isf_block(case.law, 0.0, 3, 1.7) == pytest.approx(1.0)

    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_two_point_log_mgf_is_exactly_zero_at_zero(self, mult):
        # log p + log(1/p) is not 0 in floating point; log1p of the tilted
        # mass is, so an untilted run weighs every hit exactly 1
        law = lw.TwoPointLaw(0.5, 2.5, mult)
        assert law.log_mgf(np.zeros(1)).tolist() == [0.0]
        assert float(law.log_mgf(0.0)) == 0.0
        z = np.array([-40.0, -1.0, -1e-9, 1e-9, 1.0, 40.0, 1e4])
        t = z / mult
        by_hand = mult * np.logaddexp(math.log(law.p) + 0.5 * t, math.log1p(-law.p) + 2.5 * t)
        assert np.allclose(law.log_mgf(z), by_hand, rtol=1e-14, atol=1e-15)

    def test_gamma_log_mgf(self):
        assert float(lw.log_mgf(lw.GammaLaw(1.0), 0.5)) == pytest.approx(math.log(2.0))

    def test_gaussian_isf_example(self):
        val = isf_block(lw.Gaussian(1.0), 1.0, 2, 3.0)
        assert val == pytest.approx(1.0)

    def test_outside_domain_is_inf(self):
        assert float(lw.log_mgf(lw.GammaLaw(1.0), 2.0)) == math.inf
        assert float(lw.log_mgf(lw.TiltedStable(-1.0, 1.0), 0.9)) == math.inf


def central_slopes(law, z):
    """The reference for ``log_mgf_slopes``: Lambda' by a central difference
    of ``log_mgf`` at step 1e-6 max(1, |z|), Lambda'' by one of Lambda' at
    step 1e-5 max(1, |z|), each step cut to 1% of the distance from its
    point to the boundary of the domain."""
    z = np.asarray(z, dtype=float)
    lo, hi = law.mgf_dom()

    def steps(x, rel):
        return np.minimum(rel * np.maximum(1.0, np.abs(x)), 0.01 * np.minimum(x - lo, hi - x))

    h = steps(z, 1e-5)
    points = np.stack((z, z + h, z - h))
    h1 = steps(points, 1e-6)
    down, up = points - h1, points + h1
    value = np.asarray(law.log_mgf(np.concatenate((down, up))), dtype=float)
    slope = (value[len(points):] - value[:len(points)]) / (up - down)
    return slope[0], (slope[1] - slope[2]) / (2.0 * h)


class TestCumulantSlopes:
    """Every law's closed-form Lambda' and Lambda'' against central
    differences of its ``log_mgf``."""

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_interior_points(self, case):
        law = case.law
        lo, hi = law.mgf_dom()
        z = np.array([t for t in (-2.0, -0.7, -0.2, 0.0, 0.3, 0.45, 1.5)
                      if lo + 0.05 < t < hi - 0.05])
        slope, curvature = law.log_mgf_slopes(z)
        ref_slope, ref_curvature = central_slopes(law, z)
        assert slope == pytest.approx(ref_slope, rel=1e-8)
        assert curvature == pytest.approx(ref_curvature, rel=1e-4)
        assert float(law.log_mgf_slopes(0.0)[0]) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("case", [c for c in SOLVED_CASES
                                      if np.isfinite(c.law.mgf_dom()).any()],
                             ids=lambda c: c.name)
    def test_near_a_finite_edge(self, case):
        # the reference's steps shrink to 1e-6 there, and its truncation
        # error grows to about 1e-4 relative
        law = case.law
        z = np.array([edge - np.sign(edge) * 1e-4 for edge in law.mgf_dom()
                      if math.isfinite(edge)])
        slope, curvature = law.log_mgf_slopes(z)
        ref_slope, ref_curvature = central_slopes(law, z)
        assert slope == pytest.approx(ref_slope, rel=1e-3)
        assert curvature == pytest.approx(ref_curvature, rel=1e-3)

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_cumulant_is_finite_wherever_the_slopes_are(self, case):
        # a cumulant that overflows where its slopes do not weighs a hit
        # with exp(inf); the Poisson laws overflow honestly in both
        law = case.law
        lo, hi = law.mgf_dom()
        far = np.concatenate((np.logspace(-12, 4, 65), [1.0, 40.0, 800.0, 1e4]))
        near = 10.0 ** -np.arange(1, 13)
        z = np.concatenate((-far, [0.0], far,
                            lo + near if math.isfinite(lo) else [],
                            hi - near if math.isfinite(hi) else []))
        z = z[(lo < z) & (z < hi)]
        with np.errstate(over="ignore"):
            slope, curvature = law.log_mgf_slopes(z)
            value = np.asarray(law.log_mgf(z), dtype=float)
        finite = np.isfinite(slope) & np.isfinite(curvature)
        assert finite.any()
        assert np.isfinite(value[finite]).all(), z[finite & ~np.isfinite(value)]


class TestLawForGenerator:
    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_round_trip_dispatch(self, case):
        law = lw.law_for_generator(case.gen)
        assert type(law) is type(case.law)
        z = 0.2
        assert float(lw.log_mgf(law, z)) == pytest.approx(
            float(lw.log_mgf(case.law, z))
        )

    def test_scale_is_folded_in(self):
        law = lw.law_for_generator(PowerGamma(0.0, 1.0), extra_scale=2.5)
        assert isinstance(law, lw.GammaLaw)
        assert law.scale == 2.5

    def test_conjugate_matches_generator(self):
        # Lambda of the law is the numeric conjugate of the scaled generator
        from baresim.legendre import legendre_transform

        gen = PowerGamma(0.5, 1.0)
        law = lw.law_for_generator(gen, extra_scale=3.0)
        conj = legendre_transform(
            lambda t: float(PowerGamma(0.5, 3.0).phi(np.array([t]))[0]), (0.0, math.inf)
        )
        for z in (-1.0, 0.5, 1.2):
            assert conj(z) == pytest.approx(float(lw.log_mgf(law, z)), abs=1e-7)

    def test_two_point_requires_unit_mass(self):
        with pytest.raises(ValueError):
            lw.law_for_generator(TwoPoint(0.0, 2.0), extra_scale=1.5)
        law = lw.law_for_generator(TwoPoint(0.0, 2.0), extra_scale=2.0)
        assert law.mult == 2

    def test_binomial_requires_integer_count(self):
        law = lw.law_for_generator(GeneralizedKL(-1.0 / 3.0, 1.0))
        assert isinstance(law, lw.ScaledBinomial)
        assert law.m == 3
        with pytest.raises(ValueError):
            lw.law_for_generator(GeneralizedKL(-1.0 / 3.0, 1.0), extra_scale=1.17)

    def test_custom_needs_explicit_law(self):
        spec = bs.GeneratorSpec(F=lambda t: t - 1.0, a_F=-math.inf, b_F=math.inf)
        with pytest.raises(ValueError, match="user-provided weight law"):
            lw.law_for_generator(spec)


def gil_pelaez_cdf(gamma: float, scale: float, tau: float, nk: int, x: float) -> float:
    """P(S <= x) for the n_k-block sum of DistortedStable(gamma, scale)
    tilted by tau, by Gil-Pelaez inversion (Biometrika 38, 1951) of the
    closed-form characteristic function:
    F(x) = 1/2 - (1/pi) int_0^inf Im[exp(-iux) phi(u)] / u du."""
    from scipy import integrate

    g, c = gamma, scale

    def cumulant(z: complex) -> complex:
        return c / g * ((1.0 + (g - 1.0) * z / c) ** (g / (g - 1.0)) - 1.0)

    at_tau = cumulant(complex(tau))

    def integrand(u: float) -> float:
        return np.exp(nk * (cumulant(tau + 1j * u) - at_tau) - 1j * u * x).imag / u

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=500)
    return 0.5 - val / math.pi


class TestDistortedStable:
    @pytest.mark.parametrize("gamma, scale, tau, nk",
                             [(3.0, 1.0, 0.0, 1), (3.0, 1.0, 0.3, 5), (2.5, 1.0, -0.3, 6)])
    def test_inverter_cdf_matches_gil_pelaez(self, gamma, scale, tau, nk):
        # the sampler's CDF against an independent quadrature of the same
        # CF, at 9 points spanning mean +- 3 sd of the closed-form moments
        base = 1.0 + (gamma - 1.0) * tau / scale
        mean = nk * base ** (1.0 / (gamma - 1.0))
        sd = math.sqrt(nk * base ** ((2.0 - gamma) / (gamma - 1.0)) / scale)
        xs = mean + sd * np.linspace(-3.0, 3.0, 9)
        inverter = lw._distorted_inverter(gamma, scale, tau, nk)
        got = np.interp(xs, inverter.x_grid, inverter.cdf)
        ref = np.array([gil_pelaez_cdf(gamma, scale, tau, nk, x) for x in xs])
        assert np.max(np.abs(got - ref)) <= 1e-5

    def test_large_scale_mean(self, rng):
        # a large scale makes the law narrow around its mean
        law = lw.DistortedStable(3.0, 25.0)
        x = law.sample_tilted_block(0.0, 1, rng, 20_000)
        assert float(x.mean()) == pytest.approx(1.0, abs=0.02)

    def test_an_inversion_that_loses_mass_names_the_tilt(self, rng):
        # 1e-4 above the lower edge -2/3 of the MGF domain the inversion
        # fails; the error says which law, block and tilt
        law = lw.DistortedStable(2.5, 1.0)
        with pytest.raises(RuntimeError, match=(
                r"DistortedStable\(gamma=2.5, scale=1.0\) cannot draw n_k = 2 weights at "
                r"the tilt tau = -0.666566666667, 0.0001 above the lower edge "
                r"-0.666667 of its MGF domain: characteristic-function inversion lost mass")):
            law.sample_tilted_block(law.mgf_dom()[0] + 1e-4, 2, rng, 200)

    def test_block_and_tilted_paths(self, rng):
        law = lw.DistortedStable(2.5, 1.0)
        x = law.sample_tilted_block(-0.3, 6, rng, 30_000)
        target = 6 * float(law.log_mgf_slopes(-0.3)[0])
        assert float(x.mean()) == pytest.approx(target, abs=0.05)
