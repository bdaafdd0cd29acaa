import math

import numpy as np
import pytest

import baresim as bs
from baresim import engine, laws as lw
from baresim.divergence import PowerGamma
from baresim.legendre import (GeneratorSpec, _integral, build_lambda, build_phi,
                              legendre_transform)

from cases import SOLVED_CASES

INF = math.inf


def lambda_grid(law, m=12):
    lo, hi = law.mgf_dom()
    lo = lo if math.isfinite(lo) else -3.0
    hi = hi if math.isfinite(hi) else 3.0
    span = hi - lo
    return np.linspace(lo + 0.08 * span, hi - 0.08 * span, m)


def t_grid(gen, m=12):
    lo = gen.a if math.isfinite(gen.a) else -2.0
    hi = gen.b if math.isfinite(gen.b) else 4.0
    span = hi - lo
    return np.linspace(lo + 0.06 * span, hi - 0.06 * span, m)


class TestBuildLambda:
    def test_poisson_case(self):
        spec = GeneratorSpec(F=lambda t: math.log(t) if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=0.0)
        lam = build_lambda(spec)
        assert lam(0.0) == 0.0
        assert lam(1.0) == pytest.approx(math.e - 1.0, abs=1e-9)

    def test_gaussian_case(self):
        spec = GeneratorSpec(F=lambda t: t - 1.0, a_F=-INF, b_F=INF, c=0.0)
        lam = build_lambda(spec)
        for z in (-1.0, 0.3, 2.0):
            assert lam(z) == pytest.approx(z * z / 2.0 + z, abs=1e-9)

    def test_gamma_case_value(self):
        spec = GeneratorSpec(F=lambda t: 1.0 - 1.0 / t if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=0.0)
        lam = build_lambda(spec)
        assert lam(0.5) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_outside_domain_infinite(self):
        spec = GeneratorSpec(F=lambda t: 1.0 - 1.0 / t if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=0.0)
        lam = build_lambda(spec)
        assert lam(1.5) == INF

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_matches_closed_form(self, case):
        lam = build_lambda(case.spec())
        for z in lambda_grid(case.law):
            assert lam(float(z)) == pytest.approx(
                float(lw.log_mgf(case.law, float(z))), abs=1e-8
            ), (case.name, z)

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_normalization_and_slope(self, case):
        lam = build_lambda(case.spec())
        assert lam(0.0) == 0.0
        # Richardson-extrapolated central difference
        h = 1e-4
        d1 = (lam(h) - lam(-h)) / (2 * h)
        d2 = (lam(h / 2) - lam(-h / 2)) / h
        assert (4 * d2 - d1) / 3 == pytest.approx(1.0, abs=1e-9), case.name

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_domain_ends_are_the_laws(self, case):
        # the ends are F's limits, extrapolated from the probes nearest them:
        # built gamma = 1/2 read 1.999998 for 2, generalized KL log 2 - 1e-12
        for built, law in zip(case.spec().lambda_dom, case.law.mgf_dom()):
            assert built == law or abs(built - law) <= 1e-13 * abs(law)

    def test_finite_just_below_its_upper_end(self):
        # built gamma = 1/2: Lambda(z) = 4 / (2 - z) - 2 up to lambda_+ = 2,
        # and F^-1 widens its bracket far past the grid to reach it
        case = next(c for c in SOLVED_CASES if c.name == "power gamma=0.5")
        z = 1.9999985
        assert build_lambda(case.spec())(z) == pytest.approx(4.0 / (2.0 - z) - 2.0, rel=1e-6)

    def test_anchor_outside_range_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(F=lambda t: 1.0 - 1.0 / t if t > 0 else -INF,
                          a_F=0.0, b_F=INF, c=5.0)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(F=lambda t: (t - 1.0) ** 2, a_F=-INF, b_F=INF, c=0.5)


class TestBuildPhi:
    def test_kl_case(self):
        spec = GeneratorSpec(F=lambda t: math.log(t) if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=0.0)
        phi = build_phi(spec)
        ref = bs.PowerGamma(1.0, 1.0)
        for t in (0.3, 1.0, 2.5):
            assert bs.phi_eval(phi, t) == pytest.approx(
                bs.phi_eval(ref, t), abs=1e-8
            )

    def test_anchored_domain_and_boundary(self):
        spec = GeneratorSpec(F=lambda t: math.log(t) if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=1.0)
        lo, hi = spec.phi_dom
        assert lo == pytest.approx(1.0 - math.e, abs=1e-6)
        assert hi == INF
        assert float(spec.phi(1.0 - math.e)[0]) == pytest.approx(math.e, abs=1e-12)

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_matches_closed_form(self, case):
        phi = build_phi(case.spec())
        ts = t_grid(case.gen)
        built = np.array([float(phi.phi(np.array([t]))[0]) for t in ts])
        ref = case.gen.phi(ts)
        assert np.allclose(built, ref, atol=1e-8), case.name

    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_matches_closed_form_at_and_beyond_finite_ends(self, case):
        # phi at an end is the integral of phi' up to it: +inf where that
        # diverges (gamma <= 0, the blended chi-square at -1), exact where
        # not; beyond, affine or +inf
        spec = case.spec()
        t_lo, t_hi = spec.t_sc
        for t in [t for t in (t_lo, t_lo - 0.5, t_hi, t_hi + 0.5) if math.isfinite(t)]:
            built, ref = float(spec.phi(t)[0]), float(case.gen.phi(np.array([t]))[0])
            assert built == ref == INF or built == pytest.approx(ref, abs=1e-12), (case.name, t)

    def test_affine_tail_for_unbounded_generator(self):
        # gamma = 3: finite affine continuation below zero
        case = next(c for c in SOLVED_CASES if c.name == "power gamma=3")
        phi = build_phi(case.spec())
        for t in (-0.5, -2.0):
            assert float(phi.phi(np.array([t]))[0]) == pytest.approx(
                float(case.gen.phi(np.array([t]))[0]), abs=1e-6
            )

    def test_derivative_of_the_affine_tail_is_lambda_minus(self):
        # gamma = 3: below t_- = 0, phi' is the tail's slope lambda_- = -1/2,
        # as for the closed form, and a central difference of phi agrees
        case = next(c for c in SOLVED_CASES if c.name == "power gamma=3")
        phi = build_phi(case.spec())
        ts, h = np.array([-2.0, -0.5, -0.01]), 1e-4
        assert np.allclose(phi.phi_prime(ts), -0.5, atol=1e-9)
        assert np.allclose(phi.phi_prime(ts), case.gen.phi_prime(ts), atol=1e-9)
        slopes = (phi.phi(ts + h) - phi.phi(ts - h)) / (2.0 * h)
        assert np.allclose(phi.phi_prime(ts), slopes, atol=1e-6)

    def test_m_equation_on_the_built_generator(self):
        # the bisection on ]a, b[ = ]-inf, inf[ finds the closed form's m*
        case = next(c for c in SOLVED_CASES if c.name == "power gamma=3")
        q, p = np.array([0.5, 0.2, 0.3]), np.array([0.2, 0.3, 0.5])
        m = engine.solve_m_equation(build_phi(case.spec()), q, p)
        assert m == pytest.approx(bs.min_over_m_closed(PowerGamma(3.0), q, p)[1], rel=1e-8)


    @pytest.mark.parametrize("case", SOLVED_CASES, ids=lambda c: c.name)
    def test_matches_closed_form_near_finite_ends(self, case):
        # up to 1e-14 inside an end, where phi' is steep or singular; the
        # blended chi-square's own phi' loses digits near -1, where its
        # t - 1 rounds, so it is held to 1e-4 of its end
        spec = case.spec()
        depths = (1e-2, 1e-4) if case.name == "blended chi-square" else (1e-2, 1e-6, 1e-10, 1e-14)
        for end, inward in zip(spec.t_sc, (1.0, -1.0)):
            for t in [end + inward * d for d in depths if math.isfinite(end)]:
                built, ref = float(spec.phi(t)[0]), float(case.gen.phi(np.array([t]))[0])
                assert built == pytest.approx(ref, rel=1e-12), (case.name, t)

    def test_a_point_rounded_past_an_end_is_the_end(self):
        # a t just inside t_- can map to an s just outside ]a_F, b_F[, as
        # t + F^{-1}(c) - 1 rounds
        spec = GeneratorSpec(F=lambda t: math.log(t) if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=1.0)
        past = math.nextafter(spec.a_F, -INF)
        assert _integral(spec, past) == _integral(spec, spec.a_F)
        assert _integral(spec, past) == pytest.approx(math.e, abs=1e-12)

    def test_divergence_at_an_end_that_quad_flags_is_infinite(self):
        # phi' = F = 1 - 2 / (t + 1): phi(t) = t - 1 - 2 log((t + 1) / 2)
        # diverges at -1, where u + 1 rounds before F can overflow, so quad
        # returns a finite value and flags it; 1e-10 inside, that rounding
        # of F's argument costs some digits
        spec = GeneratorSpec(F=lambda t: 1.0 - 2.0 / (t + 1.0), a_F=-1.0, b_F=INF)
        assert float(spec.phi(-1.0)[0]) == INF
        t = -1.0 + 1e-10
        ref = t - 1.0 - 2.0 * math.log((t + 1.0) / 2.0)
        assert float(spec.phi(t)[0]) == pytest.approx(ref, rel=1e-8)

    def test_reverse_kl_is_infinite_at_a_zero_entry(self):
        # built gamma = 0, phi(t) = t - 1 - log t: phi(0) = +inf
        spec = GeneratorSpec(F=lambda t: 1.0 - 1.0 / t if t > 0 else -INF,
                             a_F=0.0, b_F=INF, c=0.0)
        assert bs.divergence(bs.CustomGenerator(spec), [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]) == INF


class TestLegendreTransform:
    def test_quadratic_conjugate(self):
        conj = legendre_transform(lambda z: z * z / 2.0 + z, (-INF, INF))
        for t in (-1.0, 0.5, 2.0):
            assert conj(t) == pytest.approx((t - 1.0) ** 2 / 2.0, abs=1e-9)

    def test_poisson_conjugate_value(self):
        conj = legendre_transform(lambda z: math.exp(z) - 1.0, (-INF, INF))
        assert conj(2.0) == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-8)

    def test_biconjugacy(self):
        f = lambda z: z * z / 2.0 + z
        conj = legendre_transform(f, (-INF, INF))
        biconj = legendre_transform(conj, (-INF, INF))
        for z in (-0.5, 0.0, 1.2):
            assert biconj(z) == pytest.approx(f(z), abs=1e-7)

    def test_unbounded_supremum(self):
        # conjugate of a linear function is infinite off its slope
        conj = legendre_transform(lambda z: 2.0 * z, (-INF, INF))
        assert conj(5.0) == INF

    @pytest.mark.parametrize("case", SOLVED_CASES[:6], ids=lambda c: c.name)
    def test_reproduces_generator(self, case):
        lo, hi = case.law.mgf_dom()
        conj = legendre_transform(lambda z: float(lw.log_mgf(case.law, z)), (lo, hi))
        for t in t_grid(case.gen, 6):
            assert conj(float(t)) == pytest.approx(
                float(case.gen.phi(np.array([t]))[0]), abs=1e-7
            ), case.name


class TestCheckMeanOne:
    def test_gaussian_law_report(self):
        report = bs.check_mean_one(lw.Gaussian(1.0), 200_000, [0.0, 0.5], seed=5)
        assert report["mean_ok"]
        assert report["ok"]
        z0 = report["mgf_checks"][0]
        assert z0["empirical_mgf"] == pytest.approx(1.0)
        z5 = report["mgf_checks"][1]
        assert z5["mgf"] == pytest.approx(math.exp(0.5**2 / 2 + 0.5))

    def test_poisson_log_mgf_value(self):
        report = bs.check_mean_one(lw.ScaledPoisson(1.0), 100_000, [0.5], seed=6)
        assert report["mgf_checks"][0]["mgf"] == pytest.approx(
            math.exp(math.exp(0.5) - 1.0)
        )
        assert report["ok"]
