import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baresim as bs
from baresim.divergence import (
    AnchoredKL,
    BlendedWeightChiSq,
    GenAsymLaplace,
    GeneralizedKL,
    PowerGamma,
    TwoPoint,
    _divergence_positive,
)

from cases import SOLVED_CASES

ALL_GENERATORS = [
    PowerGamma(-1.0, 1.0),
    PowerGamma(0.0, 1.0),
    PowerGamma(0.5, 2.0),
    PowerGamma(1.0, 1.0),
    PowerGamma(2.0, 1.5),
    PowerGamma(3.0, 1.0),
    GeneralizedKL(1.0, 1.0),
    GeneralizedKL(-1.0 / 3.0, 1.0),
    AnchoredKL(0.5),
    BlendedWeightChiSq(0.5, 1.0),
    TwoPoint(0.0, 2.0),
    GenAsymLaplace(1.0, 2.0, 1.5, 1.0),
]


def interior_grid(gen, m=25):
    lo = gen.a if math.isfinite(gen.a) else -3.0
    hi = gen.b if math.isfinite(gen.b) else 5.0
    span = hi - lo
    return np.linspace(lo + 0.02 * span, hi - 0.02 * span, m)


class TestPhiEval:
    def test_phi_at_one_is_zero(self):
        for gen in ALL_GENERATORS:
            assert bs.phi_eval(gen, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_pearson_value(self):
        assert bs.phi_eval(PowerGamma(2.0, 1.0), 3.0) == pytest.approx(2.0)

    def test_reverse_kl_diverges_at_zero(self):
        assert bs.phi_eval(PowerGamma(0.0, 1.0), 0.0) == math.inf

    def test_power_boundary_values(self):
        # continuous extension at t = 0 for gamma in ]0,1]
        assert bs.phi_eval(PowerGamma(0.5, 1.0), 0.0) == pytest.approx(2.0)
        assert bs.phi_eval(PowerGamma(1.0, 3.0), 0.0) == pytest.approx(3.0)

    def test_outside_domain_is_inf(self):
        assert bs.phi_eval(PowerGamma(1.0, 1.0), -0.5) == math.inf
        assert bs.phi_eval(TwoPoint(0.0, 2.0), 2.5) == math.inf
        assert bs.phi_eval(BlendedWeightChiSq(0.5, 1.0), -1.0) == math.inf

    def test_two_point_boundary_values(self):
        gen = TwoPoint(0.0, 2.0)
        assert bs.phi_eval(gen, 0.0) == pytest.approx(math.log(2.0))
        assert bs.phi_eval(gen, 2.0) == pytest.approx(math.log(2.0))

    def test_anchored_boundary_value(self):
        gen = AnchoredKL(1.0)
        assert bs.phi_eval(gen, 1.0 - math.e) == pytest.approx(math.e)

    @pytest.mark.parametrize("anchor", [-40.0, -800.0, -math.inf])
    def test_anchor_whose_exponential_is_lost_against_one_rejected(self, anchor):
        # 1 - e^anchor rounds to 1 below about -37.43: phi' at 1 was NaN
        with pytest.raises(ValueError, match=f"anchor {anchor!r}: 1 - e\\^anchor rounds to 1"):
            AnchoredKL(anchor)
        assert AnchoredKL(-37.0).a < 1.0

    @pytest.mark.parametrize("anchor", [800.0, math.inf, math.nan])
    def test_anchor_whose_exponential_overflows_rejected(self, anchor):
        # e^anchor is no double past log(max double), about 709.78
        with pytest.raises(ValueError, match="e\\^anchor is not a finite double"):
            AnchoredKL(anchor)
        assert AnchoredKL(709.0).a == 1.0 - math.exp(709.0)

    def test_gamma_in_open_interval_rejected(self):
        with pytest.raises(ValueError):
            PowerGamma(1.5, 1.0)

    def test_convexity_on_grid(self):
        for gen in ALL_GENERATORS:
            t = interior_grid(gen)
            h = (t[1] - t[0]) / 4.0
            second = (gen.phi(t + h) - 2 * gen.phi(t) + gen.phi(t - h)) / h**2
            assert np.all(second >= -1e-6), type(gen).__name__


class TestPhiPrime:
    def test_prime_at_one_is_zero(self):
        for gen in ALL_GENERATORS:
            assert bs.phi_prime(gen, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_kl_prime_is_log(self):
        assert bs.phi_prime(PowerGamma(1.0, 1.0), 2.0) == pytest.approx(math.log(2.0))

    def test_pearson_prime(self):
        assert bs.phi_prime(PowerGamma(2.0, 1.0), 0.25) == pytest.approx(-0.75)

    def test_outside_interior_raises(self):
        with pytest.raises(ValueError):
            bs.phi_prime(PowerGamma(1.0, 1.0), -1.0)

    def test_matches_finite_difference(self):
        for gen in ALL_GENERATORS:
            t = interior_grid(gen, 11)
            h = 1e-6
            fd = (gen.phi(t + h) - gen.phi(t - h)) / (2 * h)
            assert np.allclose(gen.phi_prime(t), fd, rtol=1e-4, atol=1e-4), type(gen).__name__


class TestDivergence:
    def test_reflexivity_exact(self):
        P = np.array([0.5, 0.5])
        for gen in ALL_GENERATORS:
            assert bs.divergence(gen, P, P) == pytest.approx(0.0, abs=1e-14)

    def test_pearson_example(self):
        assert bs.divergence(PowerGamma(2.0, 1.0), [1, 0], [0.5, 0.5]) == pytest.approx(0.5)

    def test_kl_example(self):
        val = bs.divergence(PowerGamma(1.0, 1.0), [0.25, 0.75], [0.5, 0.5])
        assert val == pytest.approx(0.130812, abs=1e-6)

    def test_reflexivity_and_positivity_random(self, rng):
        # every generator variant, a thousand random admissible pairs
        for trial in range(1000):
            gen = ALL_GENERATORS[trial % len(ALL_GENERATORS)]
            k = int(rng.integers(2, 5))
            P = np.maximum(rng.dirichlet(np.ones(k)), 1e-3)
            P = P / P.sum()
            Q = np.maximum(rng.dirichlet(np.ones(k)), 1e-3)
            Q = Q / Q.sum()
            # keep ratios inside the variant's strict-convexity window
            Q = 0.5 * Q + 0.5 * P
            assert bs.divergence(gen, P, P) == pytest.approx(0.0, abs=1e-13)
            if not np.allclose(Q, P):
                assert bs.divergence(gen, Q, P) > 0, type(gen).__name__

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bs.divergence(PowerGamma(2.0), [1, 0, 0], [0.5, 0.5])

    def test_negative_reference_rejected(self):
        with pytest.raises(ValueError):
            bs.divergence(PowerGamma(2.0), [1, 0], [-0.5, 0.5])

    def test_zero_conventions(self):
        # p = 0, q = 0 contributes nothing
        gen = PowerGamma(2.0, 1.0)
        assert bs.divergence(gen, [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) == pytest.approx(0.0)
        # p = 0, q > 0: slope at +inf; infinite for KL, finite for gamma=0
        assert bs.divergence(PowerGamma(1.0), [0.5, 0.5], [1.0, 0.0]) == math.inf
        val = bs.divergence(PowerGamma(0.0, 1.0), [0.5, 0.5], [1.0, 0.0])
        assert val == pytest.approx(bs.phi_eval(PowerGamma(0.0, 1.0), 0.5) + 0.5)
        # p = 0, q < 0: finite only when the conjugate domain is bounded below
        gen10 = GenAsymLaplace(1.0, 2.0, 1.5, 1.0)
        val = bs.divergence(gen10, [1.5, -0.5], [1.0, 0.0])
        assert math.isfinite(val)
        assert bs.divergence(PowerGamma(2.0), [1.5, -0.5], [1.0, 0.0]) == math.inf

    def test_private_evaluator_matches_public(self, rng):
        # the proxy search scores candidates with the unchecked evaluator on
        # a validated, strictly positive P; it must agree exactly with the
        # public divergence, +inf outside dom phi included
        outside = 0
        for case in SOLVED_CASES:
            for _ in range(200):
                k = int(rng.integers(2, 6))
                P = rng.dirichlet(np.ones(k)) + 1e-3
                Q = P * rng.uniform(-1.0, 4.0, size=k)
                public = bs.divergence(case.gen, Q, P)
                assert _divergence_positive(case.gen, Q, P) == public, case.name
                outside += public == math.inf
        assert outside > 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.05, 5.0), min_size=2, max_size=5),
           st.lists(st.floats(0.05, 5.0), min_size=2, max_size=5))
    def test_weighted_identity_property(self, q, p):
        k = min(len(q), len(p))
        Q, P = np.array(q[:k]), np.array(p[:k])
        c = np.linspace(0.5, 2.0, k)
        gen = PowerGamma(1.0, 1.0)
        lhs = bs.weighted_divergence(gen, Q, P, c)
        rhs = float(np.sum(c * P * (Q / P * np.log(Q / P) + 1 - Q / P)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestWeighted:
    def test_unit_weights(self):
        gen = PowerGamma(2.0)
        q, p = np.array([1.0, 0.0]), np.array([0.5, 0.5])
        assert bs.weighted_divergence(gen, q, p, [1, 1]) == bs.divergence(gen, q, p)

    def test_doubling_example(self):
        val = bs.weighted_divergence(PowerGamma(2.0), [1, 0], [0.5, 0.5], [2, 2])
        assert val == pytest.approx(1.0)

    def test_rescaling_identity_random(self, rng):
        gen = PowerGamma(0.5, 1.3)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            Q = rng.uniform(0.1, 2.0, k)
            P = rng.uniform(0.1, 2.0, k)
            c = rng.uniform(0.2, 3.0, k)
            assert bs.weighted_divergence(gen, Q, P, c) == pytest.approx(
                bs.divergence(gen, Q * c, P * c), rel=1e-12
            )

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            bs.weighted_divergence(PowerGamma(2.0), [1, 0], [0.5, 0.5], [1, 0])


class TestNormalize:
    def test_uniform(self):
        p, m = bs.normalize_bs1([1, 1, 1, 1])
        assert m == 4.0
        assert np.allclose(p, 0.25)

    def test_example(self):
        p, m = bs.normalize_bs1([2, 3, 5])
        assert m == 10.0
        assert np.allclose(p, [0.2, 0.3, 0.5])

    def test_rescaling_identity(self, rng):
        gen = PowerGamma(1.0, 1.0)
        for _ in range(20):
            P = rng.uniform(0.2, 3.0, 3)
            Q = rng.uniform(0.2, 3.0, 3)
            p_t, m = bs.normalize_bs1(P)
            lhs = bs.divergence(gen, Q, P)
            rhs = bs.divergence(PowerGamma(1.0, m), Q / m, p_t)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            bs.normalize_bs1([0.0, 0.0])


class TestHellinger:
    def test_equal_vectors_give_one(self):
        P = np.array([0.2, 0.3, 0.5])
        for g in (-1.0, 0.5, 2.0, 3.0):
            assert bs.hellinger_integral(g, P, P) == pytest.approx(1.0)

    def test_bhattacharyya_example(self):
        assert bs.hellinger_integral(0.5, [1, 0], [0.5, 0.5]) == pytest.approx(
            math.sqrt(0.5)
        )

    def test_pearson_example(self):
        assert bs.hellinger_integral(2.0, [0.25, 0.75], [0.5, 0.5]) == pytest.approx(1.25)

    def test_affine_identity_with_divergence(self, rng):
        for _ in range(500):
            g = float(rng.uniform(-2, 3))
            if abs(g) < 0.05 or abs(g - 1) < 0.05 or 1.0 < g < 2.0:
                continue
            P = np.maximum(rng.dirichlet([2, 2, 2]), 1e-3)
            P = P / P.sum()
            A = float(rng.uniform(0.5, 2.0))
            Q = np.maximum(rng.dirichlet([2, 2, 2]), 1e-3)
            Q = A * Q / Q.sum()
            h = bs.hellinger_integral(g, Q, P)
            d = bs.divergence(PowerGamma(g, 1.0), Q, P)
            a = Q.sum()
            assert h == pytest.approx(1 + g * (a - 1) + g * (g - 1) * d, abs=1e-12)

    def test_inadmissible_triples(self):
        with pytest.raises(ValueError):
            bs.hellinger_integral(-1.0, [0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            bs.hellinger_integral(2.0, [0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError):
            bs.hellinger_integral(1.0, [0.5, 0.5], [0.5, 0.5])


class TestModifiedKL:
    def test_equal_prob_vectors(self):
        P = np.array([0.4, 0.6])
        assert bs.modified_kl(P, P) == pytest.approx(0.0)
        assert bs.modified_rev_kl(P, P) == pytest.approx(0.0)

    def test_kl_example(self):
        assert bs.modified_kl([0.25, 0.75], [0.5, 0.5]) == pytest.approx(0.130812, abs=1e-6)

    def test_doubled_mass(self):
        assert bs.modified_kl([1.0, 1.0], [0.5, 0.5]) == pytest.approx(2 * math.log(2))

    def test_affine_identities(self, rng):
        gen1, gen0 = PowerGamma(1.0), PowerGamma(0.0)
        for _ in range(100):
            P = rng.dirichlet([3, 3, 3])
            A = float(rng.uniform(0.5, 2.0))
            Q = np.maximum(A * rng.dirichlet([3, 3, 3]), 1e-9)
            a = Q.sum()
            assert bs.modified_kl(Q, P) == pytest.approx(
                bs.divergence(gen1, Q, P) + a - 1, rel=1e-9, abs=1e-11
            )
            assert bs.modified_rev_kl(Q, P) == pytest.approx(
                bs.divergence(gen0, Q, P) + 1 - a, rel=1e-9, abs=1e-11
            )


class TestRenyi:
    def test_zero_at_equality(self):
        P = np.array([0.3, 0.7])
        for g in (-1.0, 0.5, 2.0):
            assert bs.renyi(g, P, P) == pytest.approx(0.0)

    def test_half_order_example(self):
        assert bs.renyi(0.5, [1, 0], [0.5, 0.5]) == pytest.approx(math.log(4), abs=1e-9)

    def test_arccos_example(self):
        val = bs.bhattacharyya_arccos(0.5, [1, 0], [0.5, 0.5])
        assert val == pytest.approx(math.pi / 4)

    def test_arccos_rejects_large_h(self):
        with pytest.raises(ValueError):
            bs.bhattacharyya_arccos(0.5, 2 * np.array([0.5, 0.5]), [0.5, 0.5])

    def test_power_and_log_transforms(self):
        Q, P = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        h = bs.hellinger_integral(0.5, Q, P)
        assert bs.renyi_power_transform(0.5, Q, P, 2.0, 3.0, 1.0) == pytest.approx(
            2 * (h**3 - 1)
        )
        assert bs.renyi_log_transform(0.5, Q, P, c4=-4.0) == pytest.approx(
            bs.renyi(0.5, Q, P)
        )

    def test_bounded_transform_range(self, rng):
        for _ in range(20):
            Q = rng.dirichlet([2, 2])
            P = rng.dirichlet([2, 2])
            val = bs.bounded_bhattacharyya(0.5, Q, P, nu=2.0, c7=1.0)
            assert 0.0 <= val < 1.0

    def test_escort_matches_direct(self, rng):
        # escort relation: value equals the Renyi divergence of the escorts
        for _ in range(25):
            Q = np.maximum(rng.dirichlet([3, 3, 3]), 1e-6)
            Q = Q / Q.sum()
            P = np.maximum(rng.dirichlet([3, 3, 3]), 1e-6)
            P = P / P.sum()
            nu1, nu = 2.0, 0.8
            gam = nu / nu1
            tq = Q**nu1 / np.sum(Q**nu1)
            tp = P**nu1 / np.sum(P**nu1)
            direct = gam * bs.renyi(gam, tq, tp)
            assert bs.escort_renyi(nu1, nu, Q, P) == pytest.approx(direct, rel=1e-10)

    def test_sundaresan_is_nu_one(self):
        Q = np.array([0.2, 0.3, 0.5])
        P = np.array([0.4, 0.4, 0.2])
        assert bs.sundaresan(2.0, Q, P) == bs.escort_renyi(2.0, 1.0, Q, P)


class TestMinOverM:
    def test_trivial(self):
        P = np.array([0.5, 0.5])
        val, m = bs.min_over_m_closed(PowerGamma(1.0), P, P)
        assert val == pytest.approx(0.0, abs=1e-14)
        assert m == pytest.approx(1.0)

    def test_pearson_example(self):
        val, m = bs.min_over_m_closed(PowerGamma(2.0, 1.0), [0.25, 0.75], [0.5, 0.5])
        assert val == pytest.approx(0.1)
        assert m == pytest.approx(0.8)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_against_golden_section(self, gamma, rng):
        from baresim.oracle import golden_min

        gen = PowerGamma(gamma, 1.0)
        for _ in range(20):
            P = rng.dirichlet([3, 3, 3])
            A = float(rng.uniform(0.5, 2.0))
            Q = np.maximum(A * rng.dirichlet([3, 3, 3]), 1e-4)
            val, m = bs.min_over_m_closed(gen, Q, P)
            x, fx = golden_min(
                lambda mm: bs.divergence(gen, mm * Q, P), (1e-3, 20.0), tol=1e-12
            )
            assert val == pytest.approx(fx, abs=1e-10)
            assert m == pytest.approx(x, abs=1e-6)


class TestFlatten:
    def test_identity_matrix(self):
        assert np.allclose(bs.flatten_matrix(np.eye(2)), [1, 0, 0, 1])

    def test_row_major(self):
        assert np.allclose(bs.flatten_matrix([[1, 2], [3, 4]]), [1, 2, 3, 4])

    def test_round_trip(self, rng):
        X = rng.uniform(size=(3, 4))
        assert np.allclose(bs.unflatten_matrix(bs.flatten_matrix(X), (3, 4)), X)
