import math

import numpy as np
import pytest

import baresim as bs
from baresim import engine, laws, oracle
from baresim.divergence import PowerGamma


class TestGoldenMin:
    def test_quadratic(self):
        x, fx = oracle.golden_min(lambda m: (m - 0.8) ** 2, (0.0, 2.0), tol=1e-12)
        assert x == pytest.approx(0.8, abs=1e-9)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_m_minimization_matches_ratio(self):
        gen = PowerGamma(2.0, 1.0)
        Q = np.array([0.25, 0.75])
        P = np.array([0.5, 0.5])
        h2 = float(np.sum(Q**2 / P))
        x, _ = oracle.golden_min(lambda m: bs.divergence(gen, m * Q, P), (0.01, 5.0),
                                 tol=1e-12)
        assert x == pytest.approx(1.0 / h2, abs=1e-8)

    def test_tolerance_contract(self):
        x, _ = oracle.golden_min(lambda m: abs(m - 1.234567), (0.0, 3.0), tol=1e-6)
        assert abs(x - 1.234567) <= 1e-6

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            oracle.golden_min(lambda m: math.inf, (0.0, 1.0))


class TestGridMin:
    def test_full_simplex_returns_reference(self):
        P = np.array([0.2, 0.3, 0.5])
        val, arg = oracle.grid_min_divergence(PowerGamma(1.0), P, bs.full_space())
        assert val == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(arg, P, atol=5e-3)

    def test_kl_face_projection(self):
        # I-projection of (0.2,0.3,0.5) onto {q1 = 0.5} has the closed form
        # (0.5, 0.3c, 0.5c) with c = 0.5/0.8
        P = np.array([0.2, 0.3, 0.5])
        omega = bs.simplex_face(0, 0.5, ">=")
        val, arg = oracle.grid_min_divergence(PowerGamma(1.0), P, omega)
        c = 0.5 / 0.8
        ref = 0.5 * math.log(0.5 / 0.2) + 0.3 * c * math.log(c) + 0.5 * c * math.log(c)
        assert val == pytest.approx(ref, abs=1e-6)
        assert arg[0] == pytest.approx(0.5, abs=1e-4)

    def test_self_consistency_across_resolutions(self):
        P = np.array([0.25, 0.35, 0.4])
        omega = bs.simplex_face(1, 0.55, ">=")
        v1, _ = oracle.grid_min_divergence(PowerGamma(2.0), P, omega, resolution=0.02)
        v2, _ = oracle.grid_min_divergence(PowerGamma(2.0), P, omega, resolution=0.01)
        assert abs(v1 - v2) < 0.02

    def test_agrees_with_min_over_m_on_scaled_grid(self):
        gen = PowerGamma(2.0, 1.0)
        P = np.array([0.3, 0.3, 0.4])
        omega = bs.simplex_face(0, 0.6, ">=")

        def mproj(q):
            val, _ = bs.min_over_m_closed(gen, q, P)
            return val

        v_grid, arg = oracle.grid_min_divergence(gen, P, omega, objective=mproj)
        direct, _ = bs.min_over_m_closed(gen, arg, P)
        assert v_grid == pytest.approx(direct, abs=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            oracle.grid_min_divergence(
                PowerGamma(1.0), np.full(5, 0.2), bs.full_space()
            )

    def test_no_feasible_point(self):
        with pytest.raises(ValueError):
            oracle.grid_min_divergence(
                PowerGamma(1.0), np.array([0.5, 0.5]), bs.empty_set()
            )


class TestExactPi:
    def test_full_space_totals_one(self):
        law = laws.ScaledPoisson(1.0)
        part = engine.partition([0.5, 0.5], 4)
        pi, tail = oracle.exact_pi(law, part, bs.full_space(), mode="deterministic")
        assert tail < 1e-12
        assert pi == pytest.approx(1.0, abs=1e-10)

    def test_two_point_finite_support(self):
        law = laws.TwoPointLaw(0.0, 2.0)
        part = engine.partition([0.5, 0.5], 4)
        omega = bs.simplex_face(0, 0.9, ">=")
        pi, tail = oracle.exact_pi(law, part, omega, mode="deterministic")
        assert tail == 0.0
        # S1/4 >= 0.9 means both first-block draws equal 2
        assert pi == pytest.approx(0.25)

    def test_poisson_halfspace_value(self):
        from scipy import stats

        law = laws.ScaledPoisson(1.0)
        part = engine.partition([0.5, 0.5], 4)
        omega = bs.simplex_face(0, 1.25, ">=")  # S1 >= 5
        pi, tail = oracle.exact_pi(law, part, omega, mode="deterministic")
        assert pi == pytest.approx(1 - stats.poisson.cdf(4, 2), abs=1e-10)

    @pytest.mark.parametrize("tail_bound", [1e-14, 1e-16])
    def test_small_tail_bounds_are_certified(self, tail_bound):
        # each block's tail is P[X > cut] from the far side, not 1 - sum(pmf)
        law = laws.ScaledPoisson(1.0)
        part = engine.partition(np.full(3, 1 / 3), 150)
        omega = bs.simplex_face(0, 0.6, ">=")
        pi0, tail0 = oracle.exact_pi(law, part, omega, mode="simplex")
        pi, tail = oracle.exact_pi(law, part, omega, tail_bound=tail_bound, mode="simplex")
        assert tail <= tail_bound
        assert abs(pi - pi0) <= tail + tail0
        # the enumeration at the default bound is the one of the 1 - sum(pmf) tail
        assert pi0.hex() == "0x1.4735142037e89p-34"

    def test_poisson_cut_beyond_isf(self):
        # scipy's poisson.isf is NaN this far out; the cut is found on logsf
        vals, probs, tail = laws.ScaledPoisson(1.0).block_support(50, math.log(1e-17))
        assert 0.0 < tail <= 1e-17 / 2
        assert probs[-3:].sum() > 0.0

    def test_continuous_law_rejected(self):
        part = engine.partition([0.5, 0.5], 4)
        with pytest.raises(ValueError):
            oracle.exact_pi(laws.Gaussian(1.0), part, bs.full_space())

    def test_a_product_too_large_is_refused_before_it_is_built(self, monkeypatch):
        # the README face at n = 2000: Poisson(400), (600) and (1000) supports
        # of 559, 792 and 1,174 sums make 5.2e8 tuples, tens of GB
        def fail(*args, **kwargs):
            pytest.fail("the product of the supports was built")

        monkeypatch.setattr(oracle.np, "meshgrid", fail)
        with pytest.raises(ValueError, match=r"block supports of sizes \[559, 792, 1174\]"):
            oracle.exact_pi(laws.ScaledPoisson(1.0), engine.partition([0.2, 0.3, 0.5], 2000),
                            bs.simplex_face(0, 0.5), mode="simplex")


class TestSimplexGrid:
    def test_counts_and_sums(self):
        grid = oracle.simplex_grid(3, 0.1)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert grid.shape[0] == 66  # compositions of 10 into 3 parts

    def test_resolution_must_divide(self):
        with pytest.raises(ValueError):
            oracle.simplex_grid(3, 0.3)
