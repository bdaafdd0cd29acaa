import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baresim as bs
from baresim import engine, laws, oracle, problems
from baresim.divergence import (
    GenAsymLaplace, GeneralizedKL, PowerGamma, TwoPoint, divergence, min_over_m_closed,
    modified_kl, modified_rev_kl,
)
from baresim.entropy import (
    _order, arimoto, entropy, gamma_norm, havrda_charvat, hill_number, patil_taillie,
    renyi_entropy, shannon, sharma_mittal1, sharma_mittal2,
)

from conftest import NoDrawLaw, make_rng


class TestPartition:
    def test_even_split(self):
        part = engine.partition([0.5, 0.5], 4)
        assert list(part.sizes) == [2, 2]
        assert part.exact

    def test_exact_floors(self):
        part = engine.partition([0.2, 0.3, 0.5], 10)
        assert list(part.sizes) == [2, 3, 5]

    def test_remainder_goes_last(self):
        part = engine.partition([1 / 3, 1 / 3, 1 / 3], 10)
        assert list(part.sizes) == [3, 3, 4]
        assert not part.exact

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            engine.partition([0.9, 0.1], 5)

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            engine.partition([1.0, 0.0], 10)

    def test_near_integral_products_snap(self):
        # 100 * 0.29 is 28.999999999999996 in floating point
        part = engine.partition([0.29, 0.71], 100)
        assert list(part.sizes) == [29, 71]
        assert part.exact

    def test_rescaled_reference_keeps_its_blocks(self):
        # P / sum(P) for P = 1.7 * (.2, .3, .5) is (.2, .3, .5) up to
        # rounding: the blocks, and the shorter blocks of the tilt search's
        # ladder, must not lose a unit to it
        P = 1.7 * np.array([0.2, 0.3, 0.5])
        part = engine.partition(P / P.sum(), 300)
        assert list(part.sizes) == [60, 90, 150]
        cfg = bs.EstimatorConfig(n=300, L=2_000, seed=1)
        est = bs.estimate_min_divergence(
            PowerGamma(1.0), P, bs.halfspace([1.0, 1.0, 1.0], 1.3 * 1.7), cfg,
            mode="deterministic",
        )
        assert est.hits > 0
        assert not any("not integral" in w for w in est.warnings)


class TestIngestSample:
    def test_balanced(self):
        part = engine.ingest_sample(list("abab"))
        assert list(part.sizes) == [2, 2]
        assert np.allclose(part.p_tilde, [0.5, 0.5])

    def test_counts(self):
        part = engine.ingest_sample(list("aaab"))
        assert np.allclose(part.p_tilde, [0.75, 0.25])

    def test_order_invariance(self):
        a = engine.ingest_sample(list("aabbcc"))
        b = engine.ingest_sample(list("cbacba"))
        assert list(a.sizes) == list(b.sizes)
        assert np.allclose(a.p_tilde, b.p_tilde)

    def test_missing_category_rejected(self):
        with pytest.raises(ValueError, match="every category must occur"):
            engine.ingest_sample(list("aaaa"), categories=["a", "b"])

    def test_unlisted_label_rejected(self):
        with pytest.raises(ValueError, match="outside the category list"):
            engine.ingest_sample(list("aabc"), categories=["a", "b"])

    def test_many_categories_match_unique_counts(self):
        rng = make_rng(5)
        labels = [f"c{k:02d}" for k in rng.integers(0, 50, size=200_000)]
        cats, counts = np.unique(labels, return_counts=True)
        part = engine.ingest_sample(labels)
        assert list(part.sizes) == list(counts)
        assert np.array_equal(part.p_tilde, counts / counts.sum())
        # an explicit category list sets the block order
        order = rng.permutation(len(cats))
        part = engine.ingest_sample(labels, categories=[str(c) for c in cats[order]])
        assert list(part.sizes) == list(counts[order])


class TestNaive:
    def test_full_space(self):
        cfg = bs.EstimatorConfig(n=12, L=2_000, seed=1)
        est = engine.naive_estimate(engine.prepare(
            PowerGamma(1.0), np.array([0.5, 0.5]), bs.full_space(), cfg, "deterministic"), cfg)
        assert est.hit_rate == 1.0
        assert est.log_pi_hat == 0.0
        assert engine.invert("deterministic", est.log_pi_hat, cfg.n) == 0.0

    def test_empty_set_zero_hits(self):
        cfg = bs.EstimatorConfig(n=12, L=500, seed=1)
        prepared = engine.prepare(
            PowerGamma(1.0), np.array([0.5, 0.5]), bs.empty_set(), cfg, "deterministic")
        est = engine.naive_estimate(prepared, cfg)
        assert est.hits == 0
        assert est.log_pi_hat == -math.inf
        assert any("rule-of-three" in w for w in est.warnings)
        final = engine.finalize(est, "deterministic", prepared)
        assert final.value == math.inf

    def test_some_batches_without_hits(self):
        # rare enough that some, but not all, of the 32 batches see no hit
        configs = [bs.EstimatorConfig(n=40, L=6_400, seed=3, threads=threads)
                   for threads in (1, 2)]
        runs = [
            engine.naive_estimate(engine.prepare(
                PowerGamma(1.0), np.array([0.5, 0.5]), bs.simplex_face(0, 0.75), cfg,
                "simplex"), cfg)
            for cfg in configs
        ]
        est = runs[0]
        empty = np.isneginf(est.batch_log_means)
        assert 0 < empty.sum() < empty.size
        assert "some batches had zero hits; stderr is rough" in est.warnings
        assert est.log_pi_hat == pytest.approx(math.log(est.hits / est.L), abs=1e-12)
        assert runs[1].log_pi_hat == est.log_pi_hat
        assert runs[1].stderr_log_pi == est.stderr_log_pi
        assert np.array_equal(runs[1].batch_log_means, est.batch_log_means)

    def test_zero_total_rows_never_hit(self):
        # simplex mode cannot normalise a replication whose weights sum to
        # zero; with Poisson(1) weights at n=2 that is a share exp(-2)
        cfg = bs.EstimatorConfig(n=2, L=20_000, seed=5)
        est = engine.naive_estimate(engine.prepare(
            PowerGamma(1.0), np.array([0.5, 0.5]), bs.full_space(), cfg, "simplex"), cfg)
        share = 1.0 - math.exp(-2.0)
        tol = 6 * math.sqrt(share * (1 - share) / cfg.L)
        assert est.hit_rate == pytest.approx(share, abs=tol)

    @pytest.mark.parametrize("mode", ["deterministic", "simplex"])
    def test_nonintegral_blocks_warn(self, mode):
        # a set without a row has no rounding term: both modes round n p
        # alike, so both warn
        cfg = bs.EstimatorConfig(n=10, L=200, seed=0)
        P = np.array([1.0, 2.0]) / (1.0 if mode == "deterministic" else 3.0)
        est = engine.naive_estimate(engine.prepare(
            PowerGamma(1.0), P, bs.full_space(), cfg, mode), cfg)
        assert any("not integral" in w for w in est.warnings)

    @pytest.mark.parametrize("mode, gen, omega, n, log_pi, hits", [
        pytest.param("simplex", PowerGamma(1.0), bs.simplex_face(0, 0.3), 100,
                     "-0x1.27b2baec5cda7p+2", 197, id="readme_face"),
        pytest.param("deterministic", PowerGamma(-1.0), bs.halfspace([1.0, 1.0, 1.0], 1.05),
                     200, "-0x1.73b6b97854978p+0", 4_682, id="neyman_halfspace"),
        pytest.param("deterministic", PowerGamma(0.5), bs.box([0.25, 0.0, 0.0], [1.0] * 3),
                     200, "-0x1.5df83801a77bep+1", 1_299, id="hellinger_box"),
    ])
    def test_the_zero_tilt_keeps_the_untilted_bits(self, mode, gen, omega, n, log_pi, hits):
        # the naive run is the zero tilt: its draws are the untilted ones and
        # its log weights sum_j N_j Lambda(0) are exactly 0 for these laws, so
        # every hit weighs 1 and the bits are those of counting the hits.
        # The face draws its classes {0} and {1, 2}, the sum halfspace its one
        # class, and the box, without a row, one column per block
        cfg = bs.EstimatorConfig(n=n, L=20_000, seed=3)
        est = engine.naive_estimate(
            engine.prepare(gen, [0.2, 0.3, 0.5], omega, cfg, mode), cfg)
        assert float(est.log_pi_hat).hex() == log_pi
        assert est.hits == hits

    def test_a_naive_two_point_run_counts_its_hits(self):
        # two-point weights have Lambda(0) = 0 exactly, so every hit weighs 1:
        # the full space gives log 1 and a face the log of its hit rate
        gen, cfg = TwoPoint(0.5, 2.5), bs.EstimatorConfig(n=100, L=100_000, seed=0)
        for omega in (bs.full_space(), bs.simplex_face(0, 0.3)):
            est = engine.naive_estimate(
                engine.prepare(gen, [0.2, 0.3, 0.5], omega, cfg, "simplex"), cfg)
            assert 0 < est.hits
            assert est.log_pi_hat == math.log(est.hits / est.L)


class TestProxy:
    """The search, on sets without a row: a one-inequality leaf takes the
    dual instead, so each searched set here is its row-less form, such as
    ``intersection(face)``.  A given q_star comes before the dual too."""

    def setup_method(self):
        self.p = np.array([0.2, 0.3, 0.5])
        self.face = bs.simplex_face(0, 0.5, ">=")
        self.omega = bs.intersection(self.face)

    def test_the_searched_point_is_a_member(self):
        cfg = bs.EstimatorConfig(n=100, L=10, seed=2)
        res = engine.proxy_q_star(
            engine.prepare(PowerGamma(1.0), self.p, self.omega, cfg, "simplex"), cfg
        )
        assert self.omega.contains_point(res.q_star)
        assert res.q_star.sum() == pytest.approx(1.0, abs=1e-9)

    def test_the_ladder_reaches_a_face_of_a_small_block(self):
        # block 0 holds 2% of the weights, so an untilted run of the frame's
        # length almost never reaches q_0 >= .3; the ladder's runs double
        # from one weight a block, each tilted by the last, and the ray along
        # its last tilts ends within 1e-3 of the closed-form minimum 2.0
        # (q_0 = .3, the other coordinates lowered in proportion to p): 2.7e-4
        # above it at this seed
        p = np.array([0.02, 0.18, 0.3, 0.5])
        omega = bs.intersection(bs.simplex_face(0, 0.3, ">="))
        cfg = bs.EstimatorConfig(n=1000, L=10, seed=1)
        res = engine.proxy_q_star(
            engine.prepare(PowerGamma(2.0), p, omega, cfg, "simplex"), cfg)
        assert omega.contains_point(res.q_star)
        assert divergence(PowerGamma(2.0), res.q_star, p) <= 2.0 + 1e-3

    @pytest.mark.parametrize("gen", [PowerGamma(1.0), GeneralizedKL(1.0, 1.0)],
                             ids=["kl", "generalized_kl"])
    def test_a_searched_solve_calls_neither_tilts_nor_the_m_equation(self, gen, monkeypatch):
        # the ladder tilts the unnormalised block sums themselves: its tilts
        # pass through no point, so no m* is solved for
        def fail(*args, **kwargs):
            pytest.fail("a searched solve took tilts at a point")

        monkeypatch.setattr(engine.Prepared, "tilts", fail)
        monkeypatch.setattr(engine, "solve_m_equation", fail)
        cfg = bs.EstimatorConfig(n=2000, L=2000, seed=1)
        if isinstance(gen, PowerGamma):
            est = bs.estimate_min_divergence(gen, self.p, self.omega, cfg,
                                             mode="simplex", target="divergence")
        else:
            est = engine.bounds_general(gen, self.p, self.omega, cfg)[3]
        assert est.hits > 0

    def test_a_searched_run_is_the_same_on_any_thread_count(self):
        # the ladder draws alone, before the batches, so its tilts and the
        # run they tilt keep their bits however the passes spread
        runs = [bs.estimate_min_divergence(PowerGamma(1.0), self.p, self.omega,
                                           bs.EstimatorConfig(n=200, L=20_000, seed=5,
                                                              threads=threads),
                                           mode="simplex") for threads in (1, 2, 3)]
        assert runs[0].hits > 0
        for est in runs[1:]:
            assert est.value.hex() == runs[0].value.hex()
            assert est.hits == runs[0].hits
            assert np.array_equal(est.batch_log_means, runs[0].batch_log_means)

    def test_given_q_star(self):
        q = np.array([0.5, 0.25, 0.25])
        cfg = bs.EstimatorConfig(
            n=100, L=10, seed=2, proxy=bs.ProxySpec(method="given", q_star=q)
        )
        res = engine.proxy_q_star(
            engine.prepare(PowerGamma(1.0), self.p, self.face, cfg, "simplex"), cfg
        )
        assert np.allclose(res.q_star, q)

    def test_given_q_star_without_valid_tilt_raises(self):
        # KL's tilt at the zero coordinate is phi'(0) = -inf: refused by the
        # proxy, before any batch is drawn
        cfg = bs.EstimatorConfig(n=100, L=10, seed=2, proxy=bs.ProxySpec(
            method="given", q_star=np.array([0.5, 0.0, 0.5])))
        with pytest.raises(ValueError, match="tilt target ratios"):
            engine.proxy_q_star(
                engine.prepare(PowerGamma(1.0), self.p, self.face, cfg, "simplex",
                               law=NoDrawLaw()), cfg)

    def test_budget_exhaustion_raises(self):
        # the ladder draws a fixed 2048 runs a level: an empty set leaves its
        # last level without a hit, and the error names the run length
        cfg = bs.EstimatorConfig(n=100, L=10, seed=2)
        with pytest.raises(RuntimeError, match=r"no hit of the constraint set in 2048 runs "
                                                r"of the length n = 100"):
            engine.proxy_q_star(
                engine.prepare(PowerGamma(1.0), self.p, bs.empty_set(), cfg, "simplex"), cfg
            )

    def test_refined_proxy_near_projection(self):
        # for the KL face instance the ray's point should approach the
        # I-projection (0.5, 0.1875, 0.3125)
        cfg = bs.EstimatorConfig(n=100, L=10, seed=4)
        res = engine.proxy_q_star(
            engine.prepare(PowerGamma(1.0), self.p, self.omega, cfg, "simplex"), cfg
        )
        assert res.q_star[0] == pytest.approx(0.5, abs=1e-6)
        assert res.q_star[1] == pytest.approx(0.1875, abs=0.02)

    def test_zero_coordinate_hit_is_passed_over(self):
        # with this seed the best-ranked hit lies on sum k q_k = 13 with
        # q_0 = 0, where the KL tilt at a point is infinite; the proxy is no
        # hit but the tilted mean of the ladder's finite tilts, e^tau > 0 in
        # every coordinate
        omega = bs.intersection(bs.halfspace(np.arange(1, 21), 13.0, ">="))
        cfg = bs.EstimatorConfig(n=10_000, L=2000, seed=3169191882)
        res = engine.proxy_q_star(
            engine.prepare(PowerGamma(1.0), np.full(20, 0.05), omega, cfg, "simplex"), cfg)
        assert np.all(res.q_star > 0)
        assert omega.contains_point(res.q_star)
        rep = problems.solve(problems.EntropyMax(shannon(), 20, omega), cfg)
        truth = 2.899898  # Shannon entropy of the Gibbs law with mean 13
        assert abs(rep.value - truth) <= 0.02 + 0.05 * truth

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_face_of_zero_coordinates_covers_its_pi(self, seed):
        # every hit of {q_0 <= 0} has q_0 = 0, where the KL tilt at a point
        # is infinite; the ladder's "+1" keeps its tilt finite, and the
        # estimate covers the exact pi = P(Poisson(20) = 0) = e^-20
        cfg = bs.EstimatorConfig(n=100, L=10_000, seed=seed)
        omega = bs.intersection(bs.simplex_face(0, 0.0, "<="))
        est = engine.is_estimate(engine.prepare(PowerGamma(1.0), self.p, omega, cfg,
                                                "simplex"), cfg)
        assert abs(est.log_pi_hat + 20.0) <= 3.0 * est.stderr_log_pi


class TestInvert:
    def test_deterministic(self):
        assert engine.invert("deterministic", -2.0, 10) == pytest.approx(0.2)

    def test_rate_zero_all_gammas(self):
        for g in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            val = engine.invert("divergence", 0.0, 10, gen=PowerGamma(g, 1.0), A=1.0)
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_pearson_example(self):
        val = engine.invert("divergence", -0.25 * 8, 8, gen=PowerGamma(2.0, 1.0), A=1.0)
        assert val == pytest.approx(0.5)

    def test_shannon_trivial(self):
        val = engine.invert("entropy", 0.0, 10, gen=PowerGamma(1.0, 1.0), A=1.0, K=4,
                            entropy_spec=shannon())
        assert val == pytest.approx(math.log(4))

    def test_domain_failure(self):
        with pytest.raises(ValueError):
            engine.invert("divergence", -100.0, 10, gen=PowerGamma(1.0, 1.0), A=1.0)

    def test_needs_power_generator(self):
        with pytest.raises(ValueError):
            engine.invert("divergence", -1.0, 10, gen=GeneralizedKL(1.0), A=1.0)

    def test_hellinger_and_renyi_consistency(self):
        gen = PowerGamma(2.0, 1.0)
        lp, n, A = -30.0, 100, 1.3
        d = engine.invert("divergence", lp, n, gen=gen, A=A)
        h = engine.invert("hellinger", lp, n, gen=gen, A=A)
        assert h == pytest.approx(1 + 2 * (A - 1) + 2 * d)
        r = engine.invert("renyi", lp, n, gen=gen, A=A)
        assert r == pytest.approx(math.log(h) / 2.0)

    def test_entropy_family_round_trip(self):
        # the optimal sum q^gamma is K^(1-gamma) times the Hellinger integral
        gen = PowerGamma(2.0, 1.0)
        lp, n, K = -10.0, 50, 3
        psum = K ** (1.0 - 2.0) * engine.invert("hellinger", lp, n, gen=gen, A=1.0)
        val = engine.invert("entropy", lp, n, gen=gen, A=1.0, K=K,
                            entropy_spec=havrda_charvat(2.0))
        assert val == pytest.approx((psum - 1.0) / (2.0 ** (1 - 2.0) - 1.0))

    @pytest.mark.parametrize("A", [1.0, 1.7])
    @pytest.mark.parametrize("target, gamma, spec, truth", [
        ("modified_kl", 1.0, None, modified_kl),
        ("modified_rev_kl", 0.0, None, modified_rev_kl),
    ] + [("entropy", _order(spec), spec, lambda Q, P, spec=spec: entropy(spec, Q))
         for spec in (sharma_mittal2(0.5), renyi_entropy(2.0), renyi_entropy(0.5), shannon(),
                      gamma_norm(3.0), hill_number(-1.0), havrda_charvat(2.0), arimoto(2.0),
                      sharma_mittal1(3.0, 0.5), patil_taillie(1.0))])
    def test_targets_at_mass_a_round_trip(self, target, gamma, spec, truth, A):
        # the rate at Q of mass A is inf over m of D(m Q, P), in closed form;
        # every entropy preset goes through the entropy target, at the
        # generator of its order and the uniform reference vector
        K, n = 4, 23
        Q = A * make_rng(K).dirichlet(np.full(K, 2.0))
        if target in ("modified_kl", "modified_rev_kl"):
            P = make_rng(K + 1).dirichlet(np.full(K, 2.0))
        else:
            P = np.full(K, 1.0 / K)
        gen = PowerGamma(gamma, 1.0)
        rate = min_over_m_closed(gen, Q, P)[0]
        got = engine.invert(target, -n * rate, n, gen=gen, A=A, K=K, entropy_spec=spec)
        assert got == pytest.approx(truth(Q, P), rel=1e-14)


class TestSolveMEquation:
    def test_pearson_closed_form(self, rng):
        gen = PowerGamma(2.0, 1.0)
        for _ in range(30):
            q = rng.dirichlet([2, 2, 2])
            p = rng.dirichlet([2, 2, 2])
            m = engine.solve_m_equation(gen, q, p)
            h2 = float(np.sum(q**2 / p))
            assert m == pytest.approx(1.0 / h2, abs=1e-10)

    def test_root_in_bracket(self, rng):
        gen = GeneralizedKL(1.0, 1.0)
        q = np.array([0.6, 0.25, 0.15])
        p = np.array([0.2, 0.3, 0.5])
        m = engine.solve_m_equation(gen, q, p)
        assert np.min(p / q) <= m <= np.max(p / q)
        resid = float(q @ gen.phi_prime(m * q / p))
        assert resid == pytest.approx(0.0, abs=1e-8)

    def test_root_where_max_p_over_q_leaves_dom_phi_prime(self):
        # TwoPoint(0, 2): phi' is defined on ]0, 2[, and at m = max p/q the
        # ratio m q_0 / p_0 is 2.57; the root lies below 2 p_0 / q_0
        gen = TwoPoint(0.0, 2.0)
        q = np.array([0.35, 0.24375, 0.40625])
        p = np.array([0.2, 0.3, 0.5])
        m = engine.solve_m_equation(gen, q, p)
        assert m == pytest.approx(0.8653, abs=1e-4)
        assert float(q @ gen.phi_prime(m * q / p)) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("gen", [GeneralizedKL(1.0, 1.0), GenAsymLaplace(1.0, 1.0, 1.0)])
    def test_zero_coordinate_adds_nothing(self, gen):
        q = np.array([0.6, 0.0, 0.4])
        p = np.array([0.2, 0.3, 0.5])
        m = engine.solve_m_equation(gen, q, p)
        assert m == engine.solve_m_equation(gen, q[[0, 2]], p[[0, 2]])
        pos = q > 0
        resid = float(q[pos] @ gen.phi_prime(m * q[pos] / p[pos]))
        assert resid == pytest.approx(0.0, abs=1e-8)


class TestDeterminism:
    def test_bit_identical_runs(self):
        p = np.array([0.2, 0.3, 0.5])
        omega = bs.simplex_face(0, 0.5, ">=")
        cfg = bs.EstimatorConfig(n=200, L=4_000, seed=42)
        gen = PowerGamma(1.0, 1.0)
        a = bs.estimate_min_divergence(gen, p, omega, cfg, mode="simplex",
                                       target="divergence")
        b = bs.estimate_min_divergence(gen, p, omega, cfg, mode="simplex",
                                       target="divergence")
        assert a.log_pi_hat == b.log_pi_hat
        assert a.value == b.value
        assert np.array_equal(a.batch_log_means, b.batch_log_means)

    def test_threads_do_not_change_results(self):
        p = np.array([0.2, 0.3, 0.5])
        omega = bs.simplex_face(0, 0.5, ">=")
        gen = PowerGamma(2.0, 1.0)
        one = bs.estimate_min_divergence(
            gen, p, omega, bs.EstimatorConfig(n=200, L=4_000, seed=9, threads=1),
            mode="simplex", target="divergence",
        )
        four = bs.estimate_min_divergence(
            gen, p, omega, bs.EstimatorConfig(n=200, L=4_000, seed=9, threads=4),
            mode="simplex", target="divergence",
        )
        assert one.log_pi_hat == four.log_pi_hat
        assert np.array_equal(one.batch_log_means, four.batch_log_means)

    def test_seed_changes_results(self):
        p = np.array([0.2, 0.3, 0.5])
        omega = bs.simplex_face(0, 0.5, ">=")
        gen = PowerGamma(2.0, 1.0)
        a = bs.estimate_min_divergence(
            gen, p, omega, bs.EstimatorConfig(n=200, L=4_000, seed=1),
            mode="simplex", target="divergence")
        b = bs.estimate_min_divergence(
            gen, p, omega, bs.EstimatorConfig(n=200, L=4_000, seed=2),
            mode="simplex", target="divergence")
        assert a.log_pi_hat != b.log_pi_hat


def hexes(values):
    return [float(v).hex() for v in values]


class TestBatchKernelBits:
    """What a batch computes: its pass draws the stream (seed, 0, b0), b0 the
    pass's first batch, one law call per class of blocks, and each row's sums
    over the columns (row total, log weight) round alike in either memory
    layout, in a call of any number of rows and in a pass shared with other
    batches."""

    @staticmethod
    def batches(monkeypatch, prepared, cfg, taus):
        """The per-batch log-means, hits and sizes ``_run_batches`` reduces."""
        seen = {}
        real = engine._estimate_from_batches

        def spy(log_means, hits, sizes, *rest):
            seen.update(log_means=log_means, hits=hits, sizes=sizes)
            return real(log_means, hits, sizes, *rest)

        monkeypatch.setattr(engine, "_estimate_from_batches", spy)
        engine._run_batches(prepared, cfg, taus)
        return seen

    @staticmethod
    def by_hand(prepared, cfg, taus, classes, sizes, member, tau_dot):
        """Hits and log-means of every batch, each pass drawn by hand from
        the stream (seed, 0, b0), one call per class of blocks (``classes``,
        tuples of block indices) at its pooled size and its one tilt, and
        then reduced batch by batch; ``member`` tests the class sums and
        ``tau_dot`` gives <tau, S> over them."""
        law, nks = prepared.law, prepared.part.sizes
        pooled = [int(sum(nks[k] for k in cls)) for cls in classes]
        class_taus = [float(taus[cls[0]]) for cls in classes]
        offset = np.array(pooled) @ np.array([float(law.log_mgf(t)) for t in class_taus])
        hits, log_means = [], []
        for batches in engine._passes(sizes):
            rng = engine._rng(cfg.seed, 0, batches.start)
            rows = int(sum(sizes[b] for b in batches))
            s = np.column_stack([law.sample_tilted_block(t, nk, rng, rows)
                                 for t, nk in zip(class_taus, pooled)])
            lo = 0
            for b in batches:
                rows_b = s[lo:lo + int(sizes[b])]
                lo += int(sizes[b])
                hit = member(rows_b)
                log_w = offset - tau_dot(rows_b, class_taus)
                hits.append(int(hit.sum()))
                log_means.append(engine._log_sum_exp(log_w[hit]) - math.log(len(rows_b)))
        return hits, hexes(log_means)

    def test_a_batch_is_its_stream_reduced_by_hand(self, monkeypatch):
        # 5,000-row batches, each alone in its pass, so batch b draws the
        # stream (seed, 0, b); the face's classes are {0} and {1, 2}
        cfg = bs.EstimatorConfig(n=2000, L=160_000, seed=11)
        prepared = engine.prepare(PowerGamma(1.0), [0.2, 0.3, 0.5], bs.simplex_face(0, 0.5),
                                  cfg, "simplex")
        taus = engine.compute_taus(prepared, engine.proxy_q_star(prepared, cfg))
        seen = self.batches(monkeypatch, prepared, cfg, taus)
        assert engine._passes(seen["sizes"]) == [range(b, b + 1) for b in range(32)]
        hits, log_means = self.by_hand(prepared, cfg, taus, ((0,), (1, 2)), seen["sizes"],
                                       lambda s: s[:, 0] / (s[:, 0] + s[:, 1]) >= 0.5,
                                       lambda s, t: s[:, 0] * t[0] + s[:, 1] * t[1])
        assert list(seen["hits"]) == hits
        assert hexes(seen["log_means"]) == log_means

    @pytest.mark.parametrize("L", [2_000, 20_000])
    def test_batches_sharing_a_pass_are_their_streams_reduced_by_hand(self, monkeypatch, L):
        # the Neyman halfspace with its dual tilts, one class of all three
        # blocks: 32 batches of 62 or 63 rows share one pass, or of 625 rows
        # six to a pass, the passes spread over the threads; a pass is one
        # stream, keyed by its first batch
        runs = []
        for threads in (1, 2, 3):
            cfg = bs.EstimatorConfig(n=200, L=L, seed=4, threads=threads)
            prepared = engine.prepare(PowerGamma(-1.0), [0.2, 0.3, 0.5],
                                      bs.halfspace([1.0, 1.0, 1.0], 1.3), cfg, "deterministic")
            taus = prepared.dual.taus
            runs.append(self.batches(monkeypatch, prepared, cfg, taus))
        passes = engine._passes(runs[0]["sizes"])
        assert [p.start for p in passes] == ([0] if L == 2_000 else [0, 6, 12, 18, 24, 30])
        for run in runs[1:]:
            assert hexes(run["log_means"]) == hexes(runs[0]["log_means"])
            assert np.array_equal(run["hits"], runs[0]["hits"])
        hits, log_means = self.by_hand(prepared, cfg, taus, ((0, 1, 2),), runs[0]["sizes"],
                                       lambda s: (s[:, 0] / 200) * 1.0 >= 1.3,
                                       lambda s, t: s[:, 0] * t[0])
        assert list(runs[0]["hits"]) == hits
        assert hexes(runs[0]["log_means"]) == log_means

    def test_passes_hold_whole_consecutive_batches(self):
        assert engine._passes([62] * 32) == [range(0, 32)]
        assert engine._passes([1_563, 1_563, 1_562, 1_562]) == [range(0, 2), range(2, 4)]
        assert engine._passes([3_125] * 3) == [range(0, 1), range(1, 2), range(2, 3)]
        assert engine._passes([5_000, 10, 10]) == [range(0, 1), range(1, 3)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0), st.integers(1, 700)), min_size=2, max_size=40),
           st.lists(st.sampled_from(["none", "all", "some"]), min_size=40, max_size=40),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_pass_kernel_is_log_sum_exp_batch_by_batch(self, sizes, kinds, lattice, seed):
        # batches of no rows (L below the batch count), of no hits and of
        # hits only; integer log weights tie at a batch's maximum, as a
        # lattice law's do, and batches above 128 hits split the pairwise sum
        rng = np.random.default_rng(seed)
        member = np.concatenate([
            np.full(size, kind == "all") if kind != "some" else rng.random(size) < 0.6
            for size, kind in zip(sizes, kinds)])
        log_w = (rng.integers(-3, 4, len(member)).astype(float) if lattice
                 else rng.normal(-40.0, 6.0, len(member)))
        log_sizes = np.array([math.log(size) if size else -math.inf for size in sizes])
        log_means, hits = engine._pass_log_means(log_w[member], member, sizes, log_sizes)
        want_means, want_hits, lo = [], [], 0
        for size in sizes:
            hit = member[lo:lo + size]
            want_hits.append(int(hit.sum()))
            want_means.append(engine._log_sum_exp(log_w[lo:lo + size][hit]) - math.log(size)
                              if hit.any() else -math.inf)
            lo += size
        assert list(hits) == want_hits
        assert hexes(log_means) == hexes(want_means)

    def test_single_batch_passes_keep_their_bits(self):
        # the README example: 32 batches of 3,125 rows, each alone in its
        # pass, so batch b draws the stream (1, 0, b), as it did when every
        # batch was keyed by its own index; each pass draws the face's two
        # classes, {0} and {1, 2}, and the run keeps these bits
        cfg = bs.EstimatorConfig(n=2000, L=100_000, seed=1)
        assert engine._passes([3_125] * 32) == [range(b, b + 1) for b in range(32)]
        est = bs.estimate_min_divergence(PowerGamma(1.0), [0.2, 0.3, 0.5],
                                         bs.simplex_face(0, 0.5, ">="), cfg, mode="simplex",
                                         target="divergence")
        assert float(est.value).hex() == "0x1.cdfc6694c0d50p-3"
        assert float(est.log_pi_hat).hex() == "-0x1.93e46026fc3fbp+8"
        assert est.hits == 50_384

    @staticmethod
    def sums(K):
        return np.random.default_rng(K).random((4_000, K)) * 3.0

    @staticmethod
    def log_weights(monkeypatch, sums, taus):
        """The log weights of the first pass's hits, every row here, that
        ``_run_batches`` hands the pass reduction when every pass draws
        ``sums``, and their fixed part sum_k n_k Lambda(tau_k)."""
        K = sums.shape[1]
        cfg = bs.EstimatorConfig(n=K, L=engine._BATCHES * len(sums))
        prepared = engine.prepare(PowerGamma(1.0), np.full(K, 1.0 / K), bs.full_space(), cfg,
                                  "simplex")
        seen = []

        def draw(law, sizes, taus, rng, size):
            # a batch of len(sums) rows alone in its pass, or the 32 one-row
            # batches in one pass
            return sums if size == len(sums) else np.repeat(sums, size, axis=0)

        monkeypatch.setattr(engine, "_block_sums", draw)
        reduce = engine._pass_log_means
        monkeypatch.setattr(engine, "_pass_log_means",
                            lambda log_w, *rest: seen.append(log_w) or reduce(log_w, *rest))
        engine._run_batches(prepared, cfg, taus)
        law = prepared.law
        return seen[0], prepared.part.sizes @ np.array([float(law.log_mgf(t)) for t in taus])

    @pytest.mark.parametrize("K", [3, 20])
    def test_log_weights_ignore_layout_and_row_count(self, monkeypatch, K):
        # BLAS's sums @ taus rounds some of these rows differently; block
        # sums in either layout must give the sum by hand over a row-major
        # array, column by column
        sums, taus = self.sums(K), np.linspace(-0.9, 1.7, K)
        c_order = np.ascontiguousarray(sums)
        log_w, offset = self.log_weights(monkeypatch, c_order, taus)
        dot = c_order[:, 0] * taus[0]
        for k in range(1, K):
            dot += c_order[:, k] * taus[k]
        by_hand = hexes(offset - dot)
        assert hexes(log_w) == by_hand
        assert hexes(self.log_weights(monkeypatch, np.asfortranarray(sums), taus)[0]) == by_hand
        ones = [self.log_weights(monkeypatch, sums[i:i + 1], taus)[0][0] for i in range(300)]
        assert hexes(ones) == by_hand[:300]

    @pytest.mark.parametrize("K", [3, 20])
    def test_row_totals_ignore_layout_and_row_count(self, K):
        sums = self.sums(K)
        prepared = engine.prepare(PowerGamma(1.0), np.full(K, 1.0 / K), bs.full_space(),
                                  bs.EstimatorConfig(n=K), "simplex")

        def coords(s):
            return prepared.coords_and_hits(s, K)[0]

        totals = sums[:, 0].copy()
        for k in range(1, K):  # column by column, as a row of any length
            totals += sums[:, k]
        by_hand = hexes((sums / totals[:, None]).ravel())
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert hexes(coords(layout(sums)).ravel()) == by_hand
        ones = np.vstack([coords(sums[i:i + 1]) for i in range(300)])
        assert hexes(ones.ravel()) == by_hand[:300 * K]


class TestClasses:
    """The blocks of a row drawn as one column per group of equal coefficient
    and tilt (``engine._columns``); every other set draws one per block."""

    @staticmethod
    def groups(omega, K=3, mode="simplex", taus=None):
        """The groups ``_columns`` pools, in column order, read off the
        pooled sizes: block k holds 10 * 2^k draws, so a sum of sizes names
        its blocks."""
        p = 2.0 ** np.arange(K)
        cfg = bs.EstimatorConfig(n=10 * int(p.sum()))
        prepared = engine.prepare(PowerGamma(1.0), p / p.sum(), omega, cfg, mode)
        taus = np.zeros(K) if taus is None else np.asarray(taus, dtype=float)
        sizes, _, tested = engine._columns(prepared, taus)
        groups = tuple(tuple(k for k in range(K) if int(size) // 10 >> k & 1) for size in sizes)
        assert (tested is prepared.tested) == (len(groups) == K)
        return groups

    def test_a_coordinate_face_is_two_classes_in_first_block_order(self):
        assert self.groups(bs.simplex_face(2, 0.3), K=6) == ((0, 1, 3, 4, 5), (2,))
        assert self.groups(bs.simplex_face(0, 0.3), K=6) == ((0,), (1, 2, 3, 4, 5))

    def test_a_sum_halfspace_is_one_class(self):
        omega = bs.halfspace([1.0, 1.0, 1.0], 1.3)
        assert self.groups(omega, mode="deterministic") == ((0, 1, 2),)

    def test_distinct_coefficients_and_sets_without_a_row_are_one_class_per_block(self):
        face = bs.simplex_face(0, 0.5)
        for omega in (bs.halfspace([1.0, 2.0, 3.0], 1.5), bs.intersection(face),
                      bs.union(face, bs.simplex_face(1, 0.5)),
                      bs.from_predicate(lambda x: x[0] >= 0.5)):
            assert self.groups(omega) == ((0,), (1,), (2,))

    def test_tilts_that_differ_split_a_class(self):
        omega = bs.halfspace([1.0, 2.0, 1.0, 2.0, 2.0], 1.5)
        taus = [0.1, 0.2, 0.1, 0.3, 0.2]
        assert self.groups(omega, K=5, mode="deterministic", taus=taus) == ((0, 2), (1, 4), (3,))
        assert self.groups(omega, K=5, mode="deterministic",
                           taus=[0.1, 0.2, 0.1, 0.2, 0.2]) == ((0, 2), (1, 3, 4))

    def test_a_group_is_drawn_at_its_tilt_against_the_row_over_its_coefficients(self):
        p = np.full(5, 0.2)
        cfg = bs.EstimatorConfig(n=100)
        prepared = engine.prepare(PowerGamma(1.0), p, bs.halfspace([1.0, 2.0, 1.0, 2.0, 2.0], 1.5),
                                  cfg, "deterministic")
        sizes, taus, tested = engine._columns(prepared, np.array([0.1, 0.2, 0.1, 0.3, 0.2]))
        assert list(sizes) == [40, 40, 20]
        assert list(taus) == [0.1, 0.2, 0.3]
        assert tested.row == ((1.0, 2.0, 2.0), 1.5, ">=")

    @staticmethod
    def law_calls(monkeypatch, gen, omega, mode, L, proxy=None):
        """The block size of every law call of one estimate at n = 2000."""
        cfg = bs.EstimatorConfig(n=2000, L=L, seed=1, **({"proxy": proxy} if proxy else {}))
        prepared = engine.prepare(gen, [0.2, 0.3, 0.5], omega, cfg, mode)
        law_type, calls = type(prepared.law), []
        real = law_type.sample_tilted_block

        def spy(self, tau, nk, rng, size):
            calls.append(nk)
            return real(self, tau, nk, rng, size)

        monkeypatch.setattr(law_type, "sample_tilted_block", spy)
        assert engine.is_estimate(prepared, cfg).hits > 0
        return calls

    @pytest.mark.parametrize("L, passes", [(2_000, 1), (100_000, 32)])
    def test_one_law_call_per_class_per_pass(self, monkeypatch, L, passes):
        # 32 batches of 62 or 63 rows share one pass; of 3,125 rows, each
        # is alone in its pass
        calls = self.law_calls(monkeypatch, PowerGamma(1.0), bs.simplex_face(0, 0.5),
                               "simplex", L)
        assert calls == [400, 1600] * passes
        calls = self.law_calls(monkeypatch, PowerGamma(-1.0),
                               bs.halfspace([1.0, 1.0, 1.0], 1.05), "deterministic", L)
        assert calls == [2000] * passes

    def test_distinct_coefficients_and_split_tilts_draw_every_block(self, monkeypatch):
        blocks = [400, 600, 1000]
        calls = self.law_calls(monkeypatch, PowerGamma(1.0), bs.halfspace([1.0, 2.0, 3.0], 2.5),
                               "deterministic", 2_000)
        assert calls == blocks
        # a given q_star whose tilts differ on blocks 1 and 2 splits their class
        proxy = bs.ProxySpec("given", q_star=np.array([0.5, 0.2, 0.3]))
        calls = self.law_calls(monkeypatch, PowerGamma(1.0), bs.simplex_face(0, 0.5),
                               "simplex", 2_000, proxy)
        assert calls == blocks


class TestEmpiricalMode:
    def test_a_category_named_twice_is_refused(self):
        with pytest.raises(ValueError, match="names 'a' more than once"):
            engine.ingest_sample(list("aab"), categories=["a", "a", "b"])

    def test_estimates_empirical_divergence(self):
        rng = make_rng(77)
        labels = ["a", "b", "c"]
        draws = rng.choice(labels, p=[0.2, 0.3, 0.5], size=1500)
        part = engine.ingest_sample(list(draws), categories=labels)
        omega = bs.simplex_face(0, 0.5, ">=")
        gen = PowerGamma(1.0, 1.0)
        cfg = bs.EstimatorConfig(n=part.n, L=30_000, seed=5)
        est = bs.estimate_min_divergence(gen, part, omega, cfg, mode="empirical",
                                         target="divergence")
        ref, _ = oracle.grid_min_divergence(gen, part.p_tilde, omega, resolution=0.01)
        assert abs(est.value - ref) < 0.02 + 0.05 * ref

    def test_proxy_replication_trick(self):
        # searched: a set without a row, whose ladder ends on the sample's
        # own blocks, so no run needs to replicate the observations
        part = engine.ingest_sample(list("aabbb" * 4))
        omega = bs.intersection(bs.simplex_face(0, 0.55, ">="))
        cfg = bs.EstimatorConfig(n=part.n, L=2_000, seed=6)
        est = bs.estimate_min_divergence(PowerGamma(1.0), part, omega, cfg,
                                         mode="empirical", target="divergence")
        assert est.hits > 0


class TestDeterministicModeAccuracy:
    def test_reverse_kl_box_instance(self):
        # min of D_{phi_0}(Q, P) over a box is the componentwise projection;
        # P = (1, 2), box [1.6, 3] x [2.2, 4] gives q* = (1.6, 2.2)
        gen = PowerGamma(0.0, 1.0)
        P = np.array([1.0, 2.0])
        omega = bs.box([1.6, 2.2], [3.0, 4.0])
        q_star = np.array([1.6, 2.2])
        ref = divergence(gen, q_star, P)
        cfg = bs.EstimatorConfig(n=1500, L=40_000, seed=13)
        est = bs.estimate_min_divergence(gen, P, omega, cfg, mode="deterministic")
        assert abs(est.value - ref) < 0.02 + 0.05 * ref

    def test_pearson_halfspace_instance(self):
        # min of sum (q-p)^2/(2p) over {<1,1>, x> >= 4} has the closed form
        # projection along the gradient: q* = p + lam*p with sum q* = 4
        gen = PowerGamma(2.0, 1.0)
        P = np.array([1.0, 2.0])
        omega = bs.halfspace([1.0, 1.0], 4.0, ">=")
        lam = (4.0 - P.sum()) / P.sum()
        q_star = P * (1 + lam)
        ref = divergence(gen, q_star, P)
        cfg = bs.EstimatorConfig(n=1500, L=40_000, seed=14)
        est = bs.estimate_min_divergence(gen, P, omega, cfg, mode="deterministic")
        assert abs(est.value - ref) < 0.02 + 0.05 * ref


class TestDual:
    """A one-inequality leaf takes its proxy and tilts from the I-projection
    dual, with no draw, in every mode: lam solves
    sum_k p_k a_k Lambda'(lam a_k) = rhs, the tilts are lam a and the
    dominating point is p Lambda'(lam a), normalised in the simplex modes,
    where the row is the homogeneous <A c - rhs 1, S> op 0."""

    P = np.array([0.2, 0.3, 0.5])

    def prepared(self, gen, omega, P=None, n=200):
        cfg = bs.EstimatorConfig(n=n, L=10, seed=1)
        return engine.prepare(gen, self.P if P is None else P, omega, cfg, "deterministic"), cfg

    @pytest.mark.parametrize("gen", [PowerGamma(1.0), PowerGamma(-1.0)], ids=["kl", "neyman"])
    def test_dominating_point_of_the_total(self, gen):
        # {sum x >= 1.3}: equal ratios 1.3, so q* = 1.3 P and every tilt is phi'(1.3)
        prepared, cfg = self.prepared(gen, bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="))
        proxy = engine.proxy_q_star(prepared, cfg)
        tilt = float(gen.phi_prime(1.3))
        assert proxy.q_star == pytest.approx(1.3 * self.P, rel=1e-9)
        assert proxy.taus == pytest.approx(np.full(3, tilt), rel=1e-9)
        assert prepared.dual.lam == pytest.approx(tilt, rel=1e-9)
        assert proxy.draws_used == 0

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_newton_reaches_the_root_in_a_few_exact_steps(self, monkeypatch, gamma):
        # exact cumulant slopes let Newton stop within a few ulps of the root
        gen = PowerGamma(gamma)
        prepared, _ = self.prepared(gen, bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="))
        calls = []
        real = type(prepared.law).log_mgf_slopes
        monkeypatch.setattr(type(prepared.law), "log_mgf_slopes",
                            lambda law, z: calls.append(z) or real(law, z))
        tilt = float(gen.phi_prime(1.3))
        assert abs(prepared.dual.lam - tilt) <= 8 * np.spacing(tilt)
        assert len(calls) <= 12

    def test_a_law_without_slopes_is_refused_before_any_draw(self):
        class NoSlopes(NoDrawLaw):
            log_mgf_slopes = laws.WeightLaw.log_mgf_slopes

        cfg = bs.EstimatorConfig(n=200, L=10, seed=1)
        # a searched set too: its ray's tilted means need Lambda'
        for omega, mode in ((bs.halfspace([1.0, 1.0, 1.0], 1.3), "deterministic"),
                            (bs.simplex_face(0, 0.5), "simplex"),
                            (bs.intersection(bs.simplex_face(0, 0.5)), "simplex")):
            prepared = engine.prepare(PowerGamma(1.0), self.P, omega, cfg, mode, law=NoSlopes())
            with pytest.raises(NotImplementedError, match="NoSlopes has no log_mgf_slopes"):
                engine.is_estimate(prepared, cfg)

    def test_coordinate_face_and_an_upper_halfspace(self):
        gen = PowerGamma(1.0)
        prepared, cfg = self.prepared(gen, bs.simplex_face(0, 0.5, ">="))
        proxy = engine.proxy_q_star(prepared, cfg)
        assert proxy.q_star == pytest.approx([0.5, 0.3, 0.5], rel=1e-9)
        assert proxy.taus == pytest.approx([math.log(2.5), 0.0, 0.0], rel=1e-9, abs=0)
        prepared, cfg = self.prepared(gen, bs.halfspace([1.0, 1.0, 1.0], 0.7, "<="))
        assert prepared.dual.lam == pytest.approx(-math.log(0.7), rel=1e-9)
        assert engine.proxy_q_star(prepared, cfg).q_star == pytest.approx(0.7 * self.P, rel=1e-9)

    def test_the_tilts_are_those_of_the_dominating_point(self):
        # reference mass M = 2: the row tests A x with A = 2, so a = 2 c
        P = np.array([0.4, 0.9, 0.7])
        for g in (-1.0, 0.0, 0.5, 2.0, 3.0):
            prepared, _ = self.prepared(PowerGamma(g), bs.halfspace([1.0, -0.5, 2.0], 1.9),
                                        P=P)
            dual = prepared.dual
            assert dual.lam > 0
            assert prepared.scale * (np.array([1.0, -0.5, 2.0]) @ dual.q_star) == \
                pytest.approx(1.9, rel=1e-9)
            assert prepared.tilts(dual.q_star) == pytest.approx(dual.taus, rel=1e-6, abs=1e-9)

    def test_a_feasible_reference_is_not_tilted(self):
        # p lies 0.1 inside, at z = -0.1 sqrt(200) standard deviations (the
        # weights have variance 1): the term is -log Phibar(z), in value units
        # -0.0819 / 200
        prepared, cfg = self.prepared(PowerGamma(-1.0), bs.halfspace([1.0, 1.0, 1.0], 0.9))
        assert prepared.dual.lam == 0.0
        assert engine.proxy_q_star(prepared, cfg).q_star == pytest.approx(self.P, rel=1e-9)
        est = engine.finalize(engine.is_estimate(prepared, cfg), "deterministic", prepared)
        term = -math.log(0.5 * math.erfc(-0.1 * math.sqrt(200.0) / math.sqrt(2.0)))
        assert est.bias_correction == pytest.approx(-term / 200, rel=1e-4)

    @pytest.mark.parametrize("rhs", [1.0 - 1e-4, 1.0 + 1e-4])
    def test_the_term_is_continuous_where_p_crosses_the_boundary(self, rhs):
        # gamma = 2 over {sum x >= 1 +- 1e-4}: pi is about 1/2 on either side
        # of p and the minimum is at most 5e-9, so the term is about log 2
        # and the corrected value about 0 (uncorrected, log 2 / n)
        cfg = bs.EstimatorConfig(n=200, L=2000, seed=1)
        est = bs.estimate_min_divergence(PowerGamma(2.0), self.P,
                                         bs.halfspace([1.0, 1.0, 1.0], rhs), cfg)
        assert est.bias_correction == pytest.approx(-math.log(2.0) / 200, rel=0.01)
        assert abs(est.value) < 1e-3

    def test_the_uniform_term(self):
        # log 2 at u = 0, then log(u sqrt(2 pi)) + 1/u^2 + O(1/u^4), with no
        # jump where the series takes over from erfc at u = 30
        term = engine._gaussian_tail_term
        assert term(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        for u in (10.0, 29.0, 31.0, 1e3):
            assert term(u) - math.log(u * math.sqrt(2.0 * math.pi)) == \
                pytest.approx(1.0 / u**2, rel=3.0 / u**2)
        assert term(30.0 + 1e-9) - term(30.0 - 1e-9) == pytest.approx(2e-9 / 30.0, abs=1e-11)

    def test_an_unreachable_set_is_an_error(self):
        # binomial weights (generalized KL, alpha = -1/4) are at most 4
        prepared, cfg = self.prepared(GeneralizedKL(-0.25), bs.halfspace([1.0, 1.0, 1.0], 5.0))
        with pytest.raises(ValueError, match="no tilt reaches the set"):
            engine.proxy_q_star(prepared, cfg)

    @pytest.mark.parametrize("omega, mode", [
        (bs.intersection(bs.halfspace([1.0, 1.0, 1.0], 1.3)), "deterministic"),
        (bs.from_predicate(lambda x: x.sum() >= 1.3), "deterministic"),
        (bs.intersection(bs.simplex_face(0, 0.5)), "simplex"),
    ], ids=["intersection", "predicate", "simplex_intersection"])
    def test_other_sets_and_modes_are_searched(self, omega, mode):
        cfg = bs.EstimatorConfig(n=200, L=2000, seed=1)
        prepared = engine.prepare(PowerGamma(-1.0), self.P, omega, cfg, mode)
        assert prepared.dual is None
        assert engine.proxy_q_star(prepared, cfg).draws_used > 0
        est = engine.finalize(engine.is_estimate(prepared, cfg), "deterministic", prepared)
        assert est.bias_correction is None
        assert any("no finite-n term" in w for w in est.warnings)

    @pytest.mark.parametrize("omega, warns", [
        (bs.simplex_face(0, 0.5), False),
        (bs.intersection(bs.simplex_face(0, 0.5)), True),
        (bs.intersection(bs.simplex_face(0, 0.1)), False),
    ], ids=["row", "intersection", "intersection_holding_p"])
    def test_a_set_without_a_row_warns_of_its_bias(self, omega, warns):
        # the README face: its row takes the finite-n terms that apply (none,
        # Poisson weights being a lattice law) and no warning; as
        # intersection(face) it gets no term and says so.  A set that holds
        # p~ has no such bias: {q_0 >= .1} reads about 0 at a hit rate near 1
        est = bs.estimate_min_divergence(PowerGamma(1.0), self.P, omega,
                                         bs.EstimatorConfig(n=2000, L=2000, seed=1),
                                         mode="simplex", target="divergence")
        warned = [w for w in est.warnings if "no finite-n term" in w]
        assert len(warned) == (1 if warns else 0), est.warnings

    @pytest.mark.parametrize("mode", ["simplex", "empirical"])
    def test_a_row_takes_the_dual_in_every_mode(self, mode):
        # KL over {q_0 >= .5} from (.2, .3, .5): the homogeneous row
        # (.5, -.5, -.5) has lam = ln 4, so the tilts are (ln 2, -ln 2, -ln 2)
        # and q* is the I-projection (.5, .1875, .3125)
        ref = self.P if mode == "simplex" else engine.ingest_sample(
            ["a"] * 200 + ["b"] * 300 + ["c"] * 500)
        cfg = bs.EstimatorConfig(n=1000, L=10, seed=1)
        prepared = engine.prepare(PowerGamma(1.0), ref, bs.simplex_face(0, 0.5), cfg, mode)
        proxy = engine.proxy_q_star(prepared, cfg)
        ln2 = math.log(2.0)
        assert np.all(np.abs(proxy.taus - [ln2, -ln2, -ln2]) <= 4 * np.spacing(ln2))
        assert proxy.q_star == pytest.approx([0.5, 0.1875, 0.3125], rel=1e-15, abs=0)
        assert proxy.draws_used == 0
        assert prepared.tilts(proxy.q_star) == pytest.approx(proxy.taus, rel=1e-12)

    @pytest.mark.parametrize("n", [2001, 2000])
    def test_a_simplex_row_moves_rounded_blocks_to_p(self, n):
        # KL over {q_0 >= .5} at n = 2001 draws blocks 400/600/1001, so
        # p - p~ = (.2, .3, -.5) / 2001.  For KL g_k = 1 - r_k, with the
        # ratios r = e^tau about (2, .5, .5): the term -n sum_k g_k
        # (p_k - p~_k) is about 0.3 on log pi.  Poisson weights are a lattice
        # law, with no Bahadur-Rao term, so bias_correction is this term
        # alone, and it replaces the warning; at n = 2000 the blocks are exact
        cfg = bs.EstimatorConfig(n=n, L=2000, seed=1)
        prepared = engine.prepare(PowerGamma(1.0), self.P, bs.simplex_face(0, 0.5), cfg,
                                  "simplex")
        est = engine.finalize(engine.is_estimate(prepared, cfg), "divergence", prepared)
        assert not any("not integral" in w for w in est.warnings)
        if n == 2000:
            assert engine._block_rounding(prepared) is None and est.bias_correction is None
            return
        term = engine._block_rounding(prepared)
        assert term == pytest.approx(0.3, rel=1e-3)
        assert est.bias_correction is not None
        assert est.value == engine.invert("divergence", est.log_pi_hat + term, n, PowerGamma(1.0))

    def test_two_point_bounds_at_the_dual_point(self):
        # two-point weights on {0, 2}: D(q, p) is finite only where
        # q_k / p_k <= 2.  At {q_0 >= .35} the dual's upper bound is the
        # searched one's (0.0774227 at seed 1), or below it
        cfg = bs.EstimatorConfig(n=200, L=2000, seed=1)
        gen, face = TwoPoint(0.0, 2.0), bs.simplex_face(0, 0.35)
        lower, upper, q_hat, est = engine.bounds_general(gen, self.P, face, cfg)
        _, searched, _, _ = engine.bounds_general(gen, self.P, bs.intersection(face), cfg)
        assert upper == pytest.approx(0.0774215, abs=1e-7)
        assert upper <= searched <= upper + 2e-6
        assert lower < upper and est.hits > 0
        # at {q_0 >= .4} the normalised dual point misses the face by one
        # rounding; D is continuous, so it still bounds the minimum
        _, _, q_hat, _ = engine.bounds_general(gen, self.P, bs.simplex_face(0, 0.4), cfg)
        assert abs(q_hat[0] - 0.4) <= 4 * np.spacing(0.4)
        assert not bs.simplex_face(0, 0.4).contains_point(q_hat)
        # q_0 >= .45 means q_0 / p_0 >= 2.25: the search finds no hit of finite
        # D, while the dual still estimates the set and bounds it above by +inf
        lower, upper, _, est = engine.bounds_general(gen, self.P, bs.simplex_face(0, 0.45), cfg)
        assert upper == math.inf
        assert math.isfinite(lower) and est.hits > 0

    def test_the_correction_depends_on_the_set_only(self):
        # a given q_star gets the term of the set; a lattice law gets none
        omega = bs.halfspace([1.0, 1.0, 1.0], 1.3)
        searched = bs.estimate_min_divergence(
            PowerGamma(-1.0), self.P, omega, bs.EstimatorConfig(n=200, L=2000, seed=1))
        given = bs.estimate_min_divergence(
            PowerGamma(-1.0), self.P, omega, bs.EstimatorConfig(
                n=200, L=2000, seed=1, proxy=bs.ProxySpec("given", q_star=1.25 * self.P)))
        assert searched.bias_correction < 0
        assert given.bias_correction == pytest.approx(searched.bias_correction, rel=1e-12)
        lattice = bs.estimate_min_divergence(
            PowerGamma(1.0), self.P, omega, bs.EstimatorConfig(n=200, L=2000, seed=1))
        assert lattice.bias_correction is None


class TestBuiltGeneratorPath:
    def test_naive_with_explicit_law_and_no_generator(self):
        # a weight law alone is enough for the naive estimator
        cfg = bs.EstimatorConfig(n=20, L=2_000, seed=8)
        est = engine.naive_estimate(engine.prepare(
            None, np.array([0.5, 0.5]), bs.full_space(), cfg, "deterministic",
            law=laws.Gaussian(1.0)), cfg)
        assert est.hit_rate == 1.0

    def test_custom_generator_with_user_law_matches_builtin(self):
        # numerically built quadratic generator + Gaussian law reproduces
        # the built-in power-generator run
        spec = bs.GeneratorSpec(F=lambda t: t - 1.0, a_F=-math.inf, b_F=math.inf)
        p = np.array([0.5, 0.5])
        omega = bs.simplex_face(0, 0.7, ">=")
        cfg = bs.EstimatorConfig(n=60, L=10_000, seed=9)
        est_custom = engine.is_estimate(
            engine.prepare(spec, p, omega, cfg, "simplex", law=laws.Gaussian(1.0)), cfg)
        est_builtin = engine.is_estimate(
            engine.prepare(PowerGamma(2.0, 1.0), p, omega, cfg, "simplex"), cfg)
        assert est_custom.log_pi_hat == pytest.approx(
            est_builtin.log_pi_hat, abs=1e-6
        )

    def test_bounds_on_a_built_generator(self):
        # the built KL generator takes a user law in bounds_general; its
        # upper bound is the closed form's divergence at the proxy point
        spec = bs.GeneratorSpec(F=lambda t: math.log(t) if t > 0 else -math.inf,
                                a_F=0.0, b_F=math.inf)
        P = np.array([0.2, 0.3, 0.5])
        cfg = bs.EstimatorConfig(n=2000, L=20_000, seed=1)
        lower, upper, q_hat, _ = engine.bounds_general(
            spec, P, bs.simplex_face(0, 0.5, ">="), cfg, mode="simplex",
            law=laws.ScaledPoisson(1.0))
        assert lower <= upper
        assert upper == pytest.approx(divergence(PowerGamma(1.0), q_hat, P), rel=1e-12)


class TestBoundsEmpirical:
    def test_bounds_on_observed_sample(self):
        rng = make_rng(55)
        labels = ["a", "b", "c"]
        draws = rng.choice(labels, p=[0.25, 0.35, 0.4], size=1200)
        part = engine.ingest_sample(list(draws), categories=labels)
        omega = bs.simplex_face(0, 0.6, ">=")
        gen = GeneralizedKL(1.0, 1.0)
        cfg = bs.EstimatorConfig(n=part.n, L=15_000, seed=56)
        lower, upper, q_hat, est = engine.bounds_general(gen, part, omega, cfg,
                                                         mode="empirical")
        ref, _ = oracle.grid_min_divergence(gen, part.p_tilde, omega,
                                            resolution=0.01)
        assert lower <= ref + 2e-5 <= upper + 4e-5
        # the dual point lies on the face, up to a rounding
        assert abs(q_hat[0] - 0.6) <= 4 * np.spacing(0.6)


class TestGeneratorCheck:
    def test_missing_generator_fails_before_any_draw(self):
        p = np.array([0.2, 0.3, 0.5])
        omega = bs.simplex_face(0, 0.5, ">=")
        cfg = bs.EstimatorConfig(n=100, L=1000, seed=2)
        with pytest.raises(ValueError, match="needs the generator"):
            engine.is_estimate(
                engine.prepare(None, p, omega, cfg, "simplex", law=NoDrawLaw()), cfg)
        with pytest.raises(ValueError, match="needs the generator"):
            engine.bounds_general(None, p, omega, cfg, mode="simplex", law=NoDrawLaw())


def on_the_frame(stage):
    """``stage`` run on the frame ``prepare`` builds from its arguments, under
    the stage's own name: the stages take the frame, so its checks are
    theirs."""

    def run(gen, P, omega, cfg, mode, law=None):
        return stage(engine.prepare(gen, P, omega, cfg, mode, law), cfg)

    run.__name__ = stage.__name__
    return run


STAGES = [on_the_frame(engine.naive_estimate), on_the_frame(engine.is_estimate)]


class TestModeChecks:
    """``prepare`` refuses a reference that does not fit the mode, and an
    empirical n other than the sample size, before any draw."""

    def setup_method(self):
        self.part = engine.ingest_sample(["a"] * 211 + ["b"] * 310 + ["c"] * 479)
        self.omega = bs.simplex_face(0, 0.5, ">=")
        self.gen = PowerGamma(1.0)

    @pytest.mark.parametrize("entry", [*STAGES, bs.estimate_min_divergence,
                                       engine.bounds_general])
    def test_empirical_needs_a_sample(self, entry):
        cfg = bs.EstimatorConfig(n=1000, L=1000, seed=1)
        with pytest.raises(ValueError, match="empirical mode needs an ingest_sample partition"):
            entry(self.gen, self.part.p_tilde, self.omega, cfg, mode="empirical",
                  law=NoDrawLaw())

    @pytest.mark.parametrize("entry", [*STAGES, bs.estimate_min_divergence])
    @pytest.mark.parametrize("mode", ["deterministic", "simplex"])
    def test_sample_needs_empirical_mode(self, entry, mode):
        cfg = bs.EstimatorConfig(n=1000, L=1000, seed=1)
        with pytest.raises(ValueError, match=f"{mode} mode needs a reference vector"):
            entry(self.gen, self.part, self.omega, cfg, mode=mode, law=NoDrawLaw())

    @pytest.mark.parametrize("n", [200, 5000])
    @pytest.mark.parametrize("entry", [*STAGES, bs.estimate_min_divergence,
                                       engine.bounds_general])
    def test_empirical_n_is_the_sample_size(self, entry, n):
        cfg = bs.EstimatorConfig(n=n, L=1000, seed=1)
        with pytest.raises(ValueError, match=f"n={n} differs from the sample size 1000"):
            entry(self.gen, self.part, self.omega, cfg, mode="empirical", law=NoDrawLaw())

    def test_non_power_bounds_check_before_the_search(self):
        cfg = bs.EstimatorConfig(n=5000, L=1000, seed=1)
        with pytest.raises(ValueError, match="differs from the sample size"):
            engine.bounds_general(GeneralizedKL(1.0, 1.0), self.part, self.omega, cfg,
                                  mode="empirical", law=NoDrawLaw())

    def test_general_bounds_refuse_a_scaled_set(self):
        scaled = bs.simplex_face(0, 1.0, ">=", scale=2.0)
        cfg = bs.EstimatorConfig(n=1000, L=1000, seed=1)
        with pytest.raises(ValueError, match="run on probability-simplex sets"):
            engine.bounds_general(GeneralizedKL(1.0, 1.0), self.part.p_tilde, scaled, cfg,
                                  law=NoDrawLaw())

    def test_bounds_refuse_deterministic_mode(self):
        # the search would run and then report its own proxy infeasible
        P = np.array([0.3, 0.5, 0.4])
        omega = bs.halfspace([1.0, 1.0, 1.0], 1.15, ">=")
        cfg = bs.EstimatorConfig(n=200, L=1000, seed=1)
        for gen in (GeneralizedKL(1.0, 1.0), PowerGamma(1.0)):
            with pytest.raises(ValueError, match="use mode 'simplex' or 'empirical'"):
                engine.bounds_general(gen, P, omega, cfg, mode="deterministic",
                                      law=NoDrawLaw())

    def test_prepared_frame(self):
        cfg = bs.EstimatorConfig(n=120, L=1000, seed=1)
        det = engine.prepare(self.gen, [0.3, 0.5, 0.4], self.omega, cfg, "deterministic")
        assert det.mass == pytest.approx(1.2) and det.scale == det.mass
        assert det.part.n == 120
        scaled = bs.intersection(self.omega, scale=2.0)
        sx = engine.prepare(self.gen, [0.2, 0.3, 0.5], scaled, cfg, "simplex")
        assert sx.mass == 1.0 and sx.scale == 2.0


class TestConstructorRules:
    """The range and choice rules of the estimator settings hold at
    construction, for the library as for the CLI."""

    @pytest.mark.parametrize("name", ["n", "L", "threads", "seed"])
    @pytest.mark.parametrize("value", [10.5, "12", True, None])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            bs.EstimatorConfig(**{"n": 100, name: value})

    @pytest.mark.parametrize("name, value", [("n", 0), ("L", 0), ("threads", 0),
                                             ("threads", -2), ("seed", -1)])
    def test_count_ranges(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer >="):
            bs.EstimatorConfig(**{"n": 100, name: value})

    def test_numpy_integers_are_integers(self):
        cfg = bs.EstimatorConfig(n=np.int64(100), L=np.int32(500), threads=np.int64(2))
        assert (cfg.n, cfg.L, cfg.threads) == (100, 500, 2)

    @pytest.mark.parametrize("value", [32, 10, 9.5])
    def test_the_batch_count_is_no_setting(self, value):
        # every run splits its L rows into engine._BATCHES batches
        with pytest.raises(TypeError, match="unexpected keyword argument 'batches'"):
            bs.EstimatorConfig(n=100, batches=value)
        assert [f.name for f in dataclasses.fields(bs.EstimatorConfig)] == [
            "n", "L", "seed", "proxy", "threads"]

    def test_proxy_method_is_one_of_two(self):
        for method in ("grid", "hit_run", "density"):
            with pytest.raises(ValueError, match=f"proxy method '{method}' is not given or search"):
                bs.ProxySpec(method=method)

    @pytest.mark.parametrize("name, value", [("budget", 0), ("budget", 2.5),
                                             ("m_run", 0), ("m_run", 1.5)])
    def test_proxy_counts(self, name, value):
        # the search draws a fixed ladder: the counts it once took are no
        # settings, refused by name whatever their value
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            bs.ProxySpec(**{name: value})

    def test_proxy_settings_are_the_method_and_its_point(self):
        assert [f.name for f in dataclasses.fields(bs.ProxySpec)] == ["method", "q_star"]

    def test_given_proxy_needs_its_point(self):
        with pytest.raises(ValueError, match="proxy method 'given' needs q_star"):
            bs.ProxySpec("given")

    def test_searched_proxy_takes_no_point(self):
        with pytest.raises(ValueError, match="proxy method 'search' takes no q_star"):
            bs.ProxySpec(q_star=np.array([0.5, 0.25, 0.25]))

    @pytest.mark.parametrize("K", [0, 2.5, True])
    def test_entropy_dimension(self, K, monkeypatch):
        monkeypatch.setattr(engine, "law_for_generator", lambda *args, **kw: NoDrawLaw())
        cfg = bs.EstimatorConfig(n=300, L=1000, seed=1)
        with pytest.raises(ValueError, match="K must be an integer >= 1"):
            bs.estimate_entropy_extremum(shannon(), K, bs.simplex_face(0, 0.5), cfg)


class TestTargetCheck:
    """A target that cannot be inverted with the generator is refused
    before any draw."""

    P = np.array([0.2, 0.3, 0.5])
    OMEGA = bs.simplex_face(0, 0.45, ">=")

    @pytest.mark.parametrize("gen, target, message", [
        (GeneralizedKL(1.0, 1.0), None, "target 'divergence' needs a power generator"),
        (PowerGamma(1.0), "divergenz", "unknown inversion target 'divergenz'"),
        (PowerGamma(0.5), "modified_kl", "modified KL inversion needs gamma = 1"),
        (PowerGamma(1.0), "modified_rev_kl", "modified reverse KL inversion needs gamma = 0"),
        (PowerGamma(1.0), "sm2", "unknown inversion target 'sm2'"),
        (PowerGamma(2.0), "entropy", "the entropy target needs its entropy spec"),
    ])
    def test_refused_before_any_draw(self, gen, target, message):
        cfg = bs.EstimatorConfig(n=1000, L=20_000, seed=1)
        with pytest.raises(ValueError, match=message):
            bs.estimate_min_divergence(gen, self.P, self.OMEGA, cfg, mode="simplex",
                                       target=target, law=NoDrawLaw())

    @pytest.mark.parametrize("target", ["divergence", "hellinger", "renyi", "modified_kl"])
    def test_deterministic_mode_takes_only_its_rate(self, target):
        # the rate is the minimum D itself: mapped as a simplex-mode rate,
        # "divergence" read 0.0542 and "hellinger" 1.0 here, for a rate of
        # about 0.0527
        cfg = bs.EstimatorConfig(n=200, L=2000, seed=1)
        omega = bs.halfspace([1.0, 1.0, 1.0], 1.3)
        message = f"target '{target}' needs mode 'simplex' or 'empirical'"
        with pytest.raises(ValueError, match=message):
            bs.estimate_min_divergence(PowerGamma(1.0), self.P, omega, cfg, mode="deterministic",
                                       target=target, law=NoDrawLaw())
        prepared = engine.prepare(PowerGamma(1.0), self.P, omega, cfg, "deterministic")
        est = engine.is_estimate(prepared, cfg)
        with pytest.raises(ValueError, match=message):
            engine.finalize(est, target, prepared)
        assert engine.finalize(est, "deterministic", prepared).value == pytest.approx(
            0.052726, abs=0.003)

    def test_invert_shares_the_check(self):
        with pytest.raises(ValueError, match="unknown inversion target"):
            engine.invert("divergenz", -10.0, 100, gen=PowerGamma(1.0))
        with pytest.raises(ValueError, match="needs a power generator"):
            engine.invert("hellinger", -10.0, 100, gen=GeneralizedKL(1.0))
        with pytest.raises(ValueError, match="the entropy target needs the dimension K"):
            engine.invert("entropy", -10.0, 100, gen=PowerGamma(2.0),
                          entropy_spec=havrda_charvat(2.0))

    @pytest.mark.parametrize("target", ["power_sum", "renyi_entropy", "shannon", "sm2"])
    def test_an_entropy_is_no_target_of_its_own(self, target):
        # the entropies go through "entropy" and their spec; "shannon" over
        # P = (.2, .3, .5) once read the KL minimum from P as an entropy
        message = f"unknown inversion target '{target}'"
        cfg = bs.EstimatorConfig(n=1000, L=20_000, seed=1)
        with pytest.raises(ValueError, match=message):
            engine.invert(target, -10.0, 100, gen=PowerGamma(1.0), K=3,
                          entropy_spec=sharma_mittal2(0.5))
        with pytest.raises(ValueError, match=message):
            bs.estimate_min_divergence(PowerGamma(1.0), self.P, self.OMEGA, cfg, mode="simplex",
                                       target=target, law=NoDrawLaw())
        prepared = engine.prepare(PowerGamma(1.0), self.P, self.OMEGA, cfg, "simplex",
                                  law=NoDrawLaw())
        est = engine._estimate_from_batches(np.zeros(32), np.ones(32, dtype=int),
                                            np.full(32, 10), cfg, 1000)
        with pytest.raises(ValueError, match=message):
            engine.finalize(est, target, prepared, entropy_spec=shannon())

    def test_an_entropy_spec_of_another_order_is_refused(self):
        # Renyi of order .5 over {q_0 >= .5} from the uniform K = 3 reference
        # read -1.96 from a gamma = 2 run, against the face's maximum 1.0696
        # from a gamma = .5 run (n = 2000, L = 2e4, seed 1)
        with pytest.raises(ValueError, match="inverts the power divergence of gamma = 0.5, "
                                             "not gamma = 2.0"):
            engine.invert("entropy", -10.0, 100, gen=PowerGamma(2.0), K=3,
                          entropy_spec=renyi_entropy(0.5))
        with pytest.raises(ValueError, match="of gamma = 1.0, not gamma = 0.5"):
            engine.invert("entropy", -10.0, 100, gen=PowerGamma(0.5), K=3,
                          entropy_spec=shannon())
        assert math.isfinite(engine.invert("entropy", -10.0, 100, gen=PowerGamma(0.5), K=3,
                                           entropy_spec=renyi_entropy(0.5)))


class TestSearchOutsideDomain:
    """Two-point weights on {0, 2}, so D(q, p) is finite only where
    q_k / p_k <= 2.  The search runs on the face's row-less form; the face
    itself takes the dual (``TestDual::test_two_point_bounds_at_the_dual_point``)."""

    P = np.array([0.2, 0.3, 0.5])
    GEN = TwoPoint(0.0, 2.0)
    CFG = bs.EstimatorConfig(n=200, L=2000, seed=1)

    def test_the_searched_set_bounds_like_its_face(self):
        # q_0 >= .45 means q_0 / p_0 >= 2.25: the set misses dom D, so no
        # hit bounds it above, while the ladder's tilts, which pass through
        # no point, still estimate it as the face's dual does
        face = bs.simplex_face(0, 0.45, ">=")
        lower, upper, _, est = engine.bounds_general(self.GEN, self.P, bs.intersection(face),
                                                     self.CFG)
        face_lower, _, _, face_est = engine.bounds_general(self.GEN, self.P, face, self.CFG)
        assert upper == math.inf
        assert abs(lower - face_lower) <= 3.0 * math.hypot(est.stderr, face_est.stderr)

    def test_the_gaussian_stage_finds_a_proxy(self, monkeypatch):
        # the ladder's two shortest levels, blocks (1, 1, 1) and (1, 2, 2),
        # are short runs like those the Gaussian stage once followed: each of
        # their hits of {q_0 >= .35} has q_0 / p_0 >= 2.5, outside dom D.
        # The levels after them still end at a proxy of finite D
        omega = bs.intersection(bs.simplex_face(0, 0.35, ">="))
        prepared = engine.prepare(self.GEN, self.P, omega, self.CFG, "simplex")
        levels, block_sums = [], engine._block_sums

        def recorded(law, sizes, *args):
            levels.append((list(sizes), block_sums(law, sizes, *args)))
            return levels[-1][1]

        monkeypatch.setattr(engine, "_block_sums", recorded)
        q = engine.proxy_q_star(prepared, self.CFG).q_star
        assert [sizes for sizes, _ in levels[:2]] == [[1, 1, 1], [1, 2, 2]]
        for sizes, sums in levels[:2]:
            x, member = prepared.coords_and_hits(sums, sum(sizes))
            assert member.any()
            assert np.all(np.isinf(prepared.rank(x[member])))
        assert q[0] >= 0.35 and np.all(q / self.P <= 2.0)

    def test_a_longer_run_finds_a_proxy(self):
        # the ladder's runs lengthen to the frame's, whose hits of {q_0 >= .35}
        # include points of finite D
        omega = bs.intersection(bs.simplex_face(0, 0.35, ">="))
        q = engine.proxy_q_star(
            engine.prepare(self.GEN, self.P, omega, self.CFG, "simplex"), self.CFG).q_star
        assert q[0] >= 0.35 and np.all(q / self.P <= 2.0)


class TestBoundsSingleSearch:
    """``bounds_general`` finds the one proxy of ``is_estimate`` (here the
    dual's) and reports D at that proxy as its upper bound."""

    @pytest.mark.parametrize("mode", ["simplex", "empirical"])
    def test_upper_bound_at_the_proxy(self, mode, monkeypatch):
        gen = GeneralizedKL(1.0, 1.0)
        if mode == "simplex":
            ref = p = np.array([0.2, 0.3, 0.5])
            omega = bs.simplex_face(0, 0.55, ">=")
            cfg = bs.EstimatorConfig(n=1000, L=5000, seed=8)
        else:
            draws = make_rng(55).choice(["a", "b", "c"], p=[0.25, 0.35, 0.4], size=1200)
            ref = engine.ingest_sample(list(draws), categories=["a", "b", "c"])
            p = ref.p_tilde
            omega = bs.simplex_face(0, 0.6, ">=")
            cfg = bs.EstimatorConfig(n=ref.n, L=5000, seed=56)
        proxies = []
        search = engine.proxy_q_star

        def counted(*args, **kwargs):
            proxies.append(search(*args, **kwargs))
            return proxies[-1]

        monkeypatch.setattr(engine, "proxy_q_star", counted)
        lower, upper, q_hat, est = engine.bounds_general(gen, ref, omega, cfg, mode=mode)
        assert len(proxies) == 1
        monkeypatch.undo()
        plain = engine.is_estimate(engine.prepare(gen, ref, omega, cfg, mode), cfg)
        assert lower == -plain.log_pi_hat / cfg.n
        assert est.log_pi_hat == plain.log_pi_hat
        assert est.hits == plain.hits
        assert np.array_equal(est.batch_log_means, plain.batch_log_means)
        assert np.array_equal(q_hat, proxies[0].q_star)
        assert upper == divergence(gen, q_hat, p)
        # ordered bounds add no warning
        assert lower <= upper and est.warnings == plain.warnings


    def test_infeasible_given_proxy_is_refused(self):
        # a tilt target just outside Omega serves the estimate, but D there
        # lies below the minimum over Omega, so it bounds nothing
        p = np.array([0.2, 0.3, 0.5])
        omega = bs.simplex_face(0, 0.55, ">=")
        q_star = np.array([0.5, 0.1875, 0.3125])
        cfg = bs.EstimatorConfig(n=200, L=2000, seed=8,
                                 proxy=bs.ProxySpec("given", q_star=q_star))
        gen = GeneralizedKL(1.0, 1.0)
        assert engine.is_estimate(engine.prepare(gen, p, omega, cfg, "simplex"), cfg).hits > 0
        floor, _ = oracle.grid_min_divergence(gen, p, omega, resolution=0.01)
        assert divergence(gen, q_star, p) < floor
        with pytest.raises(ValueError, match="'given' proxy q_star is outside"):
            engine.bounds_general(gen, p, omega, cfg, mode="simplex")


class TestOnePreparePerSolve:
    """Every pipeline validates its problem and builds the frame once; the
    stages below it take that frame."""

    P = np.array([0.2, 0.3, 0.5])
    FACE = bs.simplex_face(0, 0.5, ">=")

    def solves(self):
        cfg = bs.EstimatorConfig(n=300, L=1000, seed=1)
        part = engine.ingest_sample(["a"] * 60 + ["b"] * 90 + ["c"] * 150)
        quadratic = problems.SeparableQuadratic(
            c1=[0.25, 1.0, 2.25], c2=[-1.0, -2.0, -3.0], c3=[1.0, 1.0, 1.0],
            omega=bs.halfspace([1.0, 1.0, 1.0], 3.15, ">="))
        return {
            "deterministic": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), [0.3, 0.5, 0.4], bs.halfspace([1.0, 1.0, 1.0], 1.35), cfg),
            "simplex": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), self.P, self.FACE, cfg, mode="simplex"),
            "empirical": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), part, self.FACE, cfg, mode="empirical"),
            "bounds_power": lambda: engine.bounds_general(
                PowerGamma(1.0), self.P, self.FACE, cfg),
            "bounds_general": lambda: engine.bounds_general(
                GeneralizedKL(1.0, 1.0), self.P, self.FACE, cfg),
            "entropy": lambda: bs.estimate_entropy_extremum(shannon(), 3, self.FACE, cfg),
            "problems": lambda: problems.solve(quadratic, cfg),
        }

    @pytest.mark.parametrize("solve", ["deterministic", "simplex", "empirical", "bounds_power",
                                       "bounds_general", "entropy", "problems"])
    def test_prepare_runs_once(self, solve, monkeypatch):
        calls = []
        prepare = engine.prepare
        monkeypatch.setattr(engine, "prepare",
                            lambda *args, **kw: calls.append(args) or prepare(*args, **kw))
        self.solves()[solve]()
        assert len(calls) == 1

    @pytest.mark.parametrize("stage", [engine.is_estimate, engine.naive_estimate])
    def test_a_config_of_another_n_is_refused(self, stage):
        prepared = engine.prepare(PowerGamma(1.0), self.P, self.FACE,
                                  bs.EstimatorConfig(n=300), "simplex")
        with pytest.raises(ValueError, match="n=5000 differs from the frame's n=300"):
            stage(prepared, bs.EstimatorConfig(n=5000, L=1000, seed=1))


class TestDrawFreeMemo:
    """A frame's draw-free parts (the partition, a row's reduced leaf, its
    dual and its pooled columns) are built once per process and handed out
    read-only to every later solve of the same problem (``engine._memo``)."""

    P = np.array([0.2, 0.3, 0.5])
    FACE = bs.simplex_face(0, 0.5, ">=")

    @staticmethod
    def solves(seed=1):
        cfg = bs.EstimatorConfig(n=2000, L=8000, seed=seed)
        part = engine.ingest_sample(["a"] * 400 + ["b"] * 600 + ["c"] * 1000)
        face = TestDrawFreeMemo.FACE
        quadratic = problems.SeparableQuadratic(
            c1=[0.25, 1.0, 2.25], c2=[-1.0, -2.0, -3.0], c3=[1.0, 1.0, 1.0],
            omega=bs.halfspace([1.0, 1.0, 1.0], 3.15, ">="))
        given = bs.ProxySpec("given", q_star=np.array([0.5, 0.1875, 0.3125]))
        return {
            "neyman": lambda: bs.estimate_min_divergence(
                PowerGamma(-1.0), [0.2, 0.3, 0.5], bs.halfspace([1.0, 1.0, 1.0], 1.3),
                bs.EstimatorConfig(n=200, L=2000, seed=seed), mode="deterministic"),
            "face_simplex": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), [0.2, 0.3, 0.5], face, cfg, mode="simplex"),
            "face_empirical": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), part, face, cfg, mode="empirical"),
            "quadratic": lambda: problems.solve(quadratic, cfg).estimate,
            "given_proxy": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), [0.2, 0.3, 0.5], face, dataclasses.replace(cfg, proxy=given),
                mode="simplex"),
            "no_row": lambda: bs.estimate_min_divergence(
                PowerGamma(1.0), [0.2, 0.3, 0.5], bs.intersection(face), cfg, mode="simplex"),
        }

    @staticmethod
    def bits(est):
        return float(est.value).hex(), float(est.stderr).hex(), est.hits

    @pytest.mark.parametrize("solve", ["neyman", "face_simplex", "face_empirical", "quadratic",
                                       "given_proxy", "no_row"])
    def test_a_warm_solve_has_the_bits_of_the_cold_one(self, solve):
        run = self.solves()[solve]
        engine._memo.cache_clear()
        cold = self.bits(run())
        hits = engine._memo.cache_info().hits
        assert self.bits(run()) == cold
        assert engine._memo.cache_info().hits > hits

    @pytest.mark.parametrize("change", ["mode", "n", "op", "law_scale", "K"])
    def test_problems_that_differ_in_one_value_share_no_entry(self, change):
        # the face {q_0 >= .5} from (.2, .3, .5) at n = 200, and the same
        # problem but for one value; each, solved after the other, must keep
        # the bits it has alone, and the two must not share a dual
        base = dict(gen=PowerGamma(1.0), P=[0.2, 0.3, 0.5], omega=self.FACE, n=200,
                    mode="simplex")
        other = dict(base, **{
            "mode": {"mode": "deterministic"},
            "n": {"n": 300},
            "op": {"omega": bs.simplex_face(0, 0.5, "<=")},
            "law_scale": {"gen": PowerGamma(1.0, 2.0)},
            "K": {"P": [0.2, 0.3, 0.25, 0.25]},
        }[change])

        def solve(problem):
            cfg = bs.EstimatorConfig(n=problem["n"], L=4000, seed=2)
            frame = engine.prepare(problem["gen"], problem["P"], problem["omega"], cfg,
                                   problem["mode"])
            est = engine.finalize(engine.is_estimate(frame, cfg), "deterministic", frame)
            return self.bits(est), frame.dual

        engine._memo.cache_clear()
        alone = solve(other)[0]
        engine._memo.cache_clear()
        _, base_dual = solve(base)
        after, other_dual = solve(other)
        assert after == alone
        assert other_dual is not base_dual

    def test_solves_racing_on_threads_keep_their_cold_bits(self):
        # four threads, more than the cores, each solve every problem at
        # every seed in its own order, with a short switch interval, into a
        # memo that starts empty: every result has the bits of its cold solve
        jobs = [(name, seed) for name in ("neyman", "face_simplex", "given_proxy")
                for seed in (1, 2)]

        def run(job):
            name, seed = job
            return self.bits(self.solves(seed)[name]())

        cold = {}
        for job in jobs:
            engine._memo.cache_clear()
            cold[job] = run(job)
        engine._memo.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda order: [(job, run(job)) for job in order],
                                       jobs[i:] + jobs[:i]) for i in range(4)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(bits == cold[job] for result in results for job, bits in result)
        assert sum(len(result) for result in results) == 4 * len(jobs)

    def test_handed_out_arrays_are_read_only(self):
        cfg = bs.EstimatorConfig(n=200, L=2000, seed=1)
        prepared = engine.prepare(PowerGamma(-1.0), self.P, bs.halfspace([1.0, 1.0, 1.0], 1.3),
                                  cfg, "deterministic")
        proxy = engine.proxy_q_star(prepared, cfg)
        for arr in (prepared.dual.taus, prepared.dual.q_star, proxy.taus,
                    prepared.part.sizes, prepared.part.p_tilde,
                    engine.partition(self.P, 200).sizes):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_the_memo_holds_its_bound(self):
        engine._memo.cache_clear()
        assert engine._memo.cache_info().maxsize == engine._MEMO_SIZE
        for n in range(10, 10 + engine._MEMO_SIZE + 20):
            prepared = engine.prepare(PowerGamma(-1.0), self.P,
                                      bs.halfspace([1.0, 1.0, 1.0], 1.3),
                                      bs.EstimatorConfig(n=n), "deterministic")
            assert prepared.dual.lam > 0.0
        assert engine._memo.cache_info().currsize == engine._MEMO_SIZE

    def test_an_unhashable_law_is_refused_before_any_draw(self):
        @dataclasses.dataclass
        class LooseLaw(laws.WeightLaw):
            """A law that is a dataclass but not frozen, so not hashable."""

            scale: float = 1.0

            def sample_tilted_block(self, *args, **kwargs):
                pytest.fail("a weight law was drawn from")

        cfg = bs.EstimatorConfig(n=200, L=1000, seed=1)
        with pytest.raises(ValueError, match="cannot be hashed: a WeightLaw subclass must be "
                                             "a frozen dataclass"):
            bs.estimate_min_divergence(PowerGamma(1.0), self.P, self.FACE, cfg, mode="simplex",
                                       law=LooseLaw())


class TestEmptyBatches:
    """Below 32 replications, the batches that drew no rows are not scored
    by the batch-means stderr."""

    @staticmethod
    def full_space_run(L):
        # every row hits with weight 1, so every batch that drew rows has mean 1
        return bs.estimate_min_divergence(
            PowerGamma(-1.0), (0.2, 0.3, 0.5), bs.full_space(),
            bs.EstimatorConfig(n=200, L=L, seed=3), mode="deterministic")

    @pytest.mark.parametrize("L", [2, 10, 31, 32, 100])
    def test_batches_of_equal_means_have_no_spread(self, L):
        est = self.full_space_run(L)
        assert est.hits == L
        assert est.stderr_log_pi == 0.0
        assert est.value == 0.0
        assert not any("zero hits" in w for w in est.warnings)

    def test_one_batch_gives_no_stderr(self):
        est = self.full_space_run(1)
        assert est.hits == 1
        assert est.stderr_log_pi == math.inf
        assert est.stderr == math.inf


class TestBoundsOrderWarning:
    def test_inverted_bounds_are_flagged(self):
        # at n = 100 the finite-n bias lifts the lower bound (0.0858 to 0.0866
        # over seeds 1-3, stderr <= 0.00052) above the upper (0.0774)
        cfg = bs.EstimatorConfig(n=100, L=2000, seed=1)
        lower, upper, _, est = engine.bounds_general(
            TwoPoint(0.0, 2.0), np.array([0.2, 0.3, 0.5]), bs.simplex_face(0, 0.35, ">="),
            cfg, mode="simplex")
        assert lower > upper
        assert any("finite-n bias" in w for w in est.warnings), est.warnings


class TestSimplexTwoPointExact:
    def test_unbiased_against_enumeration(self):
        # TwoPoint law in normalized mode, complete enumeration over 4 draws,
        # exercising the zero-total branch (all weights zero has mass p^4)
        gen = bs.TwoPoint(0.0, 2.0)
        p = np.array([0.5, 0.5])
        omega = bs.simplex_face(0, 0.7, ">=")
        part = engine.partition(p, 4)
        law = laws.law_for_generator(gen)
        pi_exact, tail = oracle.exact_pi(law, part, omega, mode="simplex")
        assert tail < 1e-12
        cfg = bs.EstimatorConfig(n=4, L=60_000, seed=12)
        est = engine.is_estimate(engine.prepare(gen, p, omega, cfg, "simplex"), cfg)
        se = est.stderr_log_pi * est.pi_hat
        assert abs(est.pi_hat - pi_exact) < 3.5 * se


class TestRay:
    """A searched set's point is the tilted mean of its own tilts, as a
    dual's is: the ray along the ladder's direction d stops at the first
    lam in ]0, 2] whose mean p~ Lambda'(lam d) is a member, by no draw."""

    PAIRS = 15  # (member point, set) pairs per mode and set kind

    @staticmethod
    def random_set(kind, rng, ref):
        # a set in tested coordinates that misses the reference point ref
        K = ref.size
        k, l = rng.choice(K, size=2, replace=False)
        lift = rng.uniform(0.2, 0.8)
        if kind == "box":
            lower = np.full(K, -np.inf)
            lower[k] = ref[k] * (1.0 + lift)
            upper = np.full(K, np.inf)
            upper[l] = ref[l] * (1.0 - 0.5 * lift)
            return bs.box(lower, upper)
        if kind == "face":
            return bs.simplex_face(int(k), ref[k] * (1.0 + lift), ">=")
        if kind == "union":
            return bs.union(bs.simplex_face(int(k), ref[k] * (1.0 + lift), ">="),
                            bs.simplex_face(int(l), ref[l] * (1.0 + 2.0 * lift), ">="))
        if kind == "predicate":
            # a product level set or a far corner: non-convex
            level = ref[k] * ref[l] * (1.0 + lift) ** 2
            corner = ref[l] * (1.0 + 3.0 * lift)
            return bs.from_predicate(lambda x: x[k] * x[l] >= level or x[l] >= corner)
        c = rng.uniform(0.5, 2.0, size=K)
        return bs.halfspace(c, float(c @ ref) * (1.0 + 0.5 * lift), ">=")

    def pairs(self, mode, kind):
        rng = make_rng(sum(map(ord, mode + kind)))
        out = []
        while len(out) < self.PAIRS:
            K = int(rng.integers(3, 6))
            P = rng.dirichlet(np.full(K, 3.0))
            if mode == "deterministic":
                P = P * rng.uniform(0.5, 2.0)
            gen = PowerGamma(float(rng.choice([-1.0, 0.5, 1.0, 2.0])))
            cfg = bs.EstimatorConfig(n=100 * K, L=10, seed=1)
            probe = engine.prepare(gen, P, bs.full_space(), cfg, mode)
            omega = self.random_set(kind, rng, probe.scale * probe.part.p_tilde)
            prepared = engine.prepare(gen, P, omega, cfg, mode)
            p = prepared.part.p_tilde
            for _ in range(200):
                if mode == "deterministic":
                    q = p * np.exp(rng.normal(0.0, 0.5, size=K))
                else:
                    q = rng.dirichlet(np.full(K, 2.0))
                if prepared.tested.contains_point(q):
                    out.append((prepared, q))
                    break
        return out

    @pytest.mark.parametrize("mode", ["deterministic", "simplex"])
    @pytest.mark.parametrize("kind", ["box", "face", "union", "predicate", "halfspace"])
    def test_the_ray_ends_at_its_first_member(self, mode, kind):
        # along the tilts of a member q the mean at lam = 1 is about q, so
        # the ray finds a member; its point is one, and the bracket's lower
        # end, at most 4 ulps below, is not
        for prepared, q in self.pairs(mode, kind):
            d = prepared.tilts(q)
            below, lam, point = engine._ray(prepared, d)
            assert 0.0 <= below < lam <= 2.0
            assert lam - below <= 4 * np.finfo(float).eps * lam
            assert prepared.tested.contains_point(point)
            x, member = engine._ray_points(prepared, d, np.array([below, lam]))
            assert not member[0] and member[1]
            assert np.array_equal(x[1], point)

    @pytest.mark.parametrize("gen, omega, mode, n, a", [
        (PowerGamma(1.0), bs.simplex_face(0, 0.5), "simplex", 2000, [0.5, -0.5, -0.5]),
        (PowerGamma(-1.0), bs.halfspace([1.0, 1.0, 1.0], 1.3), "deterministic", 200,
         [1.0, 1.0, 1.0]),
        (PowerGamma(2.0), bs.simplex_face(0, 0.5), "simplex", 200, [0.5, -0.5, -0.5]),
    ], ids=["readme_face", "neyman", "gaussian_face"])
    def test_on_a_one_row_set_the_ray_is_the_dual(self, gen, omega, mode, n, a):
        # along the row a of the dual (the simplex face's homogeneous row
        # c - rhs 1), the ray on intersection(row) stops at the dual's lam
        # and point
        cfg = bs.EstimatorConfig(n=n, L=10, seed=1)
        dual = engine.prepare(gen, [0.2, 0.3, 0.5], omega, cfg, mode).dual
        searched = engine.prepare(gen, [0.2, 0.3, 0.5], bs.intersection(omega), cfg, mode)
        _, lam, point = engine._ray(searched, np.array(a))
        assert lam == pytest.approx(dual.lam, rel=1e-12, abs=0)
        assert point == pytest.approx(dual.q_star, rel=1e-12, abs=0)

    @pytest.mark.parametrize("omega, mode", [
        (bs.intersection(bs.simplex_face(0, 0.1)), "simplex"),
        (bs.from_predicate(lambda x: x.sum() >= 0.9), "deterministic"),
    ], ids=["face", "predicate"])
    def test_a_searched_set_that_holds_p_draws_nothing(self, omega, mode):
        cfg = bs.EstimatorConfig(n=200, L=10, seed=1)
        prepared = engine.prepare(PowerGamma(1.0), [0.2, 0.3, 0.5], omega, cfg, mode,
                                  law=NoDrawLaw())
        proxy = engine.proxy_q_star(prepared, cfg)
        assert proxy.draws_used == 0
        assert np.array_equal(proxy.taus, np.zeros(3))
        assert proxy.q_star == pytest.approx([0.2, 0.3, 0.5], rel=1e-15)

    def test_the_readme_face_as_a_predicate_reaches_its_minimum(self):
        # a predicate hides the face's row from everything but membership;
        # the ray's point lies 2.4e-7 above log 1.25 at this seed
        cfg = bs.EstimatorConfig(n=2000, L=10, seed=1)
        P = np.array([0.2, 0.3, 0.5])
        omega = bs.from_predicate(lambda x: x[0] >= 0.5)
        proxy = engine.proxy_q_star(engine.prepare(PowerGamma(1.0), P, omega, cfg, "simplex"),
                                    cfg)
        assert omega.contains_point(proxy.q_star)
        assert 0.0 <= divergence(PowerGamma(1.0), proxy.q_star, P) - math.log(1.25) <= 1e-3

    def test_a_ray_without_a_member_keeps_the_ladder(self):
        # every member of {q_0 <= 0} has q_0 = 0, which a tilted Poisson mean
        # never reaches: the ladder's tilts stay, its lowest-D hit the point
        cfg = bs.EstimatorConfig(n=100, L=10, seed=1)
        omega = bs.intersection(bs.simplex_face(0, 0.0, "<="))
        prepared = engine.prepare(PowerGamma(1.0), [0.2, 0.3, 0.5], omega, cfg, "simplex")
        proxy = engine.proxy_q_star(prepared, cfg)
        assert engine._ray(prepared, proxy.taus) is None
        assert proxy.q_star[0] == 0.0 and omega.contains_point(proxy.q_star)
        assert proxy.draws_used > 0
