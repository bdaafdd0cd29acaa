"""Calibration judge: estimates checked against exact truths, with the
known defects kept as strict xfails that name their ROADMAP item.

π-coverage: log π̂ against a log π that is exact at finite n, from
``oracle.exact_pi`` (Poisson weights, certified truncation) or from the
closed-form law of the statistic that decides a hit in a benchmark
instance, so the importance-sampling estimate and its stderr are judged with
no finite-n bias in the way.

Value coverage: the reported ``value`` against the closed-form minimum,
judged by |value - truth| <= 3 * stderr, so the finite-n bias counts.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

import baresim as bs
from baresim import engine, laws, oracle, problems
from baresim.divergence import PowerGamma
from baresim.entropy import entropy, renyi_entropy

K, N, L = 3, 150, 10_000
P_UNIFORM = np.full(K, 1.0 / K)


def z_score(gen, P, omega, config, mode: str, log_pi: float) -> float:
    """(log π̂ - log π) / stderr_log_pi of ``is_estimate``."""
    est = engine.is_estimate(engine.prepare(gen, P, omega, config, mode), config)
    return (est.log_pi_hat - log_pi) / est.stderr_log_pi


def pi_z_score(omega, seed: int = 1) -> float:
    """The z-score for KL in simplex mode against ``oracle.exact_pi``."""
    gen = PowerGamma(1.0)
    pi, tail = oracle.exact_pi(laws.law_for_generator(gen), engine.partition(P_UNIFORM, N),
                               omega, mode="simplex")
    # the truth lies in [pi, pi + tail]: off by under 1e-3 in log pi
    assert tail < 1e-3 * pi
    return z_score(gen, P_UNIFORM, omega, bs.EstimatorConfig(n=N, L=L, seed=seed), "simplex",
                   math.log(pi))


def test_pi_coverage_control():
    # one face {q_0 >= .6}: one dominating point, one tilt
    z = pi_z_score(bs.simplex_face(0, 0.6, ">="))
    assert abs(z) <= 3.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pi_coverage_searched_face(seed):
    # the control's face as a set without a row, intersection(face): the
    # search's cross-entropy ladder finds the direction of the tilts and the
    # ray their length, |z| <= 1.62 over seeds 1-8 (1.70 with the ladder's
    # own tilts, 2.43 with the short-run search before it)
    z = pi_z_score(bs.intersection(bs.simplex_face(0, 0.6, ">=")), seed)
    assert abs(z) <= 3.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3(c)")
def test_pi_coverage_union():
    # two symmetric faces: the proxy tilts toward one piece only, so the
    # estimate misses the other piece's half of π (z = -24.7, -31.8
    # and -26.3 at seeds 1-3)
    omega = bs.union(bs.simplex_face(0, 0.6, ">="), bs.simplex_face(1, 0.6, ">="))
    z = pi_z_score(omega)
    assert abs(z) <= 3.0


# π-coverage of the gated benchmark instances (perfbench/workloads.py), at
# their n and L, against log π in closed form


def test_pi_coverage_neyman_deterministic():
    # the total of n IG(1, 1) weights (gamma = -1) is IG(n, n^2), and a hit
    # is a total of at least 1.3 n: log π = -9.3676; the one class of the
    # three blocks draws that total itself: z = 0.50 at seed 1 and |z| <= 1.04
    # over seeds 1-11
    n = 200
    log_pi = stats.invgauss.logsf(1.3 * n, mu=1.0 / n, scale=float(n) ** 2)
    z = z_score(PowerGamma(-1.0), np.array([0.2, 0.3, 0.5]),
                bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="),
                bs.EstimatorConfig(n=n, L=2000, seed=1), "deterministic", log_pi)
    assert abs(z) <= 3.0


def test_pi_coverage_kl_empirical():
    # Poisson(1) weights over the counts 400/600/1000: a hit is S_0 >= S_1 +
    # S_2 with S_0 ~ Poisson(400) and S_1 + S_2 ~ Poisson(1600), summed in log
    # space over S_1 + S_2 = j (the all-zero row, mass e^-2000, counts as a
    # hit here and never in the estimator; it is far below rounding):
    # log π = -403.9155; the batches draw S_0 and S_1 + S_2, the face's two
    # classes: z = 1.14 at seed 1 and |z| <= 1.88 over seeds 1-11
    j = np.arange(4001)
    log_pi = special.logsumexp(stats.poisson.logpmf(j, 1600) + stats.poisson.logsf(j - 1, 400))
    sample = engine.ingest_sample(["a"] * 400 + ["b"] * 600 + ["c"] * 1000)
    z = z_score(PowerGamma(1.0), sample, bs.simplex_face(0, 0.5, ">="),
                bs.EstimatorConfig(n=2000, L=100_000, seed=1), "empirical", log_pi)
    assert abs(z) <= 3.0


def test_pi_coverage_coordinate_face_at_k_200():
    # KL over {q_0 >= 1/32} from the uniform P, K = 200, n = 4000: the batches
    # draw the face's two classes, S_0 ~ Poisson(20) and the pooled S_rest ~
    # Poisson(3980).  A hit is S_rest <= 31 S_0 with S_0 > 0; the bound is
    # dyadic, so S_0 / (32 S_0) rounds to it exactly and a tie is a hit in
    # the estimator as in this sum.  log π = -127.4205; z = 0.63 at seed 1 and
    # |z| <= 2.96 over seeds 1-10
    n, n0 = 4000, 20
    s0 = np.arange(1, 2001)
    log_pi = special.logsumexp(stats.poisson.logpmf(s0, n0)
                               + stats.poisson.logcdf(31 * s0, n - n0))
    z = z_score(PowerGamma(1.0), np.full(200, 1.0 / 200), bs.simplex_face(0, 1.0 / 32, ">="),
                bs.EstimatorConfig(n=n, L=10_000, seed=1), "simplex", log_pi)
    assert abs(z) <= 3.0


def quadratic_halfspace():
    """||x - v||^2 over {sum x >= 3.15}, v = (.5, 1, 1.5), reduced to D_phi2
    from P = (.5, 2, 4.5), M = 7, with n = 4000: the gated benchmark
    instance, whose blocks n p_k = 285.71, 1142.86 and 2571.43 are not
    integral."""
    v = np.array([0.5, 1.0, 1.5])
    return v, problems.reduce_quadratic(problems.SeparableQuadratic(
        c1=v**2, c2=-2.0 * v, c3=np.ones(3), omega=bs.halfspace(np.ones(3), 3.15, ">=")))


def test_pi_coverage_quadratic_halfspace():
    # x_k = M S_k / (n 2 v_k) for Gaussian block sums S_k ~ N(n_k, n_k / M):
    # the hit statistic sum x is Gaussian and log π = -33.4512.  The
    # reduction keeps the halfspace's row, so the tilts are the dual's at the
    # blocks drawn: z = -1.80 at seed 1 and |z| <= 1.80 over seeds 1-10 (it
    # was -13.4 at seed 1 when a predicate hid the row and the polish stalled
    # anywhere on sum x = 3.15)
    n = 4000
    v, red = quadratic_halfspace()
    M = red.P.sum()
    sizes = engine.partition(red.P / M, n).sizes
    a = M / (n * 2.0 * v)
    log_pi = stats.norm.logsf(3.15, loc=a @ sizes, scale=math.sqrt(np.sum(a**2 * sizes) / M))
    z = z_score(red.gen, red.P, red.omega, bs.EstimatorConfig(n=n, L=100_000, seed=1),
                "deterministic", log_pi)
    assert abs(z) <= 3.0


@pytest.mark.parametrize("seed", range(1, 11))
def test_value_coverage_quadratic_halfspace(seed):
    # the minimum is 0.0075 (every coordinate moves by .05); the blocks
    # round n p, which the rounding term corrects to first order: |z| <= 1.60
    # over these seeds, while without it the value sits 1.15e-4 off, about
    # 45 stderr
    _, red = quadratic_halfspace()
    est = bs.estimate_min_divergence(red.gen, red.P, red.omega,
                                     bs.EstimatorConfig(n=4000, L=100_000, seed=seed),
                                     mode="deterministic")
    assert "not integral" not in " ".join(est.warnings)
    assert abs(red.offset + est.value - 0.0075) <= 3.0 * est.stderr


def value_z_score(gen, P, omega, config, mode: str, truth: float) -> float:
    """(value - truth) / stderr of ``estimate_min_divergence``."""
    est = bs.estimate_min_divergence(gen, np.asarray(P), omega, config, mode=mode)
    return (est.value - truth) / est.stderr


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_value_coverage_readme_example():
    # KL over {q_0 >= .5} from P = (.2, .3, .5): the minimum is log 1.25;
    # the finite-n bias is 71.5 stderr at seed 1, as Poisson weights are a
    # lattice law, which has no term yet
    z = value_z_score(PowerGamma(1.0), [0.2, 0.3, 0.5], bs.simplex_face(0, 0.5, ">="),
                      bs.EstimatorConfig(n=2000, L=10_000, seed=1), "simplex", math.log(1.25))
    assert abs(z) <= 3.0


def test_value_coverage_neyman_deterministic():
    # Neyman chi-square (gamma = -1) over {sum x >= 1.3}: equal ratios
    # q_k / p_k = 1.3 are optimal, so the minimum is phi(1.3).  The
    # Bahadur-Rao term leaves an O(1/n) bias of under one stderr: z is 0.12
    # at seed 1 and -0.65 to 2.14 over seeds 1-20 (44.4 to 64.8 over seeds
    # 1-3 without the term)
    g, x = -1.0, 1.3
    truth = (x**g - g * x + g - 1.0) / (g * (g - 1.0))
    z = value_z_score(PowerGamma(g), [0.2, 0.3, 0.5], bs.halfspace([1.0, 1.0, 1.0], x, ">="),
                      bs.EstimatorConfig(n=200, L=2000, seed=1, threads=1), "deterministic",
                      truth)
    assert abs(z) <= 3.0


# The Bahadur-Rao term of a deterministic halfspace: log π = -n I - term + miss,
# with a miss of O(1/n), so the corrected value misses the minimum I by
# -miss / n.  Fed the exact log π, ``finalize`` shows the miss itself.

NEYMAN_P = np.array([0.2, 0.3, 0.5])


def corrected_miss(gen, n: int, log_pi: float, truth: float) -> float:
    """n (truth - value) of ``finalize`` on an estimate of the exact log π for
    {sum x >= 1.3} from P = (.2, .3, .5): the miss of the Bahadur-Rao term."""
    config = bs.EstimatorConfig(n=n, L=10, seed=1)
    prepared = engine.prepare(gen, NEYMAN_P, bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="), config,
                              "deterministic")
    est = engine.Estimate(log_pi_hat=log_pi, value=math.nan, hits=1, stderr=math.nan,
                          stderr_log_pi=1e-3, n=n, L=10, seed=1, hit_rate=0.1,
                          batch_log_means=np.zeros(10))
    engine.finalize(est, "deterministic", prepared)
    # uncorrected, the value misses by log-size terms: n (value - truth) > 2
    assert n * (est.value - est.bias_correction - truth) > 2.0
    return n * (truth - est.value)


@pytest.mark.parametrize("n, miss", [(200, -0.0232), (800, -0.00667), (3200, -0.00174)])
def test_bahadur_rao_follows_the_inverse_gaussian_truth(n, miss):
    # gamma = -1: the total of n IG(1, 1) weights is IG(n, n^2); the misses
    # shrink as 1/n (n miss = -4.6, -5.3, -5.6)
    g, x = -1.0, 1.3
    truth = (x**g - g * x + g - 1.0) / (g * (g - 1.0))
    log_pi = stats.invgauss.logsf(1.3 * n, mu=1.0 / n, scale=float(n) ** 2)
    assert corrected_miss(PowerGamma(g), n, log_pi, truth) == pytest.approx(miss, rel=0.01)


@pytest.mark.parametrize("n", [200, 800, 3200])
def test_bahadur_rao_follows_the_gaussian_truth(n):
    # gamma = 2: the total of n N(1, 1) weights is N(n, n), for which the
    # uniform term is exact
    log_pi = stats.norm.logsf(1.3 * n, loc=n, scale=math.sqrt(n))
    assert abs(corrected_miss(PowerGamma(2.0), n, log_pi, 0.045)) < 1e-6


def test_value_coverage_gaussian_halfspace():
    # the same set under gamma = 2 through the whole pipeline: z = -0.81 at
    # seed 1, and |z| <= 2.16 over seeds 1-10
    z = value_z_score(PowerGamma(2.0), NEYMAN_P, bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="),
                      bs.EstimatorConfig(n=200, L=2000, seed=1), "deterministic", 0.045)
    assert abs(z) <= 3.0


def test_value_coverage_gaussian_simplex_face():
    # gamma = 2 over {q_0 >= .5} in simplex mode: the minimum is at
    # q* = (.5, .1875, .3125), D = 0.28125.  On x = S / sum S the face is the
    # homogeneous row <(.5, -.5, -.5), S> >= 0, whose dual gives the
    # Bahadur-Rao term: z = -0.98 at seed 1 and |z| <= 2.46 over seeds 1-10
    # (36.9 at seed 1 without the term).  At n = 997 and 2001 the blocks
    # round n p, which the rounding term moves back to p: gamma = 0 and 2
    # read z = -0.47, -0.26, 0.43 and 0.66 (36.3, 14.6, 31.2 and 13.4 without
    # it), and |z| <= 2.16 over gamma in {-1, 0, 1/2, 2, 3} and seeds 1-3
    q_star = np.array([0.5, 0.1875, 0.3125])
    runs = [(2.0, 200, 2000)] + [(g, n, 100_000) for g in (0.0, 2.0) for n in (997, 2001)]
    for gamma, n, L in runs:
        z = value_z_score(PowerGamma(gamma), NEYMAN_P, bs.simplex_face(0, 0.5, ">="),
                          bs.EstimatorConfig(n=n, L=L, seed=1), "simplex",
                          bs.divergence(PowerGamma(gamma), q_star, NEYMAN_P))
        assert abs(z) <= 3.0, (gamma, n, z)


GIBBS_ROW = bs.halfspace(np.arange(1, 21), 13.0, ">=")


@pytest.mark.parametrize("seed", range(1, 11))
def test_value_coverage_searched_gibbs_face(seed):
    # KL over {sum k q_k >= 13}, K = 20, from the uniform P in simplex mode,
    # searched as intersection(row) against the row's own dual at the same n
    # and L: the ladder's tilts read |z| <= 1.33 over these seeds, where the
    # short-run search's tilts sat 23 to 88 stderr high at seeds 1-3.  Poisson
    # weights get no finite-n term, so both forms carry the same bias
    gen, P = PowerGamma(1.0), np.full(20, 0.05)
    config = bs.EstimatorConfig(n=10_000, L=20_000, seed=seed)
    searched = bs.estimate_min_divergence(gen, P, bs.intersection(GIBBS_ROW), config,
                                          mode="simplex")
    row = bs.estimate_min_divergence(gen, P, GIBBS_ROW, config, mode="simplex")
    assert abs(searched.value - row.value) <= 3.0 * math.hypot(searched.stderr, row.stderr)


def test_value_coverage_renyi_entropy_extremum():
    # the largest Renyi entropy of order 2 over {q_0 >= .5}, K = 3, is at
    # (.5, .25, .25): the uniform reference at n = 1000 rounds to blocks
    # 333/333/334, and the rounding term holds for the entropy target as for
    # any other: z = 0.02 at seed 1 (-18.0 without it)
    spec, q_star = renyi_entropy(2.0), np.array([0.5, 0.25, 0.25])
    est = bs.estimate_entropy_extremum(spec, 3, bs.simplex_face(0, 0.5, ">="),
                                       bs.EstimatorConfig(n=1000, L=100_000, seed=1))
    assert abs(est.value - entropy(spec, q_star)) <= 3.0 * est.stderr


def test_proxy_gap_stalled_polish():
    # KL over {sum x >= 1.3} in deterministic mode: the minimum is at
    # q = 1.3 p, D = 1.3 log 1.3 - 0.3 = 0.041073.  The search's polish
    # stalled at q* = (.2, .375, .725), D = 0.0531, which pi-coverage missed
    # (|z| <= 1.51 over seeds 1-5 at n = 150); the dual finds the minimum
    gen, P = PowerGamma(1.0), np.array([0.2, 0.3, 0.5])
    cfg = bs.EstimatorConfig(n=150, seed=1)
    prepared = engine.prepare(gen, P, bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="), cfg,
                              "deterministic")
    q_star = engine.proxy_q_star(prepared, cfg).q_star
    assert bs.divergence(gen, q_star, P) - (1.3 * math.log(1.3) - 0.3) <= 1e-3
