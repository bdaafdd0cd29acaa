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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3(c)")
def test_pi_coverage_union():
    # two symmetric faces: the proxy tilts toward one piece only, so the
    # estimate misses the other piece's half of π (z about -21)
    omega = bs.union(bs.simplex_face(0, 0.6, ">="), bs.simplex_face(1, 0.6, ">="))
    z = pi_z_score(omega)
    assert abs(z) <= 3.0


# π-coverage of the gated benchmark instances (perfbench/workloads.py), at
# their n and L, against log π in closed form


def test_pi_coverage_neyman_deterministic():
    # the total of n IG(1, 1) weights (gamma = -1) is IG(n, n^2), and a hit
    # is a total of at least 1.3 n: log π = -9.3676; |z| <= 2.63 over seeds 1-11
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
    # log π = -403.9155; |z| <= 1.86 over seeds 1-11
    j = np.arange(4001)
    log_pi = special.logsumexp(stats.poisson.logpmf(j, 1600) + stats.poisson.logsf(j - 1, 400))
    sample = engine.ingest_sample(["a"] * 400 + ["b"] * 600 + ["c"] * 1000)
    z = z_score(PowerGamma(1.0), sample, bs.simplex_face(0, 0.5, ">="),
                bs.EstimatorConfig(n=2000, L=100_000, seed=1), "empirical", log_pi)
    assert abs(z) <= 3.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3(a)")
def test_pi_coverage_quadratic_halfspace():
    # ||x - v||^2 over {sum x >= 3.15}, v = (.5, 1, 1.5), reduces to D_phi2 from
    # P = (.5, 2, 4.5), M = 7, with x_k = M S_k / (n 2 v_k) for Gaussian block
    # sums S_k ~ N(n_k, n_k / M): the hit statistic sum x is Gaussian and
    # log π = -33.4512.  The deterministic-mode polish moves one coordinate
    # at a time and stalls anywhere on sum x = 3.15 (x_0 over .49-.64 against
    # the optimum .55), so z is -13.4 at seed 1; given the optimum x = v + .05
    # as the proxy, |z| <= 2.7 over seeds 1-10
    n, v = 4000, np.array([0.5, 1.0, 1.5])
    red = problems.reduce_quadratic(problems.SeparableQuadratic(
        c1=v**2, c2=-2.0 * v, c3=np.ones(3), omega=bs.halfspace(np.ones(3), 3.15, ">=")))
    M = red.P.sum()
    sizes = engine.partition(red.P / M, n).sizes
    a = M / (n * 2.0 * v)
    log_pi = stats.norm.logsf(3.15, loc=a @ sizes, scale=math.sqrt(np.sum(a**2 * sizes) / M))
    z = z_score(red.gen, red.P, red.omega, bs.EstimatorConfig(n=n, L=100_000, seed=1),
                "deterministic", log_pi)
    assert abs(z) <= 3.0


def value_z_score(gen, P, omega, config, mode: str, truth: float) -> float:
    """(value - truth) / stderr of ``estimate_min_divergence``."""
    est = bs.estimate_min_divergence(gen, np.asarray(P), omega, config, mode=mode)
    return (est.value - truth) / est.stderr


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_value_coverage_readme_example():
    # KL over {q_0 >= .5} from P = (.2, .3, .5): the minimum is log 1.25;
    # the finite-n bias is about 55 stderr at seed 1
    z = value_z_score(PowerGamma(1.0), [0.2, 0.3, 0.5], bs.simplex_face(0, 0.5, ">="),
                      bs.EstimatorConfig(n=2000, L=10_000, seed=1), "simplex", math.log(1.25))
    assert abs(z) <= 3.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_value_coverage_neyman_deterministic():
    # Neyman chi-square (gamma = -1) over {sum x >= 1.3}: equal ratios
    # q_k / p_k = 1.3 are optimal, so the minimum is phi(1.3); z is 10.7 to
    # 32.7 over seeds 1-3
    g, x = -1.0, 1.3
    truth = (x**g - g * x + g - 1.0) / (g * (g - 1.0))
    z = value_z_score(PowerGamma(g), [0.2, 0.3, 0.5], bs.halfspace([1.0, 1.0, 1.0], x, ">="),
                      bs.EstimatorConfig(n=200, L=2000, seed=1, threads=1), "deterministic",
                      truth)
    assert abs(z) <= 3.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3(a)")
def test_proxy_gap_stalled_polish():
    # KL over {sum x >= 1.3} in deterministic mode: the minimum is at
    # q = 1.3 p, D = 1.3 log 1.3 - 0.3 = 0.041073.  The polish stalls at
    # q* = (.2, .375, .725), D = 0.0531; pi-coverage misses it (|z| <= 1.51
    # over seeds 1-5 at n = 150), so the proxy gap judges it
    gen, P = PowerGamma(1.0), np.array([0.2, 0.3, 0.5])
    cfg = bs.EstimatorConfig(n=150, seed=1)
    prepared = engine.prepare(gen, P, bs.halfspace([1.0, 1.0, 1.0], 1.3, ">="), cfg,
                              "deterministic")
    q_star = engine.proxy_q_star(prepared, cfg).q_star
    assert bs.divergence(gen, q_star, P) - (1.3 * math.log(1.3) - 0.3) <= 1e-3
