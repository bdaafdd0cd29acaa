"""Calibration judge: estimates checked against exact truths, with the
known defects kept as strict xfails that name their ROADMAP item.

π-coverage: log π̂ against ``oracle.exact_pi``, which is exact at finite n
(Poisson weights, certified truncation), so the importance-sampling
estimate and its stderr are judged with no finite-n bias in the way.

Value coverage: the reported ``value`` against the closed-form minimum,
judged by |value - truth| <= 3 * stderr, so the finite-n bias counts.
"""

import math

import numpy as np
import pytest

import baresim as bs
from baresim import engine, laws, oracle
from baresim.divergence import PowerGamma

K, N, L = 3, 150, 10_000
P_UNIFORM = np.full(K, 1.0 / K)


def pi_z_score(omega, seed: int = 1) -> float:
    """(log π̂ - log π) / stderr_log_pi for KL in simplex mode."""
    gen = PowerGamma(1.0)
    pi, tail = oracle.exact_pi(laws.law_for_generator(gen), engine.partition(P_UNIFORM, N),
                               omega, mode="simplex")
    # the truth lies in [pi, pi + tail]: off by under 1e-3 in log pi
    assert tail < 1e-3 * pi
    cfg = bs.EstimatorConfig(n=N, L=L, seed=seed)
    est = engine.is_estimate(engine.prepare(gen, P_UNIFORM, omega, cfg, "simplex"), cfg)
    return (est.log_pi_hat - math.log(pi)) / est.stderr_log_pi


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
