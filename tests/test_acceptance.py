"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All tolerances are pinned here; every [DERIVED] reference value is
computed by an independent oracle (enumeration, grid scan, golden
section, closed forms checked elsewhere).
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy import stats

import baresim as bs
from baresim import engine, laws as lw, oracle, problems
from baresim.divergence import GeneralizedKL, PowerGamma
from baresim.entropy import shannon
from baresim.legendre import build_lambda, build_phi, legendre_transform

from cases import SOLVED_CASES
from conftest import make_rng


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}", file=sys.stderr)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def interior_lambda_grid(law, m):
    lo, hi = law.mgf_dom()
    lo = lo if math.isfinite(lo) else -3.0
    hi = hi if math.isfinite(hi) else 3.0
    span = hi - lo
    return np.linspace(lo + 0.06 * span, hi - 0.06 * span, m)


def interior_t_grid(gen, m):
    lo = gen.a if math.isfinite(gen.a) else -2.0
    hi = gen.b if math.isfinite(gen.b) else 4.0
    span = hi - lo
    return np.linspace(lo + 0.05 * span, hi - 0.05 * span, m)


def test_criterion_1_duality_suite():
    t0 = time.time()
    worst_phi, worst_lam, worst_leg = 0.0, 0.0, 0.0
    for case in SOLVED_CASES:
        spec = case.spec()
        lam = build_lambda(spec)
        for z in interior_lambda_grid(case.law, 50):
            err = abs(lam(float(z)) - float(lw.log_mgf(case.law, float(z))))
            worst_lam = max(worst_lam, err)
        phi = build_phi(spec)
        ts = interior_t_grid(case.gen, 50)
        built = phi.phi(ts)
        ref = case.gen.phi(ts)
        worst_phi = max(worst_phi, float(np.max(np.abs(built - ref))))
        lo, hi = case.law.mgf_dom()
        conj = legendre_transform(lambda z: float(lw.log_mgf(case.law, z)), (lo, hi))
        for t in interior_t_grid(case.gen, 50):
            err = abs(conj(float(t)) - float(case.gen.phi(np.array([t]))[0]))
            worst_leg = max(worst_leg, err)
    ok = worst_lam < 1e-8 and worst_phi < 1e-8 and worst_leg < 1e-7
    report(1, ok,
           f"duality: |Lambda err|={worst_lam:.2e} (tol 1e-8), "
           f"|phi err|={worst_phi:.2e} (tol 1e-8), "
           f"|legendre err|={worst_leg:.2e} (tol 1e-7) [{time.time()-t0:.1f}s]")


@pytest.mark.slow
def test_criterion_2_law_suite():
    t0 = time.time()
    failures = []
    for i, case in enumerate(SOLVED_CASES):
        law = case.law
        rng = make_rng(1000 + i)
        x = law.sample_tilted_block(0.0, 1, rng, 1_000_000)
        se = float(x.std(ddof=1) / math.sqrt(x.size))
        if abs(float(x.mean()) - 1.0) > 4.0 * se:
            failures.append(f"{case.name}: mean {x.mean():.5f} off by >4 sigma")
        # MGF at 3 interior z with 2z still inside the domain
        lo, hi = law.mgf_dom()
        lo2 = max(lo / 2.0, -0.75)
        hi2 = min(hi / 2.0, 0.75)
        zs = lo2 + (hi2 - lo2) * np.array([0.3, 0.55, 0.8])
        for z in zs:
            ez = np.exp(z * x)
            emp, se_z = float(ez.mean()), float(ez.std(ddof=1) / math.sqrt(x.size))
            target = math.exp(float(lw.log_mgf(law, float(z))))
            if abs(emp - target) > 3.0 * se_z:
                failures.append(
                    f"{case.name}: MGF at z={z:.3f} emp {emp:.5f} vs {target:.5f}"
                )
        # convolution consistency at n_k in {2, 5, 20}
        for j, n_k in enumerate((2, 5, 20)):
            blk = law.sample_tilted_block(0.0, n_k, make_rng(2000 + 10 * i + j), 100_000)
            summed = sum(
                law.sample_tilted_block(0.0, 1, make_rng(3000 + 100 * i + 10 * j + r), 100_000)
                for r in range(n_k)
            )
            ks = stats.ks_2samp(np.round(blk, 8), np.round(summed, 8))
            if ks.pvalue <= 1e-3:
                failures.append(f"{case.name}: KS n_k={n_k} p={ks.pvalue:.2e}")
    ok = not failures
    report(2, ok,
           f"laws: {len(SOLVED_CASES)} laws x (mean-1, 3-z MGF, KS at 2/5/20) "
           f"{'all pass' if ok else failures} [{time.time()-t0:.1f}s]")


def test_criterion_3_lemma5_suite():
    t0 = time.time()
    rng = make_rng(5)
    worst = 0.0
    for _ in range(100):
        g = float(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 0.8, 1.0, 2.0, 3.0]))
        c = float(rng.uniform(0.5, 2.0))
        K = int(rng.integers(2, 5))
        P = rng.dirichlet(np.ones(K) * 3)
        A = float(rng.uniform(0.5, 2.0))
        Q = np.maximum(A * rng.dirichlet(np.ones(K) * 3), 1e-4)
        gen = PowerGamma(g, c)
        val, m = bs.min_over_m_closed(gen, Q, P)
        _, f_gold = oracle.golden_min(
            lambda mm: bs.divergence(gen, mm * Q, P), (1e-4, 50.0), tol=1e-12
        )
        worst = max(worst, abs(val - f_gold))
    # argmin coincidence on the exhaustive 0.01 grid, K = 3
    P = np.array([0.2, 0.3, 0.5])
    grid = oracle.simplex_grid(3, 0.01)
    inside = np.all(grid > 0, axis=1)
    grid = grid[inside]
    coincide = True
    for g in (-1.0, 0.5, 2.0):
        gen = PowerGamma(g, 1.0)
        direct = np.array([bs.divergence(gen, q, P) for q in grid])
        mproj = np.array([bs.min_over_m_closed(gen, q, P)[0] for q in grid])
        coincide &= bool(np.argmin(direct) == np.argmin(mproj))
    ok = worst < 1e-10 and coincide
    report(3, ok,
           f"m-minimization: closed form vs golden section worst {worst:.2e} "
           f"(tol 1e-10); grid argmin coincidence {coincide} [{time.time()-t0:.1f}s]")


def test_criterion_4_exact_unbiasedness():
    t0 = time.time()
    P = np.array([0.5, 0.5])
    # halfspaces must be reachable: the two-point law bounds xi by z2/2 = 1
    omegas = {
        "poisson": bs.intersection(
            bs.simplex_face(0, 1.25, ">="), bs.simplex_face(1, 1.0, ">=")
        ),
        "two-point": bs.intersection(
            bs.simplex_face(0, 0.9, ">="), bs.simplex_face(1, 0.9, ">=")
        ),
    }
    results = {}
    for label, gen in (("poisson", PowerGamma(1.0, 1.0)),
                       ("two-point", bs.TwoPoint(0.0, 2.0))):
        omega = omegas[label]
        law = lw.law_for_generator(gen, 1.0)
        part = engine.partition(P, 4)
        pi_exact, tail = oracle.exact_pi(law, part, omega, mode="deterministic",
                                         mass=1.0)
        assert tail < 1e-12
        cfg = bs.EstimatorConfig(n=4, L=100_000, seed=21)
        prepared = engine.prepare(gen, P, omega, cfg, "deterministic")
        nai = engine.naive_estimate(prepared, cfg)
        ise = engine.is_estimate(prepared, cfg)
        checks = []
        for est in (nai, ise):
            se = est.stderr_log_pi * est.pi_hat
            checks.append(abs(est.pi_hat - pi_exact) <= 3.0 * se)
        results[label] = (
            all(checks) and ise.hit_rate > nai.hit_rate,
            pi_exact, nai, ise,
        )
    ok = all(v[0] for v in results.values())
    detail = "; ".join(
        f"{k}: pi={v[1]:.3e} naive={v[2].pi_hat:.3e}@{v[2].hit_rate:.3f} "
        f"IS={v[3].pi_hat:.3e}@{v[3].hit_rate:.3f}"
        for k, v in results.items()
    )
    report(4, ok, f"unbiasedness within 3 se, IS hit rate > naive: {detail} "
                  f"[{time.time()-t0:.1f}s]")


REFERENCE_P = np.array([0.2, 0.3, 0.5])
REFERENCE_OMEGA = bs.simplex_face(0, 0.5, ">=")


@pytest.mark.slow
def test_criterion_5_consistency():
    t0 = time.time()
    lines = []
    ok = True
    for gamma in (0.0, 1.0, 2.0):
        gen = PowerGamma(gamma, 1.0)
        ref, _ = oracle.grid_min_divergence(gen, REFERENCE_P, REFERENCE_OMEGA,
                                            resolution=0.01)
        cfg = bs.EstimatorConfig(n=2000, L=100_000, seed=31)
        est = bs.estimate_min_divergence(gen, REFERENCE_P, REFERENCE_OMEGA, cfg,
                                         mode="simplex", target="divergence")
        tol = 0.02 + 0.05 * ref
        this_ok = abs(est.value - ref) <= tol
        ok &= this_ok
        lines.append(f"g={gamma}: |{est.value:.4f}-{ref:.4f}|<={tol:.4f} {this_ok}")
        # decreasing trace in n, up to combined stderr
        vals, ses = [], []
        for n in (200, 500, 2000):
            cfg_n = bs.EstimatorConfig(n=n, L=100_000, seed=37)
            e = bs.estimate_min_divergence(gen, REFERENCE_P, REFERENCE_OMEGA, cfg_n,
                                           mode="simplex", target="divergence")
            vals.append(e.value)
            ses.append(e.stderr)
        dec = all(
            vals[i + 1] <= vals[i] + 3 * (ses[i] + ses[i + 1])
            for i in range(len(vals) - 1)
        )
        ok &= dec
        lines.append(f"g={gamma} trace {['%.4f' % v for v in vals]} decreasing={dec}")
    report(5, ok, "; ".join(lines) + f" [{time.time()-t0:.1f}s]")


def test_criterion_6_hit_rate_floor():
    t0 = time.time()
    gen = PowerGamma(1.0, 1.0)
    rates = {}
    for n in (200, 500, 1000):
        cfg = bs.EstimatorConfig(n=n, L=20_000, seed=41)
        est = engine.is_estimate(
            engine.prepare(gen, REFERENCE_P, REFERENCE_OMEGA, cfg, "simplex"), cfg)
        rates[n] = est.hit_rate
    ok = all(r >= 0.1 for r in rates.values())
    report(6, ok, f"IS hit rates {rates} all >= 0.1 [{time.time()-t0:.1f}s]")


def test_criterion_7_inversion_round_trips():
    t0 = time.time()

    def forward(gamma, c, A, D):
        if gamma == 0.0:
            return D + c * (1 - A + math.log(A))
        if gamma == 1.0:
            return c * (1 - A * math.exp(-(D / c + A - 1) / A))
        H = 1 + gamma * (A - 1) + gamma * (gamma - 1) * D / c
        return c / gamma * (1 - A ** (gamma / (gamma - 1.0)) * H ** (-1.0 / (gamma - 1.0)))

    n, c = 23, 1.0
    worst = 0.0
    for gamma in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
        for A in (0.5, 1.0, 2.0):
            d_min = c * float(bs.phi_eval(PowerGamma(gamma, 1.0), A))
            for delta in (1e-3, 0.05, 0.4):
                D = d_min + delta
                rate = forward(gamma, c, A, D)
                got = engine.invert("divergence", -n * rate, n,
                                    gen=PowerGamma(gamma, c), A=A)
                worst = max(worst, abs(got - D))
    ok = worst < 1e-12
    report(7, ok, f"invert o forward identity worst error {worst:.2e} "
                  f"(tol 1e-12) [{time.time()-t0:.1f}s]")


@pytest.mark.slow
def test_criterion_8_reductions():
    t0 = time.time()
    rng = make_rng(51)
    ok = True
    notes = []
    # pointwise identities, 100 random points each
    worst_q = worst_t = worst_l = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        inst = problems.SeparableQuadratic(
            c1=rng.normal(0, 1, k),
            c2=rng.choice([-1, 1], k) * rng.uniform(0.5, 2.0, k),
            c3=rng.uniform(0.2, 3.0, k),
            omega=bs.full_space(),
        )
        red = problems.reduce_quadratic(inst)
        x = rng.normal(0, 2, k)
        err = abs(inst.objective(x)
                  - (red.offset + bs.divergence(red.gen, red.to_reduced(x), red.P)))
        worst_q = max(worst_q, err / max(1.0, abs(inst.objective(x))))

        tr = problems.Transport(mu=rng.dirichlet([2, 2]), nu=rng.dirichlet([2, 2]))
        tred = problems.reduce_transport(tr)
        pi = rng.uniform(0.01, 1.0, (2, 2))
        err = abs(tr.objective(pi)
                  - bs.divergence(tred.gen, pi.reshape(-1), tred.P))
        worst_t = max(worst_t, err / max(1.0, tr.objective(pi)))

        g = float(rng.choice([2.0, 3.0, 0.5]))
        lin = problems.LinearObjective(
            cost=rng.uniform(0.5, 2.0, k), gamma=g, omega=bs.full_space()
        )
        lred = problems.reduce_linear(lin)
        xq = rng.uniform(0.1, 2.0, k)
        err = abs(float(xq @ lin.cost) - lred.prefactor * lred.hellinger_value(xq))
        worst_l = max(worst_l, err / max(1.0, float(xq @ lin.cost)))
    identities = max(worst_q, worst_t, worst_l) < 1e-12
    ok &= identities
    notes.append(f"identities worst rel err {max(worst_q, worst_t, worst_l):.2e}")

    # transport trivial instance
    rep = problems.solve(problems.Transport(mu=[0.5, 0.5], nu=[0.5, 0.5]),
                         bs.EstimatorConfig(n=600, L=20_000, seed=52))
    triv = abs(rep.value) <= 0.02
    ok &= triv
    notes.append(f"transport trivial {rep.value:.4f} (tol 0.02)")

    # entropy maximization
    rep = problems.solve(
        problems.EntropyMax(spec=shannon(), K=3, omega=bs.simplex_face(0, 0.5, ">=")),
        bs.EstimatorConfig(n=1500, L=60_000, seed=53),
    )
    emax = abs(rep.value - 1.039721) <= 0.03
    ok &= emax
    notes.append(f"shannon max {rep.value:.4f} vs 1.039721 (tol 0.03)")
    report(8, ok, "; ".join(notes) + f" [{time.time()-t0:.1f}s]")


@pytest.mark.slow
def test_criterion_9_bounds():
    t0 = time.time()
    rng = make_rng(61)
    gen = GeneralizedKL(1.0, 1.0)
    violations = []
    for trial in range(20):
        # keep the face visibly away from p so the m-projection gap
        # dominates the O(log n / n) estimator bias
        p = rng.dirichlet([4, 4, 4])
        while p.min() < 0.08 or p.max() > 0.55:
            p = rng.dirichlet([4, 4, 4])
        idx = int(rng.integers(0, 3))
        bound = float(min(p[idx] + 0.3 + 0.25 * rng.random(), 0.88))
        omega = bs.simplex_face(idx, bound, ">=")
        ref, _ = oracle.grid_min_divergence(gen, p, omega, resolution=0.01)
        lower, upper, _, _ = bs.bounds_general(
            gen, p, omega, bs.EstimatorConfig(n=3000, L=20_000, seed=500 + trial),
            mode="simplex",
        )
        # 2e-5 slack covers the grid oracle's own refinement resolution
        if not (lower <= ref + 2e-5 and ref <= upper + 2e-5):
            violations.append((trial, lower, ref, upper))
    # power-type generators collapse to the exact inversion
    g2 = PowerGamma(2.0, 1.0)
    lo2, up2, _, est2 = bs.bounds_general(
        g2, REFERENCE_P, REFERENCE_OMEGA,
        bs.EstimatorConfig(n=2000, L=50_000, seed=62), mode="simplex",
    )
    ref2, _ = oracle.grid_min_divergence(g2, REFERENCE_P, REFERENCE_OMEGA,
                                         resolution=0.01)
    power_ok = lo2 == up2 and abs(lo2 - ref2) <= 0.02 + 0.05 * ref2
    ok = not violations and power_ok
    report(9, ok,
           f"bounds ordered on 20 random instances ({len(violations)} violations); "
           f"power-type collapse |{lo2:.4f}-{ref2:.4f}| within tolerance "
           f"[{time.time()-t0:.1f}s]")


def test_criterion_10_determinism():
    t0 = time.time()
    gen = PowerGamma(1.0, 1.0)
    cfg = bs.EstimatorConfig(n=300, L=8_000, seed=71, threads=2)
    a = bs.estimate_min_divergence(gen, REFERENCE_P, REFERENCE_OMEGA, cfg,
                                   mode="simplex", target="divergence")
    b = bs.estimate_min_divergence(gen, REFERENCE_P, REFERENCE_OMEGA, cfg,
                                   mode="simplex", target="divergence")
    same_estimate = (
        a.log_pi_hat == b.log_pi_hat
        and a.value == b.value
        and np.array_equal(a.batch_log_means, b.batch_log_means)
    )
    draws_same = True
    for i, case in enumerate(SOLVED_CASES):
        x = case.law.sample_tilted_block(0.0, 1, make_rng(900 + i), 256)
        y = case.law.sample_tilted_block(0.0, 1, make_rng(900 + i), 256)
        draws_same &= bool(np.array_equal(x, y))
    ok = same_estimate and draws_same
    report(10, ok, f"same-seed reruns bit-identical: estimates={same_estimate}, "
                   f"law draws={draws_same} [{time.time()-t0:.1f}s]")
