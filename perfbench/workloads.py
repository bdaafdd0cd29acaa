"""The benchmark's workloads.

Each workload builds its instance through baresim's public constructors,
solves it through a public entry point, and carries an independent truth
computed with numpy/scipy only.  The estimator seed of every solve is
derived from the workload seed and the solve index.

Sizes are fixed here and must not be changed to make a truth-check failure
go away: the failures are part of the measured baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize, special

# acceptance criterion 5 of the test suite: |value - truth| <= 0.02 + 0.05 |truth|
TOL_ABS = 0.02
TOL_REL = 0.05


def tolerance(truth: float) -> float:
    return TOL_ABS + TOL_REL * abs(truth)


def solve_seed(workload_seed: int, index: int) -> int:
    """Estimator seed of solve ``index`` of a run with ``workload_seed``."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(1)
    return int(state[0])


@dataclass
class Outcome:
    value: float
    stderr: float
    hits: int


def judge(outcome: Outcome | None, truth: float) -> str | None:
    """Why a solve failed, or None when it passed the truth check."""
    if outcome is None:
        return "raised"
    if outcome.hits == 0:
        return "zero hits"
    if not math.isfinite(outcome.value):
        return "non-finite value"
    if abs(outcome.value - truth) > tolerance(truth):
        return "truth check"
    return None


class Workload:
    """One benchmark instance; subclasses fill in the hooks below."""

    name: str
    #: solves in a traced run, fixed so that layer counts repeat exactly
    traced_solves: int
    #: replications of a solve, and of the small solves of the self-check
    #: and the warm-up
    L: int
    small_L: int

    def generate(self, seed: int, workdir: Path) -> None:
        """Make the inputs from the seed (not part of set-up time)."""

    def build(self, bs) -> None:
        """Build generator, law, constraint, partition or reduction through
        baresim's public constructors (timed as set-up)."""
        raise NotImplementedError

    def truth(self) -> float:
        raise NotImplementedError

    def truth_divergence(self) -> float:
        """The constrained minimum divergence behind ``truth``."""
        return self.truth()

    def solve(self, est_seed: int, L: int) -> Outcome:
        raise NotImplementedError

    def proxy_divergence(self, proxy) -> float:
        """D(q*, P) at a ``ProxyResult`` of this workload's solve."""
        raise NotImplementedError


class KLEmpiricalCLI(Workload):
    name = "kl_empirical_cli"
    traced_solves = 60
    L, small_L = 100_000, 10_000
    counts = (400, 600, 1000)  # 2,000 labels at frequencies (.2, .3, .5)

    def generate(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        labels = np.repeat(np.array(["a", "b", "c"]), self.counts)
        rng.shuffle(labels)
        self.labels = [str(x) for x in labels]
        self.data_file = workdir / "labels.txt"
        self.data_file.write_text("\n".join(self.labels) + "\n")
        self.config_file = workdir / "run.json"
        self.out_file = workdir / "out.json"

    def build(self, bs):
        import baresim.cli

        self.cli = baresim.cli
        # what the CLI builds from the config on every solve, built once here
        # for the set-up time; the partition also serves proxy_divergence
        self.part = bs.ingest_sample(self.labels)
        self.gen = bs.PowerGamma(1.0)
        self.omega = bs.constraint_from_dict(
            {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="})
        self.law = bs.law_for_generator(self.gen)
        config = {
            "generator": {"family": "power", "gamma": 1.0},
            "data_file": str(self.data_file),
            "mode": "empirical",
            "target": "divergence",
            "constraint": {"type": "coordinate", "index": 0, "bound": 0.5, "op": ">="},
            "estimator": {"n": len(self.labels), "threads": 1},
        }
        self.config_file.write_text(json.dumps(config))

    def truth(self):
        # closed-form KL projection of the empirical frequencies onto {q_0 >= 1/2}
        p = np.array(self.counts, dtype=float) / sum(self.counts)
        return 0.5 * math.log(0.5 / p[0]) + 0.5 * math.log(0.5 / (1.0 - p[0]))

    def solve(self, est_seed, L):
        # cli.main also returns 3 when the estimator raises, and then writes
        # nothing: an output left by an earlier solve must never be read
        self.out_file.unlink(missing_ok=True)
        rc = self.cli.main(["estimate", "--config", str(self.config_file), "--L", str(L),
                            "--seed", str(est_seed), "--out", str(self.out_file)])
        if rc not in (0, 3) or not self.out_file.is_file():
            raise RuntimeError(f"cli exit code {rc} and no output")
        out = json.loads(self.out_file.read_text())
        if (rc == 3) != (out["hits"] == 0):
            raise RuntimeError(f"cli exit code {rc} with {out['hits']} hits")
        value = out["value"] if out["value"] is not None else math.inf
        stderr = out["stderr"] if out["stderr"] is not None else math.inf
        return Outcome(value, stderr, int(out["hits"]))

    def proxy_divergence(self, proxy):
        q = np.asarray(proxy.q_star, dtype=float)
        return float(np.sum(special.xlogy(q, q) - special.xlogy(q, self.part.p_tilde)))


class NeymanDeterministic(Workload):
    name = "neyman_deterministic"
    traced_solves = 6
    # L=2000 rather than 4000 doubles the solves of a run, which steadies
    # the median solve time and the median stderr; the error is the
    # finite-n bias either way
    L, small_L = 2000, 640
    P = (0.2, 0.3, 0.5)
    level = 1.3
    gamma = -1.0

    def build(self, bs):
        self.bs = bs
        # the partition and law are rebuilt by every solve; built here for
        # the set-up time
        self.gen = bs.PowerGamma(self.gamma)
        self.omega = bs.halfspace([1.0, 1.0, 1.0], self.level, ">=")
        self.part = bs.partition(self.P, 200)
        self.law = bs.law_for_generator(self.gen)

    def truth(self):
        # equal ratios q_k / p_k = 1.3 are optimal; sum p = 1
        g, x = self.gamma, self.level
        return (x**g - g * x + g - 1.0) / (g * (g - 1.0))

    def solve(self, est_seed, L):
        config = self.bs.EstimatorConfig(n=200, L=L, seed=est_seed, threads=1)
        est = self.bs.estimate_min_divergence(self.gen, np.array(self.P), self.omega,
                                              config, mode="deterministic")
        return Outcome(est.value, est.stderr, est.hits)

    def proxy_divergence(self, proxy):
        g = self.gamma
        x = np.asarray(proxy.q_star, dtype=float) / np.array(self.P)
        return float(np.dot(self.P, (x**g - g * x + g - 1.0) / (g * (g - 1.0))))


class QuadraticHalfspace(Workload):
    name = "quadratic_halfspace"
    traced_solves = 40
    L, small_L = 100_000, 10_000
    v = (0.5, 1.0, 1.5)
    # truth 0.0075: over 2,000 solves the largest error was 0.0062, against
    # a tolerance of 0.0204; at level 3.3 (truth 0.03) it was 0.0135 of 0.0215
    level = 3.15

    def build(self, bs):
        from baresim import problems

        self.bs, self.problems = bs, problems
        # ||x - v||^2 = sum (v^2 - 2 v x + x^2) over the halfspace sum x >= level
        v = np.array(self.v)
        self.instance = problems.SeparableQuadratic(
            c1=v**2, c2=-2.0 * v, c3=np.ones(v.size),
            omega=bs.halfspace(np.ones(v.size), self.level, ">="))
        self.reduction = problems.reduce_quadratic(self.instance)

    def truth(self):
        # projection of v onto the halfspace moves every coordinate by the
        # same amount: (level - sum v) / k
        return (self.level - sum(self.v)) ** 2 / len(self.v)

    def truth_divergence(self):
        return self.truth() - self.reduction.offset

    def solve(self, est_seed, L):
        config = self.bs.EstimatorConfig(n=4000, L=L, seed=est_seed, threads=1)
        report = self.problems.solve(self.instance, config)
        return Outcome(report.value, report.estimate.stderr, report.estimate.hits)

    def proxy_divergence(self, proxy):
        # D_{phi_2}(q, P) = sum (q - p)^2 / (2 p), the reduced objective; the
        # engine normalises P to a probability vector, and q* with it
        P = self.reduction.P
        q = P.sum() * np.asarray(proxy.q_star, dtype=float)
        return float(np.sum((q - P) ** 2 / (2.0 * P)))


class Transport10x10(Workload):
    name = "transport_10x10"
    traced_solves = 16
    L, small_L = 50_000, 3200
    band = 0.02

    def build(self, bs):
        from baresim import problems

        self.bs, self.problems = bs, problems
        self.mu = np.full(10, 0.1)
        nu = np.linspace(1.0, 3.0, 10)
        self.nu = nu / nu.sum()
        self.instance = problems.Transport(mu=self.mu, nu=self.nu, band=self.band)
        self.reduction = problems.reduce_transport(self.instance)
        # The default hit-run proxy raises "proxy search exhausted its budget"
        # on this instance, so the tilt target is the feasible point mu x nu.
        self.proxy = bs.ProxySpec("given", q_star=np.outer(self.mu, self.nu).reshape(-1))

    def truth(self):
        # SLSQP on the band-relaxed QP  min 100 sum (q - 1/100)^2  over the
        # slice sum q = 1 with |row - mu| <= band, |col - nu| <= band
        k = self.mu.size * self.nu.size
        rows = np.kron(np.eye(self.mu.size), np.ones(self.nu.size))
        cols = np.kron(np.ones(self.mu.size), np.eye(self.nu.size))
        A = np.vstack([rows, -rows, cols, -cols])
        b = np.concatenate([self.mu + self.band, self.band - self.mu,
                            self.nu + self.band, self.band - self.nu])
        res = optimize.minimize(
            lambda q: k * np.sum((q - 1.0 / k) ** 2),
            np.outer(self.mu, self.nu).reshape(-1),
            jac=lambda q: 2.0 * k * (q - 1.0 / k),
            method="SLSQP",
            bounds=[(-self.band, 1.0 + self.band)] * k,
            constraints=[
                {"type": "eq", "fun": lambda q: q.sum() - 1.0, "jac": lambda q: np.ones(k)},
                {"type": "ineq", "fun": lambda q: b - A @ q, "jac": lambda q: -A},
            ],
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if not res.success:
            raise RuntimeError(f"SLSQP failed: {res.message}")
        return float(res.fun)

    def solve(self, est_seed, L):
        config = self.bs.EstimatorConfig(n=20_000, L=L, seed=est_seed, threads=2,
                                         proxy=self.proxy)
        report = self.problems.solve(self.instance, config)
        return Outcome(report.value, report.estimate.stderr, report.estimate.hits)

    def proxy_divergence(self, proxy):
        k = self.mu.size * self.nu.size
        q = self.reduction.omega.scale * np.asarray(proxy.q_star, dtype=float)
        return float(k * np.sum((q - 1.0 / k) ** 2))


class MaxEntDice20(Workload):
    name = "maxent_dice20"
    traced_solves = 24
    L, small_L = 10_000, 2000
    faces = 20
    mean = 13.0

    def build(self, bs):
        from baresim import problems
        from baresim.entropy import shannon

        self.bs, self.problems = bs, problems
        omega = bs.halfspace(np.arange(1, self.faces + 1), self.mean, ">=")
        self.instance = problems.EntropyMax(shannon(), self.faces, omega)

    def _gibbs(self) -> np.ndarray:
        k = np.arange(1, self.faces + 1)

        def law(lam):
            w = np.exp(lam * (k - k.mean()))
            return w / w.sum()

        lam = optimize.brentq(lambda t: law(t) @ k - self.mean, 0.0, 10.0, xtol=1e-15)
        return law(lam)

    def truth(self):
        q = self._gibbs()
        return float(-np.sum(q * np.log(q)))

    def truth_divergence(self):
        return math.log(self.faces) - self.truth()

    def solve(self, est_seed, L):
        config = self.bs.EstimatorConfig(n=10_000, L=L, seed=est_seed, threads=1)
        report = self.problems.solve(self.instance, config)
        return Outcome(report.value, report.estimate.stderr, report.estimate.hits)

    def proxy_divergence(self, proxy):
        q = np.asarray(proxy.q_star, dtype=float)
        return float(np.sum(special.xlogy(q, q * self.faces)))


WORKLOADS = {w.name: w for w in (KLEmpiricalCLI, NeymanDeterministic, QuadraticHalfspace,
                                 Transport10x10, MaxEntDice20)}
