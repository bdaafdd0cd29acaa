"""Estimators for constrained divergence minima by rare-event simulation.

The pipeline: split the index range 1..n into K blocks matching a
reference probability vector, draw i.i.d. weights with the generator's
conjugate law, sum them blockwise into a K-vector xi, and estimate the
probability that xi hits the constraint set.  ``-(1/n) log`` of that
probability approximates the constrained minimum, up to an explicit
inversion map per target quantity.

Three modes:

* "deterministic": Omega is a subset of R^K with nonvoid interior; the
  unnormalized vector xi = (blocksums)/n is tested against Omega/M_P.
* "simplex": Omega lives in A * (probability simplex), the reference
  vector is a known probability vector; the component-normalized xi is
  tested.  The raw rate then encodes inf over m of D(m Q, P) and is mapped
  back per target.
* "empirical": like simplex but the blocks are category counts of an
  observed sample and P is its (unknown) limit; A = 1.

Importance sampling tilts each block toward a proxy of the constrained
minimizer and corrects with the per-block factor
``exp(n_k Lambda(tau_k) - tau_k * blocksum)``, accumulated in log space.

``prepare`` validates a problem before any draw and returns its frame, a
``Prepared``, which every stage below the pipelines takes; ``finalize``
reads the inversion's n, K and scale A from it.  Each pipeline prepares once.

Bits: the replication batches are grouped into passes of whole consecutive
batches, at most ``_PASS_ROWS`` rows each, and a pass draws from its own
stream, keyed by (seed, phase, b0) with b0 its first batch; a batch alone
in its pass draws the stream (seed, phase, b).  The passes are a function
of L and the batch count alone, so a change to ``_PASS_ROWS`` is a change
of the stream.  Every per-row sum over the K blocks (the row totals, the
log weights, the halfspace leaves) is added column by column.  A pass is
one buffer mapped and tested by one call, and each batch then reduces its
own rows.  A seeded result is therefore the same whatever the thread
count, the number of rows a sum is called on, or the memory layout of the
block sums, which ``_block_sums`` alone chooses.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .constraints import ConstraintSet, _dot_rows, _sum_rows, scaled
from .divergence import (
    Generator,
    PowerGamma,
    _check_int,
    check_prob_vector,
    divergence,
    min_over_m_closed,
    normalize_bs1,
)
from .entropy import EntropySpec
from .laws import WeightLaw, law_for_generator

__all__ = [
    "BlockPartition",
    "EstimatorConfig",
    "ProxySpec",
    "ProxyResult",
    "Estimate",
    "Prepared",
    "partition",
    "ingest_sample",
    "prepare",
    "naive_estimate",
    "proxy_q_star",
    "compute_taus",
    "is_estimate",
    "invert",
    "finalize",
    "solve_m_equation",
    "bounds_general",
    "estimate_min_divergence",
    "estimate_entropy_extremum",
]

INF = math.inf

_PHASE_MAIN = 0
_PHASE_PROXY = 1
_PHASE_GAUSSIAN = 2

# proxy search: candidates drawn per chunk, and the hits of finite
# divergence a stage collects before it ranks them
_PROXY_CHUNK = 256
_PROXY_COLLECT = 64
# bisection levels of the push toward the reference tested per membership call
_BISECT_LEVELS = 6
# rows of a pass: consecutive batches drawn from one stream into one buffer
# and tested at once; the passes key the streams, so this sets the bits
_PASS_ROWS = 4096
_EPS = float(np.finfo(float).eps)


def _rng(seed: int, *path: int) -> np.random.Generator:
    """The SFC64 stream keyed by ``seed`` and the spawn key ``path``; every
    random stream of the package is built here."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=path)))


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous index blocks of sizes n_k matching a reference vector."""

    n: int
    sizes: np.ndarray
    p_tilde: np.ndarray
    exact: bool = True

    @property
    def K(self) -> int:
        return int(self.sizes.size)


def partition(p_tilde, n: int) -> BlockPartition:
    """Deterministic partition: n_k = floor(n * p_k) with the last block
    absorbing the remainder.  Requires every block nonempty.  A product
    n * p_k within 1e-9 of an integer counts as that integer, the same
    tolerance that decides ``exact``."""
    p = check_prob_vector(p_tilde)
    if np.any(p == 0):
        raise ValueError("reference vector must be strictly positive")
    n_min = int(math.ceil(max(1.0 / p)))
    if n < n_min:
        raise ValueError(f"n={n} too small: need n >= {n_min} for nonempty blocks")
    counts = n * p
    nearest = np.round(counts)
    integral = np.abs(counts - nearest) < 1e-9
    sizes = np.floor(np.where(integral, nearest, counts)).astype(int)
    sizes[-1] = n - int(sizes[:-1].sum())
    if np.any(sizes < 1):
        raise ValueError("empty block; increase n")
    exact = bool(np.all(integral))
    return BlockPartition(n=n, sizes=sizes, p_tilde=p, exact=exact)


def ingest_sample(observations: Sequence, categories: Optional[Sequence] = None) -> BlockPartition:
    """Empirical partition from category-valued observations: block sizes
    are the category counts, the reference vector the empirical
    frequencies.  Batch and stream orders give the same partition.  Labels
    must be hashable; they are counted in one pass."""
    tally = Counter(observations)
    if not tally:
        raise ValueError("no observations")
    if categories is None:
        categories = sorted(tally)
    counts = np.array([tally.get(c, 0) for c in categories], dtype=int)
    if np.any(counts == 0):
        raise ValueError("every category must occur at least once")
    n = int(counts.sum())
    if n != tally.total():
        raise ValueError("observations contain labels outside the category list")
    return BlockPartition(n=n, sizes=counts, p_tilde=counts / n, exact=True)


@dataclass(frozen=True)
class ProxySpec:
    """How to find the tilt target Q*.

    method "given": use ``q_star`` (original/user coordinates), which this
    method alone takes and needs.
    method "search": stage 1 draws short xi-runs of length ``m_run``
    (default: the smallest run with nonempty blocks) at the reference
    frequencies; only when they give no usable point, stage 2 draws Gaussian
    candidates N(p, p / (M phi''(1))).  Each stage draws chunks of 256
    candidates until it holds 64 hits of finite divergence or has drawn
    ``budget`` candidates, rounded up to a whole chunk.  The hits are tried
    from the divergence-smallest up: each is pushed toward the reference
    vector up to the boundary, polished by a local descent, and passed over
    when it has no valid tilt (``Prepared.tilts`` refuses it).  A poor proxy
    costs the estimator variance, never unbiasedness.  The same proxy gives
    ``bounds_general`` its upper bound, D(Q*, P).  Only a set without a row
    is searched: a one-inequality leaf, in every mode, takes the proxy of its
    dual (``Prepared.dual``), so ``budget`` and ``m_run`` go unread there.
    """

    method: str = "search"
    q_star: Optional[np.ndarray] = None
    budget: int = 200_000
    m_run: Optional[int] = None

    def __post_init__(self):
        if self.method not in ("given", "search"):
            raise ValueError(f"proxy method {self.method!r} is not given or search")
        if (self.q_star is None) == (self.method == "given"):
            raise ValueError("proxy method 'given' needs q_star" if self.q_star is None
                             else "proxy method 'search' takes no q_star")
        _check_int("budget", self.budget, 1)
        if self.m_run is not None:
            _check_int("m_run", self.m_run, 1)


@dataclass(frozen=True)
class EstimatorConfig:
    n: int
    L: int = 10_000
    seed: int = 0
    proxy: ProxySpec = field(default_factory=ProxySpec)
    batches: int = 32
    threads: int = 1

    def __post_init__(self):
        # at least 10 batches for the batch-means stderr
        for name, least in (("n", 1), ("L", 1), ("seed", 0), ("batches", 10), ("threads", 1)):
            _check_int(name, getattr(self, name), least)


@dataclass
class Estimate:
    """Hitting-probability estimate and the inverted optimum value."""

    log_pi_hat: float
    value: float
    hits: int
    stderr: float
    stderr_log_pi: float
    n: int
    L: int
    seed: int
    hit_rate: float
    batch_log_means: np.ndarray
    warnings: list = field(default_factory=list)
    #: what ``finalize``'s Bahadur-Rao and block-rounding terms, both added
    #: to log pi_hat before the one inversion, move ``value`` by (value
    #: units), or None where neither applies; ``log_pi_hat`` stays uncorrected
    bias_correction: Optional[float] = None

    @property
    def pi_hat(self) -> float:
        return math.exp(self.log_pi_hat) if math.isfinite(self.log_pi_hat) else 0.0


# ---------------------------------------------------------------------------
# core accumulation


def _log_sum_exp(v: np.ndarray) -> float:
    """log(sum(exp(v))) of a nonempty 1-d array with a finite maximum.

    Shifted by the maximum, whose copies are counted apart and the rest
    added through log1p, the arithmetic of ``scipy.special.logsumexp``
    without its per-call dispatch cost."""
    top = v.max()
    at_top = v == top
    count = np.count_nonzero(at_top)
    rest = np.exp(v - top)
    rest[at_top] = 0.0
    return float(np.log1p(rest.sum() / count) + np.log(count) + top)


def _phi_rows(gen: Generator, Q: np.ndarray, P: np.ndarray):
    """phi(Q / P) for every row of Q by one ``phi`` call on the flattened
    ratios, and which rows stay inside dom phi (no value +inf)."""
    vals = np.asarray(gen.phi((Q / P).ravel()), dtype=float).reshape(Q.shape)
    return vals, ~np.isinf(vals).any(axis=1)


def _row_divergences(gen: Generator, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``_divergence_positive`` of every row of Q: +inf where a ratio leaves
    dom phi, else the row summed as one ``np.dot``, so that each value
    equals the one-row result bit for bit."""
    vals, inside = _phi_rows(gen, Q, P)
    out = np.full(len(Q), INF)
    for i in np.flatnonzero(inside):
        out[i] = np.dot(P, vals[i])
    return out


def _block_sums(law: WeightLaw, sizes, taus: np.ndarray, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """(size, K) draws of the block sums: block k sums ``sizes[k]`` i.i.d.
    weights tilted by ``taus[k]``, all ``size`` rows of column k in one
    ``sample_tilted_block`` call on ``rng``; a zero tilt draws the weights
    untilted (``WeightLaw.sample_block_sum``).  ``_run_batches`` calls it
    once per pass, so a pass's rows follow one another in each block's draw.

    The array is column-major: each law's draw fills contiguous memory,
    and the row reductions after it read contiguous columns.  The layout is
    decided here alone; every consumer sums a row column by column
    (``constraints._dot_rows`` and ``_sum_rows``), so its bits depend
    neither on the layout nor on the number of rows."""
    sums = np.empty((len(sizes), size)).T
    for k, (tau, nk) in enumerate(zip(taus, sizes)):
        sums[:, k] = law.sample_tilted_block(float(tau), int(nk), rng, size)
    return sums


@dataclass(frozen=True)
class Dual:
    """The I-projection dual of a one-inequality set {<a, s> >= rhs} of the
    block sums per unit n, s = S / n (<= turned around), at the frequencies
    drawn, p = sizes / n: lam >= 0 solves sum_k p_k a_k Lambda'(lam a_k) =
    rhs, or is 0 when p is in the set.  The row comes from ``Prepared.tested``,
    already in reduced coordinates.  The tilts are tau = lam a, q_star is
    s* = p Lambda'(tau) in reduced coordinates, sigma2 = sum_k p_k a_k^2
    Lambda''(tau_k) is the variance of <a, s> per unit n under the tilts, and
    slack = <a, s*> - rhs is how far p lies inside the set when lam = 0."""

    lam: float
    taus: np.ndarray
    q_star: np.ndarray
    sigma2: float
    slack: float


def _solve_dual(law: WeightLaw, p: np.ndarray, a: np.ndarray, rhs: float):
    """The root lam >= 0 of g(lam) = sum_k p_k a_k Lambda'(lam a_k) - rhs,
    which increases in lam (0 when g(0) >= 0), with Lambda'(lam a) and
    Lambda''(lam a); ``ValueError`` when g stays below 0 on the whole
    domain: the set lies beyond, or on the edge of, what the weights reach.

    The bracket's upper end is the first of guess * 2^j (j = 0, 1, ...),
    with guess = -g(0) / g'(0) the root of the tangent at 0, where g is not
    below 0; a finite cap lam_max of the domain holds the tries at
    lam_max (1 - 2^-(j+1)) at most.  Newton steps from that try, kept inside
    the bracket and bisecting where a step leaves it, stop where a step is
    at most 4 ulps, and the last point stepped from is the root."""
    lo, hi = law.mgf_dom()
    # every lam a_k must stay inside ]lo, hi[
    caps = [hi / ak for ak in a if ak > 0] + [lo / ak for ak in a if ak < 0]
    lam_max = min(caps, default=INF)
    pa, paa = p * a, p * a * a

    def g(lam: float):
        slope, curvature = law.log_mgf_slopes(lam * a)
        return float(pa @ slope) - rhs, float(paa @ curvature), slope, curvature

    value, deriv, *slopes = g(0.0)
    if value >= 0.0:  # p in the set, or on the boundary of a strict one
        return 0.0, *slopes
    guess = -value / deriv if deriv > 0.0 else 1.0
    below = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a bounded law's far tilts
        for j in range(40 if math.isfinite(lam_max) else 64):
            lam = min(guess * 2.0**j, lam_max * (1.0 - 2.0 ** -(j + 1)))
            value, deriv, *slopes = g(lam)
            if value >= 0.0 or not math.isfinite(value):
                break
            below = lam
    if not value >= 0.0:
        raise ValueError(f"no tilt reaches the set: sum_k p_k a_k Lambda'(lam a_k) stays "
                         f"below {rhs} for every lam in [0, {lam_max}[; the set lies "
                         "beyond, or on the edge of, what the weights reach")
    above = lam
    for _ in range(200):
        if value < 0.0:
            below = lam
        else:
            above = lam
        step = lam - value / deriv if deriv > 0.0 else math.nan
        # a step onto an end of the bracket is kept: g is exactly 0 there
        new = step if below <= step <= above else 0.5 * (below + above)
        tol = 4.0 * _EPS * new
        if abs(new - lam) <= tol or above - below <= tol:
            break
        lam = new
        value, deriv, *slopes = g(lam)
    return lam, *slopes


@dataclass(frozen=True)
class Prepared:
    """One validated problem and the frame its block sums are tested in.

    A row of block sums maps to reduced coordinates x: divided by the run
    length in deterministic mode, by its own total in the simplex modes.
    Every membership test takes x itself, against ``tested`` = {x : A x in
    Omega}, where the scale A is M_P (the total of the deterministic
    reference vector) or ``omega.scale``.  ``mass`` is M_P in deterministic
    mode and 1 otherwise; it scales the generator to M phi, and with it the
    weight law and the tilts.  Built by ``prepare``."""

    gen: Optional[Generator]
    part: BlockPartition
    law: WeightLaw
    omega: ConstraintSet
    mode: str
    mass: float = 1.0

    @property
    def scale(self) -> float:
        """A: the factor from reduced coordinates to the points of Omega."""
        return self.mass if self.mode == "deterministic" else self.omega.scale

    @cached_property
    def tested(self) -> ConstraintSet:
        """Omega in reduced coordinates, {x : A x in Omega}, built once per
        frame: a one-inequality leaf keeps its row there (``scaled``)."""
        return scaled(self.omega, np.full(self.part.K, self.scale))

    def coords_and_hits(self, sums: np.ndarray, denom: float):
        """Map block sums (rows) to reduced coordinates x and test them.

        Returns (x, member).  Deterministic mode divides by ``denom``, the
        simplex modes by each row's total, summed column by column; a row
        whose total is zero is NaN and never a member.  ``oracle.exact_pi``
        maps its enumerated sums through this method too, so that both place
        a point on the boundary alike."""
        if self.mode == "deterministic":
            divisor, ok = denom, True
        else:
            totals = _sum_rows(sums)
            divisor, ok = totals[:, None], totals != 0.0
        if np.all(ok):
            x = sums / divisor
            return x, self.tested.contains(x)
        x = np.full_like(sums, np.nan)
        x[ok] = sums[ok] / divisor[ok]
        member = np.zeros(len(sums), dtype=bool)
        if ok.any():
            member[ok] = self.tested.contains(x[ok])
        return x, member

    def rank(self, points: np.ndarray) -> np.ndarray:
        """Divergences D(A x, M p) of the rows x, used to rank candidate
        proxies (lower is better); +inf where a ratio leaves dom phi.  The
        reference vector was validated by ``prepare``, so the rows are
        scored without the checks of the public ``divergence``."""
        return _row_divergences(self.gen, self.scale * points, self.mass * self.part.p_tilde)

    def tilts(self, q_star: np.ndarray) -> np.ndarray:
        """The tilts (M phi)'(ratio) at a proxy point, or ``ValueError`` naming
        the ratios when one is not inside int(dom MGF) (``check_tau``'s rule).
        Deterministic mode targets q_star itself; the simplex modes target
        m* q_star (see ``_m_minimizer``)."""
        p = self.part.p_tilde
        if self.mode == "deterministic":
            ratios = q_star / p
        else:
            ratios = _m_minimizer(self.gen, q_star, p) * q_star / p
        taus = self.mass * np.asarray(self.gen.phi_prime(ratios), dtype=float)
        lo, hi = self.law.mgf_dom()
        if not np.all((lo < taus) & (taus < hi)):
            raise ValueError(f"tilt target ratios {ratios} give tilts {taus}, not all "
                             f"inside int(dom MGF) = ]{lo}, {hi}[")
        return taus

    @cached_property
    def dual(self) -> Optional[Dual]:
        """The dual of a one-inequality leaf (the row of ``tested``) in every
        mode, solved once per frame at the frequencies drawn, sizes / n; None
        for a set without a row.  The leaf <c, x> op rhs differs by mode only
        in its row of block sums S: on x = S / n (deterministic) it is a = c
        with its rhs, and on x = S / sum S (simplex modes) the homogeneous
        <c - rhs 1, S> op 0.  Its point s* maps to reduced coordinates as a
        row of block sums does."""
        if self.tested.row is None:
            return None
        p = self.part.sizes / self.part.n
        c, rhs, op = self.tested.row
        sign = 1.0 if op in (">=", ">") else -1.0
        a, rhs = sign * np.asarray(c), sign * rhs
        if self.mode != "deterministic":
            a, rhs = a - rhs, 0.0
        lam, slope, curvature = _solve_dual(self.law, p, a, rhs)
        point = p * slope
        q_star, _ = self.coords_and_hits(point[None, :], 1.0)
        return Dual(lam=lam, taus=lam * a, q_star=q_star[0],
                    sigma2=float(p @ (a * a * curvature)), slack=float(a @ point) - rhs)


def prepare(gen: Optional[Generator], P, omega: ConstraintSet, config: EstimatorConfig,
            mode: str, law: Optional[WeightLaw] = None) -> Prepared:
    """Validate a problem and fix its frame, before any draw.

    ``P`` is the reference vector (deterministic, simplex) or the
    ``ingest_sample`` partition of the observed sample (empirical), whose
    size ``config.n`` must equal.  The weight law defaults to the one of
    ``gen``, scaled by M_P in deterministic mode."""
    if mode not in ("deterministic", "simplex", "empirical"):
        raise ValueError(f"unknown mode {mode!r}")
    mass = 1.0
    if mode == "empirical":
        if not isinstance(P, BlockPartition):
            raise ValueError(
                "empirical mode needs an ingest_sample partition, not a reference vector")
        if P.n != config.n:
            raise ValueError(
                f"empirical mode: n={config.n} differs from the sample size {P.n}; "
                "n must be the number of observations")
        part = P
    else:
        if isinstance(P, BlockPartition):
            raise ValueError(
                f"{mode} mode needs a reference vector; an observed sample needs "
                "mode 'empirical'")
        if mode == "simplex":
            p_tilde = check_prob_vector(P)
        else:
            p_tilde, mass = normalize_bs1(P)
        if np.any(p_tilde == 0):
            raise ValueError("reference vector must be strictly positive")
        part = partition(p_tilde, config.n)
    if law is None:
        if gen is None:
            raise ValueError("need a generator or an explicit weight law")
        law = law_for_generator(gen, extra_scale=mass)
    return Prepared(gen=gen, part=part, law=law, omega=omega, mode=mode, mass=mass)


def _passes(batch_sizes: Sequence[int]) -> list:
    """Consecutive batches grouped into passes of at most ``_PASS_ROWS``
    rows, as ranges of batch indices; a larger batch is a pass alone."""
    passes, start, rows = [], 0, 0
    for b, size in enumerate(batch_sizes):
        if b > start and rows + size > _PASS_ROWS:
            passes.append(range(start, b))
            start, rows = b, 0
        rows += size
    passes.append(range(start, len(batch_sizes)))
    return passes


def _run_batches(prepared: Prepared, config: EstimatorConfig, taus: np.ndarray) -> Estimate:
    """The estimate from ``config.batches`` batches tilted by ``taus``; the
    zero tilt is the untilted run (``naive_estimate``).

    A pass (``_passes``) draws from one stream, keyed by (seed, phase, b0)
    with b0 its first batch, into one column-major buffer, one law call per
    block (``_block_sums``); it maps and tests the buffer in one call and
    takes its log weights sum_k n_k Lambda(tau_k) - <tau, S> in another,
    whose fixed part comes from one ``log_mgf`` call on the tilts, and
    each batch then reduces its own rows.  A batch alone in its pass thus
    draws the stream (seed, phase, b).  A batch without hits has log-mean
    -inf.  The passes depend only on the batch sizes, so a change to
    ``_PASS_ROWS`` changes the stream, and every per-row value is
    independent of the rows beside it, so the result is bit-identical for
    any thread count, which spreads the passes.  The "not integral"
    warning goes with a rounded partition that ``finalize`` cannot correct
    (``_block_rounding``): without a generator or without a row.
    """
    law, part = prepared.law, prepared.part
    if config.n != part.n:
        raise ValueError(f"config n={config.n} differs from the frame's n={part.n}")
    B = config.batches
    base, rem = divmod(config.L, B)
    batch_sizes = [base + (1 if b < rem else 0) for b in range(B)]
    # sum_k n_k Lambda(tau_k), the part of every log ISF that is fixed
    log_isf_offset = part.sizes @ np.asarray(law.log_mgf(taus), dtype=float)

    starts = list(accumulate(batch_sizes, initial=0))

    def one_pass(batches: range):
        # batch b fills rows starts[b] to starts[b + 1] of the run, here
        # counted from the pass's first row
        first = starts[batches.start]
        spans = [(starts[b] - first, starts[b + 1] - first) for b in batches]
        sums = _block_sums(law, part.sizes, taus, _rng(config.seed, _PHASE_MAIN, batches.start),
                           spans[-1][1])
        _, member = prepared.coords_and_hits(sums, part.n)
        # zero tilts are skipped, so the untilted run's log weights are
        # its offset, exactly 0 where Lambda(0) is
        dots = _dot_rows(sums, taus)
        results = []
        for lo, hi in spans:
            hit = member[lo:hi]
            hits = int(np.count_nonzero(hit))
            if hits == 0:
                results.append((-INF, 0))
                continue
            log_sum = _log_sum_exp(log_isf_offset - dots[lo:hi][hit])
            results.append((log_sum - math.log(hi - lo), hits))
        return results

    passes = _passes(batch_sizes)
    if config.threads > 1 and len(passes) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            per_pass = list(pool.map(one_pass, passes))
    else:
        per_pass = [one_pass(batches) for batches in passes]
    results = [r for done in per_pass for r in done]
    est = _estimate_from_batches(
        np.array([m for m, _ in results]), np.array([h for _, h in results]),
        np.array(batch_sizes), config, part.n,
    )
    if not part.exact and (prepared.gen is None or prepared.tested.row is None):
        est.warnings.append(
            "n * p_k not integral: floor-and-remainder blocks add O(1/n) bias"
        )
    return est


def _estimate_from_batches(batch_log_means, batch_hits, batch_sizes,
                           config: EstimatorConfig, n: int) -> Estimate:
    hits = int(batch_hits.sum())
    L = int(batch_sizes.sum())
    warnings = []
    if hits == 0:
        warnings.append(
            f"zero hits in {L} replications; rule-of-three bound pi <= {3.0 / L:.3e}"
        )
        return Estimate(
            log_pi_hat=-INF, value=INF, hits=0, stderr=INF, stderr_log_pi=INF,
            n=n, L=L, seed=config.seed, hit_rate=0.0,
            batch_log_means=batch_log_means, warnings=warnings,
        )
    # batches combine in index order: log pi = lse_b(m_b + log s_b) - log L
    has_hits = batch_hits > 0
    log_sums = batch_log_means[has_hits] + np.log(batch_sizes[has_hits])
    log_pi = _log_sum_exp(log_sums) - math.log(L)
    # batch-means stderr on a relative scale, safe against underflow
    finite = batch_log_means[np.isfinite(batch_log_means)]
    ref = float(np.max(batch_log_means))
    rel = np.exp(np.where(np.isfinite(batch_log_means), batch_log_means, -INF) - ref)
    rel_se = float(rel.std(ddof=1) / math.sqrt(len(rel)) / rel.mean())
    if len(finite) < len(batch_log_means):
        warnings.append("some batches had zero hits; stderr is rough")
    return Estimate(
        log_pi_hat=log_pi, value=math.nan, hits=hits, stderr=math.nan,
        stderr_log_pi=rel_se, n=n, L=L, seed=config.seed,
        hit_rate=hits / L, batch_log_means=batch_log_means, warnings=warnings,
    )


def naive_estimate(prepared: Prepared, config: EstimatorConfig) -> Estimate:
    """Plain frequency estimator of the hitting probability (poor hit rate
    for rare sets; kept as the importance-sampling baseline): the batches
    at the zero tilt, whose draws are untilted and whose log weights are
    sum_k n_k Lambda(0), 0 for a law whose Lambda(0) rounds to 0."""
    return _run_batches(prepared, config, np.zeros(prepared.part.K))


@dataclass(frozen=True)
class ProxyResult:
    q_star: np.ndarray  # normalized (simplex modes) or Omega/M coordinates
    taus: np.ndarray  # the checked tilts at q_star, ``Prepared.tilts(q_star)``
    draws_used: int = 0


def proxy_q_star(prepared: Prepared, config: EstimatorConfig) -> ProxyResult:
    """Find a tilt target in the constraint set, in reduced coordinates,
    with its tilts.  A given ``q_star`` comes first; one without valid tilts
    raises ``ValueError`` before any batch is drawn.  Else a one-inequality
    leaf, in every mode, takes the point and tilts of its dual
    (``Prepared.dual``); only a set without a row is searched."""
    spec = config.proxy
    if prepared.gen is None:
        raise ValueError("the proxy needs the generator for its tilts")
    if spec.method == "given":
        q = np.asarray(spec.q_star, dtype=float)
        if q.size != prepared.part.K:
            raise ValueError("q_star has the wrong length")
        q = q / prepared.scale
        return ProxyResult(q_star=q, taus=prepared.tilts(q))
    if prepared.dual is not None:
        return ProxyResult(q_star=prepared.dual.q_star, taus=prepared.dual.taus)
    used = hits = finite = 0
    stages = ((_PHASE_PROXY, lambda: _short_runs(prepared, spec)),
              (_PHASE_GAUSSIAN, lambda: _gaussian_candidates(prepared)))
    for phase, build in stages:
        proxy, stage_used, stage_hits, stage_finite = _search(prepared, config, build(), phase)
        used, hits, finite = used + stage_used, hits + stage_hits, finite + stage_finite
        if proxy is not None:
            return replace(proxy, draws_used=used)
    raise RuntimeError(
        f"proxy search: Prepared.tilts refused every one of its {finite} refined hits "
        "of finite divergence: their tilts lie outside int(dom MGF), or they have no "
        "m*; supply q_star" if finite else
        f"proxy search: all {hits} hits lie where D(q, p) is infinite; the constraint "
        "set may not meet the domain of D; supply q_star" if hits else
        f"proxy search exhausted its budget: no hit of the constraint set in {used} "
        "draws; the set is too rare; raise the budget, change m_run, or supply q_star")


def _refine_toward_reference(prepared: Prepared, q: np.ndarray) -> np.ndarray:
    """Bisect the segment from a feasible point toward the reference vector,
    keeping feasibility; the divergence is convex along the segment and
    decreases toward the reference, so the crossing point improves the
    proxy.

    60 bisection steps, ``_BISECT_LEVELS`` per membership call: each call
    tests the midpoints of every path through the next levels, and the
    walk down the tree then takes the path that one-step bisection takes."""
    p = prepared.part.p_tilde
    if prepared.tested.contains_point(p):
        return p.copy()
    t_feasible, t_not = 0.0, 1.0  # q + t * (p - q)
    nodes = 2**_BISECT_LEVELS - 1
    for _ in range(60 // _BISECT_LEVELS):
        # heap order: node i bisects bounds[i]; a feasible midpoint moves
        # on to child 2i+1, an infeasible one to child 2i+2
        bounds, ts = [(t_feasible, t_not)], np.empty(nodes)
        for i in range(nodes):
            lo, hi = bounds[i]
            ts[i] = t = 0.5 * (lo + hi)
            bounds += [(t, hi), (lo, t)]
        inside = prepared.tested.contains(q + ts[:, None] * (p - q))
        i = 0
        for _ in range(_BISECT_LEVELS):
            if inside[i]:
                t_feasible, i = ts[i], 2 * i + 1
            else:
                t_not, i = ts[i], 2 * i + 2
    return q + t_feasible * (p - q)


def _polish_proxy(prepared: Prepared, q: np.ndarray, rounds: int = 5) -> np.ndarray:
    """Feasibility-constrained local descent of the divergence around a
    proxy point: approximates the dominating point, which controls the
    importance-sampling variance (a rough proxy stays unbiased but noisy).
    Simplex modes move mass pairwise (sum preserved); the deterministic
    mode moves single coordinates.

    A sweep tries the moves in order and takes each one that improves.  The
    moves left in a sweep are tested from the current point at once, by one
    membership and one phi call; the first improving one is taken and the
    sweep resumes after it, the path of trying them one at a time."""
    p = prepared.part.p_tilde
    best = float(_row_divergences(prepared.gen, q[None, :], p)[0])
    if not math.isfinite(best):
        return q
    x, h = q.copy(), 0.05
    K = x.size
    eye = np.eye(K)
    pairwise = prepared.mode != "deterministic"
    # move m adds h * steps[m]: mass moved from one coordinate to another,
    # or one coordinate raised or lowered
    if pairwise:
        steps = np.array([eye[i] - eye[j] for i in range(K) for j in range(K) if i != j])
    else:
        steps = np.vstack((eye, -eye))
    for _ in range(rounds):
        improved = True
        while improved:
            improved, start = False, 0
            while start < len(steps):
                ys = x + h * steps[start:]
                rows = np.arange(len(ys))
                if pairwise:  # the coordinate giving mass may not fall below 0
                    rows = rows[~(ys[steps[start:] < 0] < 0)]
                rows = rows[prepared.tested.contains(ys[rows])]
                vals, inside = _phi_rows(prepared.gen, ys[rows], p)
                offset, start = start, len(steps)
                for r, v in zip(rows[inside], vals[inside]):
                    val = float(np.dot(p, v))
                    if val < best - 1e-14:
                        x, best, improved, start = ys[r], val, True, offset + r + 1
                        break
        h /= 2.0
    return x


def _short_runs(prepared: Prepared, spec: ProxySpec):
    """Stage 1 candidates: short untilted runs at the reference frequencies,
    the best hit rate.  In empirical mode a run at least as long as the
    sample replicates the observations, so its length is a multiple of n."""
    part = prepared.part
    m_run = spec.m_run if spec.m_run is not None else int(math.ceil(max(1.0 / part.p_tilde)))
    if prepared.mode == "empirical" and m_run >= part.n:
        sizes = part.sizes * math.ceil(m_run / part.n)
    else:
        sizes = partition(part.p_tilde, max(m_run, part.K)).sizes
    m_run = int(sizes.sum())

    def draw(rng: np.random.Generator):
        sums = _block_sums(prepared.law, sizes, np.zeros(sizes.size), rng, _PROXY_CHUNK)
        return prepared.coords_and_hits(sums, m_run)

    return draw


def _gaussian_candidates(prepared: Prepared):
    """Stage 2 candidates: N(p, p / (M phi''(1))), the Gaussian matched to the
    curvature of exp(-M D(q, p)) at the reference vector."""
    p = prepared.part.p_tilde
    sd = np.sqrt(p / (prepared.mass * prepared.gen.phi_curvature_at_one()))

    def draw(rng: np.random.Generator):
        return prepared.coords_and_hits(rng.normal(p, sd, size=(_PROXY_CHUNK, p.size)), 1.0)

    return draw


def _search(prepared: Prepared, config: EstimatorConfig, draw, phase: int):
    """One proxy search stage: chunk c is ``draw(rng)`` on the stream
    (seed, phase, c), candidates in reduced coordinates and their membership.
    Returns the proxy (draws not yet counted) or None, the draws, hits and
    finite-D hits.  A refined hit with no valid tilt, as a boundary point
    with a zero coordinate where phi' is infinite, is passed over."""
    used = hits = 0
    found = []  # (rank, hit) of every hit of finite divergence
    while used < config.proxy.budget and len(found) < _PROXY_COLLECT:
        cand, member = draw(_rng(config.seed, phase, used // _PROXY_CHUNK))
        used += _PROXY_CHUNK
        rows = np.flatnonzero(member)
        hits += rows.size
        # a hit of infinite (or NaN) divergence is never a proxy
        found += [(r, cand[i]) for r, i in zip(prepared.rank(cand[rows]), rows) if r < INF]
    # lowest divergence first, ties in draw order
    found.sort(key=lambda h: h[0])
    for _, q in found:
        refined = _polish_proxy(prepared, _refine_toward_reference(prepared, q))
        try:
            taus = prepared.tilts(refined)
        except ValueError:
            continue
        return ProxyResult(q_star=refined, taus=taus), used, hits, len(found)
    return None, used, hits, len(found)


def _m_minimizer(gen: Generator, q: np.ndarray, p: np.ndarray) -> float:
    """Minimizer of m -> D(m q, p) for a normalized q: the unnormalized
    vector must be tilted to m* q, the dominating point of the
    normalized-vector rate function.  Raises when m* cannot be found."""
    if isinstance(gen, PowerGamma):
        return float(min_over_m_closed(gen, q, p)[1])
    return solve_m_equation(gen, q, p)


def compute_taus(prepared: Prepared, proxy: ProxyResult) -> np.ndarray:
    """Per-block tilts tau_k = (M phi)'(target ratio), carried by the proxy."""
    return proxy.taus


def is_estimate(prepared: Prepared, config: EstimatorConfig,
                q_star: Optional[ProxyResult] = None) -> Estimate:
    """Importance-sampling estimator of the hitting probability, tilted
    toward ``q_star``, or toward the proxy ``proxy_q_star`` finds when it is
    None."""
    if q_star is None:
        q_star = proxy_q_star(prepared, config)
    return _run_batches(prepared, config, compute_taus(prepared, q_star))


# ---------------------------------------------------------------------------
# inversion


def _power_divergence_from_rate(gamma: float, scale: float, A: float, r: float) -> float:
    """Map r = (1/n) log pi_hat to inf D_{c phi_gamma} over A * Omega."""
    c = scale
    if gamma == 0.0:
        return -r + c * (A - 1.0 - math.log(A))
    if gamma == 1.0:
        arg = 1.0 + r / c
        if arg <= 0:
            raise ValueError("inversion argument nonpositive: n too small for this set")
        return c * (1.0 - A * (1.0 + math.log(arg / A)))
    arg = 1.0 + gamma * r / c
    if arg <= 0:
        raise ValueError("inversion argument nonpositive: n too small for this set")
    return (
        c
        / (gamma * (gamma - 1.0))
        * (A**gamma * arg ** (1.0 - gamma) + gamma * (1.0 - A) - 1.0)
    )


_ENTROPY_TARGETS = ("power_sum", "renyi_entropy", "shannon", "sm2", "entropy")
_TARGETS = ("deterministic", "divergence", "hellinger", "renyi", "modified_kl",
           "modified_rev_kl") + _ENTROPY_TARGETS


def _check_target(target, gen: Optional[Generator] = None, K: Optional[int] = None,
                  entropy_spec: Optional[EntropySpec] = None,
                  mode: Optional[str] = None) -> None:
    """Refuse a target that ``invert`` cannot map with this generator,
    dimension, entropy spec and mode; the pipelines call it before any draw.
    Deterministic mode estimates the rate itself, the minimum D over the
    set, so "deterministic" is its only target."""
    if target not in _TARGETS:
        raise ValueError(f"unknown inversion target {target!r}")
    if target == "deterministic":
        return
    if mode == "deterministic":
        raise ValueError(f"target {target!r} needs mode 'simplex' or 'empirical': "
                         "deterministic mode estimates the minimum itself, target "
                         "'deterministic'")
    if not isinstance(gen, PowerGamma):
        raise ValueError(f"target {target!r} needs a power generator")
    if target in ("modified_kl", "shannon", "sm2") and gen.gamma != 1.0:
        raise ValueError("modified KL inversion needs gamma = 1")
    if target == "modified_rev_kl" and gen.gamma != 0.0:
        raise ValueError("modified reverse KL inversion needs gamma = 0")
    if target in _ENTROPY_TARGETS and K is None:
        raise ValueError("entropy targets need the dimension K")
    kind = getattr(entropy_spec, "kind", None)
    if target == "sm2" and kind != "sm2":
        raise ValueError("sm2 inversion needs its entropy spec")
    if target == "entropy" and kind not in ("power", "log"):
        raise ValueError("the entropy target needs a power or log entropy spec; "
                         "shannon and sm2 specs use their named targets")


def invert(target, log_pi_hat: float, n: int, gen: Optional[Generator] = None,
           A: float = 1.0, K: Optional[int] = None,
           entropy_spec: Optional[EntropySpec] = None) -> float:
    """Map the estimated log hitting probability to the target quantity.

    Targets: "deterministic" (also the inf-over-m value for general
    generators), "divergence", "hellinger", "renyi", "modified_kl",
    "modified_rev_kl", "power_sum", "renyi_entropy", "shannon", "sm2",
    "entropy" (with ``entropy_spec``); ``_check_target`` refuses a target
    that does not fit the generator.
    """
    _check_target(target, gen, K, entropy_spec)
    if log_pi_hat == -INF:
        return INF
    r = log_pi_hat / n
    if target == "deterministic":
        return -r
    g, c = gen.gamma, gen.scale
    if target == "divergence":
        return _power_divergence_from_rate(g, c, A, r)

    def hellinger() -> float:
        d = _power_divergence_from_rate(g, c, A, r)
        return 1.0 + g * (A - 1.0) + g * (g - 1.0) * d / c

    def mod_kl() -> float:
        return _power_divergence_from_rate(1.0, c, A, r) / c + A - 1.0

    if target == "hellinger":
        return hellinger()
    if target == "renyi":
        return math.log(hellinger()) / (g * (g - 1.0))
    if target == "modified_kl":
        return mod_kl()
    if target == "modified_rev_kl":
        return _power_divergence_from_rate(0.0, c, A, r) / c + 1.0 - A
    if target == "shannon":
        return A * math.log(K) - mod_kl()
    if target == "sm2":
        y = mod_kl() - A * math.log(K)  # optimal sum q log q
        return (math.exp((entropy_spec.s - 1.0) * y) - 1.0) / (1.0 - entropy_spec.s)
    psum = K ** (1.0 - g) * hellinger()
    if target == "power_sum":
        return psum
    if target == "renyi_entropy":
        return math.log(psum) / (1.0 - g)
    if entropy_spec.kind == "power":
        return entropy_spec.c1 * (psum**entropy_spec.c2 - entropy_spec.c3)
    return entropy_spec.c4 / entropy_spec.fprime0 * math.log(psum)


def _delta_stderr(target, log_pi: float, stderr_log_pi: float, **frame) -> float:
    """Propagate the log-scale stderr through the inversion numerically."""
    if not math.isfinite(log_pi) or not math.isfinite(stderr_log_pi):
        return INF
    h = max(stderr_log_pi, 1e-9)
    try:
        up = invert(target, log_pi + h, **frame)
        dn = invert(target, log_pi - h, **frame)
    except ValueError:
        return INF
    return abs(up - dn) / 2.0


def _gaussian_tail_term(u: float) -> float:
    """By how much log pi falls short of -n I, to first order, at the
    signed standardized distance u of the set from p.  For u > 0 it is the
    uniform Bahadur-Rao term -log(e^(u^2/2) Phibar(u)): exact for Gaussian
    sums, log(u sqrt(2 pi)) + O(1/u^2) for large u, and log 2 at u = 0.
    For u <= 0, where p is in the set and I = 0, it is -log Phibar(u), the
    central limit theorem's pi."""
    if u > 30.0:  # erfc underflows past u = 37.5: the asymptotic series instead
        v = 1.0 / (u * u)
        return (math.log(u * math.sqrt(2.0 * math.pi))
                - math.log1p(v * (-1.0 + v * (3.0 + v * (-15.0 + 105.0 * v)))))
    term = -math.log(0.5 * math.erfc(u / math.sqrt(2.0)))
    return term - 0.5 * u * u if u > 0.0 else term


def _bahadur_rao(prepared: Prepared) -> Optional[float]:
    """The non-lattice Bahadur-Rao term of a one-inequality leaf, in every
    mode (``Prepared.dual``), by which log pi falls short of -n I:
    ``_gaussian_tail_term`` at u = lam sqrt(n sigma2), or, when p is in the
    set (lam = 0), at u = -slack sqrt(n / sigma2).  None where the law is
    discrete (a lattice law has another term), the row has no spread, or
    the set has no row."""
    dual = prepared.dual
    if dual is None or prepared.law.is_discrete or not dual.sigma2 > 0.0:
        return None
    n = prepared.part.n
    u = (dual.lam * math.sqrt(n * dual.sigma2) if dual.lam > 0.0
         else -dual.slack * math.sqrt(n / dual.sigma2))
    return _gaussian_tail_term(u)


def _block_rounding(prepared: Prepared) -> Optional[float]:
    """log pi at p less log pi at the blocks drawn, p~ = sizes / n, to first
    order (envelope theorem: the set does not depend on p), in every mode:
    -n M sum_k g_k (p_k - p~_k) with g_k = phi(r_k) - r_k phi'(r_k) at the
    dual's ratios r = Lambda'(tau), the dominating point over p~.  None for
    exact blocks, without a generator, or for a set without a row."""
    part, gen = prepared.part, prepared.gen
    if part.exact or gen is None or prepared.dual is None:
        return None
    r, _ = prepared.law.log_mgf_slopes(prepared.dual.taus)
    g = np.asarray(gen.phi(r), dtype=float) - r * np.asarray(gen.phi_prime(r), dtype=float)
    return -part.n * prepared.mass * float(g @ (part.p_tilde - part.sizes / part.n))


def finalize(est: Estimate, target, prepared: Prepared,
             entropy_spec: Optional[EntropySpec] = None) -> Estimate:
    """Fill in the inverted value and its delta-method stderr.  The
    deterministic rate is the value itself, that mode's only target
    (``_check_target``); the simplex modes invert at the frame's scale A.
    The Bahadur-Rao term (``_bahadur_rao``), which removes the
    O(log n / n) finite-n bias, and the block-rounding term
    (``_block_rounding``), which moves the estimate from the frequencies
    drawn to p, are added to log pi_hat where they apply, and the sum is
    inverted once.  ``bias_correction`` reports what the two terms add, in
    value units."""
    _check_target(target, prepared.gen, prepared.part.K, entropy_spec, prepared.mode)
    if est.hits == 0:
        est.value = INF
        return est
    frame = dict(n=prepared.part.n, gen=prepared.gen, K=prepared.part.K, A=prepared.scale,
                 entropy_spec=entropy_spec)
    terms = [t for t in (_bahadur_rao(prepared), _block_rounding(prepared)) if t is not None]
    log_pi = est.log_pi_hat + sum(terms)
    est.value = invert(target, log_pi, **frame)
    est.stderr = _delta_stderr(target, log_pi, est.stderr_log_pi, **frame)
    if terms:
        est.bias_correction = est.value - invert(target, est.log_pi_hat, **frame)
    return est


# ---------------------------------------------------------------------------
# bounds for generators without a closed-form inversion


def solve_m_equation(gen: Generator, Q, P, tol: float = 1e-10) -> float:
    """Unique root of psi(m) = sum_{q_k > 0} q_k phi'(m q_k / p_k) = 0 by
    bisection on the part of [min p_k/q_k, max p_k/q_k], where psi goes
    from <= 0 to >= 0, that keeps every m q_k / p_k in ]t_sc-, t_sc+[."""
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if np.any(Q < 0) or not np.any(Q > 0) or np.any(P <= 0):
        raise ValueError("m-equation needs a nonnegative nonzero Q and a strictly positive P")
    Q, P = Q[Q > 0], P[Q > 0]

    def psi(m: float) -> float:
        vals = np.asarray(gen.phi_prime(m * Q / P), dtype=float)
        if np.any(~np.isfinite(vals)):
            raise ValueError("ratio left int(dom phi) during bisection")
        return float(Q @ vals)

    lo = float(np.min(P / Q))
    hi = float(np.max(P / Q))
    if lo == hi:
        return lo
    # every m q_k / p_k lies in ]t_sc-, t_sc+[ iff t_sc- max(p/q) < m < t_sc+ min(p/q)
    lo, hi = max(lo, gen.t_sc_minus * hi), min(hi, gen.t_sc_plus * lo)
    if not lo < hi:
        raise ValueError("no m keeps every ratio m q_k / p_k inside ]t_sc-, t_sc+[")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if psi(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def bounds_general(gen: Generator, P, omega: ConstraintSet,
                   config: EstimatorConfig, mode: str = "simplex",
                   law: Optional[WeightLaw] = None):
    """Sharp lower/upper bounds for the constrained minimum of a general
    (non power type) divergence over a simplex constraint set, in the
    simplex or empirical mode.

    Lower bound: the estimated inf over (Q, m) of D(m Q, P).  Upper bound:
    D(Q*, P) at the importance-sampling proxy Q*, which is also returned;
    the one proxy sets both the tilts and the upper bound.  Only a given
    ``q_star`` is tested: one outside the set raises ``ValueError``.  A
    searched proxy is feasible by construction; a row's dual point lies on
    its boundary, up to a rounding, and D is continuous, so D there is
    still the infimum over the set.  For power-type generators the exact
    inversion collapses both bounds.
    """
    if mode == "deterministic":
        raise ValueError(
            "bounds_general runs on simplex sets: use mode 'simplex' or 'empirical'")
    if isinstance(gen, PowerGamma):
        est = estimate_min_divergence(gen, P, omega, config, mode=mode,
                                      target="divergence", law=law)
        return est.value, est.value, None, est
    prepared = prepare(gen, P, omega, config, mode, law)
    if omega.scale != 1.0:
        raise ValueError("general-divergence bounds run on probability-simplex sets")
    proxy = proxy_q_star(prepared, config)
    if config.proxy.method == "given" and not prepared.tested.contains_point(proxy.q_star):
        # a tilt target outside Omega costs the estimate only variance, but
        # D there is no upper bound on the minimum over Omega
        raise ValueError("the 'given' proxy q_star is outside the constraint set; the "
                         "upper bound needs a feasible point")
    est = finalize(is_estimate(prepared, config, q_star=proxy), "deterministic", prepared)
    lower = est.value
    upper = divergence(gen, proxy.q_star, prepared.part.p_tilde)
    if lower > upper:
        est.warnings.append(
            f"lower bound {lower:.6g} exceeds upper bound {upper:.6g}: the lower "
            "bound -(1/n) log pi_hat carries the O(log n / n) finite-n bias; raise n"
        )
    return lower, upper, proxy.q_star, est


# ---------------------------------------------------------------------------
# high-level pipelines


def estimate_min_divergence(gen: Generator, P, omega: ConstraintSet,
                            config: EstimatorConfig, mode: str = "deterministic",
                            target: Optional[str] = None,
                            law: Optional[WeightLaw] = None) -> Estimate:
    """Full pipeline: partition, proxy search, importance sampling,
    inversion.  ``P`` is as for ``prepare``."""
    prepared = prepare(gen, P, omega, config, mode, law)
    if target is None:
        target = "deterministic" if mode == "deterministic" else "divergence"
    _check_target(target, gen, prepared.part.K, mode=mode)
    return finalize(is_estimate(prepared, config), target, prepared)


def estimate_entropy_extremum(spec: EntropySpec, K: int, omega: ConstraintSet,
                              config: EstimatorConfig) -> Estimate:
    """Constrained entropy extremum over Omega in A * simplex, via the
    uniform reference vector."""
    _check_int("K", K, 1)
    if spec.kind in ("shannon", "sm2"):
        gen, target = PowerGamma(1.0, 1.0), spec.kind
    else:
        gen, target = PowerGamma(spec.gamma, 1.0), "entropy"
    prepared = prepare(gen, np.full(K, 1.0 / K), omega, config, "simplex")
    return finalize(is_estimate(prepared, config), target, prepared, entropy_spec=spec)
