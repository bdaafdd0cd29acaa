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
of L alone, so a change to ``_BATCHES`` or ``_PASS_ROWS`` is a change of
the stream.  A pass draws one column per group of blocks that share a
row coefficient and a tilt (``_columns``): a row with repeated
coefficients, as a coordinate face or a sum halfspace, draws fewer columns
than blocks, which changed its stream when the pooling came in, while a
set without a row or a row whose coefficients all differ draws one column
per block and keeps its bits.  Every per-row sum over the columns (the row
totals, the log weights, the halfspace leaves) is added column by column.
A pass is one buffer mapped and tested by one call, and its batches
reduce their hits in one segmented call (``_pass_log_means``) in which
each batch keeps its own pairwise sum, so a batch's log-mean has the bits
``_log_sum_exp`` gives its hits alone.  A seeded result is therefore the
same whatever the thread count, the number of rows a sum is called on, or
the memory layout of the block sums, which ``_block_sums`` alone chooses.
The batches draw in phase 0.  The tilt search of a set without a row
(``_ladder``) draws before them, on one thread, level j from the stream
(seed, 1, j); the ray that scales its tilts (``_ray``) draws nothing.  A
searched proxy point, like a dual's, is the tilted mean of its own tilts.

What a solve builds before its first draw from values alone is memoised
once per process in one bounded LRU cache (``_memo``, ``_MEMO_SIZE``
entries): the partition of a reference vector, keyed by the vector and n;
a one-row set's reduced leaf, by its row, scale and K; that row's dual and
point, by the law, the block sizes, n, whether the mode is deterministic
and the row; and its pooled columns and their halfspace, by the row, the
block sizes and the tilts.  Every array the memo hands out is read-only,
and an entry is exactly what a cold build returns, so a warm solve, at any
seed or L, has the bits of a cold one.  A weight law is part of a key, so
``prepare`` refuses one that cannot be hashed.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .constraints import ConstraintSet, _dot_rows, _scaled_row, _sum_rows, halfspace, scaled
from .divergence import (
    Generator,
    PowerGamma,
    _check_int,
    check_prob_vector,
    divergence,
    min_over_m_closed,
    normalize_bs1,
)
from .entropy import EntropySpec, _from_moment, _order
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

# rows of block sums each level of the proxy search draws
_LADDER_ROWS = 2048
# tilts along the searched ray tested per membership call
_RAY_POINTS = 64
# batches of a run, whose log-means give the batch-means stderr
_BATCHES = 32
# rows of a pass: consecutive batches drawn from one stream into one buffer
# and tested at once; the passes key the streams, so this sets the bits
_PASS_ROWS = 4096
_EPS = float(np.finfo(float).eps)
# entries of the draw-free memo (``_memo``), least recently used dropped first
_MEMO_SIZE = 256


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


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _memo(build, *key):
    """``build(*key)``, built once per process for each builder and value of
    ``key``, and handed out again to every later solve of that problem: the
    parts of a frame that come before its first draw and depend on values
    alone (``_split``, ``constraints._scaled_row``, ``_dual_of``, ``_pool``).
    Every array they hand out is read-only, so that no caller can change
    what another solve reads.  ``_MEMO_SIZE`` entries at most, the least recently
    used dropped first."""
    return build(*key)


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def partition(p_tilde, n: int) -> BlockPartition:
    """Deterministic partition: n_k = floor(n * p_k) with the last block
    absorbing the remainder.  Requires every block nonempty.  A product
    n * p_k within 1e-9 of an integer counts as that integer, the same
    tolerance that decides ``exact``.  Memoised (``_memo``): its arrays are
    read-only."""
    return _memo(_split, tuple(check_prob_vector(p_tilde).tolist()), n)


def _split(p: tuple, n: int) -> BlockPartition:
    """``partition`` of the checked probability vector ``p``."""
    p = np.array(p)
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
    _read_only(sizes, p)
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
    twice = [c for c, k in Counter(categories).items() if k > 1]
    if twice:
        raise ValueError(f"the category list names {twice[0]!r} more than once")
    counts = np.array([tally.get(c, 0) for c in categories], dtype=int)
    if np.any(counts == 0):
        raise ValueError("every category must occur at least once")
    n = int(counts.sum())
    if n != tally.total():
        raise ValueError("observations contain labels outside the category list")
    return BlockPartition(n=n, sizes=counts, p_tilde=counts / n, exact=True)


@dataclass(frozen=True)
class ProxySpec:
    """How to find the tilts and the proxy point Q*.

    method "given": use ``q_star`` (original/user coordinates), which this
    method alone takes and needs; its tilts are (M phi)' at its ratios
    (``Prepared.tilts``).
    method "search": a one-inequality leaf, in every mode, takes the tilts
    and point of its dual (``Prepared.dual``); a set without a row is
    searched by a cross-entropy ladder of doubling run lengths in the tilt
    family (``_ladder``), whose last tilts give a direction, and a
    draw-free ray along it (``_ray``) their length.  Either way the proxy
    point is the tilted mean of its own tilts, in the set.  A poor tilt
    costs the estimator variance, never unbiasedness.  The proxy point gives
    ``bounds_general`` its upper bound, D(Q*, P).
    """

    method: str = "search"
    q_star: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.method not in ("given", "search"):
            raise ValueError(f"proxy method {self.method!r} is not given or search")
        if (self.q_star is None) == (self.method == "given"):
            raise ValueError("proxy method 'given' needs q_star" if self.q_star is None
                             else "proxy method 'search' takes no q_star")


@dataclass(frozen=True)
class EstimatorConfig:
    """The settings of a run: the run length n, the L replications, split
    into ``_BATCHES`` batches, the seed of every stream, how the tilts are
    found, and the threads that spread the passes.  The passes and streams
    follow from L and the seed alone; the threads change no bit."""

    n: int
    L: int = 10_000
    seed: int = 0
    proxy: ProxySpec = field(default_factory=ProxySpec)
    threads: int = 1

    def __post_init__(self):
        for name, least in (("n", 1), ("L", 1), ("seed", 0), ("threads", 1)):
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
    """log(sum(exp(v))) of a nonempty 1-d array with a finite maximum: the
    reduction of a batch alone in its pass, of the batch log-means, and the
    bit reference of ``_pass_log_means``.

    Shifted by the maximum, whose copies are counted apart and the rest
    added through log1p, the arithmetic of ``scipy.special.logsumexp``
    without its per-call dispatch cost."""
    top = v.max()
    at_top = v == top
    count = np.count_nonzero(at_top)
    rest = np.exp(v - top)
    rest[at_top] = 0.0
    return float(np.log1p(rest.sum() / count) + np.log(count) + top)


def _pass_log_means(log_w: np.ndarray, member: np.ndarray, sizes: Sequence[int],
                    log_sizes: np.ndarray):
    """The log-means and hit counts, as arrays, of the consecutive batches
    of ``sizes`` rows that share a pass: ``member`` marks the pass's hits,
    ``log_w`` holds their log weights in row order, and ``log_sizes`` the
    ``math.log`` of each batch's rows (any value for a batch of none).  A
    batch without hits has log-mean -inf.

    A lone batch goes through ``_log_sum_exp``, cheaper than the segmented
    calls on one batch.  Several reduce in one segmented pass with
    ``_log_sum_exp``'s arithmetic: ``reduceat`` counts each batch's hits,
    its maximum and the ties at it, one ``exp`` shifts every hit, and each
    batch's shifted weights are added by their own ``np.add.reduce``, the
    pairwise sum ``ndarray.sum`` calls, over exactly the elements
    ``_log_sum_exp`` adds (``np.add.reduceat`` adds in sequence, which moves
    last bits), so every batch keeps its bits."""
    if len(sizes) == 1:
        hits = len(log_w)
        log_mean = _log_sum_exp(log_w) - log_sizes[0] if hits else -INF
        return np.array([log_mean]), np.array([hits])
    rows = np.array(sizes)
    # a batch of no rows (L below the batch count) gets no index: reduceat
    # reads one row at an index equal to the next and refuses one at the end
    full = rows > 0
    hits = np.zeros(len(rows), dtype=np.intp)
    hits[full] = np.add.reduceat(member, (np.cumsum(rows) - rows)[full], dtype=np.intp)
    log_means = np.full(len(rows), -INF)
    has = hits > 0
    if not has.any():
        return log_means, hits
    n = hits[has]
    ends = np.cumsum(n)
    starts = ends - n
    top = np.maximum.reduceat(log_w, starts)
    tops = np.repeat(top, n)
    at_top = log_w == tops
    count = np.add.reduceat(at_top, starts, dtype=np.intp)
    rest = np.exp(log_w - tops)
    rest[at_top] = 0.0
    add = np.add.reduce
    total = np.array([add(rest[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())])
    log_means[has] = np.log1p(total / count) + np.log(count) + top - log_sizes[has]
    return log_means, hits


def _row_divergences(gen: Generator, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``_divergence_positive`` of every row of Q, from one ``phi`` call on
    the flattened ratios: +inf where a ratio leaves dom phi, else the row
    summed column by column (``_dot_rows``), so that each value has the
    bits of the one-row call."""
    vals = np.asarray(gen.phi((Q / P).ravel()), dtype=float).reshape(Q.shape)
    inside = ~np.isinf(vals).any(axis=1)
    out = np.full(len(Q), INF)
    out[inside] = _dot_rows(vals[inside], P)
    return out


def _block_sums(law: WeightLaw, sizes, taus: np.ndarray, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """(size, C) draws of block sums: column k sums ``sizes[k]`` i.i.d.
    weights tilted by ``taus[k]``, all ``size`` rows of column k in one
    ``sample_tilted_block`` call on ``rng``, the one sampler every law
    has; a zero tilt draws the weights untilted.  ``_run_batches`` calls it
    once per pass with one column per group of blocks (``_columns``), a
    group's pooled size and its one tilt, so a pass's rows follow one
    another in each group's draw; with one group per block, C = K and
    column k is block k.

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
        frame: a one-inequality leaf keeps its row there (``scaled``), built
        from the row alone and memoised by it (``_memo``), unless the row
        does not fit the K blocks."""
        omega = self.omega
        if omega.row is not None:
            leaf = _memo(_scaled_row, omega.row, (self.scale,) * self.part.K, omega.scale,
                         omega.description)
            if leaf is not None:
                return leaf
        return scaled(omega, np.full(self.part.K, self.scale))

    def coords_and_hits(self, sums: np.ndarray, denom: float,
                        tested: Optional[ConstraintSet] = None):
        """Map block sums (rows) to reduced coordinates x and test them
        against ``tested``, by default the frame's set over the K blocks.

        Returns (x, member).  Deterministic mode divides by ``denom``, the
        simplex modes by each row's total, summed column by column; a row
        whose total is zero is NaN and never a member.  ``oracle.exact_pi``
        maps its enumerated sums through this method too, so that both place
        a point on the boundary alike."""
        if tested is None:
            tested = self.tested
        if self.mode == "deterministic":
            x = sums / denom
            return x, tested.contains(x)
        totals = _sum_rows(sums)
        divisor, ok = totals[:, None], totals != 0.0
        if np.all(ok):
            x = sums / divisor
            return x, tested.contains(x)
        x = np.full_like(sums, np.nan)
        x[ok] = sums[ok] / divisor[ok]
        member = np.zeros(len(sums), dtype=bool)
        if ok.any():
            member[ok] = tested.contains(x[ok])
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
        mode (``_dual_of``), memoised by the law, the block sizes, n, whether
        the mode is deterministic and the row (``_memo``); None for a set
        without a row."""
        row = self.tested.row
        if row is None:
            return None
        return _memo(_dual_of, self.law, tuple(self.part.sizes.tolist()), self.part.n,
                     self.mode == "deterministic", row)


def _dual_of(law: WeightLaw, sizes: tuple, n: int, deterministic: bool, row: tuple) -> Dual:
    """The dual of the reduced leaf ``row``, solved at the frequencies drawn,
    sizes / n.  The leaf <c, x> op rhs differs by mode only in its row of
    block sums S: on x = S / n (deterministic) it is a = c with its rhs, and
    on x = S / sum S (simplex modes) the homogeneous <c - rhs 1, S> op 0.
    Its point s* maps to reduced coordinates as a row of block sums does
    (``Prepared.coords_and_hits``), untested: itself in deterministic mode,
    divided by its total, summed column by column, in the simplex modes."""
    p = np.array(sizes) / n
    c, rhs, op = row
    sign = 1.0 if op in (">=", ">") else -1.0
    a, rhs = sign * np.asarray(c), sign * rhs
    if not deterministic:
        a, rhs = a - rhs, 0.0
    lam, slope, curvature = _solve_dual(law, p, a, rhs)
    point = p * slope
    if deterministic:
        q_star = point
    else:
        total = _sum_rows(point[None, :])[0]
        q_star = point / total if total != 0.0 else np.full_like(point, np.nan)
    taus = lam * a
    _read_only(taus, q_star)
    return Dual(lam=lam, taus=taus, q_star=q_star,
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
    try:
        hash(law)
    except TypeError as exc:
        raise ValueError(f"weight law {law!r} cannot be hashed: a WeightLaw subclass must be "
                         "a frozen dataclass, whose fields are its value") from exc
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


def _columns(prepared: Prepared, taus: np.ndarray):
    """The columns a pass draws for the tilts ``taus``: block k joins the
    group keyed by its ``tested.row`` coefficient and its tilt, (c_k,
    tau_k), groups in first-block order; a set without a row draws one
    column per block.  A hit and its weight depend on the blocks of a row
    only through <c, S> and sum S, so the blocks of a group are exchangeable
    and their sums add, in law, to one block sum of the pooled size.

    Returns the pooled sizes, one tilt per group, and the set the columns
    are tested against: ``prepared.tested`` itself when every group is one
    block, else the row's halfspace over the groups' coefficients.  A row's
    groups are memoised by the row, the block sizes and the tilts
    (``_pool``)."""
    row, sizes = prepared.tested.row, prepared.part.sizes
    if row is None:
        return sizes, taus, prepared.tested
    sizes, taus, tested = _memo(_pool, row, tuple(sizes.tolist()), tuple(taus.tolist()))
    return sizes, taus, prepared.tested if tested is None else tested


def _pool(row: tuple, sizes: tuple, taus: tuple):
    """``_columns`` of the row ``row``, with None for the set where every
    group is one block."""
    groups = {}
    for k, key in enumerate(zip(row[0], taus)):
        groups.setdefault(key, []).append(k)
    firsts = [g[0] for g in groups.values()]
    pooled = np.array([sum(sizes[k] for k in g) for g in groups.values()])
    group_taus = np.array(taus)[firsts]
    _read_only(pooled, group_taus)
    if len(groups) == len(sizes):
        return pooled, group_taus, None
    c, rhs, op = row
    return pooled, group_taus, halfspace([c[k] for k in firsts], rhs, op)


def _run_batches(prepared: Prepared, config: EstimatorConfig, taus: np.ndarray) -> Estimate:
    """The estimate from ``_BATCHES`` batches tilted by ``taus``; the zero
    tilt is the untilted run (``naive_estimate``).

    A pass (``_passes``) draws from one stream, keyed by (seed, phase, b0)
    with b0 its first batch, into one column-major buffer, one law call per
    group of blocks of equal row coefficient and tilt (``_columns``, found
    once per run): a group's column is one block sum of its pooled size N_j
    at its one tilt tau_j (``_block_sums``).  It tests the buffer in one
    call against the row over the groups' coefficients and takes its log
    weights sum_j N_j Lambda(tau_j) - <tau, S> in another, whose fixed part
    comes from one ``log_mgf`` call on the group tilts; its batches then
    reduce their hits in one call (``_pass_log_means``), each by its own
    pairwise sum.  A set without a row, or a row whose coefficients all
    differ, has one group per block, so its pass draws every block and
    keeps the bits it had before the pooling, which changed the stream of
    rows with repeated coefficients.  A batch alone in its pass draws the
    stream (seed, phase, b).  A batch without hits has log-mean -inf.

    The batch sizes, and with them the passes, depend only on L, so a
    change to ``_BATCHES`` or ``_PASS_ROWS`` changes the stream.  Every
    per-row value is independent of the rows beside it, so the result is
    bit-identical for any thread count, which spreads the passes.  The "not
    integral" warning goes with a rounded partition that ``finalize`` cannot
    correct (``_block_rounding``): without a generator or without a row.
    """
    law, part = prepared.law, prepared.part
    if config.n != part.n:
        raise ValueError(f"config n={config.n} differs from the frame's n={part.n}")
    base, rem = divmod(config.L, _BATCHES)
    batch_sizes = [base + (1 if b < rem else 0) for b in range(_BATCHES)]
    # math.log, as _log_sum_exp's callers take it: np.log rounds some integers apart
    log_sizes = np.array([math.log(size) if size else -INF for size in batch_sizes])
    sizes, taus, tested = _columns(prepared, taus)
    # sum_j N_j Lambda(tau_j), the part of every log ISF that is fixed
    log_isf_offset = sizes @ np.asarray(law.log_mgf(taus), dtype=float)

    def one_pass(batches: range):
        pass_sizes = batch_sizes[batches.start:batches.stop]
        sums = _block_sums(law, sizes, taus, _rng(config.seed, _PHASE_MAIN, batches.start),
                           sum(pass_sizes))
        _, member = prepared.coords_and_hits(sums, part.n, tested)
        # zero tilts are skipped, so the untilted run's log weights are
        # its offset, exactly 0 where Lambda(0) is
        dots = _dot_rows(sums, taus)
        return _pass_log_means(log_isf_offset - dots[member], member, pass_sizes,
                               log_sizes[batches.start:batches.stop])

    passes = _passes(batch_sizes)
    if config.threads > 1 and len(passes) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            per_pass = list(pool.map(one_pass, passes))
    else:
        per_pass = [one_pass(batches) for batches in passes]
    log_means, hits = (np.concatenate(parts) for parts in zip(*per_pass))
    est = _estimate_from_batches(log_means, hits, np.array(batch_sizes), config, part.n)
    if not part.exact and (prepared.gen is None or prepared.tested.row is None):
        est.warnings.append(
            "n * p_k not integral: floor-and-remainder blocks add O(1/n) bias"
        )
    return est


def _estimate_from_batches(batch_log_means, batch_hits, batch_sizes,
                           config: EstimatorConfig, n: int) -> Estimate:
    """The estimate from the log-means, hit counts and sizes of the batches.
    The batch-means stderr scores the min(L, ``_BATCHES``) batches that drew
    rows, a batch without hits among them as mean zero; below two such
    batches it is unknown, +inf.  Its mean and standard deviation are
    ``np.add.reduce`` sums in the order ``ndarray.std`` takes them, so that
    they keep its bits."""
    add = np.add.reduce
    hits = int(add(batch_hits))
    L = int(add(batch_sizes))
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
    # batch-means stderr on a relative scale, safe against underflow; a
    # batch log-mean is finite, or -inf where the batch has no hits
    drawn = batch_sizes > 0
    scored = batch_log_means[drawn]
    rel = np.exp(scored - scored.max())
    m = len(rel)
    mean = add(rel) / m
    dev = rel - mean
    rel_se = (float(np.sqrt(add(dev * dev) / (m - 1)) / math.sqrt(m) / mean) if m > 1
              else INF)
    if not has_hits[drawn].all():
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
    taus: np.ndarray  # the checked tilts: given, the dual's or the ray's
    draws_used: int = 0


def proxy_q_star(prepared: Prepared, config: EstimatorConfig) -> ProxyResult:
    """Find a tilt target in the constraint set, in reduced coordinates,
    with its tilts.  A given ``q_star`` comes first; one without valid tilts
    raises ``ValueError`` before any batch is drawn.  Else a one-inequality
    leaf, in every mode, takes the point and tilts of its dual
    (``Prepared.dual``); only a set without a row is searched (``_ladder``
    and its ray)."""
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
    return _ladder(prepared, config.seed)


def _ladder(prepared: Prepared, seed: int) -> ProxyResult:
    """The searched tilts and point: a cross-entropy ladder in the tilt
    family finds a direction, and the ray along it (``_ray``) its length.

    A set that holds the untilted mean (``_ray_points`` at lam = 0) is its
    own proxy, with zero tilts and no draw.  Else level j draws
    ``_LADDER_ROWS`` rows of block sums of sizes ceil(2^j p_k / max p),
    tilted by the tilts so far, on the stream (seed, ``_PHASE_PROXY``, j);
    the last level draws the frame's own blocks.  Each level sets tau_k =
    M phi'((s_k + 1) / (n_k + 1)), the closed-form cross-entropy update: s
    is the mean block sum of its hits weighted by exp(-<tau, S>), their
    likelihood ratio against the untilted run up to a constant, or the sums
    of its lowest-D hit when that mean is no member (a union, a predicate);
    the 1 is one more weight at the untilted mean, which keeps every ratio
    inside the weights' support.  A level without a hit, or whose tilts
    leave int(dom MGF), keeps the tilts it drew with.  The longer runs find
    the rarer sets, each from the tilts of the last.

    The last level's tilts d are a direction only: the proxy point is the
    tilted mean of its own tilts lam* d, as a dual's is, at the first lam*
    in ]0, 2] whose mean is a member.  Where no such lam is found, the
    ladder's tilts stay and the point is the last level's lowest-D hit;
    ``RuntimeError`` when that level has no hit either."""
    part, law = prepared.part, prepared.law
    x0, inside = _ray_points(prepared, np.zeros(part.K), np.zeros(1))
    if inside[0]:
        return ProxyResult(q_star=x0[0], taus=np.zeros(part.K))
    lo, hi = law.mgf_dom()
    shape = part.p_tilde / part.p_tilde.max()
    levels = [np.ceil(2.0**j * shape).astype(int)
              for j in range(math.ceil(math.log2(part.sizes.max())))] + [part.sizes]
    taus = np.zeros(part.K)
    for j, sizes in enumerate(levels):
        sums = _block_sums(law, sizes, taus, _rng(seed, _PHASE_PROXY, j), _LADDER_ROWS)
        x, member = prepared.coords_and_hits(sums, sizes.sum())
        hits = np.flatnonzero(member)
        if hits.size == 0:
            continue
        log_w = -_dot_rows(sums[hits], taus)
        w = np.exp(log_w - log_w.max())
        target = w @ sums[hits] / w.sum()
        if not prepared.coords_and_hits(target[None, :], sizes.sum())[1][0]:
            target = sums[_best(prepared, x, hits)]
        with np.errstate(divide="ignore", invalid="ignore"):
            new = prepared.mass * np.asarray(
                prepared.gen.phi_prime((target + 1.0) / (sizes + 1.0)), dtype=float)
        if np.all((lo < new) & (new < hi)):
            taus = new
    draws = len(levels) * _LADDER_ROWS
    ray = _ray(prepared, taus)
    if ray is not None:
        _, lam, q_star = ray
        return ProxyResult(q_star=q_star, taus=lam * taus, draws_used=draws)
    if hits.size == 0:
        raise RuntimeError(f"proxy search: no hit of the constraint set in {_LADDER_ROWS} "
                           f"runs of the length n = {part.n}; the set may be empty or too "
                           "rare to find; supply q_star")
    return ProxyResult(q_star=x[_best(prepared, x, hits)], taus=taus, draws_used=draws)


def _best(prepared: Prepared, x: np.ndarray, hits: np.ndarray) -> int:
    """The row of the lowest-D hit among the rows ``hits`` of ``x``, the
    first in draw order on a tie."""
    return int(hits[np.argmin(prepared.rank(x[hits]))])


def _ray_points(prepared: Prepared, d: np.ndarray, lams: np.ndarray):
    """The tilted means p~ Lambda'(lam d), p~ = sizes / n, of the tilts
    ``lams`` along ``d``, mapped to reduced coordinates as ``Prepared.dual``
    maps its point, with their membership: (x, member), one row per lam.  A
    mean that leaves the reals, its tilts outside the law's domain, is no
    member."""
    p = prepared.part.sizes / prepared.part.n
    with np.errstate(over="ignore", invalid="ignore"):
        slope, _ = prepared.law.log_mgf_slopes(lams[:, None] * d)
        x, member = prepared.coords_and_hits(p * slope, 1.0)
    return x, member & np.isfinite(x).all(axis=1)


def _ray(prepared: Prepared, d: np.ndarray):
    """The first lam in ]0, 2] at which the tilted mean along ``d``
    (``_ray_points``) is a member, by no draw: (below, lam, x(lam)), with
    below < lam no member.  Each membership call tests ``_RAY_POINTS`` tilts
    spread over the bracket ]below, lam], the first over ]0, 2], and narrows
    it to the first member and the non-member just before it, until it spans
    at most 4 ulps.  None where none of the first call's tilts is a member.

    The cap at twice the ladder's own tilts keeps the ray where Lambda' is
    representable: far out, a Poisson Lambda' underflows to 0, and a set
    such as {q_0 <= 0} would take the false member for its point."""
    below, above, point = 0.0, 2.0, None
    while above - below > 4.0 * _EPS * above:
        lams = np.linspace(below, above, _RAY_POINTS + 1)[1:]
        x, member = _ray_points(prepared, d, lams)
        if not member.any():
            return None
        i = int(np.argmax(member))
        below, above, point = (lams[i - 1] if i else below), lams[i], x[i]
    return below, above, point


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
                proxy: Optional[ProxyResult] = None) -> Estimate:
    """Importance-sampling estimator of the hitting probability, tilted by
    ``proxy``, a ``ProxyResult`` from ``proxy_q_star`` (a point and its
    tilts), or by the one ``proxy_q_star`` finds when it is None."""
    if proxy is None:
        proxy = proxy_q_star(prepared, config)
    return _run_batches(prepared, config, compute_taus(prepared, proxy))


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


_TARGETS = ("deterministic", "divergence", "hellinger", "renyi", "modified_kl",
            "modified_rev_kl", "entropy")


def _check_target(target, gen: Optional[Generator] = None, K: Optional[int] = None,
                  entropy_spec: Optional[EntropySpec] = None,
                  mode: Optional[str] = None) -> None:
    """Refuse a target that ``invert`` cannot map with this generator,
    dimension, entropy spec and mode; the pipelines call it before any draw.
    Deterministic mode estimates the rate itself, the minimum D over the
    set, so "deterministic" is its only target.  The entropy target needs
    the generator whose gamma is the spec's order (``entropy._order``)."""
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
    if target == "modified_kl" and gen.gamma != 1.0:
        raise ValueError("modified KL inversion needs gamma = 1")
    if target == "modified_rev_kl" and gen.gamma != 0.0:
        raise ValueError("modified reverse KL inversion needs gamma = 0")
    if target != "entropy":
        return
    if entropy_spec is None:
        raise ValueError("the entropy target needs its entropy spec")
    if K is None:
        raise ValueError("the entropy target needs the dimension K")
    if _order(entropy_spec) != gen.gamma:
        raise ValueError(f"the {entropy_spec.kind} entropy spec inverts the power divergence "
                         f"of gamma = {_order(entropy_spec)}, not gamma = {gen.gamma}")


def invert(target, log_pi_hat: float, n: int, gen: Optional[Generator] = None,
           A: float = 1.0, K: Optional[int] = None,
           entropy_spec: Optional[EntropySpec] = None) -> float:
    """Map the estimated log hitting probability to the target quantity.

    Targets: "deterministic" (also the inf-over-m value for general
    generators), "divergence", "hellinger", "renyi", "modified_kl",
    "modified_rev_kl" and "entropy".  The entropy target takes an
    ``entropy_spec`` of any kind, the dimension K and the uniform reference
    vector: the optimal moment, sum q log q = mod_kl - A log K (gamma = 1) or
    sum q^gamma = K^(1-gamma) times the Hellinger integral, goes through
    ``entropy._from_moment``.  ``_check_target`` refuses a target that does
    not fit the generator, and an entropy spec of another order.
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
    moment = mod_kl() - A * math.log(K) if g == 1.0 else K ** (1.0 - g) * hellinger()
    return _from_moment(entropy_spec, moment)


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
    value units.  A set without a row gets neither term, and, unless it
    holds the untilted mean p~ = sizes / n (where ``_ladder`` draws
    nothing and pi tends to 1), a warning that its value carries the bias."""
    part = prepared.part
    _check_target(target, prepared.gen, part.K, entropy_spec, prepared.mode)
    if est.hits == 0:
        est.value = INF
        return est
    frame = dict(n=part.n, gen=prepared.gen, K=part.K, A=prepared.scale,
                 entropy_spec=entropy_spec)
    # p~ is the untilted mean: every law's weights have mean one
    if (prepared.tested.row is None
            and not prepared.coords_and_hits((part.sizes / part.n)[None, :], 1.0)[1][0]):
        est.warnings.append("a set without a row gets no finite-n term: its value carries "
                            "the O(log n / n) finite-n bias")
    terms = [t for t in (_bahadur_rao(prepared), _block_rounding(prepared)) if t is not None]
    log_pi = est.log_pi_hat + sum(terms)
    est.value = invert(target, log_pi, **frame)
    est.stderr = _delta_stderr(target, log_pi, est.stderr_log_pi, **frame)
    if terms:
        est.bias_correction = est.value - invert(target, est.log_pi_hat, **frame)
    return est


# ---------------------------------------------------------------------------
# bounds for generators without a closed-form inversion


def solve_m_equation(gen: Generator, Q, P) -> float:
    """Unique root of psi(m) = sum_{q_k > 0} q_k phi'(m q_k / p_k) = 0 by
    bisection on the part of [min p_k/q_k, max p_k/q_k], where psi goes
    from <= 0 to >= 0, that keeps every m q_k / p_k in ]a, b[, to a
    bracket of 1e-10 relative width."""
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
    # every m q_k / p_k lies in ]a, b[ iff a max(p/q) < m < b min(p/q)
    lo, hi = max(lo, gen.a * hi), min(hi, gen.b * lo)
    if not lo < hi:
        raise ValueError("no m keeps every ratio m q_k / p_k inside ]a, b[")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if psi(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(1.0, abs(lo)):
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
    est = finalize(is_estimate(prepared, config, proxy=proxy), "deterministic", prepared)
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
    uniform reference vector and the power generator of the spec's order;
    the value is the "entropy" target's."""
    _check_int("K", K, 1)
    prepared = prepare(PowerGamma(_order(spec), 1.0), np.full(K, 1.0 / K), omega, config,
                       "simplex")
    return finalize(is_estimate(prepared, config), "entropy", prepared, entropy_spec=spec)
