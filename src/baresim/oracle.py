"""Independent brute-force references used to validate the estimators:
simplex-grid minimization, exact enumeration of hitting probabilities for
discrete weight laws, and 1-d golden-section minimization."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Tuple

import numpy as np

from .constraints import ConstraintSet
from .divergence import Generator, divergence
from .engine import BlockPartition, Prepared
from .laws import WeightLaw

__all__ = ["grid_min_divergence", "exact_pi", "golden_min", "simplex_grid"]

INF = math.inf
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# block-sum tuples ``exact_pi`` enumerates at most (K = 3: 96 MB of sums); the
# calibration suite's largest enumeration is 1.9e6
_MAX_TUPLES = 4_000_000
# rounds of ``_local_refine``'s descent, its step halved after each from half
# a grid cell
_REFINE_ROUNDS = 14


def simplex_grid(K: int, resolution: float) -> np.ndarray:
    """All probability vectors with entries on the grid j*resolution."""
    steps = int(round(1.0 / resolution))
    if abs(steps * resolution - 1.0) > 1e-9:
        raise ValueError("resolution must divide 1")
    pts = []
    for combo in itertools.combinations_with_replacement(range(steps + 1), K - 1):
        parts = (0,) + combo + (steps,)
        sizes = np.diff(parts)
        for perm in set(itertools.permutations(sizes)):
            pts.append(perm)
    return np.unique(np.array(pts, dtype=float), axis=0) * resolution


def _local_refine(objective: Callable[[np.ndarray], float], x0: np.ndarray,
                  member: Callable[[np.ndarray], bool], step: float) -> Tuple[np.ndarray, float]:
    """Coordinate-pair descent around the best grid cell, in steps halved
    ``_REFINE_ROUNDS`` times; keeps the component sum fixed."""
    x = x0.copy()
    best = objective(x)
    K = x.size
    h = step
    for _ in range(_REFINE_ROUNDS):
        improved = True
        while improved:
            improved = False
            for i in range(K):
                for j in range(K):
                    if i == j:
                        continue
                    y = x.copy()
                    y[i] += h
                    y[j] -= h
                    if y[j] < 0 or not member(y):
                        continue
                    val = objective(y)
                    if val < best - 1e-15:
                        x, best = y, val
                        improved = True
        h /= 2.0
    return x, best


def grid_min_divergence(gen: Generator, P, omega: ConstraintSet,
                        resolution: float = 0.01,
                        objective: Optional[Callable[[np.ndarray], float]] = None):
    """Exhaustive scan of the (scaled) probability simplex intersected with
    Omega, refined by local coordinate descent at the best cell.

    Returns (value, argmin).  Practical for K <= 4 and resolution >= 1e-4.
    """
    P = np.asarray(P, dtype=float)
    K = P.size
    if K > 4:
        raise ValueError("grid oracle is limited to K <= 4")
    A = omega.scale
    grid = simplex_grid(K, resolution) * A
    member = omega.contains(grid)
    if not np.any(member):
        raise ValueError("no grid point inside the constraint set")
    cand = grid[member]
    if objective is None:
        objective = lambda q: divergence(gen, q, P)
    vals = np.array([objective(q) for q in cand])
    i = int(np.argmin(vals))
    best_q, best = cand[i], float(vals[i])
    best_q, best = _local_refine(objective, best_q, lambda q: omega.contains_point(q),
                                 step=resolution * A / 2.0)
    return best, best_q


def exact_pi(law: WeightLaw, part: BlockPartition, omega: ConstraintSet,
             tail_bound: float = 1e-12, mode: str = "deterministic",
             mass: float = 1.0) -> Tuple[float, float]:
    """Exact hitting probability for a discrete weight law by enumeration
    of block-sum tuples, truncated with certified tail mass.

    Returns (probability, certified_tail).  The truth lies within
    [probability, probability + certified_tail].  ``ValueError``, before
    any tuple is built, where the product of the block support sizes
    exceeds ``_MAX_TUPLES``.
    """
    if not law.is_discrete:
        raise ValueError("exact enumeration needs a countable-support law")
    K = part.K
    per_block_log_tail = math.log(tail_bound) - math.log(2.0 * K)
    supports = []
    tail_total = 0.0
    for k in range(K):
        vals, probs, tail = law.block_support(int(part.sizes[k]), per_block_log_tail)
        keep = probs > 0
        supports.append((vals[keep], probs[keep]))
        tail_total += tail
    if tail_total > tail_bound:
        raise ValueError("truncation budget exceeded; raise tail_bound")
    counts = [s[0].size for s in supports]
    if math.prod(counts) > _MAX_TUPLES:
        raise ValueError(f"exact enumeration of block supports of sizes {counts} is "
                         f"{math.prod(counts)} tuples, more than {_MAX_TUPLES}")
    grids = np.meshgrid(*[s[0] for s in supports], indexing="ij")
    sums = np.stack([g.reshape(-1) for g in grids], axis=1)
    probs = np.ones(sums.shape[0])
    for k in range(K):
        pk = supports[k][1]
        reps = int(np.prod([supports[j][0].size for j in range(k + 1, K)]))
        tile = int(np.prod([supports[j][0].size for j in range(k)]))
        probs *= np.tile(np.repeat(pk, reps), tile)
    # the estimator's own map from block sums to the points it tests
    frame = Prepared(gen=None, part=part, law=law, omega=omega, mode=mode, mass=mass)
    _, member = frame.coords_and_hits(sums, part.n)
    total = float(probs[member].sum())
    return total, tail_total


def golden_min(f: Callable[[float], float], bracket: Tuple[float, float],
               tol: float = 1e-10) -> Tuple[float, float]:
    """Golden-section minimization of a unimodal function on a bracket."""
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ValueError("need bracket[0] < bracket[1]")
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    if not (math.isfinite(fc) and math.isfinite(fd)):
        raise ValueError("objective not finite inside the bracket")
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
