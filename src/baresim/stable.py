"""Samplers for (tilted) totally skewed stable laws.

Two regimes are needed:

* index ``alpha`` in ]0,1[, positive stable, exponentially tilted.  At
  ``alpha = 1/2`` (the gamma = -1 power law and the blended-weight
  chi-square law) the tilted law is inverse Gaussian, with mean
  ``d / (2 sqrt(lambda))`` and shape ``d^2 / 2``, drawn exactly by
  ``Generator.wald`` (Michael, Schucany & Haas 1976) at a cost that does not
  grow with the block size.  Other indices draw by divide-and-conquer
  rejection: a tilted stable with Laplace exponent ``d s^alpha`` splits
  (infinite divisibility) into ``m`` i.i.d. tilted pieces with exponent
  ``(d/m) s^alpha``; choosing ``m = ceil(d lambda^alpha)`` keeps the
  per-piece acceptance rate above ``1/e`` uniformly in the tilt, at a cost
  that grows with ``d``, so with the block size.

* index ``alpha`` in ]1,2[, spectrally negative, exponentially weighted:
  every draw (single weights, block sums, tilted or not) by numeric
  inversion of the closed-form characteristic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "sample_positive_stable",
    "sample_tilted_positive_stable",
    "LatticeFreeInverter",
]

# grid points of the characteristic-function inversion
_CF_POINTS = 2**16


def sample_positive_stable(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard positive alpha-stable draws with E[exp(-s S)] = exp(-s^alpha),
    via Zolotarev's representation: S = (A(U)/E)^((1-alpha)/alpha) with
    U ~ Unif(0, pi), E ~ Exp(1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in ]0,1[")
    u = rng.uniform(0.0, math.pi, size=size)
    e = rng.exponential(1.0, size=size)
    log_a = (
        alpha * np.log(np.sin(alpha * u))
        + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u))
        - np.log(np.sin(u))
    ) / (1.0 - alpha)
    return np.exp((1.0 - alpha) / alpha * (log_a - np.log(e)))


def sample_tilted_positive_stable(
    alpha: float, d: float, lam: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draws from the exponentially tilted positive stable law with density
    proportional to exp(-lam*x) * (stable density with Laplace exponent
    d * s^alpha); i.e. E[exp(-s W)] = exp(-d((s+lam)^alpha - lam^alpha)).
    At alpha = 1/2 and lam > 0 that is the inverse Gaussian law with mean
    d / (2 sqrt(lam)) and shape d^2 / 2, drawn exactly in O(1) per draw."""
    if d <= 0:
        raise ValueError("d must be > 0")
    if lam < 0:
        raise ValueError("tilt rate must be >= 0")
    if lam == 0.0:
        return d ** (1.0 / alpha) * sample_positive_stable(alpha, rng, size)
    if alpha == 0.5:
        return rng.wald(d / (2.0 * math.sqrt(lam)), 0.5 * d * d, size=size)
    m = max(1, math.ceil(d * lam**alpha))
    scale = (d / m) ** (1.0 / alpha)
    lam_eff = lam * scale  # tilt of the standardized piece
    out = np.zeros(size)
    # accumulate the m pieces; each piece is a rejection loop over all slots
    for _ in range(m):
        piece = np.full(size, np.nan)
        pending = np.arange(size)
        while pending.size:
            cand = sample_positive_stable(alpha, rng, pending.size)
            accept = rng.random(pending.size) < np.exp(-lam_eff * cand)
            piece[pending[accept]] = cand[accept]
            pending = pending[~accept]
        out += scale * piece
    return out


# ---------------------------------------------------------------------------
# generic sampling by characteristic-function inversion


@dataclass(frozen=True)
class LatticeFreeInverter:
    """Inverse-CDF sampler for a continuous law given its characteristic
    function, built once per parameter set via FFT inversion."""

    x_grid: np.ndarray
    cdf: np.ndarray

    @staticmethod
    def build(
        log_cf: Callable[[np.ndarray], np.ndarray], x_lo: float, x_hi: float
    ) -> "LatticeFreeInverter":
        """``log_cf`` maps a real frequency array u to log E[exp(i u X)]; the
        density is inverted on ``_CF_POINTS`` points of [x_lo, x_hi[."""
        span = x_hi - x_lo
        dx = span / _CF_POINTS
        du = 2.0 * math.pi / (_CF_POINTS * dx)
        j = np.arange(_CF_POINTS)
        u = j * du
        phi = np.exp(log_cf(u))
        # trapezoid weight at the origin
        phi[0] *= 0.5
        # f(x_m) = (du/pi) * Re sum_j phi(u_j) exp(-i u_j x_m)
        shift = np.exp(-1j * u * x_lo)
        dens = np.fft.fft(phi * shift)
        f = du / math.pi * np.real(dens)
        f = np.maximum(f, 0.0)
        x = x_lo + j * dx
        cdf = np.concatenate(([0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * dx)))
        total = cdf[-1]
        if not (0.9 <= total <= 1.1):
            raise RuntimeError(f"characteristic-function inversion lost mass: {total}")
        return LatticeFreeInverter(x_grid=x, cdf=cdf / total)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        return np.interp(u, self.cdf, self.x_grid)
