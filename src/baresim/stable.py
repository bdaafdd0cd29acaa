"""Samplers for (tilted) totally skewed stable laws.

Two regimes are needed:

* index ``alpha`` in ]0,1[, positive stable, exponentially tilted: exact
  draws by divide-and-conquer rejection.  A tilted stable with Laplace
  exponent ``d s^alpha`` splits (infinite divisibility) into ``m`` i.i.d.
  tilted pieces with exponent ``(d/m) s^alpha``; choosing
  ``m = ceil(d lambda^alpha)`` keeps the per-piece acceptance rate above
  ``1/e`` uniformly in the tilt.

* index ``alpha`` in ]1,2[, spectrally negative, exponentially weighted:
  single draws by rejection from a Chambers-Mallows-Stuck proposal
  truncated where the weighted mass is certifiably negligible; block sums
  and tilted variants by numeric inversion of the closed-form
  characteristic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "sample_positive_stable",
    "sample_tilted_positive_stable",
    "sample_cms_stable",
    "LatticeFreeInverter",
    "chernoff_quantile",
]

_TRUNCATION_LOG_MASS = math.log(1e-14)


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
    d * s^alpha); i.e. E[exp(-s W)] = exp(-d((s+lam)^alpha - lam^alpha))."""
    if d <= 0:
        raise ValueError("d must be > 0")
    if lam < 0:
        raise ValueError("tilt rate must be >= 0")
    if lam == 0.0:
        return d ** (1.0 / alpha) * sample_positive_stable(alpha, rng, size)
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


def sample_cms_stable(
    alpha: float, beta: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Chambers-Mallows-Stuck draws from the standard stable law
    S(alpha, beta; 1, 0) in the S1 parametrization, alpha != 1."""
    if not (0.0 < alpha <= 2.0) or alpha == 1.0:
        raise ValueError("alpha must lie in ]0,1[ or ]1,2]")
    if not (-1.0 <= beta <= 1.0):
        raise ValueError("beta must lie in [-1,1]")
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    zeta = beta * math.tan(math.pi * alpha / 2.0)
    xi = math.atan(zeta) / alpha
    factor = (1.0 + zeta**2) ** (1.0 / (2.0 * alpha))
    return (
        factor
        * np.sin(alpha * (u + xi))
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos(u - alpha * (u + xi)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_spectrally_negative_stable(
    alpha: float, d: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draws of V with E[exp(s V)] = exp(d s^alpha) for s >= 0,
    alpha in ]1,2[ (totally skewed, heavy left tail)."""
    if not (1.0 < alpha < 2.0):
        raise ValueError("alpha must lie in ]1,2[")
    sigma = (d * abs(math.cos(math.pi * alpha / 2.0))) ** (1.0 / alpha)
    return -sigma * sample_cms_stable(alpha, 1.0, rng, size)


@lru_cache(maxsize=512)
def weighted_stable_acceptance(alpha: float, d: float, lam: float) -> tuple[float, float]:
    """Truncation point and acceptance rate for rejection sampling of the
    law with density proportional to exp(lam*v) * f_V(v), V spectrally
    negative stable with exponent d*s^alpha.

    The truncation point v_max is chosen so that the discarded target mass
    is below exp(_TRUNCATION_LOG_MASS); the acceptance rate is
    approximately exp(d lam^alpha - lam v_max).
    """
    from scipy import optimize

    log_norm = d * lam**alpha
    target = _TRUNCATION_LOG_MASS + log_norm

    def tail_bound(x: float) -> float:
        # log integral_{v > x} e^{lam v} f_V(v) dv <= inf_{s>0} d(lam+s)^a - s x
        def obj(s: float) -> float:
            return d * (lam + s) ** alpha - s * x

        res = optimize.minimize_scalar(obj, bounds=(1e-12, 1e8), method="bounded")
        return float(res.fun)

    x = max(1.0, d ** (1.0 / alpha))
    for _ in range(200):
        if tail_bound(x) <= target:
            break
        x *= 1.5
    else:
        raise RuntimeError("could not certify a truncation point")
    # shrink back for a tighter acceptance rate
    lo, hi = x / 1.5, x
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail_bound(mid) <= target:
            hi = mid
        else:
            lo = mid
    v_max = hi
    acc = math.exp(min(0.0, d * lam**alpha - lam * v_max))
    return v_max, acc


def sample_weighted_negative_stable(
    alpha: float, d: float, lam: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Rejection draws of the exponentially weighted spectrally negative
    stable law: density proportional to exp(lam*v) f_V(v).  Exact up to
    the certified truncation mass (< 1e-14 in total variation)."""
    v_max, _ = weighted_stable_acceptance(alpha, d, lam)
    out = np.full(size, np.nan)
    pending = np.arange(size)
    while pending.size:
        cand = sample_spectrally_negative_stable(alpha, d, rng, pending.size)
        ok = cand <= v_max
        accept = np.zeros(pending.size, dtype=bool)
        if np.any(ok):
            accept[ok] = rng.random(int(ok.sum())) < np.exp(lam * (cand[ok] - v_max))
        out[pending[accept]] = cand[accept]
        pending = pending[~accept]
    return out


# ---------------------------------------------------------------------------
# generic sampling by characteristic-function inversion


def chernoff_quantile(
    log_mgf: Callable[[float], float],
    z_lo: float,
    z_hi: float,
    mean: float,
    sd: float,
    log_mass: float = math.log(1e-16),
) -> tuple[float, float]:
    """Certified (lo, hi) range outside which each tail carries log-mass
    below ``log_mass``, from the Chernoff bound inf_z Lambda(z) - z*x."""
    from scipy import optimize

    def bound(x: float, lo: float, hi: float) -> float:
        res = optimize.minimize_scalar(
            lambda z: log_mgf(z) - z * x, bounds=(lo, hi), method="bounded"
        )
        return float(res.fun)

    z_eps_hi = min(z_hi * 0.999999 if math.isfinite(z_hi) else 1e6, 1e6)
    z_eps_lo = max(z_lo * 0.999999 if math.isfinite(z_lo) else -1e6, -1e6)
    hi = mean + 8 * sd
    for _ in range(200):
        if bound(hi, 1e-12, z_eps_hi) <= log_mass:
            break
        hi = mean + (hi - mean) * 1.4
    lo = mean - 8 * sd
    for _ in range(200):
        if bound(lo, z_eps_lo, -1e-12) <= log_mass:
            break
        lo = mean - (mean - lo) * 1.4
    return lo, hi


@dataclass(frozen=True)
class LatticeFreeInverter:
    """Inverse-CDF sampler for a continuous law given its characteristic
    function, built once per parameter set via FFT inversion."""

    x_grid: np.ndarray
    cdf: np.ndarray

    @staticmethod
    def build(
        log_cf: Callable[[np.ndarray], np.ndarray],
        x_lo: float,
        x_hi: float,
        n_points: int = 2**16,
    ) -> "LatticeFreeInverter":
        """``log_cf`` maps a real frequency array u to log E[exp(i u X)]."""
        span = x_hi - x_lo
        dx = span / n_points
        du = 2.0 * math.pi / (n_points * dx)
        j = np.arange(n_points)
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
