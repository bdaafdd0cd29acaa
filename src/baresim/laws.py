"""Weight laws: simulable distributions whose cumulant function is the
convex conjugate of a divergence generator.

Every law has mean 1, a moment generating function that is finite on an
open interval around zero, closed-form n-fold convolutions, and
closed-form exponentially tilted versions together with the
importance-sampling factor ``ISF(x) = exp(n Lambda(tau) - x tau)``
(computed in log space throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from . import stable
from .divergence import (
    AnchoredKL,
    BlendedWeightChiSq,
    CustomGenerator,
    GenAsymLaplace,
    Generator,
    GeneralizedKL,
    PowerGamma,
    TwoPoint,
    _check_anchor,
)

__all__ = [
    "WeightLaw",
    "TiltedStable",
    "CompoundPoissonGamma",
    "DistortedStable",
    "Gaussian",
    "GammaLaw",
    "ScaledPoisson",
    "ShiftedPoisson",
    "ScaledNegBinomial",
    "ScaledBinomial",
    "ModTiltedStable",
    "TwoPointLaw",
    "GenAsymLaplaceLaw",
    "log_mgf",
    "law_for_generator",
]

INF = math.inf


class WeightLaw:
    """Base class; subclasses are frozen dataclasses."""

    def mgf_dom(self) -> Tuple[float, float]:
        raise NotImplementedError

    def log_mgf(self, z):
        raise NotImplementedError

    def log_mgf_slopes(self, z):
        """Lambda'(z) and Lambda''(z) of Lambda = ``log_mgf``, elementwise
        over z inside int(dom MGF), each law in closed form; NaN or +inf
        outside the domain.  The dual of a one-inequality leaf
        (``engine.Prepared.dual``) needs them, in every mode, and so does the
        ray of a searched set (``engine._ray``)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no log_mgf_slopes: a halfspace or coordinate leaf "
            "takes its tilts from the dual, and any other set from a ray of tilted means, "
            "which need Lambda' and Lambda''")

    def sample_tilted_block(
        self, tau: float, nk: int, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """``size`` draws of the nk-fold block sum under the exponential
        tilt dU propto exp(tau * v) dzeta, from the closed-form convolution;
        tau = 0 gives untilted draws, and nk = 1 draws of W itself."""
        raise NotImplementedError

    def check_tau(self, tau: float) -> float:
        lo, hi = self.mgf_dom()
        if not (lo < tau < hi):
            raise ValueError(f"tilt {tau} outside int(dom MGF) = ]{lo}, {hi}[")
        return float(tau)

    # discrete laws override these for exact enumeration
    is_discrete = False

    def block_support(self, nk: int, tail_log_mass: float):
        """(values, probabilities, dropped tail mass) of the n_k-block sum,
        cut where the tail falls below about exp(tail_log_mass) / 2; the
        tail is computed from the far side, not as 1 - sum."""
        raise NotImplementedError("law has no countable support")


def _logistic(log_odds: float) -> float:
    """The probability 1 / (1 + e^-t) of log-odds t, which tends to 0 or 1
    without overflow: where e^-t overflows, 1 + e^t rounds to 1 and the
    probability is e^t."""
    try:
        return 1.0 / (1.0 + math.exp(-log_odds))
    except OverflowError:
        return math.exp(log_odds)


def _bernoulli(log_odds):
    """The success probability p of log-odds t and the variance p (1 - p),
    elementwise, from e^-|t| so that neither overflows nor cancels."""
    t = np.asarray(log_odds, dtype=float)
    e = np.exp(-np.abs(t))
    p = np.where(t >= 0, 1.0, e) / (1.0 + e)
    return p, e / (1.0 + e) ** 2


def _tilted_poisson_mean(mean: float, tau: float, scale: float) -> float:
    """mean * e^(tau / scale), the Poisson mean of a block tilted by tau; a
    ValueError naming the tilt where it is not finite."""
    try:
        lam = mean * math.exp(tau / scale)
    except OverflowError:
        lam = INF
    if not math.isfinite(lam):
        raise ValueError(f"tilt {tau}: the tilted Poisson mean is not finite")
    return lam


def _log_mgf_power(scale: float, gamma: float, z) -> np.ndarray:
    """Cumulant function shared by the power-family laws (gamma != 1):
    (c/g) * ((1 + (g-1) z / c)^(g/(g-1)) - 1) on its domain."""
    z = np.asarray(z, dtype=float)
    c, g = scale, gamma
    base = 1.0 + (g - 1.0) * z / c
    out = np.full(z.shape, INF)
    ok = base > 0
    out[ok] = c / g * (base[ok] ** (g / (g - 1.0)) - 1.0)
    return out


def _slopes_power(scale: float, gamma: float, z):
    """Lambda' and Lambda'' of ``_log_mgf_power``: with b = 1 + (g-1) z / c,
    Lambda' = b^(1/(g-1)) and Lambda'' = Lambda' / (c b); NaN where b <= 0."""
    z = np.asarray(z, dtype=float)
    base = 1.0 + (gamma - 1.0) / scale * z
    base = np.where(base > 0, base, np.nan)
    slope = base ** (1.0 / (gamma - 1.0))
    return slope, slope / (scale * base)


@dataclass(frozen=True)
class TiltedStable(WeightLaw):
    """Exponentially tilted positive stable law; matches the power
    generator with gamma < 0.  Strictly positive support."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.gamma < 0):
            raise ValueError("gamma must be < 0")
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    @property
    def alpha(self) -> float:
        return -self.gamma / (1.0 - self.gamma)

    @property
    def stable_d(self) -> float:
        g, c = self.gamma, self.scale
        return -(c ** (1.0 / (1.0 - g))) * (1.0 - g) ** (-g / (1.0 - g)) / g

    @property
    def tilt_rate(self) -> float:
        return self.scale / (1.0 - self.gamma)

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, self.scale / (1.0 - self.gamma))

    def log_mgf(self, z):
        return _log_mgf_power(self.scale, self.gamma, z)

    def log_mgf_slopes(self, z):
        return _slopes_power(self.scale, self.gamma, z)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        return stable.sample_tilted_positive_stable(
            self.alpha, nk * self.stable_d, self.tilt_rate - tau, rng, size
        )


@dataclass(frozen=True)
class CompoundPoissonGamma(WeightLaw):
    """Poisson(scale / gamma) many Gamma(shape, rate) summands; matches the
    power generator with gamma in ]0,1[.  Atom at zero, otherwise positive."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in ]0,1[")
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    @property
    def rate(self) -> float:
        return self.scale / (1.0 - self.gamma)

    @property
    def shape(self) -> float:
        return self.gamma / (1.0 - self.gamma)

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, self.rate)

    def log_mgf(self, z):
        return _log_mgf_power(self.scale, self.gamma, z)

    def log_mgf_slopes(self, z):
        return _slopes_power(self.scale, self.gamma, z)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        g, c = self.gamma, self.scale
        theta_t = c / g * (1.0 + (g - 1.0) * tau / c) ** (g / (g - 1.0))
        n = rng.poisson(nk * theta_t, size=size)
        out = np.zeros(size)
        pos = n > 0
        if np.any(pos):
            out[pos] = rng.gamma(shape=self.shape * n[pos], scale=1.0 / (self.rate - tau))
        return out


@dataclass(frozen=True)
class DistortedStable(WeightLaw):
    """Exponentially weighted spectrally negative stable law (index in
    ]1,2[); matches the power generator with gamma > 2.  Support is all
    of R: mass on negatives is positive."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.gamma > 2):
            raise ValueError("gamma must be > 2")
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-self.scale / (self.gamma - 1.0), INF)

    def log_mgf(self, z):
        return _log_mgf_power(self.scale, self.gamma, z)

    def log_mgf_slopes(self, z):
        return _slopes_power(self.scale, self.gamma, z)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        inverter = _distorted_inverter(
            round(self.gamma, 12), round(self.scale, 12), round(tau, 12), nk
        )
        return inverter.sample(rng, size)


# log-mass of each tail left outside the window of ``_distorted_inverter``
_LOG_TAIL = math.log(1e-16)


@lru_cache(maxsize=128)
def _distorted_inverter(gamma: float, scale: float, tau: float, nk: int):
    """The inverse-CDF sampler of a block sum of ``nk`` weights tilted by
    ``tau``.  Its window starts at the mean -+ 8 sd and widens by 1.4 until
    the Chernoff bound -n_k I(x / n_k) on the log-mass beyond each end is at
    most ``_LOG_TAIL``, in closed form: I(y) = phi(y) - tau y + Lambda(tau)
    is the rate of one tilted weight, with phi the conjugate of Lambda, the
    power generator (affine below 0); 5% of the span is added on each side."""
    law = DistortedStable(gamma, scale)
    lo, _ = law.mgf_dom()
    phi, lam0 = PowerGamma(gamma, scale).phi, float(law.log_mgf(tau))
    slope, curvature = law.log_mgf_slopes(tau)
    mean = nk * float(slope)
    sd = math.sqrt(max(nk * float(curvature), 1e-12))

    def edge(sign: float) -> float:
        x = mean + sign * 8 * sd
        for _ in range(200):
            y = x / nk
            if -nk * (float(phi(y)) - tau * y + lam0) <= _LOG_TAIL:
                break
            x = mean + (x - mean) * 1.4
        return x

    x_lo, x_hi = edge(-1.0), edge(1.0)
    span = x_hi - x_lo
    x_lo -= 0.05 * span
    x_hi += 0.05 * span

    g = gamma
    a = g / (g - 1.0)

    def log_cf(u: np.ndarray) -> np.ndarray:
        zc = tau + 1j * u
        base = 1.0 + (g - 1.0) * zc / scale
        lam = scale / g * (base**a - 1.0)
        return nk * (lam - lam0)

    try:
        return stable.LatticeFreeInverter.build(log_cf, x_lo, x_hi)
    except RuntimeError as exc:
        raise RuntimeError(f"DistortedStable(gamma={gamma}, scale={scale}) cannot draw n_k = "
                           f"{nk} weights at the tilt tau = {tau}, {tau - lo:.3g} above the "
                           f"lower edge {lo:.6g} of its MGF domain: {exc}") from exc


@dataclass(frozen=True)
class Gaussian(WeightLaw):
    """Normal with mean 1 and variance 1/scale; matches gamma = 2."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, INF)

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        return z**2 / (2.0 * self.scale) + z

    def log_mgf_slopes(self, z):
        # the power family at gamma = 2, whose b = 1 + z / c is Lambda'
        # itself, here on all of R
        z = np.asarray(z, dtype=float)
        return 1.0 + z / self.scale, np.full(z.shape, 1.0 / self.scale)

    def sample_tilted_block(self, tau, nk, rng, size):
        mean = nk * (1.0 + tau / self.scale)
        return rng.normal(mean, math.sqrt(nk / self.scale), size=size)


@dataclass(frozen=True)
class GammaLaw(WeightLaw):
    """Gamma with rate = shape = scale (mean 1); matches gamma = 0.
    Strictly positive support."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, self.scale)

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, INF)
        ok = z < self.scale
        out[ok] = -self.scale * np.log1p(-z[ok] / self.scale)
        return out

    def log_mgf_slopes(self, z):
        return _slopes_power(self.scale, 0.0, z)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        return rng.gamma(shape=nk * self.scale, scale=1.0 / (self.scale - tau), size=size)


@dataclass(frozen=True)
class ScaledPoisson(WeightLaw):
    """Poisson(scale)/scale on the lattice {j/scale}; matches gamma = 1."""

    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, INF)

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        return self.scale * np.expm1(z / self.scale)

    def log_mgf_slopes(self, z):
        slope = np.exp(np.asarray(z, dtype=float) / self.scale)
        return slope, slope / self.scale

    def sample_tilted_block(self, tau, nk, rng, size):
        lam = _tilted_poisson_mean(nk * self.scale, tau, self.scale)
        return rng.poisson(lam, size=size) / self.scale

    is_discrete = True

    def block_support(self, nk, tail_log_mass):
        lam = nk * self.scale
        j, pmf, tail = _poisson_support(lam, tail_log_mass)
        return j / self.scale, pmf, tail


@dataclass(frozen=True)
class ShiftedPoisson(WeightLaw):
    """Poisson(scale*e^anchor)/scale + (1 - e^anchor): admits negative
    values when anchor > 0; matches the anchored KL generator."""

    anchor: float
    scale: float = 1.0

    def __post_init__(self):
        _check_anchor(self.anchor)
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, INF)

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        ec = math.exp(self.anchor)
        return self.scale * ec * np.expm1(z / self.scale) + z * (1.0 - ec)

    def log_mgf_slopes(self, z):
        ec, u = math.exp(self.anchor), np.asarray(z, dtype=float) / self.scale
        return 1.0 + ec * np.expm1(u), ec * np.exp(u) / self.scale

    def sample_tilted_block(self, tau, nk, rng, size):
        ec = math.exp(self.anchor)
        lam = _tilted_poisson_mean(nk * self.scale * ec, tau, self.scale)
        return rng.poisson(lam, size=size) / self.scale + nk * (1.0 - ec)

    is_discrete = True

    def block_support(self, nk, tail_log_mass):
        ec = math.exp(self.anchor)
        j, pmf, tail = _poisson_support(nk * self.scale * ec, tail_log_mass)
        return j / self.scale + nk * (1.0 - ec), pmf, tail


@dataclass(frozen=True)
class ScaledNegBinomial(WeightLaw):
    """NegBinomial(scale/alpha, 1/(1+alpha)) / scale; matches the
    generalized-KL generator with alpha > 0."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be > 0")
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, self.scale * math.log1p(1.0 / self.alpha))

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        al, c = self.alpha, self.scale
        arg = (1.0 + al) - al * np.exp(z / c)
        out = np.full(z.shape, INF)
        ok = arg > 0
        out[ok] = -c / al * np.log(arg[ok])
        return out

    def log_mgf_slopes(self, z):
        # Lambda' = e^(z/c) / arg and Lambda'' = Lambda' (1 + alpha) / (c arg)
        grow = np.exp(np.asarray(z, dtype=float) / self.scale)
        arg = (1.0 + self.alpha) - self.alpha * grow
        arg = np.where(arg > 0, arg, np.nan)
        slope = grow / arg
        return slope, slope * (1.0 + self.alpha) / (self.scale * arg)

    def _p_success(self, tau: float) -> float:
        return 1.0 - self.alpha / (1.0 + self.alpha) * math.exp(tau / self.scale)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        r = nk * self.scale / self.alpha
        return rng.negative_binomial(r, self._p_success(tau), size=size) / self.scale

    is_discrete = True

    def block_support(self, nk, tail_log_mass):
        from scipy import stats

        r = nk * self.scale / self.alpha
        p = 1.0 / (1.0 + self.alpha)
        jmax = int(stats.nbinom.isf(math.exp(tail_log_mass) / 2.0, r, p)) + 2
        j = np.arange(jmax + 1)
        return j / self.scale, stats.nbinom.pmf(j, r, p), float(stats.nbinom.sf(jmax, r, p))


@dataclass(frozen=True)
class ScaledBinomial(WeightLaw):
    """Binomial(m, scale/m) / scale with integer m > scale; matches the
    generalized-KL generator with alpha = -scale/m in ]-1,0[."""

    m: int
    scale: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("m must be a positive integer")
        if not (0 < self.scale < self.m):
            raise ValueError("need 0 < scale < m")

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, INF)

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        c, m = self.scale, float(self.m)
        return m * np.log((1.0 - c / m) + (c / m) * np.exp(z / c))

    def log_mgf_slopes(self, z):
        # the tilted success probability p: Lambda' = m p / c, Lambda'' = m p (1-p) / c^2
        c, m = self.scale, float(self.m)
        p, var = _bernoulli(np.asarray(z, dtype=float) / c + math.log(c / (m - c)))
        return m / c * p, m / c**2 * var

    def _p_tilted(self, tau: float) -> float:
        c, m = self.scale, float(self.m)
        return _logistic(tau / c + math.log(c / (m - c)))

    def sample_tilted_block(self, tau, nk, rng, size):
        return rng.binomial(self.m * nk, self._p_tilted(tau), size=size) / self.scale

    is_discrete = True

    def block_support(self, nk, tail_log_mass):
        from scipy import stats

        n = self.m * nk
        j = np.arange(n + 1)
        return j / self.scale, stats.binom.pmf(j, n, self.scale / self.m), 0.0


@dataclass(frozen=True)
class ModTiltedStable(WeightLaw):
    """Affinely modified tilted stable: W/beta - (1/beta - 1) with W the
    tilted-stable law of index parameter gamma = -1 and scale/beta^2;
    matches the blended-weight chi-square generator."""

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in ]0,1]")
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    @property
    def base(self) -> TiltedStable:
        return TiltedStable(gamma=-1.0, scale=self.scale / self.beta**2)

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, self.scale / (2.0 * self.beta))

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        b, c = self.beta, self.scale
        out = np.full(z.shape, INF)
        ok = z < c / (2.0 * b)
        out[ok] = -(1.0 / b - 1.0) * z[ok] + c / b**2 * (
            1.0 - np.sqrt(1.0 - 2.0 * b * z[ok] / c)
        )
        return out

    def log_mgf_slopes(self, z):
        # with r = sqrt(1 - 2 b z / c): Lambda' = 1/(b r) - (1/b - 1), Lambda'' = 1/(c r^3)
        b, c = self.beta, self.scale
        arg = 1.0 - 2.0 * b * np.asarray(z, dtype=float) / c
        root = np.sqrt(np.where(arg > 0, arg, np.nan))
        return 1.0 / (b * root) - (1.0 / b - 1.0), 1.0 / (c * root**3)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        w = self.base.sample_tilted_block(tau / self.beta, nk, rng, size)
        return w / self.beta - nk * (1.0 / self.beta - 1.0)


@dataclass(frozen=True)
class TwoPointLaw(WeightLaw):
    """Law on {z1, z2} with P[W = z1] = (z2-1)/(z2-z1) (mean 1); with
    ``mult`` > 1 the law of the average of ``mult`` such draws, matching
    ``mult * phi``."""

    z1: float
    z2: float
    mult: int = 1

    def __post_init__(self):
        if not (self.z1 < 1.0 < self.z2):
            raise ValueError("need z1 < 1 < z2")
        if not (isinstance(self.mult, int) and self.mult >= 1):
            raise ValueError("mult must be a positive integer")

    @property
    def p(self) -> float:
        return (self.z2 - 1.0) / (self.z2 - self.z1)

    def mgf_dom(self) -> Tuple[float, float]:
        return (-INF, INF)

    def log_mgf(self, z):
        # log(p e^(z1 t) + (1 - p) e^(z2 t)) = z2 t + log1p(p expm1(-d)) for
        # t >= 0 and z1 t + log1p((1 - p) expm1(d)) for t < 0, d = (z2 - z1) t:
        # log1p of the tilted mass, exactly 0 at t = 0 and never overflowing
        t = np.asarray(z, dtype=float) / self.mult
        up = t >= 0
        shift = np.where(up, self.z2, self.z1) * t
        mass = np.where(up, self.p, (1.0 - self.z1) / (self.z2 - self.z1))
        return self.mult * (shift + np.log1p(mass * np.expm1(-(self.z2 - self.z1) * np.abs(t))))

    def log_mgf_slopes(self, z):
        # q, the tilted probability of z2: Lambda' = z1 + (z2 - z1) q and
        # Lambda'' = (z2 - z1)^2 q (1 - q) / mult
        log_odds = (math.log1p(-self.p) - math.log(self.p)
                    + (self.z2 - self.z1) * np.asarray(z, dtype=float) / self.mult)
        q, var = _bernoulli(log_odds)
        spread = self.z2 - self.z1
        return self.z1 + spread * q, spread**2 * var / self.mult

    def sample_tilted_block(self, tau, nk, rng, size):
        t = tau / self.mult
        log_w1 = math.log(self.p) + self.z1 * t
        log_w2 = math.log1p(-self.p) + self.z2 * t
        prob_z2 = _logistic(log_w2 - log_w1)
        steps = nk * self.mult
        ell = rng.binomial(steps, prob_z2, size=size)
        return (self.z1 * (steps - ell) + self.z2 * ell) / self.mult

    is_discrete = True

    def block_support(self, nk, tail_log_mass):
        from scipy import stats

        steps = nk * self.mult
        ell = np.arange(steps + 1)
        vals = (self.z1 * (steps - ell) + self.z2 * ell) / self.mult
        return vals, stats.binom.pmf(ell, steps, 1.0 - self.p), 0.0


@dataclass(frozen=True)
class GenAsymLaplaceLaw(WeightLaw):
    """Shifted difference of two Gammas (generalized asymmetric Laplace);
    mass on negatives is positive.  Matches the bounded-derivative
    generator family."""

    alpha: float
    beta1: float
    beta2: float
    scale: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta1", "beta2", "scale"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")

    @property
    def theta(self) -> float:
        return 1.0 + self.alpha * (1.0 / self.beta2 - 1.0 / self.beta1)

    def mgf_dom(self) -> Tuple[float, float]:
        return (-self.scale * self.beta2, self.scale * self.beta1)

    def log_mgf(self, z):
        z = np.asarray(z, dtype=float)
        al, b1, b2, c = self.alpha, self.beta1, self.beta2, self.scale
        arg = 1.0 + z / c * (1.0 / b2 - 1.0 / b1) - z**2 / (c**2 * b1 * b2)
        out = np.full(z.shape, INF)
        ok = (z > -c * b2) & (z < c * b1) & (arg > 0)
        out[ok] = self.theta * z[ok] - c * al * np.log(arg[ok])
        return out

    def log_mgf_slopes(self, z):
        # arg = (u / (c beta1)) (v / (c beta2)) with u = c beta1 - z, v = c beta2 + z
        z = np.asarray(z, dtype=float)
        c, al = self.scale, self.alpha
        u, v = c * self.beta1 - z, c * self.beta2 + z
        inside = (u > 0) & (v > 0)
        u, v = np.where(inside, u, np.nan), np.where(inside, v, np.nan)
        return self.theta + c * al * (1.0 / u - 1.0 / v), c * al * (1.0 / u**2 + 1.0 / v**2)

    def sample_tilted_block(self, tau, nk, rng, size):
        self.check_tau(tau)
        c, al = self.scale, self.alpha
        shape = c * al * nk
        g1 = rng.gamma(shape=shape, scale=1.0 / (c * self.beta1 - tau), size=size)
        g2 = rng.gamma(shape=shape, scale=1.0 / (c * self.beta2 + tau), size=size)
        return self.theta * nk + g1 - g2


def log_mgf(law: WeightLaw, z) -> float | np.ndarray:
    """Cumulant function Lambda(z); +inf outside the domain."""
    out = law.log_mgf(np.atleast_1d(np.asarray(z, dtype=float)))
    return float(out[0]) if np.ndim(z) == 0 else out


# generator -> law dispatch ----------------------------------------------------


def law_for_generator(gen: Generator, extra_scale: float = 1.0) -> WeightLaw:
    """Weight law whose cumulant function is the conjugate of
    ``extra_scale * phi_gen``; raises for non-simulable combinations."""
    if extra_scale <= 0:
        raise ValueError("extra_scale must be > 0")
    if isinstance(gen, PowerGamma):
        c = gen.scale * extra_scale
        g = gen.gamma
        if g < 0:
            return TiltedStable(g, c)
        if g == 0:
            return GammaLaw(c)
        if 0 < g < 1:
            return CompoundPoissonGamma(g, c)
        if g == 1:
            return ScaledPoisson(c)
        if g == 2:
            return Gaussian(c)
        return DistortedStable(g, c)
    if isinstance(gen, GeneralizedKL):
        c = gen.scale * extra_scale
        if gen.alpha > 0:
            return ScaledNegBinomial(gen.alpha, c)
        m_real = -c / gen.alpha
        m = round(m_real)
        if abs(m_real - m) > 1e-9 or m <= c:
            raise ValueError(
                "generalized-KL with negative alpha is simulable only when "
                "-scale*M/alpha is an integer exceeding scale*M "
                f"(got {m_real})"
            )
        return ScaledBinomial(int(m), c)
    if isinstance(gen, AnchoredKL):
        return ShiftedPoisson(gen.anchor, gen.scale * extra_scale)
    if isinstance(gen, BlendedWeightChiSq):
        return ModTiltedStable(gen.beta, gen.scale * extra_scale)
    if isinstance(gen, TwoPoint):
        mult = round(extra_scale)
        if abs(extra_scale - mult) > 1e-9 or mult < 1:
            raise ValueError(
                "two-point generators are simulable only for integer total "
                f"reference mass (got {extra_scale}); normalize P first"
            )
        return TwoPointLaw(gen.z1, gen.z2, mult=int(mult))
    if isinstance(gen, GenAsymLaplace):
        return GenAsymLaplaceLaw(
            gen.alpha, gen.beta1, gen.beta2, gen.scale * extra_scale
        )
    if isinstance(gen, CustomGenerator):
        raise ValueError(
            "custom generators need a user-provided weight law; pass one "
            "explicitly to the estimator"
        )
    raise TypeError(f"no weight law known for {type(gen).__name__}")


# pmf helpers (exact enumeration) ----------------------------------------------


def _poisson_support(lam: float, tail_log_mass: float):
    """Poisson(lam) on 0..jmax with its tail P[X > jmax]: jmax is 2 past
    the point where the tail falls to exp(tail_log_mass) / 2, found by
    ``isf`` or, where ``isf`` is not finite (far tails), on ``logsf``."""
    from scipy import stats

    cut = stats.poisson.isf(math.exp(tail_log_mass) / 2.0, lam)
    if not math.isfinite(cut):
        log_target = tail_log_mass - math.log(2.0)
        top = max(2.0 * lam, 8.0)
        while stats.poisson.logsf(top, lam) > log_target:
            top *= 2.0
        cut = np.argmax(stats.poisson.logsf(np.arange(math.ceil(top) + 1), lam) <= log_target)
    jmax = int(cut) + 2
    j = np.arange(jmax + 1)
    return j, stats.poisson.pmf(j, lam), float(stats.poisson.sf(jmax, lam))
