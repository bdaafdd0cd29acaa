"""Divergence generators and exact evaluation of phi-divergences.

A generator is a convex function ``phi`` with ``phi(1) = 0`` and
``phi'(1) = 0``; the induced directed distance between vectors is
``D(Q, P) = sum_k p_k * phi(q_k / p_k)`` with explicit conventions for
zero entries.  Each built-in generator family also knows the interval on
which its convex conjugate (the cumulant function of the matching weight
law) is finite; that interval drives both the zero-entry conventions and
the simulation machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "PowerGamma",
    "GeneralizedKL",
    "AnchoredKL",
    "BlendedWeightChiSq",
    "TwoPoint",
    "GenAsymLaplace",
    "CustomGenerator",
    "phi_eval",
    "phi_prime",
    "divergence",
    "weighted_divergence",
    "normalize_bs1",
    "hellinger_integral",
    "modified_kl",
    "modified_rev_kl",
    "renyi",
    "renyi_power_transform",
    "renyi_log_transform",
    "bhattacharyya_arccos",
    "bounded_bhattacharyya",
    "escort_renyi",
    "sundaresan",
    "min_over_m_closed",
    "flatten_matrix",
    "unflatten_matrix",
]

INF = math.inf


def _as_1d(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector of length >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def _check_int(name: str, value, least: int) -> None:
    """Refuse all but an integer >= ``least``; a numpy integer counts, a bool not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least} (got {value!r})")


def _check_anchor(anchor: float) -> None:
    """Refuse a NaN anchor, one whose e^anchor overflows a double, and one so
    negative that 1 - e^anchor rounds to 1 (below about -37.43), where the
    generator's left end and the weight law's Poisson part are lost."""
    if not anchor <= np.log(np.finfo(float).max):
        raise ValueError(f"anchor {anchor!r}: e^anchor is not a finite double; the anchor "
                         "must be at most about 709.78")
    if 1.0 - math.exp(anchor) == 1.0:
        raise ValueError(f"anchor {anchor!r}: 1 - e^anchor rounds to 1; the anchor must be "
                         "at least about -37.43")


def check_nonneg_vector(values) -> np.ndarray:
    """Validate a vector in R_{>=0}^K \\ {0} (nonnegative, not identically zero)."""
    arr = _as_1d(values, "vector")
    if np.any(arr < 0):
        raise ValueError("vector must have nonnegative entries")
    if not np.any(arr > 0):
        raise ValueError("vector must not be identically zero")
    return arr


def check_prob_vector(values) -> np.ndarray:
    """Validate a probability vector: entries >= 0, sum 1 within 1e-12."""
    arr = _as_1d(values, "probability vector")
    if np.any(arr < 0):
        raise ValueError("probability vector must have nonnegative entries")
    if abs(float(arr.sum()) - 1.0) > 1e-12:
        raise ValueError(f"probability vector must sum to 1 (got {arr.sum():.15g})")
    return arr


class Generator:
    """Base class for divergence generators.

    Subclasses provide ``phi`` and ``phi_prime`` on the interior of the
    effective domain ``]a, b[``, where ``engine.solve_m_equation`` keeps
    m q/p, plus the ends of the conjugate's domain ``]lambda_minus,
    lambda_plus[``, the limits of ``phi_prime`` at a and b.
    """

    a: float
    b: float
    lambda_minus: float
    lambda_plus: float

    def phi(self, t):
        raise NotImplementedError

    def phi_prime(self, t):
        raise NotImplementedError


def _phi_pow(gamma: float, t: np.ndarray) -> np.ndarray:
    """Unscaled power generator on its effective domain, +inf outside."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, INF)
    pos = t > 0
    if gamma == 0.0:
        out[pos] = -np.log(t[pos]) + t[pos] - 1.0
    elif gamma == 1.0:
        tp = t[pos]
        out[pos] = tp * np.log(tp) + 1.0 - tp
        out[t == 0] = 1.0
    elif 0.0 < gamma < 1.0:
        tp = t[pos]
        out[pos] = (tp**gamma - gamma * tp + gamma - 1.0) / (gamma * (gamma - 1.0))
        out[t == 0] = 1.0 / gamma
    elif gamma < 0.0:
        tp = t[pos]
        out[pos] = (tp**gamma - gamma * tp + gamma - 1.0) / (gamma * (gamma - 1.0))
    elif gamma == 2.0:
        out = 0.5 * (t - 1.0) ** 2
    else:  # gamma > 2: affine continuation on t <= 0
        tp = t[pos]
        out[pos] = (tp**gamma - gamma * tp + gamma - 1.0) / (gamma * (gamma - 1.0))
        neg = ~pos
        out[neg] = 1.0 / gamma - t[neg] / (gamma - 1.0)
    return out


@dataclass(frozen=True)
class PowerGamma(Generator):
    """Power-divergence generator family: gamma=1 is Kullback-Leibler,
    gamma=0 reverse KL, gamma=2 half Pearson chi-square, gamma=0.5 Hellinger,
    gamma=-1 half Neyman chi-square."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")
        if 1.0 < self.gamma < 2.0:
            raise ValueError(
                "gamma in ]1,2[ is not simulable: the conjugate is conjectured "
                "to correspond to a signed measure, not a probability law"
            )

    @property
    def a(self) -> float:
        return -INF if self.gamma >= 2.0 else 0.0

    @property
    def b(self) -> float:
        return INF

    @property
    def lambda_minus(self) -> float:
        if self.gamma > 2.0:
            return -self.scale / (self.gamma - 1.0)
        return -INF

    @property
    def lambda_plus(self) -> float:
        if self.gamma < 1.0:
            return self.scale / (1.0 - self.gamma)
        return INF

    def phi(self, t):
        return self.scale * _phi_pow(self.gamma, t)

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        g, c = self.gamma, self.scale
        if g == 2.0:
            return c * (t - 1.0)
        out = np.full(t.shape, np.nan)
        pos = t > 0
        if g == 1.0:
            out[pos] = c * np.log(t[pos])
        else:
            out[pos] = c * (t[pos] ** (g - 1.0) - 1.0) / (g - 1.0)
        if g > 2.0:
            out[~pos] = -c / (g - 1.0)
        return out


@dataclass(frozen=True)
class GeneralizedKL(Generator):
    """Interpolation between KL-type divergences; ``alpha = 1`` gives the
    Jensen-Shannon divergence, ``alpha -> 0`` recovers KL.  For negative
    ``alpha`` the generator is finite only on ``]0, -1/alpha[``."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")
        if not (-1.0 < self.alpha < 0.0 or self.alpha > 0.0):
            raise ValueError("alpha must lie in ]-1,0[ or ]0,inf[")

    @property
    def a(self) -> float:
        return 0.0

    @property
    def b(self) -> float:
        return INF if self.alpha > 0 else -1.0 / self.alpha


    @property
    def lambda_minus(self) -> float:
        return -INF

    @property
    def lambda_plus(self) -> float:
        if self.alpha > 0:
            return self.scale * math.log1p(1.0 / self.alpha)
        return INF

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        al, c = self.alpha, self.scale
        out = np.full(t.shape, INF)
        interior = (t > 0) & (t < self.b)
        tp = t[interior]
        out[interior] = c * (
            tp * np.log(tp) + (tp + 1.0 / al) * np.log((1.0 + al) / (1.0 + al * tp))
        )
        out[t == 0] = c / al * math.log1p(al)
        if al < 0:
            out[t == self.b] = -c / al * math.log(-1.0 / al)
        return out

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        al, c = self.alpha, self.scale
        out = np.full(t.shape, np.nan)
        interior = (t > 0) & (t < self.b)
        tp = t[interior]
        out[interior] = c * np.log((1.0 + al) * tp / (1.0 + al * tp))
        return out


@dataclass(frozen=True)
class AnchoredKL(Generator):
    """KL-type generator re-anchored so that a range of negative arguments
    becomes admissible: finite on ``]1 - e^anchor, inf[``."""

    anchor: float
    scale: float = 1.0

    def __post_init__(self):
        _check_anchor(self.anchor)
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    @property
    def a(self) -> float:
        return 1.0 - math.exp(self.anchor)

    @property
    def b(self) -> float:
        return INF

    lambda_minus = property(lambda self: -INF)
    lambda_plus = property(lambda self: INF)

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        c, ct = self.anchor, self.scale
        ec = math.exp(c)
        out = np.full(t.shape, INF)
        interior = t > self.a
        u = t[interior] + ec - 1.0
        out[interior] = ct * (u * (np.log(u) - c) + 1.0 - t[interior])
        out[t == self.a] = ct * ec
        return out

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        ec = math.exp(self.anchor)
        out = np.full(t.shape, np.nan)
        interior = t > self.a
        out[interior] = self.scale * (np.log(t[interior] + ec - 1.0) - self.anchor)
        return out


@dataclass(frozen=True)
class BlendedWeightChiSq(Generator):
    """Blended-weight chi-square generator; ``beta = 1`` is half Neyman
    chi-square, ``beta = 0.5`` twice the squared Vincze-Le Cam distance."""

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in ]0,1]")
        if not (self.scale > 0):
            raise ValueError("scale must be > 0")

    @property
    def a(self) -> float:
        return 1.0 - 1.0 / self.beta

    @property
    def b(self) -> float:
        return INF

    lambda_minus = property(lambda self: -INF)
    lambda_plus = property(lambda self: self.scale / (2.0 * self.beta))

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, INF)
        interior = t > self.a
        tp = t[interior]
        out[interior] = (
            self.scale
            * (tp - 1.0) ** 2
            / (2.0 * (self.beta * tp + 1.0 - self.beta))
        )
        return out

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, np.nan)
        interior = t > self.a
        denom = self.beta * t[interior] + 1.0 - self.beta
        out[interior] = self.scale / (2.0 * self.beta) * (1.0 - denom**-2)
        return out


@dataclass(frozen=True)
class TwoPoint(Generator):
    """Generator whose weight law is supported on two points ``{z1, z2}``;
    finite exactly on ``[z1, z2]``."""

    z1: float
    z2: float

    def __post_init__(self):
        if not (self.z1 < 1.0 < self.z2):
            raise ValueError("need z1 < 1 < z2")

    a = property(lambda self: self.z1)
    b = property(lambda self: self.z2)
    lambda_minus = property(lambda self: -INF)
    lambda_plus = property(lambda self: INF)

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        z1, z2 = self.z1, self.z2
        out = np.full(t.shape, INF)
        interior = (t > z1) & (t < z2)
        tp = t[interior]
        out[interior] = (tp - z1) / (z2 - z1) * np.log(
            (tp - z1) * (z2 - 1.0) / ((z2 - tp) * (1.0 - z1))
        ) - np.log((z2 - 1.0) / (z2 - tp))
        out[t == z1] = math.log((z2 - z1) / (z2 - 1.0))
        out[t == z2] = math.log((z2 - z1) / (1.0 - z1))
        return out

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        z1, z2 = self.z1, self.z2
        out = np.full(t.shape, np.nan)
        interior = (t > z1) & (t < z2)
        tp = t[interior]
        out[interior] = (
            np.log((tp - z1) * (z2 - 1.0) / ((z2 - tp) * (1.0 - z1)))
            / (z2 - z1)
        )
        return out


@dataclass(frozen=True)
class GenAsymLaplace(Generator):
    """Generator with bounded derivative (robust-estimation type); finite on
    all of R, conjugate finite on ``]-scale*beta2, scale*beta1[``."""

    alpha: float
    beta1: float
    beta2: float
    scale: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta1", "beta2", "scale"):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")

    a = property(lambda self: -INF)
    b = property(lambda self: INF)
    lambda_minus = property(lambda self: -self.scale * self.beta2)
    lambda_plus = property(lambda self: self.scale * self.beta1)

    def _x(self, t: np.ndarray) -> np.ndarray:
        return (1.0 - t) / self.alpha + 1.0 / self.beta2 - 1.0 / self.beta1

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        b1, b2 = self.beta1, self.beta2
        x = self._x(t)
        s = b1 + b2
        root = np.sqrt(4.0 + (s * x) ** 2)
        out = np.empty(t.shape)
        # near the zero of x the direct form cancels catastrophically;
        # use the expansion sqrt(4+s^2x^2) = 2 + s^2x^2/4 - s^4x^4/64 + ...
        small = np.abs(x) < 3e-4
        xs = x[~small]
        out[~small] = (root[~small] - xs * (b1 - b2) - 2.0) / 2.0 + np.log(
            (root[~small] - 2.0) / (b1 * b2 * xs**2)
        )
        xs = x[small]
        u = (s * xs) ** 2
        out[small] = (
            -xs * (b1 - b2) / 2.0
            + u / 8.0
            - u**2 / 128.0
            + math.log(s**2 / (4.0 * b1 * b2))
            + np.log1p(-u / 16.0 + u**2 / 128.0)
        )
        return self.scale * self.alpha * out

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        b1, b2, c = self.beta1, self.beta2, self.scale
        x = self._x(t)
        s = b1 + b2
        out = np.empty(t.shape)
        small = np.abs(x) < 3e-4
        xs = x[~small]
        out[~small] = c * (b1 - b2) / 2.0 + (c / xs) * (
            1.0 - np.sqrt(4.0 + (s * xs) ** 2) / 2.0
        )
        xs = x[small]
        out[small] = c * (b1 - b2) / 2.0 - c * s**2 * xs / 8.0 * (
            1.0 - (s * xs) ** 2 / 8.0
        )
        return out


@dataclass(frozen=True)
class CustomGenerator(Generator):
    """Generator built numerically from a monotone-derivative description;
    see :mod:`baresim.legendre`."""

    spec: object  # legendre.GeneratorSpec; kept loose to avoid an import cycle

    a = property(lambda self: self.spec.phi_dom[0])
    b = property(lambda self: self.spec.phi_dom[1])
    lambda_minus = property(lambda self: self.spec.lambda_dom[0])
    lambda_plus = property(lambda self: self.spec.lambda_dom[1])

    def phi(self, t):
        return self.spec.phi(t)

    def phi_prime(self, t):
        return self.spec.phi_prime(t)


# ---------------------------------------------------------------------------
# operations


def phi_eval(gen: Generator, t) -> float | np.ndarray:
    """Evaluate ``phi(t)``; returns +inf outside the effective domain."""
    out = gen.phi(np.atleast_1d(np.asarray(t, dtype=float)))
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def phi_prime(gen: Generator, t) -> float | np.ndarray:
    """Evaluate ``phi'(t)`` on the interior of the domain; NaN elsewhere
    signals a domain error for scalar inputs."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = gen.phi_prime(arr)
    if np.isscalar(t) or np.ndim(t) == 0:
        val = float(out[0])
        if math.isnan(val):
            raise ValueError(f"t={t} outside int(dom(phi))")
        return val
    return out


def _divergence_positive(gen: Generator, Q: np.ndarray, P: np.ndarray) -> float:
    """``sum_k p_k phi(q_k / p_k)`` for a finite Q and a strictly positive P
    of the same length, with no checks: +inf when a ratio leaves dom phi.
    For callers that validated P once and evaluate many Q."""
    vals = gen.phi(Q / P)
    if np.any(np.isinf(vals)):
        return INF
    return float(np.dot(P, vals))


def divergence(gen: Generator, Q, P) -> float:
    """``D(Q, P) = sum_k p_k phi(q_k / p_k)`` with the zero-entry conventions:
    ``p * phi(0/p) = p * phi(0)``, ``0 * phi(q/0) = q * lim phi(x sgn q)/(x sgn q)``,
    and ``0 * phi(0/0) = 0``.  Each convention is applied by explicit case
    analysis, never through floating-point ``0 * inf``."""
    P = check_nonneg_vector(P)
    Q = _as_1d(Q, "Q")
    if Q.shape != P.shape:
        raise ValueError("Q and P must have the same length")
    total = 0.0
    pos = P > 0
    if np.any(pos):
        total = _divergence_positive(gen, Q[pos], P[pos])
        if total == INF:
            return INF
    for q in Q[~pos]:
        if q == 0.0:
            continue
        if q > 0.0:
            slope = gen.lambda_plus if math.isinf(gen.b) else INF
            contrib = q * slope
        else:
            slope = gen.lambda_minus if math.isinf(gen.a) else -INF
            contrib = q * slope  # slope <= 0, so contrib >= 0
        if math.isinf(contrib):
            return INF
        total += contrib
    return total


def weighted_divergence(gen: Generator, Q, P, weights) -> float:
    """Divergence with strictly positive per-coordinate weights ``c_k``:
    ``sum_k c_k p_k phi(q_k/p_k)``, computed via the rescaling identity
    ``D(Q*c, P*c)``."""
    c = _as_1d(weights, "weights")
    if np.any(c <= 0):
        raise ValueError("weights must be strictly positive")
    Q = _as_1d(Q, "Q")
    P = _as_1d(P, "P")
    if not (Q.shape == P.shape == c.shape):
        raise ValueError("Q, P and weights must have the same length")
    return divergence(gen, Q * c, P * c)


def normalize_bs1(P) -> Tuple[np.ndarray, float]:
    """Turn a nonnegative reference vector into a probability vector.

    Returns ``(P / M, M)`` with ``M = sum(P) > 0``.  The caller is expected to
    rescale the generator to ``M * phi`` and the constraint set to ``Omega/M``.
    """
    P = check_nonneg_vector(P)
    mass = float(P.sum())
    return P / mass, mass


def _hellinger_terms(gamma: float, Q: np.ndarray, P: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logq = np.where(Q > 0, np.log(np.where(Q > 0, Q, 1.0)), -INF)
        logp = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), -INF)
    return gamma * logq + (1.0 - gamma) * logp


def hellinger_integral(gamma: float, Q, P) -> float:
    """``H_gamma(Q, P) = sum_k q_k^gamma p_k^(1-gamma)`` for admissible
    ``(gamma, P, Q)``: P a probability vector (strictly positive when
    gamma > 1), Q nonnegative with positive total mass (strictly positive
    when gamma < 0).  ``gamma = 0.5`` gives the Bhattacharyya coefficient."""
    if gamma in (0.0, 1.0):
        raise ValueError("gamma must differ from 0 and 1")
    P = check_prob_vector(P)
    Q = _as_1d(Q, "Q")
    if Q.shape != P.shape:
        raise ValueError("Q and P must have the same length")
    if np.any(Q < 0) or not np.any(Q > 0):
        raise ValueError("Q must be nonnegative with positive total mass")
    if gamma < 0 and np.any(Q == 0):
        raise ValueError("gamma < 0 requires strictly positive Q")
    if gamma > 1 and np.any(P == 0):
        raise ValueError("gamma > 1 requires strictly positive P")
    terms = _hellinger_terms(gamma, Q, P)
    finite = terms > -INF
    return float(np.exp(terms[finite]).sum())


def modified_kl(Q, P) -> float:
    """``I(Q, P) = sum q_k log(q_k / p_k)`` for P strictly positive and
    Q nonnegative with positive mass (need not be a probability vector)."""
    P = check_prob_vector(P)
    if np.any(P == 0):
        raise ValueError("P must be strictly positive")
    Q = _as_1d(Q, "Q")
    if np.any(Q < 0) or not np.any(Q > 0):
        raise ValueError("Q must be nonnegative with positive total mass")
    pos = Q > 0
    return float(np.dot(Q[pos], np.log(Q[pos] / P[pos])))


def modified_rev_kl(Q, P) -> float:
    """``Itilde(Q, P) = sum p_k log(p_k / q_k)`` for Q strictly positive."""
    P = check_prob_vector(P)
    Q = _as_1d(Q, "Q")
    if np.any(Q <= 0):
        raise ValueError("Q must be strictly positive")
    pos = P > 0
    return float(np.dot(P[pos], np.log(P[pos] / Q[pos])))


def renyi(gamma: float, Q, P) -> float:
    """Renyi divergence ``log(H_gamma(Q,P)) / (gamma (gamma-1))``."""
    h = hellinger_integral(gamma, Q, P)
    if h <= 0:
        raise ValueError("Hellinger integral must be positive")
    return math.log(h) / (gamma * (gamma - 1.0))


def renyi_power_transform(gamma: float, Q, P, c1: float, c2: float, c3: float) -> float:
    """``c1 * (H_gamma^c2 - c3)`` with ``c1, c2 != 0``."""
    if c1 == 0 or c2 == 0:
        raise ValueError("c1 and c2 must be nonzero")
    return c1 * (hellinger_integral(gamma, Q, P) ** c2 - c3)


def renyi_log_transform(gamma: float, Q, P, c4: float, fprime0: float = 1.0) -> float:
    """``(c4 / f'(0)) * log H_gamma``; ``c4 = 1/(gamma(gamma-1))`` recovers
    the plain Renyi divergence."""
    if c4 == 0 or fprime0 == 0:
        raise ValueError("c4 and f'(0) must be nonzero")
    return c4 / fprime0 * math.log(hellinger_integral(gamma, Q, P))


def bhattacharyya_arccos(gamma: float, Q, P, c5: float = 1.0, c6: float = 1.0) -> float:
    """``c5 * arccos(H_gamma)^c6`` for gamma in ]0,1[; requires H <= 1."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in ]0,1[")
    if c5 <= 0 or c6 <= 0:
        raise ValueError("c5 and c6 must be > 0")
    h = hellinger_integral(gamma, Q, P)
    if h > 1.0 + 1e-12:
        raise ValueError(f"arccos transform needs H <= 1, got {h}")
    return c5 * math.acos(min(h, 1.0)) ** c6


def bounded_bhattacharyya(gamma: float, Q, P, nu: float, c7: float = 1.0) -> float:
    """Bounded transform ``c7 * log(1 - (1-H)/nu) / log(1 - 1/nu)`` for
    gamma in ]0,1[ and nu outside [0,1]."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in ]0,1[")
    if not (nu < 0.0 or nu > 1.0):
        raise ValueError("nu must lie in ]-inf,0[ or ]1,inf[")
    if c7 <= 0:
        raise ValueError("c7 must be > 0")
    h = hellinger_integral(gamma, Q, P)
    return c7 * math.log(1.0 - (1.0 - h) / nu) / math.log(1.0 - 1.0 / nu)


def escort_renyi(nu1: float, nu: float, Q, P) -> float:
    """Renyi divergence between the escort transforms of Q and P with common
    escort exponent ``nu1`` evaluated at order ``nu/nu1``:

    ``nu1/(nu-nu1) log sum q^nu p^(nu1-nu) - nu/(nu-nu1) log sum q^nu1
    + log sum p^nu1``.
    """
    if nu1 <= 0:
        raise ValueError("nu1 must be > 0")
    if nu == nu1:
        raise ValueError("nu must differ from nu1")
    P = check_prob_vector(P)
    Q = check_prob_vector(Q)
    if np.any(Q == 0) or np.any(P == 0):
        raise ValueError("escort transforms require strictly positive vectors")
    s1 = float(np.sum(Q**nu * P ** (nu1 - nu)))
    return (
        nu1 / (nu - nu1) * math.log(s1)
        - nu / (nu - nu1) * math.log(float(np.sum(Q**nu1)))
        + math.log(float(np.sum(P**nu1)))
    )


def sundaresan(nu1: float, Q, P) -> float:
    """Sundaresan's divergence: the ``nu = 1`` escort case."""
    return escort_renyi(nu1, 1.0, Q, P)


def min_over_m_closed(gen: PowerGamma, Q, P):
    """Closed form of ``inf_{m != 0} D_{c*phi_gamma}(m Q, P)`` and its
    minimizer, for Q with component sum A = sum(Q) (A < 0 admissible when
    gamma = 2).

    Returns ``(value, m)`` with ``m = (H_gamma/A)^(1/(1-gamma))`` for
    gamma not in {0, 1}, ``m = exp(-I/A)`` for gamma = 1 and ``m = 1/A``
    for gamma = 0.
    """
    if not isinstance(gen, PowerGamma):
        raise TypeError("closed-form m-minimization requires a power generator")
    P = check_prob_vector(P)
    Q = _as_1d(Q, "Q")
    if Q.shape != P.shape:
        raise ValueError("Q and P must have the same length")
    g, c = gen.gamma, gen.scale
    A = float(Q.sum())
    if A < 0 and g != 2.0:
        raise ValueError("negative total mass is admissible only for gamma = 2")
    if A == 0:
        raise ValueError("sum(Q) must be nonzero")
    if g == 1.0:
        i_mod = modified_kl(Q, P)
        m = math.exp(-i_mod / A)
        return c * (1.0 - A * m), m
    if g == 0.0:
        value = divergence(gen, Q, P) + c * (1.0 - A + math.log(A))
        return value, 1.0 / A
    if g == 2.0:
        if np.any(P == 0):
            raise ValueError("gamma = 2 requires strictly positive P")
        h = float(np.sum(Q**2 / P))
    else:
        h = hellinger_integral(g, Q, P)
    m = (h / A) ** (1.0 / (1.0 - g))
    value = c / g * (1.0 - A ** (g / (g - 1.0)) * h ** (-1.0 / (g - 1.0)))
    return value, m


def flatten_matrix(X) -> np.ndarray:
    """Row-major flattening of a K1 x K2 matrix: entry (i, j) lands at
    position ``i * K2 + j`` (0-based)."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr.reshape(-1).copy()


def unflatten_matrix(v, shape: Tuple[int, int]) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.size != shape[0] * shape[1]:
        raise ValueError("length does not match the requested shape")
    return arr.reshape(shape).copy()
