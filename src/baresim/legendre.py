"""Numeric construction of cumulant functions and generators from a
monotone derivative description.

Given a smooth strictly increasing ``F`` on ``]a_F, b_F[`` and an anchor
``c`` in the interior of its range, the generator is the integral of its
derivative phi'(u) = F(u + F^{-1}(c) - 1) - c from 1, on ``[t_-, t_+] = 1 +
[a_F, b_F] - F^{-1}(c)``: one adaptive quadrature, +inf where it diverges
at an end, extended affinely beyond a finite end with slope
lambda_-/lambda_+, the limit of phi' there.  Its conjugate, the cumulant
function on ``]lambda_-, lambda_+[ = int(range F) - c``, follows by the
Legendre identity (Rockafellar, *Convex Analysis*, 1970, section 26):
Lambda(z) = z t - phi(t) at t = Lambda'(z) = F^{-1}(z + c) + 1 - F^{-1}(c),
one inversion of ``F`` (bracketed root finding) and one quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

__all__ = ["GeneratorSpec", "CumulantFunction", "build_lambda", "build_phi",
           "legendre_transform", "check_mean_one"]

_GRID_SIZE = 512
_INV_TOL = 1e-12
_QUAD_TOL = 1e-12


def _build_grid(lo: float, hi: float) -> np.ndarray:
    """Bracketing grid over ]lo, hi[, log-spaced near infinite endpoints."""
    if math.isfinite(lo) and math.isfinite(hi):
        eps = (hi - lo) * 1e-9
        return np.linspace(lo + eps, hi - eps, _GRID_SIZE)
    pieces = []
    if math.isfinite(lo):
        pieces.append(lo + np.logspace(-9, 0, _GRID_SIZE // 4) * max(1.0, abs(lo)))
        anchor_left = lo + max(1.0, abs(lo))
    else:
        pieces.append(-np.logspace(0, 8, _GRID_SIZE // 4)[::-1])
        anchor_left = -1.0
    if math.isfinite(hi):
        pieces.append(hi - np.logspace(-9, 0, _GRID_SIZE // 4)[::-1] * max(1.0, abs(hi)))
        anchor_right = hi - max(1.0, abs(hi))
    else:
        pieces.append(np.logspace(0, 8, _GRID_SIZE // 4))
        anchor_right = 1.0
    if anchor_left < anchor_right:
        pieces.insert(1, np.linspace(anchor_left, anchor_right, _GRID_SIZE // 2))
    grid = np.unique(np.concatenate(pieces))
    return grid[(grid > lo) & (grid < hi)]


@dataclass
class GeneratorSpec:
    """A generator description: strictly increasing smooth ``F`` on
    ``]a_F, b_F[`` plus an anchor point ``c`` in the interior of range(F).

    Monotonicity is verified numerically on a grid at construction, where
    the range of F and ``F^{-1}(c)`` are computed once.
    """

    F: Callable[[float], float]
    a_F: float
    b_F: float
    c: float = 0.0

    _grid: np.ndarray = field(init=False, repr=False)
    _F_grid: np.ndarray = field(init=False, repr=False)
    _range_F: Tuple[float, float] = field(init=False, repr=False)
    _f_inv_c: float = field(init=False, repr=False)

    def __post_init__(self):
        if not self.a_F < 1.0 < self.b_F:
            raise ValueError("need a_F < 1 < b_F")
        grid = _build_grid(self.a_F, self.b_F)
        vals = np.array([float(self.F(t)) for t in grid])
        finite = np.isfinite(vals)
        grid, vals = grid[finite], vals[finite]
        if grid.size < 16:
            raise ValueError("F must be finite on most of ]a_F, b_F[")
        diffs = np.diff(vals)
        scale = max(1.0, float(vals[-1] - vals[0]))
        if np.any(diffs < -1e-9 * scale):
            raise ValueError("F is not strictly increasing on its grid")
        # drop float-saturated ties near finite range limits
        keep = np.concatenate(([True], diffs > 0))
        self._grid = grid[keep]
        self._F_grid = vals[keep]
        lo = _endpoint_limit(self.F, self.a_F, side="lower")
        hi = _endpoint_limit(self.F, self.b_F, side="upper")
        self._range_F = lo, hi
        if not (lo < self.c < hi):
            raise ValueError(f"anchor {self.c} outside int(range F) = ]{lo}, {hi}[")
        self._f_inv_c = self.F_inverse(self.c)

    @property
    def range_F(self) -> Tuple[float, float]:
        return self._range_F

    @property
    def lambda_dom(self) -> Tuple[float, float]:
        lo, hi = self.range_F
        return lo - self.c, hi - self.c

    @property
    def t_sc(self) -> Tuple[float, float]:
        f_inv_c = self._f_inv_c
        return 1.0 + self.a_F - f_inv_c, 1.0 + self.b_F - f_inv_c

    @property
    def phi_dom(self) -> Tuple[float, float]:
        lam_lo, lam_hi = self.lambda_dom
        t_lo, t_hi = self.t_sc
        a = t_lo if lam_lo == -math.inf else -math.inf
        b = t_hi if lam_hi == math.inf else math.inf
        return a, b

    def F_inverse(self, x: float) -> float:
        """Invert F by bracketed root finding on the monotone grid
        (Brent: bisection with secant/inverse-quadratic polish)."""
        from scipy import optimize

        lo, hi = self._range_F
        if not (lo < x < hi):
            raise ValueError(f"{x} outside int(range F) = ]{lo}, {hi}[")
        idx = int(np.searchsorted(self._F_grid, x))
        if idx == 0:
            t_lo, t_hi = self._widen_down(x)
        elif idx == self._grid.size:
            t_lo, t_hi = self._widen_up(x)
        else:
            t_lo, t_hi = float(self._grid[idx - 1]), float(self._grid[idx])
            if self._F_grid[idx - 1] == x:
                return t_lo
        f_lo = self.F(t_lo) - x
        f_hi = self.F(t_hi) - x
        if f_lo > 0 or f_hi < 0:  # saturated grid values; fall back to bisection
            for _ in range(200):
                mid = 0.5 * (t_lo + t_hi)
                if self.F(mid) < x:
                    t_lo = mid
                else:
                    t_hi = mid
                if t_hi - t_lo <= _INV_TOL * max(1.0, abs(t_lo)):
                    break
            return 0.5 * (t_lo + t_hi)
        return float(
            optimize.brentq(
                lambda t: self.F(t) - x, t_lo, t_hi,
                xtol=_INV_TOL, rtol=4 * np.finfo(float).eps, maxiter=200,
            )
        )

    def _widen_down(self, x: float) -> Tuple[float, float]:
        t_hi = self._grid[0]
        t_lo = t_hi - max(1.0, abs(t_hi))
        while t_lo > self.a_F and self.F(t_lo) > x:
            t_lo, t_hi = (self.a_F + 0.5 * (t_lo - self.a_F) if math.isfinite(self.a_F)
                          else 2 * t_lo - t_hi), t_lo
        return max(t_lo, self.a_F + 1e-300), t_hi

    def _widen_up(self, x: float) -> Tuple[float, float]:
        t_lo = self._grid[-1]
        t_hi = t_lo + max(1.0, abs(t_lo))
        while t_hi < self.b_F and self.F(t_hi) < x:
            t_lo, t_hi = t_hi, (self.b_F - 0.5 * (self.b_F - t_hi) if math.isfinite(self.b_F)
                                else 2 * t_hi - t_lo)
        return t_lo, min(t_hi, self.b_F - 1e-300)

    # phi / phi_prime in the CustomGenerator protocol ------------------------

    def phi(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty(t_arr.shape)
        for i, ti in enumerate(t_arr):
            out[i] = _phi_at(self, float(ti))
        return out

    def phi_prime(self, t):
        """phi'(t) = F(t + F^{-1}(c) - 1) - c on ]t_-, t_+[, and lambda_- at
        or below t_-, lambda_+ at or above t_+: the slopes of phi's affine
        pieces (``_phi_at``).  NaN where that slope is infinite: phi is +inf
        beyond such an end."""
        shift = self._f_inv_c - 1.0
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        t_lo, t_hi = self.t_sc
        lam_lo, lam_hi = self.lambda_dom
        out = np.where(t_arr <= t_lo, lam_lo, np.where(t_arr >= t_hi, lam_hi, np.nan))
        out[np.isinf(out)] = np.nan
        inside = (t_arr > t_lo) & (t_arr < t_hi)
        for i in np.nonzero(inside)[0]:
            out[i] = float(self.F(t_arr[i] + shift)) - self.c
        return out


def _endpoint_limit(F, endpoint: float, side: str) -> float:
    """One-sided limit of F at a domain endpoint: evaluate along a geometric
    approach (far to near) and detect divergence from the residual drift.
    A finite limit is Aitken's delta-squared of the last three probes when
    their two differences shrink, exact where F nears its limit
    geometrically along the probes (a power of the distance to the end);
    else the nearest probe."""
    sign = 1.0 if side == "lower" else -1.0  # the direction into the domain
    if math.isfinite(endpoint):
        ts = endpoint + sign * np.logspace(-6, -12, 7) * max(1.0, abs(endpoint))
    else:
        ts = -sign * np.logspace(6, 12, 7)
    vals = []
    for t in ts:
        try:
            v = float(F(t))
        except (OverflowError, ValueError):
            v = -sign * math.inf
        vals.append(v)
    v_near, v_prev = vals[-1], vals[-2]
    if not math.isfinite(v_near) or abs(v_near) > 1e30:
        return -sign * math.inf
    if abs(v_near - v_prev) > 1e-4 * max(1.0, abs(v_near)):
        return -sign * math.inf
    d_prev, d_near = v_prev - vals[-3], v_near - v_prev
    if abs(d_near) < abs(d_prev):
        return v_near - d_near * d_near / (d_near - d_prev)
    return v_near


@dataclass(frozen=True)
class CumulantFunction:
    """Numerically represented cumulant function Lambda on ]lam_lo, lam_hi[,
    with Lambda(0) = 0 and Lambda'(0) = 1."""

    spec: GeneratorSpec
    lam_lo: float
    lam_hi: float

    def __call__(self, z) -> float | np.ndarray:
        z_arr = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.empty(z_arr.shape)
        for i, zi in enumerate(z_arr):
            out[i] = self._at(float(zi))
        return float(out[0]) if np.ndim(z) == 0 else out

    def _at(self, z: float) -> float:
        if not (self.lam_lo < z < self.lam_hi):
            return 0.0 if z == 0.0 else math.inf
        spec = self.spec
        s = spec.F_inverse(z + spec.c)
        return z * (s - (spec._f_inv_c - 1.0)) - _integral(spec, s)


def build_lambda(spec: GeneratorSpec) -> CumulantFunction:
    """Cumulant function of the weight law tied to ``spec``."""
    lo, hi = spec.lambda_dom
    return CumulantFunction(spec, lo, hi)


def _integral(spec: GeneratorSpec, s: float) -> float:
    """int_{F^{-1}(c)}^s (F(u) - c) du for s in [a_F, b_F] (an s past an end
    by rounding is that end), which is phi at t = s + 1 - F^{-1}(c), by one
    ``quad`` in v >= 0: u's distance to the end of ]a_F, b_F[ on s's side
    shrinks as e^-v (a finite end, reached at v = +inf) or its distance from
    F^{-1}(c) grows as e^v - 1 (an infinite end), so an integrand steep near
    an end or spread wide is smooth in v.  The integral can diverge only at
    an end, +inf where ``quad`` flags it; inside, a flag warns of an F
    rounded near the end, and the value is quad's best."""
    from scipy import integrate

    F, c, start = spec.F, spec.c, spec._f_inv_c
    if s == start or not math.isfinite(s):
        return 0.0 if s == start else abs(s)  # phi(+-inf) = +inf; NaN stays

    def f(u: float) -> float:  # F - c, infinite where F overflows near an end
        try:
            return F(u) - c
        except (OverflowError, ZeroDivisionError):
            return math.copysign(math.inf, u - start)

    end = spec.a_F if s < start else spec.b_F
    if math.isfinite(end):
        span = start - end
        v_s = math.log(span / (s - end)) if (s - end) * span > 0 else math.inf

        def integrand(v: float) -> float:
            w = span * math.exp(-v)  # u = end + w; where it rounds onto the end, ~0
            return 0.0 if end + w == end else -f(end + w) * w
    else:
        sign, v_s = math.copysign(1.0, end), math.log1p(abs(s - start))

        def integrand(v: float) -> float:
            w = math.expm1(v)
            return f(start + sign * w) * sign * (w + 1.0)

    with np.errstate(all="ignore"):  # an F driven to overflow at a divergent end
        val, _, _, *flag = integrate.quad(integrand, 0.0, v_s, epsabs=_QUAD_TOL,
                                          epsrel=_QUAD_TOL, full_output=1)
    return val if math.isfinite(val) and not (flag and v_s == math.inf) else math.inf


def _phi_at(spec: GeneratorSpec, t: float) -> float:
    """phi(t): the integral of phi' from 1 on [t_-, t_+], affine beyond a
    finite end with slope lambda_-/lambda_+, +inf where that is infinite."""
    t_lo, t_hi = spec.t_sc
    if t < t_lo or t > t_hi:
        end, slope = (t_lo, spec.lambda_dom[0]) if t < t_lo else (t_hi, spec.lambda_dom[1])
        return _phi_at(spec, end) + slope * (t - end) if math.isfinite(slope) else math.inf
    s = spec.a_F if t == t_lo else spec.b_F if t == t_hi else t + (spec._f_inv_c - 1.0)
    return _integral(spec, s)


def build_phi(spec: GeneratorSpec):
    """Return the divergence generator tied to ``spec`` as a
    :class:`baresim.divergence.CustomGenerator`."""
    from .divergence import CustomGenerator

    return CustomGenerator(spec)


def legendre_transform(f: Callable[[float], float], domain: Tuple[float, float]):
    """Numeric Fenchel-Legendre transform of a convex function.

    Returns a callable ``f*(t) = sup_z (z t - f(z))`` computed by golden
    section over a bracketing grid of the (finite part of the) domain;
    an unbounded supremum is signalled as +inf.
    """
    from scipy import optimize

    lo, hi = domain
    w_lo = lo + 1e-10 * max(1.0, abs(lo)) if math.isfinite(lo) else -1e8
    w_hi = hi - 1e-10 * max(1.0, abs(hi)) if math.isfinite(hi) else 1e8

    def conjugate(t: float) -> float:
        big = 1e100  # finite stand-in for +inf, keeps the 1-d optimizer happy

        def neg_obj(z: float) -> float:
            try:
                with np.errstate(over="ignore"):
                    val = f(z)
            except (OverflowError, ValueError):
                return big
            if not math.isfinite(val):
                return big
            return -(z * t - val)

        grid = np.linspace(w_lo, w_hi, 257)
        vals = np.array([neg_obj(z) for z in grid])
        usable = vals < big
        if not np.any(usable):
            return math.inf
        i = int(np.argmin(vals))
        z_lo = grid[max(i - 1, 0)]
        z_hi = grid[min(i + 1, grid.size - 1)]
        if i in (0, grid.size - 1) and not math.isfinite(lo if i == 0 else hi):
            # supremum attained off the working window: slope exceeds range
            return math.inf
        res = optimize.minimize_scalar(
            neg_obj, bounds=(z_lo, z_hi), method="bounded",
            options={"xatol": 1e-12},
        )
        return -float(res.fun)

    return conjugate


def check_mean_one(law, n_samples: int, z_grid, seed: int = 0) -> dict:
    """Monte Carlo diagnostic: empirical mean vs 1 and empirical log-MGF vs
    Lambda on a grid of interior points.  Report-only; flags deviations
    beyond four standard errors."""
    from .engine import _rng
    from .laws import log_mgf

    draws = law.sample_tilted_block(0.0, 1, _rng(seed), n_samples)
    mean = float(draws.mean())
    mean_se = float(draws.std(ddof=1) / math.sqrt(n_samples))
    entries = []
    ok = abs(mean - 1.0) <= 4.0 * mean_se
    for z in np.atleast_1d(np.asarray(z_grid, dtype=float)):
        ez = np.exp(z * draws)
        emp = float(ez.mean())
        se = float(ez.std(ddof=1) / math.sqrt(n_samples))
        target = math.exp(log_mgf(law, float(z)))
        flag = abs(emp - target) <= 4.0 * se
        ok = ok and flag
        entries.append(
            {"z": float(z), "empirical_mgf": emp, "mgf": target, "se": se, "ok": flag}
        )
    return {
        "mean": mean,
        "mean_se": mean_se,
        "mean_ok": abs(mean - 1.0) <= 4.0 * mean_se,
        "mgf_checks": entries,
        "ok": ok,
    }
