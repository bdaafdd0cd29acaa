"""Entropy and diversity-index families.

One parametrized evaluator covers the power-sum families
``c1 * ((sum q^gamma)^c2 - c3)`` and ``(c4/f'(0)) * log (sum q^gamma)``;
named presets pin the classical indices to their parameters.  Shannon-type
families go through ``sum q log q``.  Each family is a function of its
moment, sum q^gamma or sum q log q (``_from_moment``), which the
estimator inverts from the minimum of the power divergence of order
``_order`` from the uniform reference vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _as_1d

__all__ = [
    "EntropySpec",
    "entropy",
    "gamma_norm",
    "hill_number",
    "havrda_charvat",
    "arimoto",
    "sharma_mittal1",
    "patil_taillie",
    "renyi_entropy",
    "shannon",
    "sharma_mittal2",
]


@dataclass(frozen=True)
class EntropySpec:
    """Description of one entropy functional.

    kind "power":   c1 * ((sum q^gamma)^c2 - c3)
    kind "log":     (c4 / fprime0) * log(sum q^gamma)
    kind "shannon": -sum q log q
    kind "sm2":     (exp((s-1) * sum q log q) - 1) / (1 - s)
    """

    kind: str
    gamma: float = 0.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 0.0
    c4: float = 1.0
    fprime0: float = 1.0
    s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("power", "log", "shannon", "sm2"):
            raise ValueError(f"unknown entropy kind {self.kind!r}")
        if self.kind == "power":
            if self.c1 == 0 or self.c2 == 0:
                raise ValueError("power entropy needs c1, c2 != 0")
            if self.gamma in (0.0, 1.0):
                raise ValueError("power entropy needs gamma outside {0,1}")
        if self.kind == "log":
            if self.c4 == 0 or self.fprime0 == 0:
                raise ValueError("log entropy needs c4, f'(0) != 0")
            if self.gamma in (0.0, 1.0):
                raise ValueError("log entropy needs gamma outside {0,1}")
        if self.kind == "sm2" and (self.s <= 0 or self.s == 1.0):
            raise ValueError("Sharma-Mittal (type 2) needs s in ]0,1[ or ]1,inf[")


def _power_sum(gamma: float, Q: np.ndarray) -> float:
    if gamma < 0 and np.any(Q == 0):
        raise ValueError("negative gamma requires strictly positive entries")
    pos = Q > 0
    return float(np.sum(Q[pos] ** gamma))


def _q_log_q(Q: np.ndarray) -> float:
    pos = Q > 0
    return float(np.dot(Q[pos], np.log(Q[pos])))


def _order(spec: EntropySpec) -> float:
    """The gamma of the power divergence whose minimum gives the moment of
    ``spec``: its own gamma for sum q^gamma, 1 (KL) for sum q log q."""
    return 1.0 if spec.kind in ("shannon", "sm2") else spec.gamma


def _from_moment(spec: EntropySpec, moment: float) -> float:
    """The entropy ``spec`` of a vector whose moment is ``moment``: sum
    q^gamma for the kinds power and log, sum q log q for shannon and sm2."""
    if spec.kind == "power":
        return spec.c1 * (moment**spec.c2 - spec.c3)
    if spec.kind == "log":
        return spec.c4 / spec.fprime0 * math.log(moment)
    if spec.kind == "shannon":
        return -moment
    return (math.exp((spec.s - 1.0) * moment) - 1.0) / (1.0 - spec.s)


def entropy(spec: EntropySpec, Q) -> float:
    """Evaluate the entropy family ``spec`` at a nonnegative vector Q
    (mass A = sum Q need not be 1)."""
    Q = _as_1d(Q, "Q")
    if np.any(Q < 0) or not np.any(Q > 0):
        raise ValueError("Q must be nonnegative with positive total mass")
    moment = _q_log_q(Q) if _order(spec) == 1.0 else _power_sum(spec.gamma, Q)
    return _from_moment(spec, moment)


# named presets ---------------------------------------------------------------


def gamma_norm(gamma: float) -> EntropySpec:
    """Euclidean gamma-norm ``(sum q^gamma)^(1/gamma)``."""
    return EntropySpec("power", gamma=gamma, c1=1.0, c2=1.0 / gamma, c3=0.0)


def hill_number(gamma: float) -> EntropySpec:
    """Mean heterogeneity index ``(sum q^gamma)^(1/(gamma-1))``.

    Note the exponent sign: the classical Hill number convention uses
    1/(1-gamma); scalings of this family differ across the literature and
    this preset pins the displayed form.
    """
    return EntropySpec("power", gamma=gamma, c1=1.0, c2=1.0 / (gamma - 1.0), c3=0.0)


def havrda_charvat(gamma: float) -> EntropySpec:
    """Havrda-Charvat (Tsallis) entropy ``(sum q^gamma - 1)/(2^(1-gamma) - 1)``."""
    return EntropySpec(
        "power", gamma=gamma, c1=1.0 / (2.0 ** (1.0 - gamma) - 1.0), c2=1.0, c3=1.0
    )


def arimoto(gamma_tilde: float) -> EntropySpec:
    """Arimoto entropy of order ``gamma_tilde``."""
    if gamma_tilde in (0.0, 1.0):
        raise ValueError("order must differ from 0 and 1")
    return EntropySpec(
        "power",
        gamma=1.0 / gamma_tilde,
        c1=1.0 / (gamma_tilde - 1.0),
        c2=gamma_tilde,
        c3=1.0,
    )


def sharma_mittal1(gamma: float, s: float) -> EntropySpec:
    """Sharma-Mittal entropy of order gamma and degree s (type 1)."""
    if s == 1.0:
        raise ValueError("degree s must differ from 1")
    return EntropySpec(
        "power", gamma=gamma, c1=1.0 / (1.0 - s), c2=(1.0 - s) / (1.0 - gamma), c3=1.0
    )


def patil_taillie(s: float) -> EntropySpec:
    """Patil-Taillie diversity of degree s; s = 1 is Gini-Simpson."""
    if s == 0.0:
        raise ValueError("degree s must be nonzero")
    return EntropySpec("power", gamma=s + 1.0, c1=-1.0 / s, c2=1.0, c3=1.0)


def renyi_entropy(gamma: float) -> EntropySpec:
    """Renyi entropy ``log(sum q^gamma)/(1-gamma)``."""
    return EntropySpec("log", gamma=gamma, c4=1.0 / (1.0 - gamma), fprime0=1.0)


def shannon() -> EntropySpec:
    return EntropySpec("shannon")


def sharma_mittal2(s: float) -> EntropySpec:
    """Sharma-Mittal entropy, second type, through ``sum q log q``."""
    return EntropySpec("sm2", s=s)
