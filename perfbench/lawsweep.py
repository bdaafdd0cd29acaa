"""Law-layer sweep for the cost model: time ``sample_tilted_block`` of every
built-in weight law at block sizes n_k in {1, 400, 4000}.

Each cell times one call for a fixed number of block sums, after an untimed
one-draw call that fills the distorted-stable inverter cache.  The stable
samplers pay a large fixed cost per call, so the figure is specific to the
call size.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

BLOCK_SIZES = (1, 400, 4000)
DRAWS_PER_CALL = 100
TILT_RATIO = 1.1  # tilt every law toward the ratio q/p = 1.1


def sweep_generators():
    dv = importlib.import_module("baresim.divergence")
    return [
        dv.PowerGamma(-1.0),            # TiltedStable
        dv.PowerGamma(0.5),             # CompoundPoissonGamma
        dv.PowerGamma(3.0),             # DistortedStable
        dv.PowerGamma(2.0),             # Gaussian
        dv.PowerGamma(0.0),             # GammaLaw
        dv.PowerGamma(1.0),             # ScaledPoisson
        dv.GeneralizedKL(1.0),          # ScaledNegBinomial
        dv.GeneralizedKL(-0.25),        # ScaledBinomial
        dv.AnchoredKL(0.5),             # ShiftedPoisson
        dv.BlendedWeightChiSq(0.8),     # ModTiltedStable
        dv.TwoPoint(0.5, 2.0),          # TwoPointLaw
        dv.GenAsymLaplace(1.0, 2.0, 3.0),  # GenAsymLaplaceLaw
    ]


def metric_name(law_name: str, nk: int) -> str:
    return f"laws.{law_name}.ns_per_block_sum.nk{nk}"


def law_names() -> list[str]:
    """Every concrete weight law that baresim.laws defines."""
    laws = importlib.import_module("baresim.laws")
    return sorted(
        name for name, cls in vars(laws).items()
        if isinstance(cls, type) and issubclass(cls, laws.WeightLaw)
        and cls is not laws.WeightLaw and cls.__module__ == laws.__name__
    )


def run_sweep(seed: int, small: bool = False) -> dict:
    """{metric name: ns per block sum} for every law and block size."""
    laws = importlib.import_module("baresim.laws")
    draws = 5 if small else DRAWS_PER_CALL
    rng = np.random.default_rng([seed, 2])
    sweep = [(gen, laws.law_for_generator(gen)) for gen in sweep_generators()]
    missing = set(law_names()) - {type(law).__name__ for _, law in sweep}
    if missing:
        raise RuntimeError(f"law sweep misses {sorted(missing)}")
    out = {}
    for gen, law in sweep:
        tau = law.check_tau(float(gen.phi_prime(TILT_RATIO)))
        for nk in BLOCK_SIZES:
            law.sample_tilted_block(tau, nk, rng, 1)
            t0 = time.perf_counter()
            law.sample_tilted_block(tau, nk, rng, draws)
            out[metric_name(type(law).__name__, nk)] = (time.perf_counter() - t0) * 1e9 / draws
    return out
