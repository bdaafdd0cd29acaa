"""baresim: constrained minima of phi-divergences (and maxima of
entropies, Renyi quantities, Hellinger integrals) by rare-event
simulation of blockwise weight sums."""

from .constraints import (
    ConstraintSet,
    affine_equality,
    box,
    constraint_from_dict,
    empty_set,
    from_predicate,
    full_space,
    halfspace,
    intersection,
    simplex_face,
    union,
)
from .divergence import (
    AnchoredKL,
    BlendedWeightChiSq,
    GenAsymLaplace,
    GeneralizedKL,
    PowerGamma,
    TwoPoint,
    bhattacharyya_arccos,
    bounded_bhattacharyya,
    escort_renyi,
    flatten_matrix,
    hellinger_integral,
    min_over_m_closed,
    modified_kl,
    modified_rev_kl,
    normalize_bs1,
    phi_eval,
    phi_prime,
    renyi,
    renyi_log_transform,
    renyi_power_transform,
    sundaresan,
    unflatten_matrix,
    weighted_divergence,
)
from .engine import (
    BlockPartition,
    Estimate,
    EstimatorConfig,
    Prepared,
    ProxySpec,
    bounds_general,
    estimate_entropy_extremum,
    estimate_min_divergence,
    ingest_sample,
    invert,
    is_estimate,
    naive_estimate,
    partition,
    prepare,
    proxy_q_star,
)
from .entropy import EntropySpec
from .laws import law_for_generator, log_mgf
from .legendre import (
    GeneratorSpec,
    check_mean_one,
    legendre_transform,
)

__version__ = "0.1.0"
