"""Limit laws of renewal counts under exponentially increasing lifetimes.

When successive lifetimes grow like alpha^k in distribution, the centered
renewal count N_t - floor(log_alpha t) does not converge: its law oscillates
through a family Q_eta indexed by the fractional part eta of log_alpha t.
This package computes that family exactly for the digital-search-tree case
(alpha = 2, where the count is the insertion-depth birth chain and the limit
is a signed mixture of exponential laws), simulates it for general alpha,
and ships a harness that verifies the convergence rates and tail bounds
numerically.
"""

from .dst import (
    Dst,
    InsertReport,
    InsufficientBitsError,
    build,
    knuth_corpus,
    load_corpus,
    simulate_insertion_depth,
)
from .lifetimes import (
    GeometricDst,
    ScaledBase,
    sample_lifetime,
)
from .limit_law import (
    mixture_coefficients,
    q_cdf,
    q_pmf,
    q_tail,
    s_infinity_cdf,
    s_infinity_sf,
    sample_q,
)
from .metrics import (
    check_rate_report,
    pmf_gap_bound_check,
    rate_report,
    tv_distance,
    tv_to_limit,
)
from .pmf import IntPmf
from .renewal import (
    depth_distribution_exact,
    ks_scaled_sum_exact,
    sample_scaled_limit,
    simulate_count,
)
from .rng import DEFAULT_SEED, stream_rng

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "Dst",
    "GeometricDst",
    "InsertReport",
    "InsufficientBitsError",
    "IntPmf",
    "ScaledBase",
    "build",
    "check_rate_report",
    "depth_distribution_exact",
    "knuth_corpus",
    "ks_scaled_sum_exact",
    "load_corpus",
    "mixture_coefficients",
    "pmf_gap_bound_check",
    "q_cdf",
    "q_pmf",
    "q_tail",
    "rate_report",
    "s_infinity_cdf",
    "s_infinity_sf",
    "sample_lifetime",
    "sample_q",
    "sample_scaled_limit",
    "simulate_count",
    "simulate_insertion_depth",
    "stream_rng",
    "tv_distance",
    "tv_to_limit",
]
