"""Limit laws of renewal counts under exponentially increasing lifetimes.

When successive lifetimes grow like alpha^k in distribution, the centered
renewal count N_t - floor(log_alpha t) does not converge: its law oscillates
through a family Q_eta indexed by the fractional part eta of log_alpha t.
This package computes that family exactly: for the digital-search-tree case
(alpha = 2, where the count is the insertion-depth birth chain) with
certified values and distances throughout, and for every alpha from about
1.25 on as a signed mixture of exponential laws. It simulates the counts
for any alpha, and ships a harness that verifies the convergence rates and
tail bounds numerically.

Each public name is imported from its module on first use (PEP 562), and
numpy only with the first array. The scalar values of Q_eta and S (q_cdf,
q_pmf, q_tail, s_infinity_cdf at a point, s_infinity_sf,
mixture_coefficients) are pure ``math`` and the DST insertion reports
(build, Dst, knuth_corpus, load_corpus) pure Python: neither loads numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_EXPORTS = {name: module for module, names in {
    "dst": ("Dst", "InsertReport", "InsufficientBitsError", "build",
            "knuth_corpus", "load_corpus", "simulate_insertion_depth"),
    "lifetimes": ("GeometricDst", "ScaledBase", "sample_lifetime"),
    "limit_law": ("mixture_coefficients", "q_cdf", "q_pmf", "q_tail",
                  "s_infinity_cdf", "s_infinity_sf", "sample_q"),
    "metrics": ("check_rate_report", "rate_report", "tv_distance",
                "tv_to_limit"),
    "pmf": ("IntPmf",),
    "renewal": ("depth_distribution_exact", "ks_scaled_sum_exact",
                "simulate_count"),
    "rng": ("DEFAULT_SEED", "stream_rng"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
