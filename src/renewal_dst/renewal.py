"""Exact and Monte Carlo laws of lifetime partial sums and renewal counts.

The DST lifetime family admits an exact engine: the renewal count observed at
integer times is a pure-birth Markov chain on levels, started at 0, moving up
from level k with probability 2^(-k) per step. Forward dynamic programming
over that chain yields the exact law of the count after n steps, and through
the identity P(S_j <= t) = P(X_t >= j) the exact CDFs of the partial sums.
The chain is advanced in blocks of B ~ sqrt(n) steps: the single-step
recursion, run on every start level at once, gives the B-step transition
matrix, so n steps cost about 2 sqrt(n) array operations instead of n. Every
operation multiplies and adds nonnegative numbers, so tiny tail masses keep
their relative accuracy.
Everything else (general growth rates, sanity cross-checks) is seeded Monte
Carlo.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import lfilter

from .lifetimes import GeometricDst, LifetimeFamily, sample_lifetime
from .limit_law import s_infinity_cdf, sample_s_infinity
from .pmf import IntPmf
from .rng import stream_rng

MAX_EXACT_N = 2 ** 26      # time guard for the DP (~2 sqrt(n) block steps)
MAX_EXACT_KS_N = 22        # partial-sum grids reach cap * 2^n integers
_STATE_SLACK = 60          # levels above ceil(log2(n+1)) carry mass < 1e-300


class UnsupportedFamilyError(ValueError):
    """Exact engines exist only for the DST family."""


def _require_dst(family: LifetimeFamily) -> None:
    if not isinstance(family, GeometricDst):
        raise UnsupportedFamilyError(
            "exact computation is only available for GeometricDst")


def _chain_steps(p: np.ndarray, steps: int) -> np.ndarray:
    """Advance level distributions (last axis) by single chain steps, in place.

    P_{m+1}(k) = P_m(k)(1 - 2^(-k)) + P_m(k-1) 2^(-(k-1)); mass leaving the
    top level is dropped.
    """
    up = 2.0 ** -np.arange(p.shape[-1])
    stay = 1.0 - up
    moved = np.empty_like(p)
    for _ in range(steps):
        np.multiply(p, up, out=moved)
        np.multiply(p, stay, out=p)
        p[..., 1:] += moved[..., :-1]
    return p


def depth_distribution_exact(n: int) -> IntPmf:
    """Exact law of the chain after n steps (= insertion depth of key n+1).

    The single-step recursion run on the identity matrix for
    B = 2^floor(bit_length(n) / 2) steps gives the B-step transition matrix
    (row = start level). The law is the unit mass at level 0 advanced by
    n mod B single steps and then by n // B products with that matrix:
    about 2 sqrt(n) array operations. All of them combine nonnegative
    numbers, so each mass keeps its relative accuracy however small it is.
    States above ceil(log2(n+1)) + 60 are clipped; the clipped mass (below
    1e-300 for any reachable n) is reported in the result's ``truncation``.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if n > MAX_EXACT_N:
        raise ValueError(f"exact DP limited to n <= {MAX_EXACT_N}, got {n}")
    if n == 0:
        return IntPmf(0, np.ones(1))
    width = min(n, n.bit_length() + _STATE_SLACK)
    block = 1 << (n.bit_length() // 2)
    transition = _chain_steps(np.eye(width + 1), block)
    p = np.zeros(width + 1)
    p[0] = 1.0
    _chain_steps(p, n % block)
    for _ in range(n // block):
        p = p @ transition
    truncation = max(0.0, 1.0 - float(p.sum()))
    return IntPmf(0, p, truncation).trim(1e-300)


def partial_sum_cdf_exact(j: int, t: int,
                          family: LifetimeFamily = GeometricDst()) -> float:
    """P(S_j <= t), exactly, via P(S_j <= t) = P(X_t >= j)."""
    _require_dst(family)
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if j == 0:
        return 1.0
    return depth_distribution_exact(t).tail_ge(j)


def floor_log2(n: int) -> int:
    """floor(log2 n) for positive integers, exact."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n.bit_length() - 1


def frac_log2(n: int) -> float:
    """Fractional part of log2 n; exactly 0.0 for powers of two."""
    return math.log2(n) - floor_log2(n)


def centered_count_distribution(n: int) -> tuple[IntPmf, float]:
    """Exact law of X_n - floor(log2 n), with eta = frac(log2 n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    law = depth_distribution_exact(n)
    return law.shift(-floor_log2(n)), frac_log2(n)


@dataclass(frozen=True)
class RenewalConfig:
    """One Monte Carlo run: family, horizon, replicate count, stream address."""

    family: LifetimeFamily
    t: float
    samples: int
    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not self.t > 0:
            raise ValueError(f"horizon must be positive, got {self.t!r}")


def simulate_count(config: RenewalConfig) -> np.ndarray:
    """Replicates of N_t = sup{n : S_n <= t}, one count per replicate.

    Lifetimes are drawn index by index across all replicates; a replicate's
    count is the number of partial sums that stayed within the horizon.
    Draws continue (and are discarded) for already-exceeded replicates so the
    stream layout depends only on (seed, stream, samples).
    """
    rng = stream_rng(config.seed, config.stream)
    sums = np.zeros(config.samples)
    counts = np.zeros(config.samples, dtype=np.int64)
    k = 1
    while True:
        sums += sample_lifetime(config.family, k, rng, size=config.samples)
        within = sums <= config.t
        if not within.any():
            return counts
        counts += within
        k += 1


def scaled_sum_sample(family: LifetimeFamily, n: int, samples: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draws of alpha^(-n) S_n with S_n = Y_1 + ... + Y_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = np.zeros(samples)
    for k in range(1, n + 1):
        total += sample_lifetime(family, k, rng, size=samples)
    return family.rate.alpha ** -n * total


def sample_scaled_limit(family: LifetimeFamily, rng: np.random.Generator,
                        size: int | None = None,
                        k_trunc: int | None = None):
    """Draw the limit of alpha^(-n) S_n: sum_{k>=0} alpha^(-k) W_k.

    For the DST family this is the standard series of halved exponentials;
    for a scaled-base family the W_k are draws from the base law. k_trunc
    defaults to enough terms for a remainder mean below 1e-12 per unit of
    base mean.
    """
    if isinstance(family, GeometricDst):
        return sample_s_infinity(rng, k_trunc or 64, size)
    alpha = family.rate.alpha
    if k_trunc is None:
        k_trunc = max(4, math.ceil(12 * math.log(10) / math.log(alpha)))
    out = np.zeros(size) if size is not None else 0.0
    for k in range(k_trunc + 1):
        draw = family.base_mean * rng.standard_exponential(size)
        out = out + alpha ** -k * draw
    return out


def partial_sum_pmf(n: int, j_max: int) -> np.ndarray:
    """Exact pmf of S_n on the integers n..j_max for the DST family.

    S_n - n is a sum of independent shifted geometrics; each convolution is
    the first-order recursion h(s) = p f(s) + (1-p) h(s-1), applied as a
    linear filter. Mass beyond j_max is the (reported) deficit from 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if j_max < n:
        raise ValueError(f"j_max must be >= n, got {j_max} < {n}")
    arr = np.zeros(j_max - n + 1)
    arr[0] = 1.0
    for k in range(2, n + 1):
        p = 2.0 ** (1 - k)
        arr = lfilter([p], [1.0, -(1.0 - p)], arr)
    return arr


@lru_cache(maxsize=128)
def ks_scaled_sum_exact(n: int, cap_multiplier: int = 8) -> tuple[float, float]:
    """Exact KS distance between 2^(-n) S_n and the limit law S.

    The scaled sum is a step CDF with jumps at j 2^(-n); against the
    continuous limit CDF the supremum is attained at jump points, checking
    both one-sided gaps. Returns (ks, truncation_bound) where the bound
    covers all mass either law carries beyond cap_multiplier * 2^n.
    """
    if not 1 <= n <= MAX_EXACT_KS_N:
        raise ValueError(f"n must be in [1, {MAX_EXACT_KS_N}], got {n}")
    if cap_multiplier < 2:
        raise ValueError(f"cap_multiplier must be >= 2, got {cap_multiplier}")
    j_max = cap_multiplier << n
    cdf = np.cumsum(partial_sum_pmf(n, j_max))
    scale = 2.0 ** -n
    ks = 0.0
    block = 1 << 20
    for start in range(0, cdf.size, block):
        stop = min(start + block, cdf.size)
        limit_vals = s_infinity_cdf((np.arange(start, stop) + n) * scale)
        seg = cdf[start:stop]
        before = cdf[start - 1] if start else 0.0
        prev = np.concatenate(([before], seg[:-1]))
        ks = max(ks,
                 float(np.abs(seg - limit_vals).max()),
                 float(np.abs(prev - limit_vals).max()))
    truncation = max(1.0 - float(cdf[-1]),
                     1.0 - s_infinity_cdf(float(cap_multiplier)))
    return ks, truncation
