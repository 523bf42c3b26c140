"""Exact and Monte Carlo laws of lifetime partial sums and renewal counts.

The DST lifetime family admits an exact engine: the renewal count observed at
integer times is a pure-birth Markov chain on levels, started at 0, moving up
from level k with probability 2^(-k) per step. Forward dynamic programming
over that chain yields the exact law of the count after n steps, and through
the identity P(S_j <= t) = P(X_t >= j) the exact partial-sum CDFs:
``depth_distribution_exact(t).tail_ge(j)``.
The chain is advanced in blocks of B ~ sqrt(n) steps: the single-step
recursion, run on every start level at once, gives the B-step transition
matrix, so n steps cost about 2 sqrt(n) array operations instead of n. Every
operation multiplies and adds nonnegative numbers, so tiny tail masses keep
their relative accuracy.
The exact KS distance between 2^(-n) S_n and its limit uses closed forms
instead: partial fractions write P(S_n > j) as a sum of geometric terms
B_i q_i^(j-n+1) with exactly computed coefficients, the limit tail is the
signed exponential mixture, and both are evaluated over consecutive jump
points in fixed-size batches, one matrix product each.
Everything else (general growth rates, sanity cross-checks) is seeded Monte
Carlo.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .lifetimes import GeometricDst, ScaledBase, sample_lifetime
from .limit_law import mixture_coefficients, s_infinity_sf
from .pmf import IntPmf

MAX_EXACT_N = 2 ** 26      # time guard for the DP (~2 sqrt(n) block steps)
MAX_EXACT_KS_N = 22        # time guard: the KS walks cap * 2^n jump points
_STATE_SLACK = 60          # levels above ceil(log2(n+1)) carry mass < 1e-300
_KS_BATCH = 1 << 16        # jump points per KS batch; memory is O(batch)
_KS_LADDER = 256           # consecutive powers per row of a batch's product


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
    States above ceil(log2(n+1)) + 60 are clipped, and edge masses at or
    below 1e-300 are trimmed. The result's ``truncation`` is the trimmed mass
    plus |1 - sum| of the stored masses: the clipped mass (below 1e-300 for
    any reachable n) and the rounding drift in either direction (sums run
    above 1 by up to about 8e-13 at 2^20..2^22), so the slack that
    ``tv_vs_limit`` adds counts the drift.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if n > MAX_EXACT_N:
        raise ValueError(f"exact DP limited to n <= {MAX_EXACT_N}, got {n}")
    width = min(n, n.bit_length() + _STATE_SLACK)
    block = 1 << (n.bit_length() // 2)
    transition = _chain_steps(np.eye(width + 1), block)
    p = np.zeros(width + 1)
    p[0] = 1.0
    _chain_steps(p, n % block)
    for _ in range(n // block):
        p = p @ transition
    law = IntPmf(0, p).trim(1e-300)
    return IntPmf(law.offset, law.masses,
                  law.truncation + abs(1.0 - law.total()))


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


def simulate_count(family: GeometricDst | ScaledBase, t: float,
                   samples: int, rng: np.random.Generator) -> np.ndarray:
    """Replicates of N_t = sup{n : S_n <= t}, one count per replicate.

    Lifetimes are drawn index by index across all replicates; a replicate's
    count is the number of partial sums that stayed within the horizon.
    Draws continue (and are discarded) for already-exceeded replicates so the
    stream layout depends only on the generator and ``samples``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not t > 0:
        raise ValueError(f"horizon must be positive, got {t!r}")
    sums = np.zeros(samples)
    counts = np.zeros(samples, dtype=np.int64)
    k = 1
    while True:
        sums += sample_lifetime(family, k, rng, size=samples)
        within = sums <= t
        if not within.any():
            return counts
        counts += within
        k += 1


def scaled_sum_sample(family: GeometricDst | ScaledBase, n: int,
                      samples: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of alpha^(-n) S_n with S_n = Y_1 + ... + Y_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = np.zeros(samples)
    for k in range(1, n + 1):
        total += sample_lifetime(family, k, rng, size=samples)
    return family.alpha ** -n * total


def sample_scaled_limit(family: ScaledBase, rng: np.random.Generator,
                        size: int | None = None):
    """Draw the limit of alpha^(-n) S_n: sum_{k>=0} alpha^(-k) W_k.

    The W_k are exponential of mean 1/2, summed to enough terms that the
    remainder's mean, relative to the base mean, is below 1e-12. Scalar and
    array draws take the same path and the same stream; at alpha = 2 the
    draws equal ``limit_law.sample_s_infinity(rng, 41, size)``.
    """
    out = np.zeros(1 if size is None else size)
    for k in range(family.limit_terms + 1):
        out += family.alpha ** -k * (0.5 * rng.standard_exponential(out.shape))
    return float(out[0]) if size is None else out


def _partial_sum_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B_i, log q_i), i = 2..n, with P(S_n > j) = sum_i B_i q_i^(j-n+1).

    S_n - n is a sum of independent Geom(p_i) - 1 with p_i = 2^(1-i) and
    q_i = 1 - p_i; partial fractions give B_i = prod_{l != i} p_l q_i /
    (p_l - p_i). Every difference of powers of two is exact, so the B_i do
    not cancel: sum |B_i| < 8.3 and max |B_i| < 3.5 for every n.
    """
    p = 2.0 ** (1 - np.arange(2, n + 1))
    q = 1.0 - p
    diff = p - p[:, None]
    np.fill_diagonal(diff, 1.0)
    ratio = p * q[:, None] / diff
    np.fill_diagonal(ratio, 1.0)
    return ratio.prod(axis=1), np.log1p(-p)


def _power_sums(coeffs: np.ndarray, logs: np.ndarray, start: int,
                count: int) -> np.ndarray:
    """sum_r coeffs[r] exp(logs[r] e) for e = start .. start + count - 1.

    One matrix product: row m of ``starts`` holds the terms at
    e = start + W m, the ladder holds exp(logs t) for t < W, so
    (starts @ ladder.T)[m, t] is the sum at e = start + W m + t. Each term
    keeps its relative accuracy; terms that underflow are 0.
    """
    rows = -(-count // _KS_LADDER)
    starts = coeffs * np.exp(
        np.multiply.outer(start + _KS_LADDER * np.arange(rows), logs))
    ladder = np.exp(np.multiply.outer(np.arange(_KS_LADDER), logs))
    return (starts @ ladder.T).ravel()[:count]


def ks_scaled_sum_exact(n: int, cap_multiplier: int = 8) -> tuple[float, float]:
    """Exact KS distance between 2^(-n) S_n and the limit law S.

    The scaled sum is a step CDF with jumps at j 2^(-n); against the
    continuous limit CDF the supremum is attained at jump points, checking
    both one-sided gaps. Both laws are closed forms in j:
    P(S_n > j) = sum_i B_i q_i^(j-n+1) (partial fractions of the geometric
    lifetimes) and P(S > j 2^(-n)) = sum_k a_k exp(-2^(k-n) j) (the limit
    mixture), so the gaps are differences of tails and no pmf is built.
    The jump points j = n .. cap_multiplier * 2^n are walked in fixed-size
    batches, each evaluated as one matrix product. Returns
    (ks, truncation_bound) where the bound covers all mass either law
    carries beyond cap_multiplier * 2^n.
    """
    if not 1 <= n <= MAX_EXACT_KS_N:
        raise ValueError(f"n must be in [1, {MAX_EXACT_KS_N}], got {n}")
    if cap_multiplier < 2:
        raise ValueError(f"cap_multiplier must be >= 2, got {cap_multiplier}")
    sum_coeffs, sum_logs = _partial_sum_terms(n)
    mix = np.array(mixture_coefficients())
    mix_logs = -np.ldexp(1.0, np.arange(1, mix.size + 1) - n)  # -2^(k-n)
    j_max = cap_multiplier << n
    ks = 0.0
    before = 1.0                    # P(S_n > n - 1)
    for j0 in range(n, j_max + 1, _KS_BATCH):
        count = min(_KS_BATCH, j_max + 1 - j0)
        sum_tail = _power_sums(sum_coeffs, sum_logs, j0 - n + 1, count)
        limit_tail = _power_sums(mix, mix_logs, j0, count)
        prev = np.concatenate(([before], sum_tail[:-1]))  # P(S_n > j - 1)
        ks = max(ks,
                 float(np.abs(limit_tail - sum_tail).max()),
                 float(np.abs(limit_tail - prev).max()))
        before = float(sum_tail[-1])
    truncation = max(before, s_infinity_sf(float(cap_multiplier)))
    return ks, truncation
