"""Exact and Monte Carlo laws of lifetime partial sums and renewal counts.

The DST lifetime family admits an exact engine: the renewal count observed at
integer times is a pure-birth Markov chain on levels, started at 0, moving up
from level k with probability 2^(-k) per step. Forward dynamic programming
over that chain yields the exact law of the count after n steps, and through
the identity P(S_j <= t) = P(X_t >= j) the exact partial-sum CDFs:
``depth_distribution_exact(t).tail_ge(j)``.
The n-step law is read off the one-step matrix T raised to the n-th power
by binary powering, about 2 log2(n) small matrix products instead of n
steps. The diagonal of each square T^m is reset to its closed form
(1 - 2^(-k))^m, so rounding does not compound along it; every product
multiplies and adds nonnegative numbers, so tiny tail masses keep their
relative accuracy. The powers are kept times 2^500, and entries that would
unscale below 2^-1074 are flushed to zero: entries of T^m far above the
diagonal reach 2^-1072, and unscaled a product underflows once it is under
2^-1022, each paying a slow floating-point assist; scaled it must be under
2^-2022, which cuts the underflowing products of a chain 150- to 170-fold,
and the masses are the same bit for bit.
The exact KS distance between 2^(-n) S_n and its limit uses closed forms
instead: partial fractions write P(S_n > j) as a sum of geometric terms
B_i q_i^(j-n+1) with exactly computed coefficients, and the limit tail is
the signed exponential mixture. The largest gap over the jump points is
found by a certified block search: one block over the jump points is split
into sixteenths level by level, and a block is dropped once a bound on its
gaps (the larger end value plus a second-derivative term), widened by twice
an a priori float error bound r, falls to the incumbent maximum. The
second-derivative bound pairs each limit term exp(-2^(k-n) j) with the
partial-sum term whose p_i is 2^(k-n), so the two tails' curvatures cancel in
it as they do in the gap; the search evaluates a few hundred jump points
up to n = 19 instead of all 8 2^n.
The TV distance between the centred count and Q_eta reads the same closed
forms along the level instead of along j: with k = floor(log2 n),
Delta_l = P(X_n >= l) - P(Q_eta >= l - k) = P(S > n 2^-l) - P(S_l > n) is
the KS gap at level l and jump point n. Each mixture term k is paired with
the partial-sum term whose p_i is 2^(k-l), and the pair is one expm1 of a
sum of terms of one sign, so no level cancels (``_level_gaps``).
Everything else (general growth rates, sanity cross-checks) is seeded Monte
Carlo.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .lifetimes import GeometricDst, ScaledBase, sample_lifetime
from .limit_law import mixture_coefficients, s_infinity_cdf, s_infinity_sf
from .pmf import IntPmf

MAX_EXACT_N = 2 ** 26      # checked range of the DP's reported rounding slack
MAX_EXACT_KS_N = 22        # KS range: here the cap-8 tail (3.9e-7) passes KS
_STATE_SLACK = 60          # levels above ceil(log2(n+1)) carry mass < 1e-300
_EXACT_STAY = 53           # 1 - 2^(-k) is exact in binary64 for k < 53
_SCALE = 2.0 ** 500        # the DP's powers of T are kept times _SCALE
_FLUSH = 2.0 ** (500 - 1074)   # scaled entries below it unscale under 2^-1074
_KS_SPLIT = 16             # sub-blocks per block at each KS search level
_KS_CHUNK = 1 << 14        # exps per KS evaluation array; memory is O(chunk)
_LEVELS_ABOVE = 16         # _level_gaps' levels past floor(log2 n)
_EPS = 2.0 ** -52

# _level_gaps' tables, one row per level l = 0..69 and one column per mixture
# term k = 1..32, d = l - k: the rate 2^(k-l); for a pair (d >= 1),
# ell = sum_{m >= d+1} log1p(-2^-m), summed from the smallest term up over
# m <= 160, and delta = sum_{m >= 2} 2^-(d m) / m (= -log1p(-rho) - rho at
# rho = 2^-d, which cancels), summed from m = 65 down; for an unpaired term
# ell = -inf and delta = 0, so that -expm1(ell - delta n) is 1; and each
# term's error bound in eps.
_D = np.arange(70)[:, None] - np.arange(1, 33)
_PAIRED = _D > 0
_RATE = np.ldexp(1.0, -_D)
_ELL = np.where(_PAIRED, np.cumsum(np.log1p(-np.ldexp(
    1.0, -np.arange(160, 0, -1))))[::-1][np.maximum(_D, 0)], -np.inf)
_POWERS = np.arange(65, 1, -1)
_DELTA = np.where(_PAIRED, np.cumsum(
    np.ldexp(1.0, -np.arange(1, 70)[:, None] * _POWERS) / _POWERS,
    axis=1)[np.maximum(_D, 1) - 1, -1], 0.0)
_TERM_ERR = np.where(_PAIRED, 17.0, 7.0)


def depth_distribution_exact(n: int) -> IntPmf:
    """Exact law of the chain after n steps (= insertion depth of key n+1).

    The one-step matrix T (diagonal 1 - 2^(-k), superdiagonal 2^(-k)) is
    raised to the powers T^m, m = 2^i, by squaring, and the unit mass at
    level 0 is multiplied by those whose bit is set in n. After each squaring
    the diagonal is overwritten with its closed form q_k^m, q_k = 1 - 2^(-k):
    ``q_k ** m`` where q_k is exact (k <= 52), exp(m log1p(-2^(-k))) above,
    where q_k rounds to 1. An entry d places above the diagonal then takes
    rounding only from its off-diagonal factors, so its relative error grows
    like d log n rather than like n. All products combine nonnegative
    numbers, so each mass keeps its relative accuracy however small it is.
    Each power is held times 2^500, an exact scaling: a square is scaled
    back by 2^-500 and its entries below 2^-574 (under 2^-1074 unscaled,
    values the unscaled float cannot hold) are set to 0.0; the diagonal is
    written back times 2^500, and p @ power is scaled back by 2^-500.
    Unscaled, the entries far above the diagonal reach 2^-1072, and
    thousands of a square's products underflow (fall under 2^-1022), each
    paying a slow floating-point assist; scaled, a product underflows only
    where the unscaled one is under 2^-2022, so products of entries above
    2^-1011 never do (at n = 2^20, 1401 of the chain's 812812 nonzero
    products underflow, against 234443 unscaled), and the flush stops the
    scaled entries from shrinking back into that range. The masses are bit
    for bit those of the unscaled squarings.
    States above ceil(log2(n+1)) + 60 are clipped, and edge masses at or
    below 1e-300 are trimmed. The result's ``truncation`` is the trimmed mass
    plus |1 - sum| of the stored masses: the clipped mass (below 1e-300 for
    any reachable n) and the rounding drift in either direction (about 1e-15
    up to 2^26), so the slack that ``tv_vs_limit`` adds counts the drift.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if n > MAX_EXACT_N:
        raise ValueError(f"exact DP limited to n <= {MAX_EXACT_N}, got {n}")
    width = min(n, n.bit_length() + _STATE_SLACK)
    up = 2.0 ** -np.arange(width + 1)
    stay = 1.0 - up
    log_stay = np.log1p(-up[_EXACT_STAY:])
    power = (np.diag(stay) + np.diag(up[:-1], 1)) * _SCALE
    p = np.zeros(width + 1)
    p[0] = 1.0
    for bit in range(n.bit_length()):
        if n >> bit & 1:
            p = (p @ power) * (1.0 / _SCALE)
        if n >> (bit + 1):
            m = 2 << bit
            power = power @ power
            power *= 1.0 / _SCALE
            power[power < _FLUSH] = 0.0
            np.fill_diagonal(power, np.concatenate(
                (stay[:_EXACT_STAY] ** m, np.exp(m * log_stay))) * _SCALE)
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


def sample_scaled_limit(family: ScaledBase, rng: np.random.Generator,
                        size: int | None = None):
    """Draw the limit of alpha^(-n) S_n: sum_{k>=0} alpha^(-k) W_k.

    The W_k are exponential of mean 1/2, summed to enough terms that the
    remainder's mean, relative to the base mean, is below 1e-12. Scalar and
    array draws take the same path and the same stream; at alpha = 2 the
    draws are those of S = sum_{k=1..41} 2^(-k) Z_k with unit exponential Z_k.
    """
    out = np.zeros(1 if size is None else size)
    for k in range(family.limit_terms + 1):
        out += family.alpha ** -k * (0.5 * rng.standard_exponential(out.shape))
    return float(out[0]) if size is None else out


def _partial_sum_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B_i, p_i), i = 2..n, with P(S_n > j) = sum_i B_i q_i^(j-n+1).

    S_n - n is a sum of independent Geom(p_i) - 1 with p_i = 2^(1-i) and
    q_i = 1 - p_i; partial fractions give B_i = prod_{l != i} p_l q_i /
    (p_l - p_i). Every difference of powers of two is exact, so the B_i do
    not cancel: sum |B_i| < 8.3 and max |B_i| < 3.5 for every n. Each B_i
    is n - 2 rounded quotients multiplied together: 2n - 4 roundings.
    """
    p = 2.0 ** (1 - np.arange(2, n + 1))
    q = 1.0 - p
    diff = p - p[:, None]
    np.fill_diagonal(diff, 1.0)
    ratio = p * q[:, None] / diff
    np.fill_diagonal(ratio, 1.0)
    return ratio.prod(axis=1), p


def _gap_terms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(rates, shifts, weights, r) of the KS gap evaluator at n.

    Term i is exp((j - n) rates_i + shifts_i): q_i^(j-n) for the n - 1
    partial-sum terms, then exp(-rho_k j), rho_k = 2^(k-n), for the 32
    mixture terms. The columns of ``weights`` (a_k; B_i q_i; B_i; c0_k;
    c1_k) turn the terms into L(j), T(j), T(j - 1) and the two sums whose
    combination M(j) = sum_k (c0_k + c1_k j) exp(-rho_k j) bounds both
    |G+''| and |G-''| on [j, oo) (``_gap_values``).

    M pairs the two tails. With lambda_i = -ln q_i and beta_(i,s) =
    B_i q_i^(-s), T(j) and T(j - 1) are sum_i beta_(i,s) exp(-lambda_i j)
    for s = n - 1 and n. Mixture term k < n is paired with partial-sum term
    i = n + 1 - k, for which p_i = rho_k <= lambda_i <= 1.39 rho_k; their
    share of G'' is
      (a_k - beta) rho^2 e^(-rho j) + beta (rho^2 e^(-rho j)
                                            - lambda^2 e^(-lambda j)),
    and by the mean value theorem in the rate (x^2 e^(-x j) has derivative
    at most (2x + x^2 j) e^(-x j) in size) the second part is at most
    |beta| (lambda - rho)(2 lambda + lambda^2 j) e^(-rho j). So
      c0_k = max_s |a_k - beta_(i,s)| rho^2 + 2 |beta_(i,n)| d lam,
      c1_k = |beta_(i,n)| d lam^2                      (k < n),
      c0_k = |a_k| rho_k^2, c1_k = 0                   (k >= n),
    with d = rho^2 / (2 - 2 rho) >= lambda - rho (the series of
    -ln(1 - rho) - rho against a geometric one) and lam = rho + d >=
    lambda; |beta_(i,n)| is the larger of the two |beta| as q_i < 1. Since
    lam <= 1.5 rho, c1_k <= rho_k c0_k and every term of M falls as j
    grows, so M(u) bounds |G+''| and |G-''| on every block [u, v]. The
    bound must hold for the exact coefficients: |a_k - beta| gets the
    coefficient rounding as an absolute slack, 46 eps |a_k| + (n + 4) eps
    |beta| (beta is B_i's 2n - 4 roundings, q_i^(-n)'s 4 ulp and two
    products), and c0 and c1 are inflated by 1 + (n + 50) eps, which
    covers a_k's 46 eps, beta's n + 4 and the five roundings that build
    each.

    r bounds the float error of one gap |L - T| and of the block bound built
    from such values. With eps = 2^-52 (a rounding is at most eps/2 of its
    result), S_B = sum |B_i|, S_a = sum |a_k| and K = n + 31 terms, every
    exp at most 1, the error of L(j) or T(j) has four sources:
    - the rounding of the coefficients: B_i q_i carries 2n - 3 roundings,
      at most n eps relative; a_k carries the 59 of b (whose truncated
      factors are below eps/64) and k - 1 <= 31 quotients, below 46 eps;
    - the exponent products: a partial-sum exponent x = (j - n) ln q_i is
      rounded twice after log1p's 1 ulp, so exp(x) moves by at most
      1.5 eps |x| e^(-|x|) <= 0.6 eps; the mixture exponents are exact:
      -2^(k-n) u at a block start u <= 2^53 is a power of two times an
      integer below 2^53, as are its two parts (u - n) and n, and a step
      is at most 16 times a power of two;
    - exp itself: two exps per term (at the block start and at the step),
      each allowed 4 ulp (NumPy's is within 1), and two products: 9 eps;
    - the summation of K terms in one matrix product: K/2 eps of sum |term|.
    That gives S_B (n + 10 + K/2) eps + S_a (55 + K/2) eps; the subtraction
    L - T adds eps/2. A block bound that can prune is at most 1, and its
    curvature term is a sum of nonnegative terms: the two columns carry the
    exps' and products' 9 eps and the summation's K/2 eps, and u c1, the
    sum, the exact width factor's product and the addition of the end gap
    add eps/2 each, (11 + K/2) eps in all; underflow adds below 2^-1000.
    r is the sum of these, rounded up.
    """
    coeffs, p = _partial_sum_terms(n)
    mix = np.array(mixture_coefficients())
    sum_rates = np.log1p(-p)
    mix_rates = -np.ldexp(1.0, np.arange(1, mix.size + 1) - n)  # -rho_k
    rates = np.concatenate((sum_rates, mix_rates))
    shifts = np.concatenate((np.zeros(n - 1), n * mix_rates))
    eps = 2.0 ** -52
    rho, beta, head = p[::-1], (coeffs * (1.0 - p) ** -n)[::-1], mix[:n - 1]
    mismatch = np.maximum(np.abs(head - beta),
                          np.abs(head - beta * (1.0 - rho)))
    mismatch += (46 * np.abs(head) + (n + 4) * np.abs(beta)) * eps
    d = rho * rho / (2.0 - 2.0 * rho)
    lam = rho + d
    c0, c1 = np.abs(mix) * mix_rates * mix_rates, np.zeros(mix.size)
    c0[:n - 1] = mismatch * rho * rho + 2.0 * np.abs(beta) * d * lam
    c1[:n - 1] = np.abs(beta) * d * lam * lam
    weights = np.zeros((rates.size, 5))
    weights[n - 1:, 0] = mix
    weights[:n - 1, 1] = coeffs * (1.0 - p)
    weights[:n - 1, 2] = coeffs
    grow = 1 + (n + 50) * eps  # up to the exact coefficients' c0 and c1
    weights[n - 1:, 3] = c0 * grow
    weights[n - 1:, 4] = c1 * grow
    half_k = (n + 31) / 2
    r = eps * (np.abs(coeffs).sum() * (n + 10 + half_k)
               + np.abs(mix).sum() * (55 + half_k) + 12 + half_k)
    return rates, shifts, weights, float(r)


def _gap_values(n: int, terms, starts: np.ndarray,
                steps: np.ndarray) -> np.ndarray:
    """[L(j), T(j), T(j - 1), M(j)] at j = starts[m] + steps[t], (m, t, 4).

    One exp per term at each start and one per term at each step; the
    values are one matrix product of the two, and M(j) = c0(j) + j c1(j)
    combines its last two columns.
    """
    rates, shifts, weights, _ = terms
    heads = np.exp(np.multiply.outer(starts - n, rates) + shifts)
    rungs = (np.exp(np.multiply.outer(rates, steps))[:, :, None]
             * weights[:, None, :])
    values = (heads @ rungs.reshape(rates.size, -1)).reshape(
        starts.size, steps.size, 5)
    values[..., 3] += np.add.outer(starts, steps) * values[..., 4]
    return values[..., :4]


def _gap(values: np.ndarray) -> np.ndarray:
    """max(|G+|, |G-|) = max(|L - T|, |L - T(. - 1)|) of ``_gap_values``."""
    limit = values[..., 0]
    return np.maximum(np.abs(limit - values[..., 1]),
                      np.abs(limit - values[..., 2]))


def _block_bound(gaps: np.ndarray, curvature: np.ndarray,
                 width) -> np.ndarray:
    """U >= max |G+(j)|, |G-(j)| over the integers j of each block.

    ``gaps`` (``_gap``) and ``curvature`` (M) are taken along the last axis
    at split points u_t = u_0 + t width; block t is [u_t, u_t+1]. A function
    whose second derivative is at most M on [u, v] exceeds the larger end
    value by at most M (v - u)^2 / 8, and M(u) bounds both |G''| on the
    block because each of its terms falls as j grows (``_gap_terms``).
    """
    return (np.maximum(gaps[..., :-1], gaps[..., 1:])
            + width * width / 8 * curvature[..., :-1])


def ks_scaled_sum_exact(n: int, cap_multiplier: int = 8) -> tuple[float, float]:
    """Exact KS distance between 2^(-n) S_n and the limit law S.

    The scaled sum is a step CDF with jumps at j 2^(-n); against the
    continuous limit CDF the supremum is attained at jump points, checking
    both one-sided gaps G+(j) = L(j) - T(j) and G-(j) = L(j) - T(j - 1).
    Both laws are closed forms in j: T(j) = P(S_n > j) =
    sum_i B_i q_i^(j-n+1) (partial fractions of the geometric lifetimes,
    T(n - 1) = 1) and L(j) = P(S > j 2^(-n)) = sum_k a_k exp(-2^(k-n) j)
    (the limit mixture), so no pmf is built.

    The maximum over j = n .. cap_multiplier * 2^n is found by a certified
    block search instead of a scan. One block of 4 16^L jump points covers
    the range; blocks are split into sixteenths, level by level, down to
    blocks of 4 and then single points, and every split point is evaluated
    and raises the incumbent maximum. The incumbent starts from G-(n) and
    the gap at j = 2^n, near the peak at x = 0.91, so the far tail of a
    large cap_multiplier is dropped as soon as it is split off: each factor
    16 in cap_multiplier adds one level. A block [u, v] is dropped once its
    bound U (``_block_bound``: the larger end gap plus (v - u)^2 / 8 times
    M(u), a bound on |G''| that pairs the two tails' terms, ``_gap_terms``)
    satisfies U + 2r <= incumbent, where r bounds the float error of one gap
    value a priori. A dropped block therefore holds no jump point whose
    float gap beats the incumbent, and the result is the maximum of the
    float gaps over every jump point, as a scan would find it, from a few
    hundred evaluated points up to n = 19 instead of cap_multiplier * 2^n
    (1.2e4 at n = 22, where the gap stays within 2r of its maximum over
    thousands of points, which no bound can drop). cap_multiplier * 2^n is
    limited to 2^53, past which not every jump point is a float and the
    exponents of r's derivation stop being exact. Returns (ks,
    truncation_bound) where the bound covers all mass either law carries
    beyond cap_multiplier * 2^n.
    """
    n = operator.index(n)
    cap_multiplier = operator.index(cap_multiplier)
    if not 1 <= n <= MAX_EXACT_KS_N:
        raise ValueError(f"n must be in [1, {MAX_EXACT_KS_N}], got {n}")
    if cap_multiplier < 2:
        raise ValueError(f"cap_multiplier must be >= 2, got {cap_multiplier}")
    if cap_multiplier << n > 1 << 53:  # keeps the gap exponents exact
        raise ValueError(f"cap_multiplier * 2^n must be at most 2^53, got "
                         f"{cap_multiplier} * 2^{n}")
    terms = _gap_terms(n)
    rates, *_, r = terms
    j_max = cap_multiplier << n
    edges = _gap_values(n, terms, np.array([n, 1 << n, j_max]),
                        np.array([0]))[:, 0]
    # G-(n) against T(n - 1) = 1 exactly, and the gap at x = 1, near the peak
    ks = max(float(abs(edges[0, 0] - 1.0)), float(_gap(edges[1])))
    per_chunk = _KS_CHUNK // rates.size
    width = 4  # one block of 4 16^L points; the last level steps 4 by 1
    while width < j_max - n:
        width *= _KS_SPLIT
    starts = np.array([n])
    while width > 1 and starts.size:  # until no live block is left
        sub = max(width // _KS_SPLIT, 1)
        steps = np.arange(0, width + 1, sub)
        kept, bounds = [], []
        for at in range(0, starts.size, per_chunk):
            chunk = starts[at:at + per_chunk]
            values = _gap_values(n, terms, chunk, steps)
            gaps = _gap(values)
            points = chunk[:, None] + steps
            ks = max(ks, float(gaps[points <= j_max].max()))
            bound = _block_bound(gaps, values[..., 3], sub)
            live = (bound + 2 * r > ks) & (points[:, :-1] < j_max)
            kept.append(points[:, :-1][live])
            bounds.append(bound[live])
        starts = np.concatenate(kept)[np.concatenate(bounds) + 2 * r > ks]
        width = sub
    truncation = max(float(edges[2, 1]), s_infinity_sf(float(cap_multiplier)))
    return ks, truncation


def _level_gaps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Delta_l, e_l), l = 0..floor(log2 n) + 16: level gaps and error bounds.

    Delta_l = P(X_n >= l) - P(Q_eta >= l - k), with k = floor(log2 n) and
    eta = frac(log2 n), and |float Delta_l - Delta_l| <= e_l. As
    P(X_n >= l) = P(S_l <= n) and P(Q_eta >= l - k) = P(S <= n 2^-l),
    Delta_l = L - T with L = P(S > n 2^-l) = sum_k a_k exp(-rho_k n),
    rho_k = 2^(k-l), and, for l <= n + 1, T = P(S_l > n) =
    sum_{i=2..l} B_i q_i^(n-l+1) (``_partial_sum_terms``; T = 0 at l <= 1).
    Mixture term k < l is paired with partial-sum term i = l + 1 - k, whose
    p_i is rho = rho_k. The partial-fraction products give
    B_i q_i^(1-l) = a_k exp(ell), ell = sum_{m >= l-k+1} log1p(-2^-m), and
    with lambda = -ln q_i = rho + delta, delta = sum_{m >= 2} rho^m / m, the
    pair is
      a_k exp(-rho n) - B_i q_i^(n-l+1)
        = -a_k exp(-rho n) expm1(ell - delta n),
    where ell and -delta n are both at most 0: no term cancels. Mixture
    terms k >= l stay unpaired. All levels are one (levels x 32) array of
    terms, each row summed in order by np.cumsum. Levels l > n + 1, where
    S_l >= l > n and the closed form of T does not hold, are
    Delta_l = -P(S <= n 2^-l) from the table of ``s_infinity_cdf``.

    The bound, with eps = 2^-52 (a rounding is at most eps/2 of its result):
    - a term a_k exp(-rho n) F (F = -expm1(x) for a pair, 1 otherwise):
      a_k is within 2 eps of its exact value (``mixture_coefficients``);
      rho n is exact (n <= 2^53) and exp within 4 ulp: 4 eps. ell from
      _ELL carries each log1p's 4 ulp and at most eps |ell| from
      summing one-signed terms that at least halve, smallest first (the
      partial sums add to under 2 |ell|), and the terms past m = 160 are
      below 2^-89 |ell|: 5.01 eps. delta from _DELTA is halving terms
      rounded once and summed smallest first, the terms past m = 65 below
      eps/1000 of it, 1.51 eps, and delta n 2.01 eps. ell and -delta n have
      one sign, so x = ell - delta n is within 5.51 eps |x|; since
      |x| e^x <= 1 - e^x for x <= 0, F moves by at most as much relative to
      itself, and expm1 adds 4 ulp: 9.51 eps. With the two products a pair
      is within 16.51 eps of itself and an unpaired term within 6.5 eps,
      taken as 17 and 7 eps of the float term's size, which covers the
      second-order terms;
    - the row sum: the running bound eps/2 sum_{i >= 2} |s_i| over the
      float partial sums s_i (Higham, Accuracy and Stability of Numerical
      Algorithms, section 3.3), taken at eps, which also covers the
      rounding of the bound's own arithmetic;
    - terms left out: mixture terms k > 32 (sum |a_k| < 1.5e-158) and, at
      l > 33, their partners i < l - 31 (|B_i q_i^(1-l)| <= 2 |a_k|), and
      underflow below 2^-1022 in the exps and products: under 2^-520 per
      level;
    - a table level: the table's 4 eps (``limit_law``), taken as
      5 eps |Delta_l|.
    """
    top = n.bit_length() - 1 + _LEVELS_ABOVE
    levels = slice(0, top + 1)
    terms = (np.array(mixture_coefficients())
             * np.exp(-float(n) * _RATE[levels])
             * -np.expm1(_ELL[levels] - _DELTA[levels] * float(n)))
    sums = np.cumsum(terms, axis=1)
    gaps = sums[:, -1]
    err = _EPS * ((_TERM_ERR[levels] * np.abs(terms)).sum(axis=1)
                  + np.abs(sums[:, 1:]).sum(axis=1)) + 2.0 ** -520
    for level in range(n + 2, top + 1):     # only n <= 18 has such levels
        gaps[level] = -s_infinity_cdf(math.ldexp(n, -level))
        err[level] = 5 * _EPS * -gaps[level]
    return gaps, err
