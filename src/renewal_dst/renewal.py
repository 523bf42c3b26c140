"""Exact and Monte Carlo laws of lifetime partial sums and renewal counts.

The DST lifetime family admits an exact engine: the renewal count observed at
integer times is a pure-birth Markov chain on levels, started at 0, moving up
from level k with probability 2^(-k) per step. Forward dynamic programming
over that chain yields the exact law of the count after n steps, and through
the identity P(S_j <= t) = P(X_t >= j) the exact partial-sum CDFs, the
mass ``depth_distribution_exact(t)`` puts on levels j and up.
The n-step law is read off the one-step matrix T raised to the n-th power
by binary powering, about 2 log2(n) small matrix products instead of n
steps. The diagonal of each square T^m is reset to its closed form
(1 - 2^(-k))^m, so rounding does not compound along it; every product
multiplies and adds nonnegative numbers, so tiny tail masses keep their
relative accuracy: the mass at level d is within 10 L d eps of itself,
L = n.bit_length(), plus 2^-1010, for every n <= MAX_N = 2^53. That is
the one n limit of the exact entry points, the depth law here and the TV
rows and pointwise gaps of ``metrics``: past it the closed-form diagonal
loses accuracy like n 2^-53, and n 2^-l is no longer exact. The powers
are kept times 2^500, and entries that would unscale below 2^-1074 are
flushed to zero: entries of T^m far above the diagonal reach 2^-1072, and
unscaled a product underflows once it is under 2^-1022, each paying a slow
floating-point assist; scaled it must be under 2^-2022, which cuts the
underflowing products of a chain 150- to 170-fold, and the masses are the
same bit for bit.
The KS and TV distances to the limits read one closed form, the level gap
Delta_l(j) = P(S > j 2^-l) - P(S_l > j): partial fractions write P(S_l > j)
as a sum of geometric terms and P(S > t) is the signed exponential mixture,
and each mixture term k is paired with the partial-sum term whose p_i is
2^(k-l), a pair being one expm1 of a sum of terms of one sign, so no gap
cancels (``_pair_terms``). The KS distance between 2^(-n) S_n and S reads
it along j at level n. Its largest gap over the jump points is found by a
certified block search: one block over the jump points is split into
sixteenths level by level, and a block is dropped once a bound on its
gaps (the larger end value plus a second-derivative term that pairs the
two tails' terms as the gap does), widened by twice an a priori float
error bound r, falls to the incumbent maximum; the search evaluates a few
hundred jump points up to n = 22 instead of all 8 2^n. The TV distance
between the centred count and Q_eta reads it along the level at j = n:
with k = floor(log2 n), Delta_l(n) = P(X_n >= l) - P(Q_eta >= l - k)
(``_level_gaps``).
The counts at any growth rate are also simulated, by seeded Monte Carlo:
one set of renewal paths is drawn up to the last horizon of a grid, and
each horizon's count law is read off it (``simulate_count``).
"""

from __future__ import annotations

import bisect
import math
import operator

import numpy as np

from .limit_law import mixture_coefficients, s_infinity_cdf, s_infinity_sf
from .pmf import IntPmf

MAX_N = 2 ** 53            # n and n 2^-l exact; the DP's bound is flat
MAX_EXACT_KS_N = 22        # KS range; the cap-8 tail (3.9e-7) exceeds KS at 22
_STATE_SLACK = 60          # levels above ceil(log2(n+1)) carry mass < 1e-300
_EXACT_STAY = 53           # 1 - 2^(-k) is exact in binary64 for k < 53
_SCALE = 2.0 ** 500        # the DP's powers of T are kept times _SCALE
_FLUSH = 2.0 ** (500 - 1074)   # scaled entries below it unscale under 2^-1074
_KS_SPLIT = 16             # sub-blocks per block at each KS search level
_LEVELS_ABOVE = 16         # _level_gaps' levels past floor(log2 n)
_EPS = 2.0 ** -52

# _pair_terms' tables, one row per level l = 0..69 and one column per mixture
# term k = 1..32, d = l - k: the rate 2^(k-l); for a pair (d >= 1),
# ell = sum_{m >= d+1} log1p(-2^-m), summed from the smallest term up over
# m <= 160, and delta = sum_{m >= 2} 2^-(d m) / m (= -log1p(-rho) - rho at
# rho = 2^-d, which cancels), summed from m = 65 down; for an unpaired term
# ell = -inf and delta = 0, so that -expm1(ell - delta n) is 1; each
# term's error bound in eps (``_level_gaps``); and a_k, in every row.
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
_MIX = np.broadcast_to(mixture_coefficients(), _D.shape)


def depth_distribution_exact(n: int) -> IntPmf:
    """Exact law of the chain after n steps (= insertion depth of key n+1),
    for 0 <= n <= MAX_N = 2^53.

    The one-step matrix T (diagonal q_k = 1 - 2^(-k), superdiagonal 2^(-k))
    is raised to the powers T^m, m = 2^i, by squaring, and the unit mass at
    level 0 is multiplied by those whose bit is set in n. After each
    squaring the diagonal is overwritten with its closed form q_k^m:
    ``q_k ** m`` where q_k is exact (k <= 52), exp(m log1p(-2^(-k))) above,
    where q_k rounds to 1. All products combine nonnegative numbers, so
    each mass keeps its relative accuracy however small it is.
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
    States above ceil(log2(n+1)) + 60 are clipped; T is upper triangular,
    so the levels kept evolve as in the full chain.

    The bound, with eps = 2^-52 (a rounding is at most eps/2 of its result)
    and L = n.bit_length(): the mass at level d is within 10 L d eps of
    itself, plus 2^-1010.
    - A reset diagonal entry is within delta = 8.51 eps of q_k^m: pow is
      within 4 ulp at k <= 52; at k >= 53, x = m log1p(-2^(-k)) is within
      4.51 eps |x| (log1p's 4 ulp and the product's rounding), and
      |x| <= m 2^-53 (1 + 2^-53), at most 1 + 2^-53 because m <= n <= 2^53,
      so exp's 4 ulp make 8.51 eps. T's own diagonal is within eps/2. Past
      n = 2^53, |x| and delta grow like n 2^-53: MAX_N is where the bound
      stops being flat.
    - Let every entry d >= 1 places above the diagonal of a power P be
      within c d relative (c = 0 for T, whose superdiagonal is exact). The
      entry d places above the diagonal of P @ P sums the d + 1 nonnegative
      products P(k, k+e) P(k+e, k+d): at e = 0 and e = d one factor is
      diagonal, within delta + c d, and every other product is within
      c e + c (d - e) = c d. A product and the additions of d + 1 such
      terms, in any order, round each term by at most (d + 1) eps/2 (the
      zeros of the triangle add exactly). So the square is within
      c d + delta + (d + 1) eps/2 <= (c + 9.51 eps) d: each squaring adds
      9.51 eps to c, and T^(2^i) has c <= 9.51 i eps.
    - p @ P, with p's mass at level e within g e and the slope c of P, is
      within (max(g, c) + 9.51 eps) d at level d the same way. Bit i meets
      T^(2^i), the bits taken from the lowest, so after bit i
      g <= 9.51 (i + 1) eps: at the top bit L - 1, 9.51 L eps, and 10 L eps
      covers the second-order terms.
    - Absolute errors: a flushed entry, and a diagonal entry that
      underflows, moves by at most 2^-1072 (4 subnormal ulps). T^(2^i)
      enters the result in at most n 2^-i copies, each between a
      subprobability row and substochastic factors, on at most 115 levels,
      so these move the masses by under 2 n 115 2^-1072 <= 2^-1011 in l1.
      The unscaling of p @ power rounds a mass by at most 2^-1075, and a
      product that underflows in a square or in p @ power is under 2^-1500
      unscaled.
    Measured against a 1200-digit closed form, every mass above 1e-300 is
    within 24.2 eps of itself at n = 2^40 + 1 and 19.4 eps at 2^53 - 1,
    where the bound is 1.3e4 to 4.9e4 eps: the bound adds every rounding
    at its worst, and in practice they cancel.
    Edge masses at or below 1e-300 are trimmed. The result's ``truncation``
    is the trimmed mass plus |1 - sum| of the stored masses: the clipped
    mass (below 1e-300 for any reachable n) and the rounding drift in
    either direction (at most 4.7e-15 over 281 sampled n from 2^20 to
    2^53). No distance of the package reads this law: the TV rows read
    ``_level_gaps``, as the tests' pointwise gap check does.
    """
    n = operator.index(n)
    if not 0 <= n <= MAX_N:
        raise ValueError(f"n must be in [0, {MAX_N}], got {n}")
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
    k = floor_log2(n)   # checks n before log2 can fail on it
    return math.log2(n) - k


def simulate_count(family: GeometricDst | ScaledBase, horizons,
                   samples: int, rng: np.random.Generator) -> list[IntPmf]:
    """Laws of N_t = sup{n : S_n <= t}, one per nondecreasing horizon t,
    all read off the same ``samples`` renewal paths.

    Lifetimes are drawn index by index across all replicates until every
    partial sum has passed the last horizon, so the stream layout depends
    only on the generator, ``samples`` and that horizon. N_t >= j exactly
    when S_j <= t: the replicates with S_j <= t, tabled over indices j and
    horizons, give each law by differences, bit for bit the
    ``IntPmf.from_samples`` of the per-replicate counts. At an index, a
    horizon below every sum or at or above every sum is tabled without a
    pass, each other one with one pass over the sums, so no (index, horizon)
    pair costs more than a pass: less than drawing each horizon's own
    paths. Memory is O(samples + indices * horizons).
    """
    from .lifetimes import sample_lifetime

    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    ts = [float(t) for t in horizons]
    for t in ts:
        if not 0 < t < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {t!r}")
    if not ts or any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("horizons must be a nonempty nondecreasing sequence")
    sums = np.zeros(samples)
    rows = []      # rows[j - 1][h]: replicates with S_j <= ts[h]
    while True:
        with np.errstate(over="ignore"):    # a sum past the float range is inf
            sums += sample_lifetime(family, len(rows) + 1, rng, size=samples)
        lo, hi = sums.min(), sums.max()
        if not lo <= ts[-1]:    # a nan sum (inf * 0 in a lifetime) ends too
            break
        a, b = bisect.bisect_left(ts, lo), bisect.bisect_left(ts, hi)
        rows.append([0] * a + [np.count_nonzero(sums <= t) for t in ts[a:b]]
                    + [samples] * (len(ts) - b))
    table = np.array([[samples] * len(ts), *rows, [0] * len(ts)],
                     dtype=np.int64)
    laws = []
    for column in (table[:-1] - table[1:]).T:     # replicates with N_t = j
        j = np.flatnonzero(column)
        laws.append(IntPmf(int(j[0]), column[j[0]:j[-1] + 1] / samples))
    return laws


def _pair_terms(cells, j, lag=0.0) -> tuple[np.ndarray, np.ndarray]:
    """(terms, heads): the terms of Delta_l(j) = P(S > j 2^-l) - P(S_l > j),
    one per k, and their heads a_k exp(-rho_k j).

    ``cells`` indexes the (level l x term k) tables: a slice of levels, or
    one level and some of its terms as a column; j, a float or an array,
    and ``lag`` broadcast against them. P(S > j 2^-l) =
    sum_k a_k exp(-rho_k j) with rho_k = 2^(k-l), and P(S_l > j) =
    sum_{i=2..l} B_i q_i^(j-l+1) (partial fractions of the geometric
    lifetimes: p_i = 2^(1-i), q_i = 1 - p_i and
    B_i = prod_{m != i} p_m q_i / (p_m - p_i)) for j >= l - 1 at l >= 2;
    at l = 1 the sum is empty and holds from j = 1 on. Mixture term k < l
    is paired with partial-sum term i = l + 1 - k, whose p_i is
    rho = rho_k. The partial-fraction products give
    B_i q_i^(1-l) = a_k exp(ell), ell = sum_{m >= l-k+1} log1p(-2^-m), and
    with lambda = -ln q_i = rho + delta, delta = sum_{m >= 2} rho^m / m,
    the pair is
      a_k exp(-rho j) - B_i q_i^(j-l+1) = -a_k exp(-rho j) expm1(x),
    x = ell - delta j, where ell and -delta j are both at most 0: no term
    cancels. Mixture terms k >= l stay unpaired: ell = -inf and delta = 0,
    so that -expm1(x) is 1. x is formed as ell + lag - delta j: lag =
    lambda gives the terms of P(S > j 2^-l) - P(S_l > j - 1), whose
    partial-sum terms are larger by 1/q_i = exp(lambda) (x is still at
    most 0 for j >= 1).
    """
    heads = _MIX[cells] * np.exp(-_RATE[cells] * j)
    return heads * -np.expm1(_ELL[cells] + lag - _DELTA[cells] * j), heads


def _ks_level(n: int) -> tuple:
    """(cells, lags, g0, g1, r): the terms, the lags of G+ and G-, the
    curvature coefficients and the error bound of the KS search at level n.

    The cells are the terms k with rho_k n < 746; every other term is
    below 2^-1076 |a_k| at every j >= n and is left out, as the terms past
    k = 32 are. The lags are 0 and lambda (``_pair_terms``).
    M(j) = sum_k |a_k exp(-rho_k j)| (g0_k + g1_k j), rho_k = 2^(k-n),
    bounds both |G+''| and |G-''| on [j, oo) (``_ks_values``), pairing
    the two tails as ``_pair_terms`` does. With beta_s = B_i q_i^(-s),
    T(j) and T(j - 1) are sum_i beta_s exp(-lambda j) for s = n - 1 and
    n, and the pair's beta_(n-1) = a_k e^ell, beta_n = a_k e^(ell + lambda).
    Pair k's share of G'' is
      (a_k - beta) rho^2 e^(-rho j) + beta (rho^2 e^(-rho j)
                                            - lambda^2 e^(-lambda j)).
    |a_k - beta_s| = |a_k| |expm1(ell_s)| is at most |a_k| (1 - e^ell), as
    e^ell (1 + 1/q_i) <= e^-rho (2 - rho) / (1 - rho) <= 2 for rho <= 1/2;
    by the mean value theorem in the rate (x^2 e^(-x j) has derivative at
    most (2x + x^2 j) e^(-x j) in size) the second part is at most
    |beta_n| delta (2 lambda + lambda^2 j) e^(-rho j). So
      g0_k = -expm1(ell) rho^2 + 2 e^(ell + lambda) delta lambda,
      g1_k = e^(ell + lambda) delta lambda^2,
    which is rho^2 and 0 for an unpaired term (ell = -inf, delta = 0).
    Since lambda <= 1.39 rho, g1_k <= rho_k g0_k and every term of M falls
    as j grows, so M(u) bounds |G+''| and |G-''| on every block [u, v].
    M is built from the float tables, so g0 and g1 are inflated by
    1 + 40 eps: against the exact values, -expm1(ell) is within 9.01 eps,
    e^(ell + lambda) within 8.15 eps (ell's 5.01 eps of |ell| < 0.55 and
    lambda's 2.01 eps of lambda < 0.7 in the exponent, whose sum is exact,
    see below, and exp's 4), delta within 1.51 eps and lambda within
    2.01 eps, so g0 and g1, with their products and sum, are within
    15.2 eps; each term of M adds 8 eps (a_k's 2, exp's 4 and three
    roundings), the sum of the nonnegative terms 15.5 eps, and the
    inflation its own rounding.

    r bounds the float error of one gap value and of a block bound built
    from such values. With eps = 2^-52, every term of G+(j) and G-(j) is
    within 21 eps of s_k(j) = |a_k| e^(-rho_k j) min(1, |ell_k| + delta_k j):
    - a G+ pair is within 17 eps of its size and an unpaired term within
      7 eps (``_level_gaps``, with j for n), and the size is at most s_k, as
      1 - e^x <= min(1, -x) for x <= 0;
    - a G- pair's x' = ell + lambda - delta j is within 7.81 eps
      (|ell| + delta j) of its exact value: ell's 5.01 eps |ell| and
      lambda's 2.01 eps (at most 2.8 eps |ell|, as lambda <= 1.39 rho and
      rho <= |ell| < 0.55), their sum exact (Sterbenz: |ell| / lambda lies
      in [1/2, 2]), delta j's 2.01 eps and the difference's eps/2 |x'|
      (|x'| <= delta j). That moves -expm1(x') by at most e^x' times as
      much, and e^x' (|ell| + delta j) <= min(1, |ell| + delta j) (for
      y = |ell| + delta j >= 1 it is e^lambda y e^-y <= 2/e). With a_k's
      2 eps, exp's and expm1's 4 each and two products: 18.81 eps.
    The sum of at most 32 terms, in any order, is within 15.5 eps of the
    sum of their sizes (Higham, Accuracy and Stability of Numerical
    Algorithms, section 4.2). As |ell| >= rho and delta <= rho^2, each s_k
    falls as j grows, so a gap value is within 37 eps S of its exact
    value, S = sum_k s_k(n), plus 2^-520 for the terms left out and
    underflow (``_level_gaps``), which also covers the curvature of the
    terms left out in a block bound. No gap exceeds S (at n = 1, where
    nothing pairs, |G-(1)| = P(S <= 1/2) = 0.17 and S = 1.76), so a block
    bound that can prune, at most the incumbent, rounds by at most eps S:
    its end gap and its curvature term (v - u)^2 / 8 M(u), whose factor
    is a power of two, are added once. r = 40 eps S + 2^-520 covers these
    with the float S, which is within 29 eps of S.
    """
    cells = n, slice(0, int(np.count_nonzero(_RATE[n] * n < 746))), None
    rho, ell, delta = _RATE[cells], _ELL[cells], _DELTA[cells]
    lam = rho + delta
    beta = np.exp(ell + lam)
    grow = 1 + 40 * _EPS
    g0 = (-np.expm1(ell) * rho * rho + 2.0 * beta * delta * lam) * grow
    g1 = beta * delta * lam * lam * grow
    sizes = (np.abs(_MIX[cells]) * np.exp(-rho * n)
             * np.minimum(1.0, delta * n - ell))
    r = 40 * _EPS * sizes.sum() + 2.0 ** -520
    return cells, np.stack((np.zeros_like(lam), lam)), g0, g1, float(r)


def _ks_values(level, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max(|G+(j)|, |G-(j)|), M(j)) at an integer array of jump points j,
    with ``level`` = ``_ks_level(n)``: one (lag x term x point) array of
    ``_pair_terms`` for both gaps."""
    cells, lags, g0, g1, _ = level
    j = points.ravel()
    terms, heads = _pair_terms(cells, j, lags)
    gaps = np.abs(terms.sum(axis=1)).max(axis=0)
    curvature = (np.abs(heads) * (g0 + g1 * j)).sum(axis=0)
    return gaps.reshape(points.shape), curvature.reshape(points.shape)


def _block_bound(gaps: np.ndarray, curvature: np.ndarray,
                 width) -> np.ndarray:
    """U >= max |G+(j)|, |G-(j)| over the integers j of each block.

    ``gaps`` and ``curvature`` (M) of ``_ks_values`` are taken along the
    last axis at split points u_t, at most ``width`` apart; block t is
    [u_t, u_t+1]. A function whose second derivative is at most M on
    [u, v] exceeds the larger end value by at most M (v - u)^2 / 8, and
    M(u) bounds both |G''| on the block because each of its terms falls as
    j grows (``_ks_level``).
    """
    return (np.maximum(gaps[..., :-1], gaps[..., 1:])
            + width * width / 8 * curvature[..., :-1])


def ks_scaled_sum_exact(n: int, cap_multiplier: int = 8) -> tuple[float, float]:
    """Exact KS distance between 2^(-n) S_n and the limit law S.

    The scaled sum is a step CDF with jumps at j 2^(-n); against the
    continuous limit CDF the supremum is attained at jump points, checking
    both one-sided gaps G+(j) = L(j) - T(j) and G-(j) = L(j) - T(j - 1),
    with L(j) = P(S > j 2^(-n)) and T(j) = P(S_n > j). Both gaps are sums
    of the pair terms of ``_pair_terms`` at level n, so no pmf is built.

    The maximum over j = n .. cap_multiplier * 2^n is found by a certified
    block search instead of a scan. One block of 4 16^L jump points covers
    the range; blocks are split into sixteenths, level by level, down to
    blocks of 4 and then single points, and every split point is evaluated
    (at the cap, past it) and raises the incumbent maximum. The incumbent
    starts from G-(n) = -P(S <= n 2^(-n)), as T(n - 1) = 1, read from the
    table, and the gap at j = 2^n, near the peak at x = 0.91, so the far
    tail of a large cap_multiplier is dropped as soon as it is split off:
    each factor 16 in cap_multiplier adds one level. A block [u, v] is
    dropped once its bound U (``_block_bound``: the larger end gap plus
    (v - u)^2 / 8 times M(u), a bound on |G''| that pairs the two tails'
    terms) satisfies U + 2r <= incumbent, where r (``_ks_level``) bounds
    the float error of one gap value a priori. A dropped block therefore
    holds no jump point whose float gap beats the incumbent, and the
    result is the maximum of the float gaps over every jump point, within
    r of the exact KS, from a few hundred evaluated points instead of
    cap_multiplier * 2^n. cap_multiplier * 2^n is limited to 2^53, past
    which not every jump point is a float and the exponents of r's
    derivation stop being exact. Returns (ks, truncation_bound): the bound
    is the larger mass either law carries beyond cap_multiplier * 2^n,
    plus r, so that ks + truncation_bound bounds the exact distance. That
    mass, 3.897e-7 at every n at the default cap, is 142% of ks at n = 22.
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
    level = _ks_level(n)
    r = level[-1]
    j_max = cap_multiplier << n
    # G-(n) from the table: at n = 1 the lagged closed form holds from
    # j = 2 on, and at j = 1 it reads G+(1) again
    ks = max(s_infinity_cdf(math.ldexp(n, -n)),
             float(_ks_values(level, np.array([1 << n]))[0][0]))
    width = 4  # one block of 4 16^L points; the last level steps 4 by 1
    while width < j_max - n:
        width *= _KS_SPLIT
    starts = np.array([n])
    while width > 1 and starts.size:  # until no live block is left
        sub = max(width // _KS_SPLIT, 1)
        points = np.minimum(
            starts[:, None] + np.arange(0, width + 1, sub), j_max)
        gaps, curvature = _ks_values(level, points)
        ks = max(ks, float(gaps.max()))
        bound = _block_bound(gaps, curvature, sub)
        live = (bound + 2 * r > ks) & (points[:, :-1] < j_max)
        starts = points[:, :-1][live]
        width = sub
    # the tails past the cap: L(j_max) and T(j_max) = L(j_max) - G+(j_max)
    limit = s_infinity_sf(float(cap_multiplier))
    tail = limit - float(_pair_terms(level[0], float(j_max))[0].sum())
    return ks, max(tail, limit) + r


def _level_gaps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Delta_l, e_l), l = 0..floor(log2 n) + 16: level gaps and error bounds.

    Delta_l = P(X_n >= l) - P(Q_eta >= l - k), with k = floor(log2 n) and
    eta = frac(log2 n), and |float Delta_l - Delta_l| <= e_l. As
    P(X_n >= l) = P(S_l <= n) and P(Q_eta >= l - k) = P(S <= n 2^-l),
    Delta_l = P(S > n 2^-l) - P(S_l > n): for l <= n + 1, the sum of the
    pair terms of ``_pair_terms`` at level l and j = n. All levels are one
    (levels x 32) array of terms, each row summed in order by np.cumsum.
    Levels l > n + 1, where S_l >= l > n and the closed form does not hold,
    are Delta_l = -P(S <= n 2^-l) from the table of ``s_infinity_cdf``.

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
    terms = _pair_terms(levels, float(n))[0]
    sums = np.cumsum(terms, axis=1)
    gaps = sums[:, -1]
    err = _EPS * ((_TERM_ERR[levels] * np.abs(terms)).sum(axis=1)
                  + np.abs(sums[:, 1:]).sum(axis=1)) + 2.0 ** -520
    for level in range(n + 2, top + 1):     # only n <= 18 has such levels
        gaps[level] = -s_infinity_cdf(math.ldexp(n, -level))
        err[level] = 5 * _EPS * -gaps[level]
    return gaps, err
