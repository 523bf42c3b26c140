import cmath
import math
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewal_dst
from renewal_dst import (
    GeometricDst,
    IntPmf,
    ScaledBase,
    depth_distribution_exact,
    ks_scaled_sum_exact,
    mixture_coefficients,
    q_cdf,
    q_pmf,
    s_infinity_cdf,
    s_infinity_sf,
    simulate_count,
    tv_distance,
    tv_to_limit,
)
from renewal_dst.renewal import (
    MAX_EXACT_KS_N,
    _block_bound,
    _ks_level,
    _ks_values,
    _level_gaps,
    _pair_terms,
    floor_log2,
    frac_log2,
)
from renewal_dst.lifetimes import sample_lifetime
from renewal_dst.limit_law import _mixture
from renewal_dst.rng import stream_rng

from _oracles import (
    empirical_cdf_jumps,
    ks_discrete_vs_continuous,
    pmf_gap_bound_check,
    renewal_counts,
    tail_ge,
)

# the least alpha the conditioning limit sum_k |A_k| <= 2^13 accepts
ALPHA_CUT = 1.2508235044744267

DST = GeometricDst()


def test_depth_distribution_small_n():
    d0 = depth_distribution_exact(0)
    assert dict(d0.items()) == {0: 1.0}
    d1 = depth_distribution_exact(1)
    assert dict(d1.items()) == {1: 1.0}
    d3 = depth_distribution_exact(3)
    assert d3.prob(1) == pytest.approx(0.25, abs=1e-15)
    assert d3.prob(2) == pytest.approx(0.625, abs=1e-15)
    assert d3.prob(3) == pytest.approx(0.125, abs=1e-15)


def _single_step_dp(n: int) -> np.ndarray:
    """Reference law: the chain advanced one step at a time, n times."""
    width = min(n, n.bit_length() + 60)
    p = np.zeros(width + 1)
    p[0] = 1.0
    up = 2.0 ** -np.arange(width + 1)
    stay = 1.0 - up
    moved = np.empty_like(p)
    for _ in range(n):
        np.multiply(p, up, out=moved)
        np.multiply(p, stay, out=p)
        p[1:] += moved[:-1]
    return p


# single set bits, runs of set bits (31, 1023) and 2^i + 1
@pytest.mark.parametrize("n", [1, 2, 3, 5, 31, 32, 33, 1023, 1025, 4097,
                               65537])
def test_depth_distribution_matches_single_step_dp(n):
    ref = _single_step_dp(n)
    law = depth_distribution_exact(n)
    got = np.array([law.prob(k) for k in range(ref.size)])
    np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-300)


def _unscaled_powering(n: int) -> IntPmf:
    """Reference law: depth_distribution_exact's squarings on the unscaled
    T^m, whose tiny entries underflow into subnormals."""
    width = min(n, n.bit_length() + 60)
    up = 2.0 ** -np.arange(width + 1)
    stay = 1.0 - up
    log_stay = np.log1p(-up[53:])
    power = np.diag(stay) + np.diag(up[:-1], 1)
    p = np.zeros(width + 1)
    p[0] = 1.0
    for bit in range(n.bit_length()):
        if n >> bit & 1:
            p = p @ power
        if n >> (bit + 1):
            m = 2 << bit
            power = power @ power
            np.fill_diagonal(power, np.concatenate(
                (stay[:53] ** m, np.exp(m * log_stay))))
    law = IntPmf(0, p).trim(1e-300)
    return IntPmf(law.offset, law.masses,
                  law.truncation + abs(1.0 - law.total()))


_SCALED_DP_N = sorted(
    {0, 1, 2, 3, 5, 31, 777, 1024, 5000, 2 ** 18 + 1001, 2 ** 20,
     3 * 2 ** 20, 2 ** 22 - 1, 4000037, 2 ** 26 - 1, 2 ** 26, 2 ** 30 + 1,
     2 ** 40 + 1, 2 ** 53 - 1, 2 ** 53}
    | set(np.random.default_rng(29).integers(1, 2 ** 26, 50).tolist()))


def test_scaled_powering_keeps_every_mass_bit_for_bit():
    # the scaling by 2^500 is exact, and what the flush and the unscaled
    # subnormals change reaches no stored mass; truncation may move in the
    # subnormal range
    for n in _SCALED_DP_N:
        law, ref = depth_distribution_exact(n), _unscaled_powering(n)
        assert law.offset == ref.offset, n
        assert law.masses.tobytes() == ref.masses.tobytes(), n
        assert abs(law.truncation - ref.truncation) < 1e-300, n


def _dp_tolerance(n, level, mass):
    """depth_distribution_exact's bound on the rounding of the mass at
    ``level``: 10 L d eps relative (L = n.bit_length(), d = level) plus
    2^-1010."""
    return 10 * n.bit_length() * level * 2.0 ** -52 * mass + 2.0 ** -1010


# the laws reach levels 53..60, where 1 - 2^(-k) rounds to 1 in binary64,
# and n = 2^53 - 1 is the top odd n of the DP's range
@pytest.mark.parametrize("n, dps", [(3 * 2 ** 16 + 1, 330),
                                    (2 ** 20 + 1, 330),
                                    (2 ** 40 + 1, 1200),
                                    (2 ** 53 - 1, 1200)])
def test_depth_distribution_matches_mpmath_closed_form(n, dps):
    # P(X_n < j) = P(S_j > n) = sum_i T_i, T_i = B_i q_i^(n-j+1) and
    # p_i = 2^(1-i), i = 2..j. From level j - 1 to j each T_i is multiplied
    # by p_j / (p_j - p_i): B_i gains the factor p_j q_i / (p_j - p_i), and
    # its power of q_i loses one. The right tail is a difference of values
    # near 1, so 1e-300 masses need over 300 digits, and 1200 at large n
    mp = pytest.importorskip("mpmath")
    law = depth_distribution_exact(n)
    top = law.support_max + 2
    with mp.workdps(dps):
        p = [mp.ldexp(1, 1 - i) for i in range(top + 1)]
        terms, below = [], [mp.mpf(0), mp.mpf(0)]
        for j in range(2, top + 1):
            terms = [t * p[j] / (p[j] - p[i]) for i, t in enumerate(terms, 2)]
            terms.append(mp.fprod(p[i] * (1 - p[j]) / (p[i] - p[j])
                                  for i in range(2, j))
                         * (1 - p[j]) ** (n - j + 1))
            below.append(mp.fsum(terms))
        ref = [float(b - a) for a, b in zip(below, below[1:])]
    checked = 0
    for j, mass in enumerate(ref):
        if mass > 1e-300:
            got = law.prob(j)
            assert got == pytest.approx(mass, rel=1e-13, abs=0)
            # eps/2 for the reference's own rounding to float
            assert abs(got - mass) <= (_dp_tolerance(n, j, mass)
                                       + 2.0 ** -53 * mass), j
            checked += 1
    assert checked == len(law.masses)


# three engines per mass: the DP, q_pmf and the paired level gaps, with
# Delta_l - Delta_(l+1) = P(X_n = l) - P(Q_eta = l - k)
@pytest.mark.parametrize("n", [2 ** 20 + 1, 2 ** 40 + 1, 3 * 2 ** 45 + 7,
                               2 ** 53 - 1])
def test_dp_q_pmf_and_level_gaps_agree_per_mass(n):
    k = floor_log2(n)
    # correctly rounded eta: frac_log2 cancels up to half an ulp of log2 n
    eta = math.log2(n / (1 << k))
    law = depth_distribution_exact(n)
    gaps, err = _level_gaps(n)
    for level in range(gaps.size - 1):
        mass = law.prob(level)
        diff = mass - q_pmf(eta, level - k)
        # q_pmf's 23 eps, one more for eta's rounding and one for diff's
        tol = (_dp_tolerance(n, level, mass) + 25 * 2.0 ** -52
               + err[level] + err[level + 1])
        assert abs(diff - (gaps[level] - gaps[level + 1])) <= tol, level


# the level gaps are CDF differences, Delta_l = P(Q_eta + k < l) - P(X_n < l),
# so their largest modulus is the Kolmogorov distance between X_n - k and
# Q_eta; at 2^20 + 1 the level gaps read 1.07664491795649e-6 and the DP
# against q_cdf 1.07664491821868e-6
@pytest.mark.parametrize("n", [2 ** 10 + 1, 2 ** 20 + 1])
def test_level_gaps_give_the_kolmogorov_distance(n):
    k = floor_log2(n)
    eta = math.log2(n / (1 << k))
    gaps, err = _level_gaps(n)
    law = depth_distribution_exact(n)
    below = np.concatenate(([0.0], np.cumsum(law.masses)))  # P(X_n < l)
    dp_ks = max(abs(below[min(max(level - law.offset, 0), below.size - 1)]
                    - q_cdf(eta, level - k - 1))
                for level in range(gaps.size))
    tol = abs(1.0 - law.masses.sum()) + err.max()
    assert abs(np.abs(gaps).max() - dp_ks) <= tol


@pytest.mark.parametrize("cast", [np.int64, np.uint32])
def test_exact_entry_points_accept_numpy_integers(cast):
    law = depth_distribution_exact(cast(1024))
    ref = depth_distribution_exact(1024)
    assert law.offset == ref.offset and law.truncation == ref.truncation
    assert np.array_equal(law.masses, ref.masses)
    assert floor_log2(cast(1024)) == 10 and frac_log2(cast(1024)) == 0.0
    assert tv_to_limit(cast(1024)) == tv_to_limit(1024)
    assert pmf_gap_bound_check(cast(64), 0) == pmf_gap_bound_check(64, 0)


@pytest.mark.parametrize("call", [
    depth_distribution_exact,
    floor_log2,
    frac_log2,
    tv_to_limit,
    lambda t: pmf_gap_bound_check(t, 0),
])
def test_exact_entry_points_reject_non_integers(call):
    with pytest.raises(TypeError):
        call(2.0)


def test_depth_distribution_domain():
    with pytest.raises(ValueError):
        depth_distribution_exact(-1)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 900])
def test_depth_distribution_mass_and_support(n):
    # state-1 mass is 2^(1-n); past n ~ 1000 it drops below the 1e-300
    # clipping threshold, so the support floor is only visible up to there
    law = depth_distribution_exact(n)
    assert law.total() == pytest.approx(1.0, abs=1e-12)
    assert law.offset == 1
    assert np.all(law.masses >= 0)


def test_depth_distribution_clips_unrepresentable_left_tail():
    law = depth_distribution_exact(5000)
    assert law.offset > 1
    assert law.truncation < 1e-12
    assert law.total() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("e", [10, 18, 20, 22, 26, 40, 53])
def test_depth_distribution_truncation_counts_rounding_drift(e):
    # the stored masses sum to 1 within a few ulps (1 - 7.8e-16 at 2^20,
    # 1 - 3.9e-15 at 2^53), and the drift, in either direction, is counted
    # in the truncation
    law = depth_distribution_exact(2 ** e)
    assert law.truncation >= abs(law.total() - 1.0)
    assert law.truncation < 1e-14


def test_depth_distribution_monotone_in_n():
    laws = [depth_distribution_exact(n) for n in range(0, 40)]
    for prev, cur in zip(laws, laws[1:]):
        for k in range(0, cur.support_max + 1):
            assert tail_ge(cur, k) >= tail_ge(prev, k) - 1e-12


def _partial_sum_terms(n):
    """(B_i, p_i), i = 2..n, with P(S_n > j) = sum_i B_i q_i^(j-n+1).

    S_n - n is a sum of independent Geom(p_i) - 1 with p_i = 2^(1-i) and
    q_i = 1 - p_i; partial fractions give B_i = prod_{l != i} p_l q_i /
    (p_l - p_i), each n - 2 rounded quotients multiplied together. The
    termwise oracle of the paired closed form: it shares no formula with
    ``renewal._pair_terms``.
    """
    p = 2.0 ** (1 - np.arange(2, n + 1))
    q = 1.0 - p
    diff = p - p[:, None]
    np.fill_diagonal(diff, 1.0)
    ratio = p * q[:, None] / diff
    np.fill_diagonal(ratio, 1.0)
    return ratio.prod(axis=1), p


def _closed_form_cdf(n, t):
    """P(S_n <= t) = 1 - sum_i B_i q_i^(t-n+1) for t >= n, term by term."""
    coeffs, p = _partial_sum_terms(n)
    return 1.0 - math.fsum(b * (1.0 - pi) ** (t - n + 1)
                           for b, pi in zip(coeffs, p))


def test_partial_sum_cdf_exact_values():
    # P(S_j <= t) = P(X_t >= j), read off the exact depth law
    assert tail_ge(depth_distribution_exact(17), 0) == pytest.approx(
        1.0, abs=1e-15)
    assert tail_ge(depth_distribution_exact(0), 1) == 0.0
    assert tail_ge(depth_distribution_exact(2), 2) == pytest.approx(
        0.5, abs=1e-15)


def test_partial_sum_cdf_grid_matches_dp_identity():
    # the KS kernel's closed form P(S_n <= t) = 1 - sum_i B_i q_i^(t-n+1),
    # on the grid t = n..200, against the chain identity
    for n in (2, 3, 5, 8):
        for t in (n, n + 1, n + 3, 50, 200):
            assert _closed_form_cdf(n, t) == pytest.approx(
                tail_ge(depth_distribution_exact(t), n), abs=1e-12)


def test_renewal_count_identity():
    t = 64
    law = depth_distribution_exact(t)
    # P(X_t = j) = P(S_j <= t) - P(S_{j+1} <= t), the right side in closed form
    for j in range(1, 12):
        gap = _closed_form_cdf(j, t) - _closed_form_cdf(j + 1, t)
        assert law.prob(j) == pytest.approx(gap, abs=1e-12)


def test_centred_count_law():
    # X_n - k, k = floor(log2 n): level j + k of the depth law is atom j
    law = depth_distribution_exact(1)
    assert floor_log2(1) == 0 and frac_log2(1) == 0.0
    assert dict(law.items()) == {1: 1.0}
    law, k = depth_distribution_exact(2), floor_log2(2)
    assert (law.prob(0 + k) == pytest.approx(0.5)
            and law.prob(1 + k) == pytest.approx(0.5))
    assert frac_log2(2) == 0.0
    assert frac_log2(3) == pytest.approx(math.log2(3) - 1)
    for n in (2 ** 10, 2 ** 16, 2 ** 20, 2 ** 22):  # to depth-dist's limit
        assert frac_log2(n) == 0.0
        assert depth_distribution_exact(n).total() == pytest.approx(
            1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, -3])
def test_log2_helpers_reject_n_below_1(n):
    # floor_log2 checks n before frac_log2 takes a log of it
    for call in (floor_log2, frac_log2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            call(n)


def test_simulate_count_degenerate_horizons():
    low, mid = simulate_count(DST, [0.5, 1.5], 500, stream_rng(1, 0))
    assert (low.offset, list(low.masses)) == (0, [1.0])
    assert (mid.offset, list(mid.masses)) == (1, [1.0])


def test_simulate_count_matches_exact_law():
    emp, = simulate_count(DST, [2.0 ** 10], 10 ** 5,
                          stream_rng(20070201, 15))
    assert tv_distance(emp, depth_distribution_exact(2 ** 10)) <= 0.01


def test_simulate_count_reproducible():
    first = simulate_count(DST, [10.0, 100.0], 2000, stream_rng(7, 3))
    again = simulate_count(DST, [10.0, 100.0], 2000, stream_rng(7, 3))
    assert [(p.offset, p.masses.tolist()) for p in first] == \
        [(p.offset, p.masses.tolist()) for p in again]


def test_simulate_count_validation():
    for horizons, samples in (([10.0], 0), ([0.0], 10), ([1.0, -1.0], 10),
                              ([2.0, 1.0], 10), ([], 10)):
        with pytest.raises(ValueError):
            simulate_count(DST, horizons, samples, stream_rng(1))


@pytest.mark.parametrize("family", [DST, ScaledBase(2.0)],
                         ids=["geometric", "scaled-base"])
def test_simulate_count_rejects_infinite_horizon(family):
    # an infinite horizon would never end the draws: refused before the
    # first, as is an integer past the float range
    big = 10 ** 400
    for horizons in ([math.inf], [math.nan], [4.0, math.inf],
                     [math.nan, 4.0], [2.0, math.nan, 8.0], [big, 4.0],
                     [2.0, big, 8.0], [4.0, big]):
        rng = stream_rng(1)
        with pytest.raises(ValueError, match="finite"):
            simulate_count(family, horizons, 3, rng)
        assert rng.random() == stream_rng(1).random()


# 1.0 ties every geometric sum at the first index
_ORACLE_HORIZONS = [0.5, 1.0, 1.5, *range(1000, 1011), 2 ** 53, 2 ** 53 + 1]


@pytest.mark.parametrize("family, horizons", [
    (DST, [*_ORACLE_HORIZONS, 10 ** 300]),
    (ScaledBase(1.5), _ORACLE_HORIZONS),
    (ScaledBase(2.7), _ORACLE_HORIZONS),
], ids=["geometric", "alpha-1.5", "alpha-2.7"])
def test_simulate_count_matches_per_replicate_counts(family, horizons,
                                                     monkeypatch):
    # every law is bit for bit the empirical law of the replicates' counts
    # on the same stream (2^53 + 1 rounds to 2^53: one float, two rows), the
    # draws stop where the oracle's do, and they span no more indices than
    # one loop per horizon would draw
    indices = []

    def counted(family, k, rng, size=None):
        indices.append(k)
        return sample_lifetime(family, k, rng, size)

    monkeypatch.setattr(renewal_dst.lifetimes, "sample_lifetime", counted)
    rng = stream_rng(11, 0)
    laws = simulate_count(family, horizons, 300, rng)
    monkeypatch.undo()
    ref_rng = stream_rng(11, 0)
    counts, drawn = renewal_counts(family, horizons, 300, ref_rng)
    assert len(laws) == len(horizons)
    for law, row in zip(laws, counts):
        ref = IntPmf.from_samples(row)
        assert law.offset == ref.offset
        assert law.masses.tobytes() == ref.masses.tobytes()
    assert rng.random() == ref_rng.random()
    assert indices == list(range(1, drawn[-1] + 1))
    assert len(indices) <= drawn.sum()


def scaled_sum_sample(family, n, samples, rng):
    """Draws of alpha^(-n) S_n with S_n = Y_1 + ... + Y_n."""
    total = np.zeros(samples)
    for k in range(1, n + 1):
        total += sample_lifetime(family, k, rng, size=samples)
    return family.alpha ** -n * total


def test_scaled_sum_degenerate():
    v = scaled_sum_sample(DST, 1, 100, stream_rng(3, 0))
    assert np.all(v == 0.5)


def test_scaled_sum_mean_n16():
    v = scaled_sum_sample(DST, 16, 10 ** 6, stream_rng(20070201, 16))
    se = v.std() / math.sqrt(v.size)
    assert abs(v.mean() - (2.0 ** 16 - 1) / 2.0 ** 16) <= 5 * se


def test_scaled_sum_converges_to_limit_cdf():
    v = scaled_sum_sample(DST, 16, 10 ** 6, stream_rng(20070201, 16))
    ks = ks_discrete_vs_continuous(*empirical_cdf_jumps(v), s_infinity_cdf)
    assert ks <= 0.005


@pytest.mark.parametrize("alpha", [ALPHA_CUT, 1.5, 3.0, 5.0])
def test_mixture_mean_is_the_series_mean(alpha):
    # E[S] = integral of P(S > s) = sum_k A_k / (2 alpha^k), and the series
    # S = sum_k alpha^-k W_k has mean sum_k alpha^-k / 2 = alpha/(2 (alpha-1))
    a = _mixture(alpha)[0]
    mean = math.fsum(ak / (2 * alpha ** k) for k, ak in enumerate(a))
    assert mean == pytest.approx(alpha / (2 * (alpha - 1)), rel=1e-12)


@pytest.mark.parametrize("alpha", [ALPHA_CUT, 1.5, 3.0, 5.0])
def test_mixture_fourier_coefficient(alpha):
    # E[S^-chi] = Gamma(1 - chi) sum_k A_k (2 alpha^k)^chi for the mixture,
    # and at chi = 2 pi i / ln alpha every (2 alpha^k)^chi is 2^chi, so
    # E[S^-chi] = Gamma(1 - chi) 2^chi, the law of sum_k alpha^-k W_k; the
    # Gamma factor cancels, and the rest is float: each term's phase is off
    # by a few eps, times sum_k |A_k| (5.3e-12 measured at the cut)
    a = _mixture(alpha)[0]
    ln_alpha = math.log(alpha)
    chi = 2j * math.pi / ln_alpha
    got = sum(ak * cmath.exp(chi * (math.log(2) + k * ln_alpha))
              for k, ak in enumerate(a))
    weight = math.fsum(map(abs, a))
    assert abs(got - cmath.exp(chi * math.log(2))) <= 1e-14 * weight


def test_ks_scaled_sum_degenerate_n1():
    ks, trunc = ks_scaled_sum_exact(1)
    f_half = s_infinity_cdf(0.5)
    assert ks == pytest.approx(max(f_half, 1 - f_half), abs=1e-12)
    assert trunc < 1e-6


def test_ks_scaled_sum_domain():
    with pytest.raises(ValueError):
        ks_scaled_sum_exact(0)
    with pytest.raises(ValueError):
        ks_scaled_sum_exact(23)
    with pytest.raises(ValueError):
        ks_scaled_sum_exact(4, cap_multiplier=1)
    # every jump point j <= cap_multiplier * 2^n must be an exact float
    with pytest.raises(ValueError, match="at most 2"):
        ks_scaled_sum_exact(12, cap_multiplier=2 ** 41 + 1)
    # non-integers are refused up front, as by depth_distribution_exact,
    # not by numpy's ldexp or by << partway through
    for args, kwargs in (((19.0,), {}), ((4,), {"cap_multiplier": 8.0}),
                         ((np.float64(4),), {})):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            ks_scaled_sum_exact(*args, **kwargs)


def test_ks_scaled_sum_truncation_reported():
    _, trunc = ks_scaled_sum_exact(6, cap_multiplier=8)
    assert 0 <= trunc < 1e-6


@pytest.mark.parametrize("n", [3, 6, 8])
def test_ks_scaled_sum_matches_mpmath_full_grid(n):
    # both one-sided gaps at every jump point j = n..8 2^n, in 30 digits:
    # P(S_n > j) = sum_i B_i q_i^(j-n+1), P(S > t) = sum_k a_k exp(-2^k t)
    mp = pytest.importorskip("mpmath")
    cap = 8
    with mp.workdps(30):
        p = {i: mp.ldexp(1, 1 - i) for i in range(2, n + 1)}
        b = [mp.fprod(p[l] * (1 - p[i]) / (p[l] - p[i]) for l in p if l != i)
             for i in p]
        q = [1 - p[i] for i in p]
        mix = [1 / mp.fprod(1 - mp.ldexp(1, -j) for j in range(1, 120))]
        for k in range(1, 25):
            mix.append(mix[-1] / (1 - mp.ldexp(1, k)))

        def limit_tail(t):
            return mp.fsum(a * mp.exp(-mp.ldexp(t, k))
                           for k, a in enumerate(mix, start=1))

        ks, before = mp.mpf(0), mp.mpf(1)
        for j in range(n, (cap << n) + 1):
            sum_tail = mp.fsum(bi * qi ** (j - n + 1) for bi, qi in zip(b, q))
            lim = limit_tail(mp.ldexp(j, -n))
            ks = max(ks, abs(lim - sum_tail), abs(lim - before))
            before = sum_tail
        trunc = max(before, limit_tail(cap))
    got, got_trunc = ks_scaled_sum_exact(n, cap_multiplier=cap)
    assert got == pytest.approx(float(ks), rel=0, abs=1e-14)
    # the tail past the cap plus the KS value's rounding bound r
    assert got_trunc == pytest.approx(float(trunc) + _ks_level(n)[-1],
                                      rel=1e-12, abs=0)


def test_ks_scaled_sum_top_of_range():
    # 8 2^22 jump points, the most the search takes
    ks22, trunc22 = ks_scaled_sum_exact(22)
    ks21, trunc21 = ks_scaled_sum_exact(21)
    assert 0 < ks22 < ks21
    assert trunc22 < 1e-6 and trunc21 < 1e-6


def _power_sums(coeffs, logs, start, count, ladder=256):
    """sum_r coeffs[r] exp(logs[r] e) for e = start .. start + count - 1.

    Row m of ``starts`` holds the terms at e = start + ladder m, so
    (starts @ steps.T)[m, t] is the sum at e = start + ladder m + t.
    """
    rows = -(-count // ladder)
    starts = coeffs * np.exp(
        np.multiply.outer(start + ladder * np.arange(rows), logs))
    steps = np.exp(np.multiply.outer(np.arange(ladder), logs))
    return (starts @ steps.T).ravel()[:count]


def _scan_batches(n, cap, batch=1 << 16):
    """(L(j), T(j), T(j - 1)) at every jump point j = n..cap 2^n, in batches.

    The exhaustive scan the block search replaced: T(j) = P(S_n > j) and
    L(j) = P(S > j 2^-n) as one matrix product per batch, T(n - 1) = 1.
    """
    coeffs, p = _partial_sum_terms(n)
    logs = np.log1p(-p)
    mix = np.array(mixture_coefficients())
    mix_logs = -np.ldexp(1.0, np.arange(1, mix.size + 1) - n)
    j_max = cap << n
    before = 1.0
    for j0 in range(n, j_max + 1, batch):
        count = min(batch, j_max + 1 - j0)
        sum_tail = _power_sums(coeffs, logs, j0 - n + 1, count)
        limit_tail = _power_sums(mix, mix_logs, j0, count)
        yield limit_tail, sum_tail, np.concatenate(([before], sum_tail[:-1]))
        before = float(sum_tail[-1])


def _scan_error(n):
    """A priori float error of one gap of the scan: the termwise bound
    S_B (n + 10 + K/2) eps + S_a (55 + K/2) eps + (12 + K/2) eps over
    K = n + 31 terms, S_B = sum |B_i| and S_a = sum |a_k|, which counts the
    coefficients' rounding, the exponent products, two exps and a product
    per term and the summation."""
    half_k = (n + 31) / 2
    return 2.0 ** -52 * (
        np.abs(_partial_sum_terms(n)[0]).sum() * (n + 10 + half_k)
        + np.abs(mixture_coefficients()).sum() * (55 + half_k) + 12 + half_k)


def _scan_ks(n, cap):
    """(ks, trunc) of the exhaustive scan over j = n..cap 2^n."""
    ks = 0.0
    for limit_tail, sum_tail, prev in _scan_batches(n, cap):
        ks = max(ks, float(np.abs(limit_tail - sum_tail).max()),
                 float(np.abs(limit_tail - prev).max()))
    return ks, max(float(sum_tail[-1]), s_infinity_sf(float(cap)))


@lru_cache(maxsize=None)
def _scanned_gaps(n, cap):
    """max(|G+(j)|, |G-(j)|) for j = n..cap 2^n from the scan (n <= 14)."""
    return np.concatenate([
        np.maximum(np.abs(limit_tail - sum_tail), np.abs(limit_tail - prev))
        for limit_tail, sum_tail, prev in _scan_batches(n, cap)])


@pytest.mark.parametrize("cap", [2, 3, 8])
def test_ks_search_matches_scan(cap):
    # the search returns the maximum of the paired float gaps at every n,
    # and the termwise scan agrees with it to 1e-15 abs; trunc is the scan's
    # tail past the cap plus the paired evaluation's rounding bound r
    for n in range(1, 19):
        want, want_trunc = _scan_ks(n, cap)
        got, got_trunc = ks_scaled_sum_exact(n, cap_multiplier=cap)
        assert got == pytest.approx(want, rel=0, abs=1e-15), n
        assert got_trunc == pytest.approx(want_trunc + _ks_level(n)[-1],
                                          rel=1e-12, abs=0), n


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 14), cap=st.sampled_from([2, 8]), data=st.data())
def test_block_bound_covers_scanned_gaps(n, cap, data):
    # the certificate itself: U + 2r bounds every exact gap of the block,
    # for blocks up to the whole range, as wide as the search's first ones,
    # and so every scanned gap within the scan's own error bound
    j_max = cap << n
    u = data.draw(st.integers(n, j_max - 1), label="u")
    v = data.draw(st.integers(u + 1, j_max), label="v")
    level = _ks_level(n)
    gaps, curvature = _ks_values(level, np.array([u, v]))
    bound = _block_bound(gaps, curvature, v - u)[0] + 2 * level[-1]
    assert (bound + _scan_error(n)
            >= _scanned_gaps(n, cap)[u - n:v - n + 1].max())


@pytest.mark.parametrize("width", [2, 8, 64, 1024])
def test_block_bound_curvature_term_is_sharp(width):
    # G(x) = M (x - u)(v - x) / 2 has |G''| = M, zero ends and the maximum
    # M width^2 / 8 at the middle jump point: no smaller factor is sound.
    # Falling tails realise it: T = 1 - (x - u) / width and L = T + G.
    m = 3.0 * 2.0 ** -20
    bound = _block_bound(np.zeros(2), np.array([m, 0.0]), width)[0]
    assert bound >= m * width * width / 8


@lru_cache(maxsize=None)
def _mp_gap_terms(n):
    """30-digit B_i, q_i and mixture a_k (the limit's b from 119 factors)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        p = {i: mp.ldexp(1, 1 - i) for i in range(2, n + 1)}
        b = [mp.fprod(p[l] * (1 - p[i]) / (p[l] - p[i]) for l in p if l != i)
             for i in p]
        mix = [1 / mp.fprod(1 - mp.ldexp(1, -j) for j in range(1, 120))]
        for k in range(1, 40):
            mix.append(mix[-1] / (1 - mp.ldexp(1, k)))
    return b, [1 - p[i] for i in p], mix


def _mp_curvature(n, x):
    """max(|G+''(x)|, |G-''(x)|) in 30 digits at a real x >= n."""
    mp = pytest.importorskip("mpmath")
    b, q, mix = _mp_gap_terms(n)
    with mp.workdps(30):
        x = mp.mpf(float(x))
        limit = mp.fsum(a * mp.ldexp(mp.exp(-mp.ldexp(x, k - n)), 2 * (k - n))
                        for k, a in enumerate(mix, start=1))
        return max(abs(limit - mp.fsum(bi * mp.log(qi) ** 2 * qi ** (x - n + s)
                                       for bi, qi in zip(b, q)))
                   for s in (0, 1))


@pytest.mark.parametrize("n", range(3, 15))
def test_curvature_bound_covers_mpmath(n):
    # M(u) bounds the 30-digit |G+''| and |G-''| on blocks [u, v] of every
    # width, near j = n, across the peak and in the tail
    rng = np.random.default_rng(n)
    j_max = 8 << n
    us = np.unique(np.concatenate((
        [n, n + 1], np.geomspace(n, j_max - 1, 8).astype(int),
        rng.integers(n, j_max, 4))))
    bounds = _ks_values(_ks_level(n), us)[1]
    for u, bound in zip(us, bounds):
        v = rng.integers(u + 1, j_max + 1)
        for x in np.linspace(u, v, 7):
            assert bound >= _mp_curvature(n, x), (u, v, x)


@pytest.mark.parametrize("n", range(8, 13))
def test_curvature_bound_is_sharp(n):
    # pairing the tails keeps M(u) within 10x of the 30-digit sup of |G''|
    # on [u, u + 2^(n-2)] around the peak of the gap (x = 0.91) and in the
    # tail; the termwise bound sum |B_i| ln^2 q_i q_i^(u-n) + sum |a_k|
    # 4^(k-n) e^(-2^(k-n) u) is 43x to 7926x the sup on these blocks. Left
    # out: near x = 1.4, where G'' changes sign, M(u) is 13x the sup, and
    # on blocks that start at j = n up to 151x
    us = (np.array([0.75, 0.91, 1, 1.25, 1.6, 2, 3, 4, 6]) * 2 ** n)
    us = us.astype(int)
    bounds = _ks_values(_ks_level(n), us)[1]
    for u, bound in zip(us, bounds):
        sup = max(_mp_curvature(n, x)
                  for x in np.linspace(u, u + (1 << n - 2), 9))
        assert bound <= 10 * sup, (u, bound, sup)


@pytest.mark.parametrize("n", [6, 12, 18, 22])
def test_gap_rounding_bound_against_mpmath(n):
    # |float gap - 30-digit gap| <= r for G+ and G- at sampled jump points:
    # near j = n, across the peak and past the cap, up to 23 2^n
    mp = pytest.importorskip("mpmath")
    b, q, mix = _mp_gap_terms(n)
    rng = np.random.default_rng(n)
    starts = np.concatenate(([n, n + 1], rng.integers(n, 7 << n, 10),
                             rng.integers(n, 4 << n // 2, 6)))
    steps = np.array([0, 1, 3, 64, 1 << n // 2, 1 << n, 16 << n])
    js = np.add.outer(starts, steps).ravel()
    cells, lags, _, _, r = _ks_level(n)
    gaps = _pair_terms(cells, js, lags)[0].sum(axis=1)    # G+ and G- rows
    with mp.workdps(30):
        for j, got in zip(js.tolist(), gaps.T.tolist()):
            lim = mp.fsum(a * mp.exp(-mp.ldexp(j, k - n))
                          for k, a in enumerate(mix, start=1))
            exact = [lim - mp.fsum(bi * qi ** (j - n + 1 - shift)
                                   for bi, qi in zip(b, q))
                     for shift in (0, 1)]
            for g, want in zip(got, exact):
                assert abs(g - want) <= r, (j, g, want)


@pytest.mark.parametrize("n", range(1, MAX_EXACT_KS_N + 1))
def test_ks_rounding_bound_is_small_next_to_ks(n):
    # the a priori r of the paired evaluation stays under 1e-11 of the KS
    # value at every n (2.6e-13 at most); the termwise bound, summed over
    # |B_i| and |a_k|, passed it from n = 7 and was 9.7e-7 of KS(22)
    assert _ks_level(n)[-1] <= 1e-11 * ks_scaled_sum_exact(n)[0]


@pytest.mark.parametrize("n, cap, most", [
    (10, 8, 1000), (16, 8, 1000), (19, 8, 1000), (22, 8, 1000),
    (12, 2 ** 41, 1000)])
def test_ks_search_evaluates_few_points(n, cap, most, monkeypatch):
    # a few hundred jump points instead of cap 2^n, 361 at n = 22. Each
    # factor 16 in cap past the mass adds one level of 17 points, up to the
    # largest cap, 2^53 / 2^n, and moves ks by at most the scan's 1e-15
    want = ks_scaled_sum_exact(n)[0]
    count = []

    def counted(level, points):
        count.append(points.size)
        return _ks_values(level, points)

    monkeypatch.setattr(renewal_dst.renewal, "_ks_values", counted)
    got = ks_scaled_sum_exact(n, cap)[0]
    assert sum(count) <= most
    assert got == pytest.approx(want, rel=0, abs=1e-15)


def _mean_gap(n):
    """sum over every level of Delta_l: E[X_n] - floor(log2 n) - E[Q_eta];
    the levels below 0 are P(S > n 2^m), m >= 1."""
    return (math.fsum(_level_gaps(n)[0].tolist())
            + math.fsum(s_infinity_sf(math.ldexp(n, m)) for m in range(1, 12)))


# the last three: 1.8e-14, 1.3e-14 and 2.7e-14 measured, the DP mean's own
# rounding
@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 777, 1024, 2 ** 12 - 1,
                               2 ** 12, 2 ** 20 + 1, 3 * 2 ** 18, 2 ** 26])
def test_level_gaps_sum_to_the_mean_gap(n):
    eta = frac_log2(n)
    q_mean = math.fsum(j * q_pmf(eta, j) for j in range(-40, 61))
    law = depth_distribution_exact(n)
    law_mean = math.fsum(j * m for j, m in enumerate(law.masses.tolist(),
                                                      law.offset))
    dp_gap = law_mean - floor_log2(n) - q_mean
    assert _mean_gap(n) == pytest.approx(dp_gap, rel=0, abs=1e-13)


def test_scaled_mean_gap_is_near_its_average():
    # n (E[X_n] - floor(log2 n) - E[Q_eta]) wobbles about 3 / (2 ln 2) with
    # an amplitude under 1e-4 (6.3e-5 seen), at every eta
    target = 3 / (2 * math.log(2))
    for e in range(24, 49):
        for f in (0.0, 0.25, 0.5, 0.75):
            n = round(2.0 ** (e + f))
            assert abs(n * _mean_gap(n) - target) <= 1e-4, (e, f)


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(renewal_dst.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, renewal_dst; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
