import math
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewal_dst.limit_law
import renewal_dst.metrics
import renewal_dst.renewal
from renewal_dst import (
    IntPmf,
    check_rate_report,
    rate_report,
    s_infinity_cdf,
    s_infinity_sf,
    tv_distance,
    tv_to_limit,
)
from renewal_dst.metrics import _tv_with_slack
from renewal_dst.renewal import _ks_level, _level_gaps, ks_scaled_sum_exact

from _oracles import (
    empirical_cdf_jumps,
    ks_discrete_vs_continuous,
    pmf_gap_bound_check,
)


def pmf_of(d):
    lo = min(d)
    m = np.zeros(max(d) - lo + 1)
    for j, p in d.items():
        m[j - lo] = p
    return IntPmf(lo, m)


@st.composite
def int_pmfs(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    offset = draw(st.integers(min_value=-5, max_value=5))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=size, max_size=size))
    total = sum(weights)
    return IntPmf(offset, np.array([w / total for w in weights]))


def test_tv_distance_basics():
    p = pmf_of({0: 1.0})
    q = pmf_of({1: 1.0})
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == 1.0
    half = pmf_of({0: 0.5, 1: 0.5})
    assert tv_distance(half, p) == 0.5
    # disjoint 10-sample laws: their float masses summed over the union
    # support round past 2
    p = IntPmf.from_samples([-30, -27, -34, -33, -28, -29, -32, -31, -34, -32])
    q = IntPmf.from_samples([-99, -94, -99, -95, -100, -100, -96, -93, -94,
                             -93])
    assert tv_distance(p, q) == tv_distance(q, p) == 1.0


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.integers(-100, 100), min_size=1, max_size=30),
       b=st.lists(st.integers(1, 100), min_size=1, max_size=30))
def test_tv_distance_of_disjoint_sample_laws(a, b):
    p = IntPmf.from_samples(a)
    q = IntPmf.from_samples([max(a) + x for x in b])
    for d in (tv_distance(p, q), tv_distance(q, p)):
        assert d <= 1.0
        assert d == pytest.approx(1.0, abs=1e-12)


def test_pmf_mass_checked_to_1e_12():
    IntPmf(0, np.array([0.5, 0.5 + 1e-13]))
    for off in (1e-10, -1e-10):
        with pytest.raises(ValueError):
            IntPmf(0, np.array([0.5, 0.5 + off]))


@settings(max_examples=80, deadline=None)
@given(p=int_pmfs(), q=int_pmfs(), r=int_pmfs())
def test_tv_distance_is_a_metric(p, q, r):
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
    assert tv_distance(p, p) <= 1e-15
    assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-15


@settings(max_examples=60, deadline=None)
@given(p=int_pmfs(), q=int_pmfs())
def test_tv_distance_positive_part_set(p, q):
    lo = min(p.offset, q.offset)
    hi = max(p.support_max, q.support_max)
    pos = sum(max(p.prob(j) - q.prob(j), 0.0) for j in range(lo, hi + 1))
    assert tv_distance(p, q) == pytest.approx(pos, abs=1e-12)


def test_ks_single_jump_closed_form():
    f_half = s_infinity_cdf(0.5)
    ks = ks_discrete_vs_continuous([0.5], [1.0], s_infinity_cdf)
    assert ks == pytest.approx(max(f_half, 1 - f_half), abs=1e-15)


def test_ks_dense_dyadic_jumps_approximate_cdf():
    prev = None
    for density in (5, 8, 11):
        xs = np.arange(1, 2 ** density) / 2.0 ** density * 4.0
        ks = ks_discrete_vs_continuous(xs, s_infinity_cdf(xs), s_infinity_cdf)
        if prev is not None:
            assert ks < prev
        prev = ks
    assert prev < 0.01


def test_ks_scale_invariance():
    pts = np.array([0.25, 0.5, 1.0, 2.0])
    after = np.array([0.1, 0.4, 0.8, 1.0])
    base = ks_discrete_vs_continuous(pts, after, s_infinity_cdf)
    halved = ks_discrete_vs_continuous(pts / 2, after,
                                       lambda x: s_infinity_cdf(2 * x))
    assert halved == pytest.approx(base, abs=1e-15)


def test_ks_log_transform_invariance():
    pts = np.array([0.25, 0.5, 1.0, 2.0])
    after = np.array([0.1, 0.4, 0.8, 1.0])
    base = ks_discrete_vs_continuous(pts, after, s_infinity_cdf)
    logged = ks_discrete_vs_continuous(
        np.log(pts), after, lambda x: s_infinity_cdf(np.exp(x)))
    assert logged == pytest.approx(base, abs=1e-12)


def test_ks_rejects_unsorted_jumps():
    with pytest.raises(ValueError):
        ks_discrete_vs_continuous([1.0, 0.5], [0.5, 1.0], s_infinity_cdf)
    with pytest.raises(ValueError):
        ks_discrete_vs_continuous([], [], s_infinity_cdf)
    with pytest.raises(ValueError):
        ks_discrete_vs_continuous([0.5, 1.0], [1.0], s_infinity_cdf)


def test_ks_takes_points_and_after_only():
    # two jumps: 1 - F(0.75) is the largest gap, as the former list-of-pairs
    # form computed it
    ks = ks_discrete_vs_continuous([0.25, 0.75], [0.5, 1.0], s_infinity_cdf)
    assert ks == pytest.approx(0.603103288840457, rel=1e-13)
    assert ks == pytest.approx(1.0 - s_infinity_cdf(0.75), abs=1e-15)
    # a tuple of (point, after) pairs is no longer a jump set: the call
    # lacks its cdf, rather than being misread as (points, after)
    with pytest.raises(TypeError):
        ks_discrete_vs_continuous(((0.25, 0.5), (0.75, 1.0)), s_infinity_cdf)


def test_empirical_cdf_jumps():
    pts, after = empirical_cdf_jumps([3.0, 1.0, 2.0, 1.0])
    assert np.array_equal(pts, [1.0, 2.0, 3.0])
    assert np.allclose(after, [0.5, 0.75, 1.0])


def test_tv_to_limit_dyadic_eta_zero():
    for e in (4, 7, 12):
        _, eta = tv_to_limit(2 ** e)
        assert eta == 0.0
    tv, eta = tv_to_limit(100)
    assert 0.0 <= tv <= 1.0
    assert eta == pytest.approx(math.log2(100) - 6)


def test_tv_to_limit_domain():
    with pytest.raises(ValueError):
        tv_to_limit(0)
    with pytest.raises(ValueError):
        tv_to_limit(2 ** 53 + 1)


def test_pmf_gap_bound_holds():
    for j in (0, 3):
        lhs, rhs = pmf_gap_bound_check(2 ** 10, j)
        assert lhs <= rhs
    rhs_vals = [pmf_gap_bound_check(2 ** 10, j)[1] for j in range(1, 6)]
    assert all(b < a for a, b in zip(rhs_vals, rhs_vals[1:]))


def test_pmf_gap_bound_counts_ks_rounding():
    # the right side is both KS values plus both trunc_bounds, and each
    # trunc_bound adds the a priori float error r of its KS evaluation to
    # the tail past the cap; the two levels' error bounds come last
    t, j = 2 ** 10, 2
    (phi1, tb1), (phi2, tb2) = (ks_scaled_sum_exact(m) for m in (12, 13))
    err = _level_gaps(t)[1]
    assert pmf_gap_bound_check(t, j)[1] == (phi1 + phi2 + tb1 + tb2
                                            + float(err[12] + err[13]))
    for m, tb in ((12, tb1), (13, tb2)):
        assert tb - s_infinity_sf(8.0) >= 0.99 * _ks_level(m)[-1] > 0


def test_pmf_gap_bound_domain():
    with pytest.raises(ValueError):
        pmf_gap_bound_check(2 ** 10, -10)
    with pytest.raises(ValueError):
        pmf_gap_bound_check(2 ** 10, 13)  # needs phi(24), past the exact range
    for t in (0, 2 ** 53 + 1):
        with pytest.raises(ValueError, match="t must be in"):
            pmf_gap_bound_check(t, -40)
    with pytest.raises(ValueError):
        pmf_gap_bound_check(2 ** 53, -31)  # needs phi(23)
    for j in (0.5, 1.0, np.float64(0)):
        with pytest.raises(TypeError):
            pmf_gap_bound_check(2 ** 10, j)
    assert pmf_gap_bound_check(2 ** 10, np.int64(1)) == pmf_gap_bound_check(
        2 ** 10, 1)
    lhs, rhs = pmf_gap_bound_check(2 ** 53, -32)
    assert lhs <= rhs


# (t, j): closed-form levels, table levels (l > t + 1), levels past the top
# k + 16, and one level on each side of the top
_GAP_POINTS = [(1, 1), (1, 15), (1, 18), (3, 19), (5, 4), (40, 15), (40, 16),
               (777, 1), (2 ** 10, 0), (2 ** 10, -2), (3 * 2 ** 17 + 5, 2),
               (2 ** 20 + 1, -1), (3 * 2 ** 20 + 7, 0), (2 ** 26 - 1, -4)]


@pytest.mark.parametrize("t, j", _GAP_POINTS)
def test_pmf_gap_lhs_against_110_digit_level_gaps(t, j):
    # lhs = |Delta_l - Delta_(l+1)|, l = k + j, is within the two levels'
    # error bounds of the truth; a level past the top reads 0 with error
    # 2^-104. 60 digits leave about 13 correct digits of Delta at (1, 15).
    mp = pytest.importorskip("mpmath")
    lhs, _ = pmf_gap_bound_check(t, j)
    level = t.bit_length() - 1 + j
    err = _level_gaps(t)[1]
    bound = sum(float(err[m]) if m < err.size else 2.0 ** -104
                for m in (level, level + 1))
    gaps = _mp_level_gaps(t, 110)
    with mp.workdps(110):
        assert abs(mp.mpf(lhs) - abs(gaps[level] - gaps[level + 1])) <= bound


def test_pmf_gap_check_needs_no_depth_law_and_no_q_pmf(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the pointwise gap built a depth law or a mass")

    for module, name in ((renewal_dst.renewal, "depth_distribution_exact"),
                         (renewal_dst.limit_law, "q_pmf"),
                         (renewal_dst.renewal, "frac_log2")):
        monkeypatch.setattr(module, name, refused)
    cases = ([(2 ** 10, j) for j in range(-2, 6)]
             + [(2 ** 20 + 1, j) for j in range(-2, 2)]
             + [(3 * 2 ** 30, -12), (2 ** 53 - 1, -31)])
    for t, j in cases:
        lhs, rhs = pmf_gap_bound_check(t, j)
        assert 0.0 <= lhs <= rhs, (t, j, lhs, rhs)


def test_rate_report_rows_and_checks():
    rows = rate_report([4, 6, 8], "ks_scaled")
    assert [r[0] for r in rows] == [4, 6, 8]
    assert all(len(r) == 5 and r[2] == "ks_scaled" for r in rows)
    assert check_rate_report(rows) == []
    rows_tv = rate_report([16, 64], "tv_limit")
    assert [r[1] for r in rows_tv] == [0.0, 0.0]
    assert check_rate_report(rows_tv) == []


def test_rate_report_empty_grid():
    rows = rate_report([], "tv_limit")
    assert rows == []
    assert check_rate_report(rows) == []


def test_rate_report_kind_validation():
    with pytest.raises(ValueError):
        rate_report([4], "nope")


def test_report_requires_increasing_n(monkeypatch):
    def unreachable(n):
        raise AssertionError("distance computed before the grid was checked")

    monkeypatch.setattr(renewal_dst.metrics, "ks_scaled_sum_exact", unreachable)
    with pytest.raises(ValueError, match="strictly increasing"):
        rate_report([4, 4], "ks_scaled")


def test_report_rejects_value_outside_unit_interval(monkeypatch):
    monkeypatch.setattr(renewal_dst.metrics, "ks_scaled_sum_exact",
                        lambda n: (1.5, 0.0))
    with pytest.raises(ValueError, match=r"out of \[0, 1\] at n=4"):
        rate_report([4, 5], "ks_scaled")


def test_check_flags_violations():
    rows = [(4, 0.0, "ks_scaled", 0.1, 0.0), (5, 0.0, "ks_scaled", 0.2, 0.0)]
    problems = check_rate_report(rows)
    assert problems and "not strictly decreasing" in problems[0]


def test_int_pmf_validation_and_helpers():
    with pytest.raises(ValueError):
        IntPmf(0, np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        IntPmf(0, np.array([0.4, 0.4]))
    p = IntPmf(2, np.array([0.25, 0.0, 0.75]))
    assert p.prob(3) == 0.0 and p.prob(4) == 0.75
    assert p.offset == 2 and p.support_max == 4
    trimmed = IntPmf(0, np.array([0.0, 1.0, 1e-320])).trim(1e-300)
    assert trimmed.offset == 1 and len(trimmed.masses) == 1


# ---- TV rows from the paired level gaps -------------------------------------

@lru_cache(maxsize=None)
def _mp_products(dps):
    """rise[m] = prod_{i<=m} (1 - 2^-i)^-1, fall[m] = prod_{i<=m} (1 - 2^i)^-1
    and the limit's a_k = b fall[k-1], b = rise[oo], in dps digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        rise, fall = [mp.mpf(1)], [mp.mpf(1)]
        for m in range(1, 4 * dps):
            rise.append(rise[-1] / (1 - mp.ldexp(1, -m)))
            fall.append(fall[-1] / (1 - mp.ldexp(1, m)))
        return rise, fall, [rise[-1] * f for f in fall[:40]]


def _mp_level_gaps(n, dps=60):
    """Delta_l = P(X_n >= l) - P(Q_eta >= l - k), l = 0..floor(log2 n) + 25,
    in dps digits.

    Built from the product formulas alone: Delta_l = L - T with
    L = P(S > n 2^-l) = sum_k a_k exp(-2^(k-l) n) and T = P(S_l > n) =
    sum_{i=2..l} B_i q_i^(n-l+1), where B_i = q_i^(l-2) rise[i-2] fall[l-i]
    (so B_i q_i^(n-l+1) = rise[i-2] fall[l-i] q_i^(n-1)), and T = 1 past
    l = n + 1.
    """
    mp = pytest.importorskip("mpmath")
    rise, fall, a = _mp_products(dps)
    top = n.bit_length() + 24
    with mp.workdps(dps):
        powers = {i: (1 - mp.ldexp(1, 1 - i)) ** (n - 1)
                  for i in range(2, top + 1)}
        gaps = []
        for l in range(top + 1):
            lim = mp.fsum(ak * mp.exp(-mp.ldexp(n, k - l))
                          for k, ak in enumerate(a, start=1))
            tail = 1 if l > n + 1 else mp.fsum(
                rise[i - 2] * fall[l - i] * powers[i] for i in range(2, l + 1))
            gaps.append(lim - tail)
        return gaps


def _mp_level_sum_tv(n, dps=60):
    """d_TV(X_n - floor(log2 n), Q_eta) as a dps-digit sum over the levels
    of ``_mp_level_gaps``; the pmf gaps beyond them carry under 2^-250."""
    mp = pytest.importorskip("mpmath")
    gaps = _mp_level_gaps(n, dps)
    with mp.workdps(dps):
        return (abs(gaps[0])
                + mp.fsum(abs(x - y) for x, y in zip(gaps, gaps[1:]))) / 2


def test_level_sum_oracle_uses_the_partial_fraction_coefficients():
    # B_i = q_i^(l-2) rise[i-2] fall[l-i] against the quotient form
    # prod_{m != i} p_m q_i / (p_m - p_i) at level 12
    mp = pytest.importorskip("mpmath")
    rise, fall, _ = _mp_products(60)
    level = 12
    with mp.workdps(60):
        p = {i: mp.ldexp(1, 1 - i) for i in range(2, level + 1)}
        for i in p:
            quotient = mp.fprod(p[m] * (1 - p[i]) / (p[m] - p[i])
                                for m in p if m != i)
            product = (1 - p[i]) ** (level - 2) * rise[i - 2] * fall[level - i]
            assert abs(quotient - product) <= mp.mpf(10) ** -50 * abs(product)


@pytest.mark.parametrize("n", [1, 16, 777, 12345, 99999, 3 * 2 ** 20,
                               2 ** 22 - 1, 4000037, 2 ** 40, 2 ** 53 - 1])
def test_tv_bound_against_60_digit_level_sum(n):
    # the bound is at least the truth and within twice its slack of it;
    # the slack is a rounding bound, tiny next to the value
    mp = pytest.importorskip("mpmath")
    bound, slack = _tv_with_slack(n)
    assert tv_to_limit(n)[0] == bound
    truth = _mp_level_sum_tv(n)
    with mp.workdps(60):
        assert mp.mpf(bound) >= truth, n
        assert mp.mpf(bound) - truth <= 2 * mp.mpf(slack), n
    assert slack <= 1e-12 * bound + 1e-30


def test_tv_rows_need_no_depth_law_and_no_window(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the TV rows built a depth law or a Q_eta window")

    assert not hasattr(renewal_dst.metrics, "depth_distribution_exact")
    for module, name in ((renewal_dst.renewal, "depth_distribution_exact"),
                         (renewal_dst.metrics, "_mixture_window")):
        monkeypatch.setattr(module, name, refused)
    tv, eta = tv_to_limit(3 * 2 ** 20)
    assert 0.0 < tv < 1e-6 and eta == pytest.approx(math.log2(3) - 1)
    rows = rate_report([16, 1000, 2 ** 40], "tv_limit")
    assert [row[0] for row in rows] == [16, 1000, 2 ** 40]
    assert check_rate_report(rows) == []


def test_scaled_tv_at_eta_zero_settles():
    # N TV(N) -> C(0) = 1.1383414793, with a correction of about 0.64 / N
    for e in (30, 40, 50):
        tv, eta = tv_to_limit(2 ** e)
        assert eta == 0.0
        assert abs(2.0 ** e * tv - 1.1383414793) <= 1e-8, e


def test_tv_trunc_bound_column_stays_small():
    rows = rate_report([2 ** e for e in range(0, 54, 3)] + [2 ** 53],
                       "tv_limit")
    for n, _, _, value, slack in rows:
        assert 0.0 <= slack <= 1e-11, n
        assert slack <= 1e-12 * value + 1e-30, n


def test_tv_grid_to_2_40_is_fast():
    # 19 TV rows up to n = 2^40 take a few ms; the bound leaves room for a
    # loaded machine
    grid = [16 * 4 ** i for i in range(19)]
    rate_report(grid, "tv_limit")
    t0 = time.perf_counter()
    rows = rate_report(grid, "tv_limit")
    assert time.perf_counter() - t0 < 0.5
    assert check_rate_report(rows) == []
