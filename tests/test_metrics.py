import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewal_dst.metrics
from renewal_dst import (
    IntPmf,
    check_rate_report,
    empirical_cdf_jumps,
    ks_discrete_vs_continuous,
    pmf_gap_bound_check,
    rate_report,
    s_infinity_cdf,
    tv_distance,
    tv_to_limit,
)


def pmf_of(d):
    return IntPmf.from_dict(d)


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
        tv_to_limit(2 ** 22 + 1)


def test_pmf_gap_bound_holds():
    for j in (0, 3):
        lhs, rhs = pmf_gap_bound_check(2 ** 10, j)
        assert lhs <= rhs
    rhs_vals = [pmf_gap_bound_check(2 ** 10, j)[1] for j in range(1, 6)]
    assert all(b < a for a, b in zip(rhs_vals, rhs_vals[1:]))


def test_pmf_gap_bound_domain():
    with pytest.raises(ValueError):
        pmf_gap_bound_check(2 ** 10, -10)
    with pytest.raises(ValueError):
        pmf_gap_bound_check(2 ** 10, 13)  # needs phi(24), past the exact range


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
    p = IntPmf.from_dict({2: 0.25, 4: 0.75})
    assert p.prob(3) == 0.0 and p.prob(4) == 0.75
    assert p.support_min == 2 and p.support_max == 4
    assert p.mean() == pytest.approx(3.5)
    assert p.tail_ge(4) == 0.75
    shifted = p.shift(-2)
    assert shifted.prob(2) == 0.75
    trimmed = IntPmf(0, np.array([0.0, 1.0, 1e-320])).trim(1e-300)
    assert trimmed.offset == 1 and len(trimmed.masses) == 1
