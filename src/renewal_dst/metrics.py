"""Distances between laws and the convergence-rate verification harness.

Total variation between integer pmfs is half the l1 gap over the union
support. The KS distance between the scaled partial sums and S comes from
``renewal.ks_scaled_sum_exact``. The TV between the exact centred count
law at n and Q_eta is read off the level gaps
Delta_l = P(X_n >= l) - P(Q_eta >= l - k) of ``renewal._level_gaps``, a
closed form with a rounding bound per level, as
(1/2) sum_l |Delta_l - Delta_(l+1)|: no depth law and no Q_eta masses, for
any n <= 2^53. The rate harness phrases the asymptotic rate claims as
finite-n decrease of scaled sequences (an o(.) statement is not assertable
at any finite n). Every distance carries its truncation mass and its float
rounding as certified slack, so every asserted inequality is sound rather
than merely plausible.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .limit_law import q_cdf, q_pmf, q_tail
from .pmf import IntPmf
from .renewal import (MAX_EXACT_KS_N, MAX_N, _level_gaps, frac_log2,
                      ks_scaled_sum_exact)

_EPS = 2.0 ** -52
# a bound on the float error of one Q_eta mass plus its share of the l1
# sum's rounding (``tv_vs_limit``)
_MASS_ERR = 24 * _EPS
# a bound on (1/2) sum of the pmf gaps past _level_gaps' top level k + 16
_TV_TAIL = 2.0 ** -105

REPORT_COLUMNS = ("n", "eta", "kind", "value", "trunc_bound")


def rate_rows(grid, row) -> list[tuple]:
    """Rows ``row(i, n)`` for the i-th point n of a strictly increasing grid.

    Each row is a tuple in REPORT_COLUMNS order. The grid is checked before
    any row is computed, and each row's value must lie in [0, 1]; either
    failure raises ValueError.
    """
    grid = [int(n) for n in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("report rows must be strictly increasing in n")
    rows = []
    for i, n in enumerate(grid):
        rows.append(row(i, n))
        if not 0.0 <= rows[-1][3] <= 1.0:
            raise ValueError(f"distance out of [0, 1] at n={n}")
    return rows


def tv_distance(p: IntPmf, q: IntPmf) -> float:
    """d_TV(p, q) = (1/2) sum_j |p({j}) - q({j})| over the union support,
    at most 1: the float sum of two disjoint laws can round past it."""
    lo = min(p.offset, q.offset)
    hi = max(p.support_max, q.support_max)
    ap = np.zeros(hi - lo + 1)
    aq = np.zeros(hi - lo + 1)
    ap[p.offset - lo: p.offset - lo + len(p.masses)] = p.masses
    aq[q.offset - lo: q.offset - lo + len(q.masses)] = q.masses
    return min(1.0, 0.5 * float(np.abs(ap - aq).sum()))


def limit_pmf_window(eta: float, lo: int,
                     hi: int) -> tuple[int, np.ndarray, float]:
    """Q_eta masses on the window [min(lo, -8), max(hi, 10)]:
    (its first point, masses, outside).

    ``outside`` = P(Q_eta off the window) is the mass the law carries off
    the window, to be carried as certified slack. The floor [-8, 10] keeps
    it below 1e-17 at every eta.
    """
    lo, hi = min(lo, -8), max(hi, 10)
    masses = np.array([q_pmf(eta, j) for j in range(lo, hi + 1)])
    return lo, masses, q_cdf(eta, lo - 1) + q_tail(eta, hi + 1)


def tv_vs_limit(pmf: IntPmf, eta: float) -> tuple[float, float]:
    """Certified d_TV(pmf, Q_eta): (upper bound, slack included in it).

    Q_eta is read on the window of ``limit_pmf_window`` over pmf's support,
    which spans at least [-8, 10]. The slack is half of: the mass Q_eta
    carries off the window, the pmf's own truncation, and
    _MASS_ERR = 24 eps (eps = 2^-52) per window mass.
    A mass q_pmf(eta, j) is within 23 eps of Q_eta({j}). Its argument
    c = 2^(eta - 1 - j) carries the rounding of 2.0**eta, at most eps
    relative, which moves P(S > c) - P(S > 2c) by at most
    (c f(c) + 2c f(2c)) eps < 1.4 eps, as t f(t) < 0.7 for the density f of
    S. From 2c = 1 on the mass is fsum of d_k exp(-2^k c), each
    d_k = 2^(k-1) a_k within a_k's 2 eps (``mixture_coefficients``), each
    exp within 4 ulp and each product rounded once: 6.5 eps of terms whose
    sizes add to at most sum |a_k| / e < 3.1 (2^(k-1) exp(-2^k c) <= 1/e
    for c >= 1/2), plus fsum's eps/2, under 20.7 eps. Below 2c = 1 it is a
    difference of two table values at most 1, each within 4 eps
    (``limit_law``), rounded once: 8.5 eps. The last eps of _MASS_ERR is
    the mass's share of the rounding of the l1 sum: n - 1 roundings of a
    sum at most 2.

    ``eta`` is taken as exact. A caller whose eta is a float rounding of
    the true eta' adds TV(Q_eta, Q_eta') <= 1.49 |eta' - eta| to both
    values. With X = -log2 S the two laws are floor(X + eta) and
    floor(X + eta'), which differ only where an integer lies between
    X + eta and X + eta'. X has density ln2 t f(t) at x, t = 2^-x, so that
    event has probability at most |eta' - eta| ln2 sup_u sum_j g(u + j),
    g(x) = t f(t). S is a sum of independent exponentials, so f is
    log-concave, and so is t f(t) in t: g is unimodal, and sum_j g(u + j)
    is at most its integral, 1/ln2, plus its peak, under 0.7. The factor is
    ln2 (1/ln2 + 0.7) < 1.49. ``simulate`` takes eta = log2(t) - k, where
    the subtraction is exact and log2 rounds by under 0.52 ulp (measured
    over 20000 t up to 2^1024), and charges 1.5 ulp(log2 t); at a power of
    two log2 is exact and the charge is 0.
    """
    lo, qm, outside = limit_pmf_window(eta, pmf.offset, pmf.support_max)
    slack = 0.5 * (outside + pmf.truncation + qm.size * _MASS_ERR)
    tv = tv_distance(pmf, IntPmf(lo, qm, truncation=outside)) + slack
    return tv, slack


def _tv_with_slack(n: int) -> tuple[float, float]:
    """(d_TV bound, slack) between the centred count law at n and Q_eta.

    With Delta_l of ``renewal._level_gaps`` (Delta_l = P(S > n 2^-l) >= 0
    rises with l up to l = 0, so the levels below 0 add exactly Delta_0),
    d_TV = (1/2) (|Delta_0| + sum_{l >= 0} |Delta_l - Delta_(l+1)|). The
    sum runs to the top level floor(log2 n) + 16 and is added by fsum. The
    slack is the sum of the levels' error bounds e_l (each gap
    Delta_l - Delta_(l+1) carries e_l + e_(l+1), halved), 2 eps of the
    value for the differences, fsum and the addition of the slack, and the
    pmf gaps past the top level, at most
    (1/2) (P(X_n >= l) + P(Q_eta >= l - k)) <= 2^(-(l-k-2)(l-k-1)/2) at
    l = k + 16, 2^-105: P(S_l <= n) <= prod_i min(1, n p_i) and
    P(S <= n 2^-l) <= prod_k min(1, 2^k n 2^-l), with n < 2^(k+1).
    """
    n = operator.index(n)
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")
    gaps, err = _level_gaps(n)
    tv = 0.5 * math.fsum(np.abs(np.diff(gaps, prepend=0.0)).tolist())
    slack = float(err.sum()) + 2 * _EPS * tv + _TV_TAIL
    return tv + slack, slack


def tv_to_limit(n: int) -> tuple[float, float]:
    """d_TV between the exact centered count law at n and Q_{frac(log2 n)}.

    The result is a sound upper bound on the true distance for any
    1 <= n <= 2^53: the closed-form level sum of ``renewal._level_gaps``
    plus its rounding and truncation slack (``_tv_with_slack``), which is
    under 1e-13 of the value (8.6e-14 at most over n = 1..299 and at
    powers of two up to 2^53). It builds no depth law and no Q_eta masses:
    about 0.1 ms at any n.
    """
    return _tv_with_slack(n)[0], frac_log2(n)


def pmf_gap_bound_check(t: int, j: int) -> tuple[float, float]:
    """Pointwise gap |P(X_t - k = j) - Q_eta({j})| and its KS bound.

    With l = k + j, k = floor(log2 t), the gap is exactly
    |Delta_l - Delta_(l+1)| for the level gaps
    Delta_l = P(X_t >= l) - P(Q_eta >= l - k) of ``renewal._level_gaps``:
    no depth law and no Q_eta mass, for any 1 <= t <= 2^53. The right side
    is phi(l) + phi(l+1), phi(m) the exact KS distance of the scaled sum at
    m <= 22, plus both reported truncation bounds (the mass past the cap
    and the KS value's float error) and the levels' error bounds
    e_l + e_(l+1), which cover the difference's rounding too (their row-sum
    bound is taken at twice the rounding). A level above the top k + 16
    (j >= 16 at t < 64) reads 0 with error 2^-104: both tails there are at
    most 2^-105 (``_tv_with_slack``). So lhs > rhs certifies that the gap
    exceeds the KS pair; callers assert lhs <= rhs.
    """
    t, j = operator.index(t), operator.index(j)
    if not 1 <= t <= MAX_N:
        raise ValueError(f"t must be in [1, {MAX_N}], got {t}")
    level = t.bit_length() - 1 + j
    if level < 1:
        raise ValueError(f"k(t) + j must be >= 1, got {level}")
    phi1, tb1 = ks_scaled_sum_exact(level)
    phi2, tb2 = ks_scaled_sum_exact(level + 1)
    gaps, err = _level_gaps(t)
    above = max(level + 2 - gaps.size, 0)
    gaps = np.pad(gaps, (0, above))
    err = np.pad(err, (0, above), constant_values=2.0 ** -104)
    lhs = abs(float(gaps[level] - gaps[level + 1]))
    return lhs, phi1 + phi2 + tb1 + tb2 + float(err[level] + err[level + 1])


KINDS = ("tv_limit", "ks_scaled")


def rate_report(n_grid, kind: str) -> list[tuple]:
    """Rows (n, eta, kind, value, trunc_bound), one per point of the
    sequence n_grid.

    The grid's last point is checked against the kind's n limit, MAX_N for
    tv_limit and MAX_EXACT_KS_N for ks_scaled, before any row is computed.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    limit = MAX_N if kind == "tv_limit" else MAX_EXACT_KS_N
    if len(n_grid) and n_grid[-1] > limit:
        raise ValueError(f"{kind} grid limited to n <= {limit}")

    def row(_, n):
        if kind == "tv_limit":
            return (n, frac_log2(n), kind, *_tv_with_slack(n))
        return (n, 0.0, kind, *ks_scaled_sum_exact(n))

    return rate_rows(n_grid, row)


def check_rate_report(rows) -> list[str]:
    """Monotone-proxy assertions for rate_report rows; empty list means pass.

    tv_limit: values strictly decreasing, and value * n^0.9 decreasing from
    n = 256 on. ks_scaled: values strictly decreasing, and value * 2^n / n
    never above its value at the first grid point.
    """
    problems = []
    if not rows:
        return problems
    kind = rows[0][2]
    pairs = [(n, value) for n, _, _, value, _ in rows]
    for (_, va), (nb, vb) in zip(pairs, pairs[1:]):
        if not vb < va:
            problems.append(
                f"value not strictly decreasing at n={nb:g} "
                f"({vb:.6g} >= {va:.6g})")
    if kind == "tv_limit":
        scaled = [(n, v * n ** 0.9) for n, v in pairs if n >= 256]
        for (na, va), (nb, vb) in zip(scaled, scaled[1:]):
            if not vb < va:
                problems.append(
                    f"value * n^0.9 not decreasing at n={nb:g} "
                    f"({vb:.6g} >= {va:.6g})")
    elif kind == "ks_scaled":
        n0, v0 = pairs[0]
        ref = v0 * 2.0 ** n0 / n0
        for n, v in pairs[1:]:
            sc = v * 2.0 ** n / n
            if sc > ref:
                problems.append(
                    f"value * 2^n / n exceeds first-row level at n={n:g} "
                    f"({sc:.6g} > {ref:.6g})")
    return problems
