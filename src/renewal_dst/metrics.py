"""Distances between laws and the convergence-rate verification harness.

Total variation between integer pmfs is half the l1 gap over the union
support; the Kolmogorov-Smirnov distance between a step CDF and a continuous
CDF is exact when evaluated at jump points only. The rate harness compares
exact centered count laws against the discretized limit family over a grid,
phrasing the asymptotic rate claims as finite-n decrease of scaled
sequences (an o(.) statement is not assertable at any finite n). Distances
against truncated laws carry the reported truncation mass as certified
slack, so every asserted inequality is sound rather than merely plausible.
"""

from __future__ import annotations

import numpy as np

from .limit_law import q_cdf, q_pmf, q_tail
from .pmf import IntPmf
from .renewal import (
    centered_count_distribution,
    depth_distribution_exact,
    floor_log2,
    frac_log2,
    ks_scaled_sum_exact,
)

MAX_TV_N = 2 ** 22

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


def ks_discrete_vs_continuous(points, after, cdf) -> float:
    """Exact KS distance between a step CDF and a continuous CDF.

    The step CDF jumps at the strictly increasing ``points`` and equals
    ``after`` just past each of them, as ``empirical_cdf_jumps`` returns;
    ``cdf`` must accept an array. Both one-sided gaps are checked at every
    jump, which attains the supremum for step-vs-continuous pairs.
    """
    pts = np.asarray(points, dtype=float)
    after = np.asarray(after, dtype=float)
    if pts.ndim != 1 or pts.shape != after.shape:
        raise ValueError("points and after must be 1-D and of equal length")
    if pts.size == 0:
        raise ValueError("need at least one jump")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("jump points must be sorted strictly increasing")
    if np.any(np.diff(after) < 0) or after[-1] > 1.0 + 1e-12:
        raise ValueError("cdf-after values must be nondecreasing and <= 1")
    vals = np.asarray(cdf(pts), dtype=float)
    before = np.concatenate(([0.0], after[:-1]))
    return max(float(np.abs(after - vals).max()),
               float(np.abs(before - vals).max()))


def empirical_cdf_jumps(sample) -> tuple[np.ndarray, np.ndarray]:
    """Jump representation (points, cdf-after) of an empirical CDF."""
    s = np.sort(np.asarray(sample, dtype=float))
    pts = np.unique(s)
    return pts, np.searchsorted(s, pts, side="right") / s.size


def limit_pmf_window(eta: float, lo: int,
                     hi: int) -> tuple[int, np.ndarray, float]:
    """Q_eta masses on the window [lo, hi]: (lo, masses, outside).

    ``outside`` = P(Q_eta < lo) + P(Q_eta > hi) is the mass the law carries
    off the window, to be carried as certified slack. For lo <= -8 and
    hi >= 10 it is below 1e-17 at every eta.
    """
    masses = np.array([q_pmf(eta, j) for j in range(lo, hi + 1)])
    return lo, masses, q_cdf(eta, lo - 1) + q_tail(eta, hi + 1)


def _tv_and_window(pmf: IntPmf, eta: float):
    """``tv_vs_limit``'s (bound, slack) and the Q_eta window (lo, masses)."""
    lo, qm, outside = limit_pmf_window(eta, min(pmf.support_min, -8),
                                       max(pmf.support_max, 10))
    slack = 0.5 * (outside + pmf.truncation)
    tv = tv_distance(pmf, IntPmf(lo, qm, truncation=outside)) + slack
    return tv, slack, lo, qm


def tv_vs_limit(pmf: IntPmf, eta: float) -> tuple[float, float]:
    """Certified d_TV(pmf, Q_eta): (upper bound, slack included in it)."""
    return _tv_and_window(pmf, eta)[:2]


def tv_to_limit(n: int) -> tuple[float, float]:
    """d_TV between the exact centered count law at n and Q_{frac(log2 n)}.

    The result includes the certified truncation slack of both sides, so it
    is a sound upper bound on the true distance.
    """
    if not 1 <= n <= MAX_TV_N:
        raise ValueError(f"n must be in [1, {MAX_TV_N}], got {n}")
    law, eta = centered_count_distribution(n)
    tv, _ = tv_vs_limit(law, eta)
    return tv, eta


def pmf_gap_bound_check(t: int, j: int) -> tuple[float, float]:
    """Pointwise gap |P(N_t - k(t) = j) - Q_eta({j})| and its KS bound.

    The bound is phi(k+j) + phi(k+j+1) with phi(m) the exact KS distance of
    the scaled sum at m, plus both reported truncation bounds so the
    comparison is certified. Callers assert lhs <= rhs.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    k = floor_log2(t)
    eta = frac_log2(t)
    if k + j < 1:
        raise ValueError(f"k(t) + j must be >= 1, got {k + j}")
    law = depth_distribution_exact(t)
    lhs = abs(law.prob(k + j) - q_pmf(eta, j))
    phi1, tb1 = ks_scaled_sum_exact(k + j)
    phi2, tb2 = ks_scaled_sum_exact(k + j + 1)
    return lhs, phi1 + phi2 + tb1 + tb2


KINDS = ("tv_limit", "ks_scaled")


def rate_report(n_grid, kind: str) -> list[tuple]:
    """Rows (n, eta, kind, value, trunc_bound), one per point of n_grid."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    def row(_, n):
        if kind == "tv_limit":
            law, eta = centered_count_distribution(n)
            return (n, eta, kind, *tv_vs_limit(law, eta))
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
