"""Distances between laws and the convergence-rate verification harness.

Total variation between integer pmfs is half the l1 gap over the union
support. The KS distance between the scaled partial sums and S comes from
``renewal.ks_scaled_sum_exact``. The TV between the exact centred count
law at n and Q_eta is read off the level gaps
Delta_l = P(X_n >= l) - P(Q_eta >= l - k) of ``renewal._level_gaps``, a
closed form with a rounding bound per level, as
(1/2) sum_l |Delta_l - Delta_(l+1)|: no depth law and no Q_eta masses, for
any n <= 2^53. A law with no closed form, such as a sampled count, is
compared with Q_eta at any growth rate through the certified masses of
``limit_law._mixture_window`` (``tv_vs_limit``). ``count_report`` gives
the sampled count's rows at a grid of horizons, each centred and charged
for eta's rounding, as ``rate_report`` gives the exact rows. The rate
harness phrases the asymptotic rate claims as finite-n decrease of scaled
sequences (an o(.) statement is not assertable at any finite n). Every
distance carries its truncation mass and its float rounding as certified
slack, so every asserted inequality is sound rather than merely plausible.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .limit_law import _mixture_window
from .pmf import IntPmf
from .renewal import (MAX_EXACT_KS_N, MAX_N, _level_gaps, floor_log2,
                      frac_log2, ks_scaled_sum_exact, simulate_count)

_EPS = 2.0 ** -52
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


def tv_vs_limit(pmf: IntPmf, eta: float,
                alpha: float = 2.0) -> tuple[float, float]:
    """Certified d_TV(pmf, Q_eta): (upper bound, slack included in it).

    Q_eta, the limit family at growth rate alpha, is read on the window of
    ``limit_law._mixture_window`` over pmf's support, which spans at least
    [-8, 12] at alpha = 2. The slack is half of: the mass Q_eta carries off
    the window and the sum of the window masses' error bounds, both from
    ``_mixture_window``; the pmf's own truncation; and eps (2^-52) per
    window mass, its share of the rounding of the l1 sum (n - 1 roundings
    of a sum at most 2).

    ``eta`` is taken as exact. A caller whose eta is a float rounding of
    the true eta' adds TV(Q_eta, Q_eta') <= 1.49 |eta' - eta| to both
    values (``count_report`` does). With X = -log2 S the two laws are
    floor(X + eta) and floor(X + eta'), which differ only where an integer
    lies between X + eta and X + eta'. X has density ln2 t f(t) at x,
    t = 2^-x, so that event has probability at most
    |eta' - eta| ln2 sup_u sum_j g(u + j), g(x) = t f(t). S is a sum of
    independent exponentials, so f is log-concave, and so is t f(t) in t:
    g is unimodal, and sum_j g(u + j) is at most its integral, 1/ln2, plus
    its peak, under 0.7. The factor is ln2 (1/ln2 + 0.7) < 1.49.

    At a growth rate alpha, X = -log_alpha S has density ln(alpha) t f(t),
    and the same argument gives the factor 1 + ln(alpha) sup_t t f(t),
    where sup_t t f(t) <= 1/e + 1/(alpha - 1): write S = W_0 + R with
    R = sum_{k>=1} alpha^-k W_k independent of W_0, so that
    t f(t) = E[2 t e^(-2 (t - R)); R < t], and split t = (t - R) + R into
    at most sup_y 2 y e^(-2 y) = 1/e plus 2 E[R] = 1/(alpha - 1).
    """
    lo, qm, err, outside = _mixture_window(alpha, eta, pmf.offset,
                                           pmf.support_max)
    outside += float(err.sum())
    slack = 0.5 * (outside + pmf.truncation + qm.size * _EPS)
    tv = tv_distance(pmf, IntPmf(lo, qm, truncation=outside)) + slack
    return tv, slack


def _centring(t: int, alpha: float) -> tuple[int, float, float]:
    """(k, eta, charge) at horizon t: k = floor(log_alpha t), the float
    eta = log_alpha t - k, and TV's share of eta's rounding
    (``count_report``)."""
    if alpha == 2:
        k, eta = floor_log2(t), frac_log2(t)
        return k, eta, 1.5 * math.ulp(math.log2(t)) if t & (t - 1) else 0.0
    ln_alpha = math.log(alpha)
    x = math.log(t) / ln_alpha
    k = math.floor(x)
    lipschitz = 1 + ln_alpha * (1 / math.e + 1 / (alpha - 1))
    return k, x - k, lipschitz * (10 * x + 1 / ln_alpha) * _EPS


def count_report(family, horizons, samples: int, rng) -> list[tuple]:
    """Rows (t, eta, "sim_tv", value, trunc_bound) in REPORT_COLUMNS order:
    a certified d_TV between the law of the centred count N_t - k, sampled
    on ``samples`` renewal paths of ``family`` (``renewal.simulate_count``,
    one path set read at every horizon), and Q_eta, k = floor(log_alpha t),
    eta = log_alpha t - k, one row per point of the strictly increasing
    grid of positive integer horizons.

    value and trunc_bound are ``tv_vs_limit``'s, each plus the charge for
    eta's rounding, TV's Lipschitz factor in eta times that rounding. At
    alpha = 2, k = floor_log2(t) and eta = log2(t) - k, where the
    subtraction is exact and log2 rounds by under 0.52 ulp (measured over
    20000 t up to 2^1024); the charge is 1.5 ulp(log2 t), and 0 at a power
    of two, where log2 is exact. At another alpha, eta = x - floor(x),
    x = ln(t) / ln(alpha), where the subtraction is exact and x is within
    eps/(2 ln alpha) + 8.5 eps |x| of log_alpha t (t rounded to a float,
    two logs within 4 ulp, a division); the charge is the factor times
    eps (10 |x| + 1/ln alpha).
    """
    laws = simulate_count(family, horizons, samples, rng)

    def row(i, t):
        k, eta, charge = _centring(t, family.alpha)
        value, trunc = tv_vs_limit(IntPmf(laws[i].offset - k, laws[i].masses),
                                   eta, family.alpha)
        return t, eta, "sim_tv", value + charge, trunc + charge

    return rate_rows(horizons, row)


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
