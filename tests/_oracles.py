"""Reference oracles the tests compare the package against.

None of these is used by a command: the empirical KS distance checks
samplers against s_infinity_cdf, the geometric pmf checks the DST
lifetime sampler, the upper tail of an IntPmf reads the partial-sum
CDFs off the exact depth law, the binary-search inversion is the
reference for sample_q's counting one, the series draws of S are an
independent sample of the limit law, and the pointwise gap check sets one
mass gap of the count law against the exact KS distances of the scaled sum.
"""

import operator

import numpy as np

from renewal_dst.renewal import MAX_N, _level_gaps, ks_scaled_sum_exact


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


def tail_ge(pmf, j: int) -> float:
    """P(X >= j) of an IntPmf, exact over its stored support."""
    i = max(j - pmf.offset, 0)
    if i >= len(pmf.masses):
        return 0.0
    return float(pmf.masses[i:].sum())


def geometric_pmf(k: int, j: int) -> float:
    """P(Y_k = j) = (1 - 2^(1-k))^(j-1) * 2^(1-k) for k, j >= 1; for k = 1,
    the unit mass at 1."""
    if k == 1:
        return 1.0 if j == 1 else 0.0
    p = 2.0 ** (1 - k)
    return (1.0 - p) ** (j - 1) * p


def search_inversion(table, lo: int, rng, size=None):
    """The j = lo + i with C_(i-1) < v <= C_i, v = 1 - rng.random(), found
    by binary search (np.searchsorted) over the nondecreasing table C;
    sample_q's draw for table = _q_table(eta), lo = _Q_LO."""
    v = 1.0 - rng.random(1 if size is None else size)
    q = np.searchsorted(table, v, side="left") + lo
    return int(q[0]) if size is None else q.astype(np.int64)


def sample_s(rng, size=None):
    """Draws of S = sum_{k=0..40} 2^-k W_k, W_k exponential of mean 1/2
    (S = sum_{k=1..41} 2^-k Z_k over unit exponentials Z_k), one array of
    standard exponentials per term; size=None returns the first draw of
    size=1 as a float. The remainder's mean is 2^-41 of S's."""
    out = np.zeros(1 if size is None else size)
    for k in range(41):
        out += 2.0 ** -k * (0.5 * rng.standard_exponential(out.shape))
    return float(out[0]) if size is None else out


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
    most 2^-105 (``metrics._tv_with_slack``). So lhs > rhs certifies that
    the gap exceeds the KS pair; callers assert lhs <= rhs.
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
