"""Reference oracles the tests compare the package against.

None of these is used by a command: the empirical KS distance checks
samplers against s_infinity_cdf, the geometric pmf checks the DST
lifetime sampler, the upper tail of an IntPmf reads the partial-sum
CDFs off the exact depth law, the binary-search inversion is the
reference for sample_q's counting one, and the series draws of S are an
independent sample of the limit law.
"""

import numpy as np


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
