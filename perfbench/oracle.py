"""Independent references and tolerances for the benchmark's output checks.

Everything here is computed with mpmath or from first principles; nothing
calls the package under test, so a check never compares the program with
itself.

* Limit law. P(S <= t) and P(S > t) for S = sum_k 2^(-k) Z_k, from the signed
  mixture sum_k a_k Exp(2^k) evaluated with enough digits that the series'
  cancellation cannot reach the result.
* Depth law. The closed form P(X_n >= j) = P(S_j <= n) =
  sum_{i=2..j} B_i (1 - q_i^(n-j+1)), with p_i = 2^(1-i), q_i = 1 - p_i and
  B_i = prod_{l != i} p_l q_i / (p_l - p_i): partial fractions of a sum of
  independent geometrics, evaluated in mpmath. The same B_i give the exact
  KS distance of the scaled partial sums in make_reference.py.
* Monte Carlo. Per-bucket count bounds of 6 sigma plus 3 counts, and TV
  bounds from McDiarmid's inequality; a correct sampler breaks either with
  probability below 1e-8, so hundreds of seeded runs stay free of false
  alarms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp

# |got - ref| <= atol + rtol * |ref|
LIMIT_TOL = (1e-300, 1e-9)   # limit-law values, relative down to the tiny ones
LAW_TOL = (1e-300, 1e-9)     # exact depth-law masses; the DP drifts ~n*eps
DIST_TOL = (1e-11, 1e-9)     # TV / KS values and their truncation bounds

# Known defect: below this level P(S <= t) is a cancelling float series and
# loses relative accuracy (ROADMAP item 3). Checks that read it still run and
# still count as failed; the runner only labels them as known.
LEFT_TAIL_DEFECT = 1e-6


def within(got: float, ref, tol) -> bool:
    atol, rtol = tol
    ref = float(ref)
    return abs(got - ref) <= atol + rtol * abs(ref)


def _eps_bits(dps: int) -> int:
    return int(dps * 3.33) + 8


@lru_cache(maxsize=None)
def mixture(dps: int) -> tuple:
    """a_1, a_2, ... of L(S) = sum a_k Exp(2^k) until |a_k| < 10^-dps."""
    with mp.workdps(dps + 10):
        eps = mp.ldexp(1, -_eps_bits(dps))
        b = mp.mpf(1)
        j = 1
        while mp.ldexp(1, -j) > eps:
            b /= 1 - mp.ldexp(1, -j)
            j += 1
        a = [b]
        while abs(a[-1]) > eps:
            a.append(a[-1] / (1 - mp.ldexp(1, len(a))))
        return tuple(a)


def _dps_for(m_max: int) -> int:
    """Digits that keep P(S <= 2^-m) ~ 2^(-m(m-1)/2) accurate to 25 digits.

    The 15 guard digits absorb the doubling of relative error in each of
    the (at most ~60) squarings of _exp_ladder.
    """
    m = max(m_max, 0)
    return 45 + math.ceil(0.16 * m * m + 0.4 * m)


def _exp_ladder(x, count: int) -> list:
    """[exp(-x), exp(-2x), exp(-4x), ...], count values, by squaring."""
    out = [mp.exp(-x)]
    for _ in range(count - 1):
        out.append(out[-1] * out[-1])
    return out


class LimitRef:
    """P(S <= t_m) and P(S > t_m) at t_m = 2^(phi - m), m in [m_lo, m_hi].

    One table serves every Q_eta quantity at eta = phi:
    P(Q_eta >= j) = F(t_j), P(Q_eta <= x) = SF(t_{x+1}),
    P(Q_eta = j) = SF(t_{j+1}) - SF(t_j). Values are computed in mpmath and
    kept as floats, which is far inside every tolerance.
    """

    def __init__(self, phi: float, m_lo: int, m_hi: int):
        dps = _dps_for(m_hi)
        a = mixture(dps)
        with mp.workdps(dps):
            x = mp.mpf(phi)
            # E[w] = exp(-2^(w + phi)) is shared by every (k, m) with k - m = w
            w0 = 1 - m_hi
            ladder = _exp_ladder(mp.power(2, w0 + x), len(a) + m_hi - m_lo)
            E = {w0 + i: e for i, e in enumerate(ladder)}
            total = mp.fsum(a)
            sf = {m: mp.fdot(a, [E[k - m] for k in range(1, len(a) + 1)])
                  for m in range(m_lo, m_hi + 1)}
            # total - sf cancels; dps was sized for that
            self._F = {m: float(total - v) for m, v in sf.items()}
            self._SF = {m: float(v) for m, v in sf.items()}
            self._pmf = {m: float(sf[m + 1] - sf[m]) for m in range(m_lo, m_hi)}

    def tail(self, j: int) -> float:
        return self._F[j]

    def cdf(self, x: int) -> float:
        return self._SF[x + 1]

    def pmf(self, j: int) -> float:
        return self._pmf[j]

    def in_left_tail(self, m: int) -> bool:
        """True when a value read at t_m sits in the known-defect region."""
        return self._F[m] < LEFT_TAIL_DEFECT


@lru_cache(maxsize=256)
def limit_at(t: float) -> tuple:
    """(P(S <= t), P(S > t)) at one point t > 0, as floats."""
    dps = _dps_for(math.ceil(-math.log2(t)))
    a = mixture(dps)
    with mp.workdps(dps):
        sf = mp.fdot(a, _exp_ladder(2 * mp.mpf(t), len(a)))
        return float(mp.fsum(a) - sf), float(sf)


def partial_fractions(j: int) -> dict:
    """B_i, i = 2..j, with S_j - j = sum_i (Geom(p_i) - 1) and
    P(S_j - j > m) = sum_i B_i q_i^(m+1); run under the caller's precision."""
    p = {i: mp.ldexp(1, 1 - i) for i in range(2, j + 1)}
    return {i: mp.fprod(p[l] * (1 - p[i]) / (p[l] - p[i])
                        for l in p if l != i) for i in p}


def depth_below(n: int, j_max: int, dps: int) -> list:
    """[P(X_n < j) for j = 0..j_max], X_n the DST depth chain after n steps.

    P(X_n < j) = P(S_j > n) = sum_i B_i q_i^(n-j+1) has no cancellation in
    the left tail, and the right tail comes out as a difference of values
    near 1, which ``dps`` digits resolve.
    """
    with mp.workdps(dps):
        out = [mp.mpf(0), mp.mpf(0) if n >= 1 else mp.mpf(1)]
        for j in range(2, j_max + 1):
            steps = n - j + 1
            if steps <= 0:
                out.append(mp.mpf(1))
                continue
            out.append(mp.fsum(b * mp.exp(steps * mp.log1p(-mp.ldexp(1, 1 - i)))
                               for i, b in partial_fractions(j).items()))
        return out


def depth_law(n: int, dps: int = 40, floor: float = 1e-300) -> tuple[int, list]:
    """Centered law of X_n - floor(log2 n): (offset, masses above ``floor``).

    ``dps`` must exceed -log10(floor) for the right-tail masses to be exact.
    """
    k = n.bit_length() - 1
    j_max = k + 2
    while True:
        below = depth_below(n, j_max + 1, dps)
        if 1 - below[-1] < floor * 1e-3 or j_max >= n:
            break
        j_max += 8
    masses = [below[j + 1] - below[j] for j in range(j_max + 1)]
    keep = [j for j, v in enumerate(masses) if v > floor]
    lo, hi = keep[0], keep[-1]
    return lo - k, masses[lo:hi + 1]


def tv_exact(n: int):
    """d_TV(L(X_n - floor(log2 n)), Q_eta) with eta = frac(log2 n), to ~1e-20."""
    k = n.bit_length() - 1
    eta = math.log2(n) - k
    lo, masses = depth_law(n, dps=40, floor=1e-30)
    j_lo, j_hi = min(lo, -12), max(lo + len(masses) - 1, 14)
    q = LimitRef(eta, j_lo, j_hi + 1)
    with mp.workdps(40):
        gaps = []
        for j in range(j_lo, j_hi + 1):
            i = j - lo
            pj = masses[i] if 0 <= i < len(masses) else 0
            gaps.append(abs(pj - q.pmf(j)))
        return mp.fsum(gaps) / 2


def bucket_bound(p: float, draws: int) -> float:
    """Allowed |count - draws * p| for one histogram bucket."""
    return 6.0 * math.sqrt(draws * p * (1.0 - p)) + 3.0


def histogram_problem(counts: dict, ref: dict, draws: int) -> str | None:
    """First bucket whose count breaks ``bucket_bound``, or None."""
    for j in sorted(set(counts) | set(ref)):
        p = float(ref.get(j, 0.0))
        c = counts.get(j, 0)
        if abs(c - draws * p) > bucket_bound(p, draws):
            return f"bucket {j}: count {c}, expected {draws * p:.1f}"
    return None


def tv_noise(law: dict, draws: int, delta: float = 1e-9) -> float:
    """Bound on d_TV(empirical of ``draws``, law) that fails w.p. < delta.

    E d_TV <= (1/2) sum_j sqrt(p_j (1 - p_j) / draws), and one draw moves
    d_TV by at most 1/draws, so McDiarmid adds sqrt(log(1/delta) / 2 draws).
    """
    mean = 0.5 * sum(math.sqrt(p * (1 - p) / draws) for p in law.values())
    return mean + math.sqrt(math.log(1 / delta) / (2 * draws))
