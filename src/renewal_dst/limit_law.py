"""The limit law of scaled lifetime sums and its discretized family.

The scaled partial sums of the DST lifetime family converge to the random
series S = sum_{k>=1} 2^(-k) Z_k with i.i.d. unit exponentials Z_k,
equivalently a convolution of Exp(2^k) laws. Partial fractions turn that
convolution into a signed mixture

    L(S) = sum_{k>=1} a_k Exp(2^k),
    a_k  = b * prod_{j=1}^{k-1} (1 - 2^j)^(-1),
    b    = prod_{j>=1} (1 - 2^(-j))^(-1),

whose coefficients alternate in sign and decay like 2^(-k(k-1)/2). Signed
series with coefficients up to |b| ~ 3.46 cancel catastrophically near 0:
P(S <= t) is flat there (P(S <= 2^-j) <= 2^(-j(j-1)/2)), and a float sum of
the mixture loses it below about 1e-17. So P(S <= t) for 0 < t < 1 is read
from a committed table, and everything else is a series over the mixture,
evaluated termwise through exp and summed exactly with math.fsum. No value
under 1/2 is formed as 1 minus another.

The table (_s_table.py, written by tools/make_s_table.py from mpmath) cuts
each octave t = m 2^-j, m in [1/2, 1), j = 0..42, into eight pieces
m in [1/2 + p/16, 1/2 + (p + 1)/16). Row 8 j + p holds an integer E and the
16 monomial coefficients c_k of the degree-15 polynomial that interpolates
log2 P(S <= t) - E at 16 Chebyshev points of the piece, in
y = 2 (16 m - 8 - p) - 1, which runs over [-1, 1). _table_cdf(t) takes
(m, -j) = math.frexp(t), u = 16 m, p + 8 = int(u) and y = 2 (u - int(u)) - 1,
all exact, sums s = sum_k c_k y^k by Horner's rule and returns
math.ldexp(2.0**s, E): the exponent E is exact, so the error does not grow
with |log2 P|, and |s| stays under 5 on every piece, so its rounding stays
small. Against mpmath the value is within 4 eps relative (2.1 eps measured
over every piece), and within half the least subnormal where it rounds into
the subnormal range. Below 2^-43 the truth is under 2^-1094, and 0.0 is
returned. The table serves s_infinity_cdf(t) and q_tail for t < 1, q_cdf's
complement 1 - P(S <= c) for c < _MEDIAN_C, and q_pmf as
P(S <= 2c) - P(S <= c) while 2c < 1, where the first term dominates and
the difference keeps relative accuracy.

The law has one coefficient sequence, the 32 numbers a_1..a_32 that
mixture_coefficients() builds once and returns as a cached tuple; a_32 is
about -6e-149, far past binary64 precision. Every scalar value off the
table takes one pass of exp values over it (or over the d_k of a Q_eta
mass, below): _sf_terms(c, a) = fsum a_k * exp(-2^k c) = P(S > c). It
doubles u = 2^k c once per term; doubling only raises the binary exponent,
so u equals (2.0**k) * c and math.ldexp(c, k) bit for bit, and overflows to
inf where ldexp would raise. It stops at the first exp(-u) that underflows
to 0.0, which does not change the fsum. From t = 1 on, P(S <= t) is
1 - _sf_terms(t, a) (_cdf): there P(S > t) < 1/2 < P(S <= t), as the median
of S is 0.873, so the subtraction adds one rounding and magnifies no error.
Against 60-digit mpmath it is within 0.57 eps over 321 points in [1, 21].

A Q_eta mass P(S > c) - P(S > 2c) is one series of the same form,
sum_{k=1..33} d_k exp(-2^k c) with d_k = a_k - a_{k-1} (a_0 = a_33 = 0).
Since a_{k-1} = (1 - 2^(k-1)) a_k, d_k = 2^(k-1) a_k for k <= 32: an
exponent shift of the float a_k that adds no rounding (it also equals the
float a_k - a_{k-1} bit for bit), and d_33 = -a_32 (_pmf_coefficients).
This series serves q_pmf from 2c = 1 on; below, the table does.

The discretized family is Q_eta = L(floor(-log2 S + eta)) for eta in [0, 1]:

    P(Q_eta <= x) = sum_k a_k exp(-2^k c),  c = 2^(eta - 1 - x),  x integer.

c is formed as math.ldexp(2.0**eta, -1 - floor(x)), one rounding whatever
the size of x; forming eta - 1 - x first would drop low bits of eta as |x|
grows. Where c overflows, x is so far below the support that the value is
the one at x = -inf. The two endpoints are translates: Q_1({j}) = Q_0({j-1}),
and every value reproduces that identity exactly in floating point because
2.0**0 and 2.0**1 are exact, so (0, x) and (1, x + 1) give the same c.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._s_table import ROWS


@lru_cache(maxsize=1)
def euler_b() -> float:
    """The normalizer b = prod_{j>=1} (1 - 2^(-j))^(-1) ~ 3.4627466194550636.

    Factors j = 1..53 are multiplied; every later factor rounds to 1.0 in
    binary64, so the float product is complete.
    """
    return 1.0 / math.prod(1.0 - 2.0 ** -j for j in range(1, 54))


@lru_cache(maxsize=1)
def mixture_coefficients() -> tuple[float, ...]:
    """a_1..a_32 of L(S) = sum_k a_k Exp(2^k), built once and cached.

    a_1 = b and a_{k+1} = a_k / (1 - 2^k). Not a probability mixture: signs
    strictly alternate starting positive, |a_{k+1}| / |a_k| = 1/(2^k - 1),
    and the coefficients sum to 1. Each float a_k is within 2 eps
    (eps = 2^-52) of its exact value, 1.6 eps at most against mpmath;
    every operation is a correctly rounded IEEE one, so that holds on every
    platform, and the rounding bounds of the TV rows rest on it.
    """
    a = [euler_b()]
    for k in range(1, 32):
        a.append(a[-1] / (1.0 - 2.0 ** k))
    return tuple(a)


@lru_cache(maxsize=1)
def _pmf_coefficients() -> tuple[float, ...]:
    """d for the Q_eta mass series: d_k = 2^(k-1) a_k, d_33 = -a_32."""
    a = mixture_coefficients()
    return tuple(math.ldexp(ak, k) for k, ak in enumerate(a)) + (-a[-1],)


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")


def _sf_terms(c: float, a) -> float:
    """P(S > c) for the coefficients a, clamped; see the module notes."""
    terms = []
    u = c
    for ak in a:
        u += u
        e = math.exp(-u)
        if e == 0.0:
            break
        terms.append(ak * e)
    return min(max(math.fsum(terms), 0.0), 1.0)


# The least float c with _sf_terms(c) <= 1/2; the median of S is 1.9e-17
# above it. Below it q_cdf reads the complement from the table.
_MEDIAN_C = 0.8727617307746323


def _checked(t, name: str = "t") -> float:
    try:
        t = float(t)
    except OverflowError:   # an integer past the float range
        t = math.inf if t > 0 else -math.inf
    if not t >= 0.0:    # also rejects NaN
        raise ValueError(f"{name} must be >= 0, got {t!r}")
    return t


# The pieces of _table_cdf, row 8 j + p: flat (E, c_15, c_14, ..., c_0) in
# Horner order.
_S_ROWS = tuple((e, *c[::-1]) for e, c in ROWS)
_TABLE_LO = 2.0 ** -(len(ROWS) // 8)


def _table_cdf(t: float) -> float:
    """P(S <= t) for t < 1 from the piece table; see the module notes."""
    if t < _TABLE_LO:
        return 0.0
    m, e = math.frexp(t)
    u = 16.0 * m
    p = int(u)
    y = 2.0 * (u - p) - 1.0
    (e_row, c15, c14, c13, c12, c11, c10, c9, c8, c7, c6, c5, c4, c3, c2,
     c1, c0) = _S_ROWS[p - 8 - 8 * e]
    # Horner's rule from c15 down, written out: a loop over the row costs
    # about a fifth more per call
    s = ((((((((((((((c15 * y + c14) * y + c13) * y + c12) * y + c11) * y
                    + c10) * y + c9) * y + c8) * y + c7) * y + c6) * y + c5)
              * y + c4) * y + c3) * y + c2) * y + c1) * y + c0
    return math.ldexp(2.0 ** s, e_row)


def _cdf(t: float) -> float:
    """P(S <= t) for a checked t: the table below 1, 1 - P(S > t) from 1 on."""
    return (_table_cdf(t) if t < 1.0
            else 1.0 - _sf_terms(t, mixture_coefficients()))


def s_infinity_cdf(t):
    """P(S <= t): the piece table for t < 1, where the value decays
    superexponentially (P(S <= 2^(-j)) <= 2^(-j(j-1)/2)), and
    1 - P(S > t) from t = 1 on, where P(S > t) < 1/2.

    Accepts scalars or arrays; an array's values are the scalar values at
    its points, bit for bit, in an array of its shape.
    """
    if isinstance(t, (float, int)) or np.ndim(t) == 0:  # np.float64 is a float
        return _cdf(_checked(t))
    tv = np.asarray(t, dtype=float)
    if not np.all(tv >= 0):     # also rejects NaN
        raise ValueError("t must be >= 0 and not NaN at every point")
    return np.array([_cdf(x) for x in tv.ravel().tolist()]).reshape(tv.shape)


def s_infinity_sf(x: float) -> float:
    """Upper tail P(S > x) = sum_k a_k exp(-2^k x), stable for large x."""
    return _sf_terms(_checked(x, "x"), mixture_coefficients())


def _limit(x, name: str, low: float, high: float) -> float:
    """The value at x = -inf (low) or +inf (high), for a floor that failed."""
    if x != x:
        raise ValueError(f"{name} must not be NaN")
    return high if x > 0 else low


def q_cdf(eta: float, x) -> float:
    """P(Q_eta <= x) = sum_k a_k exp(-2^k c), c = 2^(eta - 1 - x), integer x.

    Real x is answered at floor(x); the law is integer-supported, and
    x = -inf / +inf give 0 / 1. Below the median (c >= _MEDIAN_C) one pass
    of the direct series, which has no cancellation; past it 1 minus the
    table's P(S <= c), which keeps the CDF nondecreasing in floating point
    all the way into the flat-at-1 region. The side is the one the direct
    value would pick (_sf_terms(c) <= 1/2).
    """
    _check_eta(eta)
    try:
        c = math.ldexp(2.0 ** eta, -1 - math.floor(x))
    except (OverflowError, ValueError):     # x is -inf, +inf or NaN, or c is
        return _limit(x, "x", 0.0, 1.0)     # past the float range (x << 0)
    if c < _MEDIAN_C:
        return 1.0 - _table_cdf(c)
    return _sf_terms(c, mixture_coefficients())


def q_pmf(eta: float, j) -> float:
    """P(Q_eta = j) = P(S > c) - P(S > 2c), c = 2^(eta - 1 - j); 0 at +-inf.

    One series pass, sum_k d_k exp(-2^k c) over the difference coefficients
    of the module notes, from 2c = 1 on; below, where both tails sit at
    1 - tiny, the table's P(S <= 2c) - P(S <= c).
    """
    _check_eta(eta)
    try:
        c = math.ldexp(2.0 ** eta, -1 - math.floor(j))
    except (OverflowError, ValueError):     # as in q_cdf
        return _limit(j, "j", 0.0, 0.0)
    if c + c < 1.0:
        return _table_cdf(c + c) - _table_cdf(c)
    return _sf_terms(c, _pmf_coefficients())


def q_tail(eta: float, j) -> float:
    """P(Q_eta >= j) = P(S <= 2^(eta - j)) as s_infinity_cdf reads it: the
    table below t = 1, 1 - P(S > t) from 1 on, where the value is above
    1/2. The far right tail, which decays like exp(-j^2 log2 / 2), keeps
    its relative accuracy down to 2^-1022. j = -inf / +inf give 1 / 0.
    """
    _check_eta(eta)
    try:
        t = math.ldexp(2.0 ** eta, -math.floor(j))
    except (OverflowError, ValueError):     # as in q_cdf
        return _limit(j, "j", 1.0, 0.0)
    return _cdf(t)


# sample_q's table spans j = _Q_LO.._Q_HI - 1: at every eta, P(Q_eta < _Q_LO)
# <= q_cdf(0, -6) ~ 5.6e-28 and P(Q_eta > _Q_HI) <= q_tail(1, 11) ~ 2.9e-23.
_Q_LO, _Q_HI = -5, 10


def _q_table(eta: float) -> np.ndarray:
    """C_j = q_cdf(eta, j) for j = _Q_LO.._Q_HI - 1, checked nondecreasing."""
    table = np.array([q_cdf(eta, j) for j in range(_Q_LO, _Q_HI)])
    if np.any(table[1:] < table[:-1]):
        raise RuntimeError(f"q_cdf({eta!r}, .) decreases")
    return table


def sample_q(eta: float, rng: np.random.Generator, size: int | None = None):
    """Draw Q_eta = floor(-log2 S + eta) by inverting its CDF.

    One uniform per draw, v = 1 - rng.random() in {k 2^-53 : 1 <= k <= 2^53},
    returns the j with C_{j-1} < v <= C_j in the table C of _q_table. So
    atom j has probability 2^-53 times the count of grid points in
    (C_{j-1}, C_j]: within 2^-53 of C_j - C_{j-1}, which carries q_cdf's
    error (at most 1.3e-16 abs against mpmath over eta = 0, 0.01, ..., 1),
    and the window's ends take the mass beyond it, under 2^-64. Atoms with
    C_j < 2^-53 are never drawn; from 1/2 up, where the C_j lie on the grid,
    each atom has exactly C_j - C_{j-1}. size=None returns an int. The
    tables at eta = 1 and eta = 0 are translates (the first entry at eta = 1
    is below 2^-53), so an eta = 1 draw is the eta = 0 draw plus one.
    """
    _check_eta(eta)
    v = 1.0 - rng.random(1 if size is None else size)
    q = np.searchsorted(_q_table(eta), v, side="left")
    q += _Q_LO
    return int(q[0]) if size is None else q.astype(np.int64, copy=False)
