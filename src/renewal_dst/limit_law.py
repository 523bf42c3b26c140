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
returned. The table serves s_infinity_cdf(t) and q_tail for t < 1, the
complement 1 - P(S <= c) for c < _MEDIAN_C that q_cdf and s_infinity_sf
read through _sf, and q_pmf as P(S <= 2c) - P(S <= c) while 2c < 1, where
the first term dominates and the difference keeps relative accuracy; q_pmf
reads both rows from one frexp of c.

The law has one coefficient sequence, the 32 numbers a_1..a_32, built once
at import as the module constant _A, which mixture_coefficients() returns;
a_32 is about -6e-149, far past binary64 precision. The d_k below are the
module constant _D. Every scalar value off the table takes one pass of exp
values over _A (or over the d_k of a Q_eta mass, below):
_sf_terms(c, a) = fsum a_k * exp(-2^k c) = P(S > c). It
doubles u = 2^k c once per term; doubling only raises the binary exponent,
so u equals (2.0**k) * c and math.ldexp(c, k) bit for bit, and overflows to
inf where ldexp would raise. It stops at the first exp(-u) that underflows
to 0.0, which does not change the fsum. From t = 1 on, P(S <= t) is
1 - _sf_terms(t, a) (_cdf): there P(S > t) < 1/2 < P(S <= t), as the median
of S is 0.873, so the subtraction adds one rounding and magnifies no error.
Against 60-digit mpmath it is within 0.57 eps over 321 points in [1, 21].
P(S > c) mirrors it (_sf, which q_cdf and s_infinity_sf share): the
series _sf_terms(c, a) from the median on, 1 - the table below it.

A Q_eta mass P(S > c) - P(S > 2c) is one series of the same form,
sum_{k=1..33} d_k exp(-2^k c) with d_k = a_k - a_{k-1} (a_0 = a_33 = 0).
Since a_{k-1} = (1 - 2^(k-1)) a_k, d_k = 2^(k-1) a_k for k <= 32: an
exponent shift of the float a_k that adds no rounding (it also equals the
float a_k - a_{k-1} bit for bit), and d_33 = -a_32 (_D).
This series serves q_pmf from 2c = 1 on; below, the table does.

The discretized family is Q_eta = L(floor(-log2 S + eta)) for eta in [0, 1]:

    P(Q_eta <= x) = sum_k a_k exp(-2^k c),  c = 2^(eta - 1 - x),  x integer.

c is formed as math.ldexp(2.0**eta, -1 - floor(x)), one rounding whatever
the size of x; forming eta - 1 - x first would drop low bits of eta as |x|
grows. Where c overflows, x is so far below the support that the value is
the one at x = -inf. The two endpoints are translates: Q_1({j}) = Q_0({j-1}),
and every value reproduces that identity exactly in floating point because
2.0**0 and 2.0**1 are exact, so (0, x) and (1, x + 1) give the same c.

Its mean and variance have closed forms in Gamma at chi_k = 2 pi i k / L,
L = ln 2 (Flajolet-Gourdon-Dumas 1995). With the digital-search-tree
constants a = sum_{k>=1} 1/(2^k - 1) = 1.606695152415292 and
b_2 = sum_{k>=1} 1/(2^k - 1)^2 = 1.137338736344197,

    E[Q_eta] - eta = gamma/L + 1/2 - a + sum_{k != 0} c_k e^(2 pi i k eta),
    c_k = -Gamma(-chi_k)/L,

a constant -0.273948975138425 and a wobble of |c_1| = 7.9e-7 (|c_4| is
under 1e-24), and the variance of Q_eta averages, over eta in [0, 1),

    1/12 + pi^2/(6 L^2) - a - b_2 - sum_{k != 0} |c_k|^2
        = 0.763014187111148 - 1.2374e-12.

The tests check both against q_pmf at 64 etas, within 1e-15.

Other growth rates. For ScaledBase(alpha) the limit
S = sum_{k>=0} alpha^-k W_k, with W_k exponential of mean 1/2, is a
convolution of Exp(2 alpha^k) laws, and the same partial fractions give a
mixture with q-Pochhammer coefficients at q = 1/alpha (Flajolet-Richmond,
Random Structures Algorithms 3, 1992):

    P(S > s) = sum_{k>=0} A_k exp(-2 alpha^k s),
    A_0 = prod_{m>=1} (1 - alpha^-m)^(-1),   A_k = A_{k-1} / (1 - alpha^k).

At alpha = 2, A_k = a_{k+1}, and _A is the first 32 of them (_mixture).
The A_k alternate in sign, and sum_k |A_k| is the cancellation every value
pays: 2.79 at alpha = 3, 8.26 at 2, 78.9 at 1.5, 8450 at 1.25. _mixture
refuses an alpha whose sum passes _MAX_WEIGHT = 2^13, which cuts at
alpha = 1.2508235044744267. A mass of Q_eta = floor(-log_alpha S + eta) is

    P(Q_eta = j) = P(S > c) - P(S > alpha c)
                 = sum_k A_k e^(-x) (-expm1(-(alpha - 1) x)),
    c = alpha^(eta - j - 1),   x = 2 alpha^k c = 2 alpha^eta alpha^(k - j - 1),

which _mixture_window sums by fsum for each j of a window, each term from
one numpy power, exp and expm1, and bounds, with eps = 2^-52 and every
power, exp and expm1 taken within 4 ulp:
- the rounding of a mass by the running bound
  eps sum_k |term_k| (rho_k + 9 x + 20). rho_k bounds A_k's relative error
  in eps and is built along with it: 1 + 4/(alpha^m - 1) for each factor
  of A_0's product (alpha^-m within 4 ulp, one rounding each for the
  subtraction and the product), 0.25/(1 - 1/alpha) for the factors past
  the last one under 1.0 (there alpha^-m <= 2^-54), 1 for the division,
  and 1 + 4/(1 - alpha^-k) for each step of the recurrence. x is within
  9 eps (two powers, one product), which moves exp(-x) by 9 x eps, and
  (alpha - 1) x within 10 eps, which moves the expm1 factor by as much,
  since y e^-y <= 1 - e^-y. The exp, the expm1, two products and fsum add
  10 eps: 19.5 eps, taken as 20, which covers the second-order terms;
- the mass off the window. Below it, P(Q_eta < lo) = P(S > alpha^(eta - lo))
  is the same series without the expm1 factor, under the same bound.
  Above it, P(Q_eta > hi) = P(S <= s), s = alpha^(eta - hi - 1), is at
  most prod_k P(alpha^-k W_k <= s) <= prod_k min(1, 2 alpha^k s), the x of
  row hi; its K factors are within 9 eps and its roundings add eps/2 each,
  so it is taken times 1 + 11 K eps;
- the clipping of a negative float mass to 0, which moves it toward the
  true mass, itself nonnegative, so the mass's bound still holds.
The window reaches at least -ceil(8 / log2 alpha) and
ceil(log_alpha 2 + sqrt(106 / log2 alpha)). There s >= 2^8 below, so
P(S > s) <= 2^13 e^-512; and s <= alpha^-hi above, so the product is at
most 2^(-d^2 log2(alpha) / 2) <= 2^-53, d = hi - log_alpha 2 counting its
factors under 1. Left out are the terms that underflow and the A_k past
the last, which underflows to 0 (the later ones at least halve): under
2^-1000 in all, which the eps per mass a sum over the window charges for
its own rounding covers. Against 60-digit mpmath at 4 etas the masses are
within 7.3e-14 at the cut, 7.9e-16 at alpha = 1.5 and 4.8e-16 at 2.7 and
3: under a tenth of their bounds.
"""

from __future__ import annotations

import functools
import math
from math import exp, floor, frexp, fsum, ldexp

from ._s_table import ROWS


def mixture_coefficients() -> tuple[float, ...]:
    """a_1..a_32 of L(S) = sum_k a_k Exp(2^k): the module constant _A.

    a_1 = b = prod_{j>=1} (1 - 2^(-j))^(-1) ~ 3.4627466194550636, a product
    over j = 1..53: every later factor rounds to 1.0 in binary64, so the
    float product is complete. a_{k+1} = a_k / (1 - 2^k): the A_k of the
    module notes at alpha = 2, from ``_mixture``. Not a probability
    mixture: signs strictly alternate starting positive,
    |a_{k+1}| / |a_k| = 1/(2^k - 1), and the coefficients sum to 1. Each
    float a_k is within 2 eps (eps = 2^-52) of its exact value, 1.6 eps at
    most against mpmath; every operation is a correctly rounded IEEE one,
    so that holds on every platform, and the rounding bounds of the TV rows
    rest on it.
    """
    return _A


_EPS = 2.0 ** -52
# the most sum_k |A_k| may reach; see the module notes
_MAX_WEIGHT = 2.0 ** 13


@functools.lru_cache
def _mixture(alpha: float):
    """(A, rho): A_0, A_1, ... of P(S > s) = sum_k A_k exp(-2 alpha^k s)
    and bounds rho_k on their relative errors in eps, as tuples built once
    per alpha; see the module notes.

    The terms run to the first A_k that underflows to 0. Raises ValueError
    unless 1 < alpha < inf and sum_k |A_k| <= _MAX_WEIGHT, which holds from
    alpha = 1.2508235044744267 on; an integer alpha past the float range
    counts as inf. A partial product of A_0 under 1/_MAX_WEIGHT, or an A_k
    past it, fails that at once, so the loops stop early as alpha nears 1.
    """
    try:
        alpha = float(alpha)
    except OverflowError:   # an integer past the float range
        alpha = math.inf if alpha > 0 else -math.inf
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must lie in (1, inf), got {alpha!r}")
    p, r, m = 1.0, 1.0 + 0.25 / (1.0 - 1.0 / alpha), 1
    # the product of the factors under 1.0, in order: math.prod's bits
    while p * _MAX_WEIGHT >= 1.0 and (f := 1.0 - alpha ** -m) < 1.0:
        p *= f
        r += 1.0 + 4.0 / (alpha ** m - 1.0)
        m += 1
    a, rho = [1.0 / p], [r]
    while 0.0 < abs(a[-1]) <= _MAX_WEIGHT:
        try:
            ak = alpha ** len(a)
        except OverflowError:   # alpha > 2^512: every later |A_k| < 2^-1500
            break
        a.append(a[-1] / (1.0 - ak))
        rho.append(rho[-1] + 1.0 + 4.0 / (1.0 - 1.0 / ak))
    if not fsum(map(abs, a)) <= _MAX_WEIGHT:
        raise ValueError(f"alpha must keep sum_k |A_k| <= 2^13 "
                         f"(alpha >= about 1.2508), got {alpha!r}")
    return tuple(a), tuple(rho)


# a_1..a_32 (mixture_coefficients) and d_1..d_33 of the Q_eta mass series;
# a module constant costs less per scalar value than a function call
_A = _mixture(2.0)[0][:32]
_D = tuple(ldexp(ak, k) for k, ak in enumerate(_A)) + (-_A[-1],)


def _mixture_window(alpha: float, eta: float, lo: int, hi: int):
    """(first point, masses, errors, outside) of Q_eta at growth rate alpha
    on [lo, hi] widened as the module notes say: the masses, a bound on
    each one's error, and a bound on the mass off the window."""
    import numpy as np

    _check_eta(eta)
    a, rho = _mixture(alpha)
    la = math.log2(alpha)
    lo = min(lo, -math.ceil(8 / la))
    hi = max(hi, math.ceil(1 / la + math.sqrt(106 / la)))
    # rows j = lo - 1 .. hi, columns k: the exponent k - j - 1
    shift = np.arange(len(a)) - np.arange(lo, hi + 2)[:, None]
    with np.errstate(over="ignore"):
        # exp(-x) is 0.0 from x = 746 on; the clamp keeps inf out of the bound
        x = np.minimum(2.0 * alpha ** eta * np.power(alpha, shift), 1e3)
        terms = np.array(a) * np.exp(-x)
        terms[1:] *= -np.expm1((1.0 - alpha) * x[1:])
    sums = [fsum(row) for row in terms.tolist()]
    err = _EPS * (np.abs(terms) * (np.array(rho) + 9.0 * x + 20.0)).sum(1)
    top = math.prod(np.minimum(x[-1], 1.0).tolist()) * (1 + 11 * _EPS * len(a))
    return (lo, np.maximum(sums[1:], 0.0), err[1:],
            max(sums[0], 0.0) + float(err[0]) + top)


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")


def _sf_terms(c: float, a) -> float:
    """P(S > c) for the coefficients a, clamped; see the module notes."""
    terms = []
    u = c
    for ak in a:
        u += u
        e = exp(-u)
        if e == 0.0:
            break
        terms.append(ak * e)
    s = fsum(terms)
    # min(max(s, 0.0), 1.0), the same float (-0.0 included) without two calls
    return 0.0 if s < 0.0 else 1.0 if s > 1.0 else s


# The least float c with _sf_terms(c) <= 1/2; the median of S is 1.9e-17
# above it. Below it _sf reads the complement from the table.
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
    m, e = frexp(t)
    u = 16.0 * m
    p = int(u)
    return _table_piece(p - 8 - 8 * e, 2.0 * (u - p) - 1.0)


def _table_piece(row: int, y: float) -> float:
    """The value of piece row at y in [-1, 1), as _table_cdf reads it."""
    (e_row, c15, c14, c13, c12, c11, c10, c9, c8, c7, c6, c5, c4, c3, c2,
     c1, c0) = _S_ROWS[row]
    # Horner's rule from c15 down, written out: a loop over the row costs
    # about a fifth more per call
    s = ((((((((((((((c15 * y + c14) * y + c13) * y + c12) * y + c11) * y
                    + c10) * y + c9) * y + c8) * y + c7) * y + c6) * y + c5)
              * y + c4) * y + c3) * y + c2) * y + c1) * y + c0
    return ldexp(2.0 ** s, e_row)


def _cdf(t: float) -> float:
    """P(S <= t) for a checked t: the table below 1, 1 - P(S > t) from 1 on."""
    return _table_cdf(t) if t < 1.0 else 1.0 - _sf_terms(t, _A)


def _sf(c: float) -> float:
    """P(S > c) for a checked c: the direct series, which has no
    cancellation, from the median on (c >= _MEDIAN_C, the side where the
    series is at most 1/2), 1 - the table's P(S <= c) below it."""
    return 1.0 - _table_cdf(c) if c < _MEDIAN_C else _sf_terms(c, _A)


def s_infinity_cdf(t):
    """P(S <= t): the piece table for t < 1, where the value decays
    superexponentially (P(S <= 2^(-j)) <= 2^(-j(j-1)/2)), and
    1 - P(S > t) from t = 1 on, where P(S > t) < 1/2.

    Accepts scalars or arrays; an array's values are the scalar values at
    its points, bit for bit, in an array of its shape.
    """
    if not isinstance(t, (float, int)):     # np.float64 is a float
        import numpy as np

        if np.ndim(t):
            tv = np.asarray(t, dtype=float)
            if not np.all(tv >= 0):     # also rejects NaN
                raise ValueError("t must be >= 0 and not NaN at every point")
            return np.array([_cdf(x) for x in tv.ravel().tolist()]
                            ).reshape(tv.shape)
    return _cdf(_checked(t))


def s_infinity_sf(x: float) -> float:
    """Upper tail P(S > x): 1 - P(S <= x) from the table below the median
    0.873, sum_k a_k exp(-2^k x) from it on, where it is at most 1/2."""
    return _sf(_checked(x, "x"))


def _limit(x, name: str, low: float, high: float) -> float:
    """The value at x = -inf (low) or +inf (high), for a floor that failed."""
    if x != x:
        raise ValueError(f"{name} must not be NaN")
    return high if x > 0 else low


def q_cdf(eta: float, x) -> float:
    """P(Q_eta <= x) = sum_k a_k exp(-2^k c), c = 2^(eta - 1 - x), integer x.

    Real x is answered at floor(x); the law is integer-supported, and
    x = -inf / +inf give 0 / 1. The value is P(S > c) as s_infinity_sf
    reads it (_sf); its table side past the median keeps the CDF
    nondecreasing in floating point all the way into the flat-at-1 region.
    """
    _check_eta(eta)
    try:
        c = ldexp(2.0 ** eta, -1 - floor(x))
    except (OverflowError, ValueError):     # x is -inf, +inf or NaN, or c is
        return _limit(x, "x", 0.0, 1.0)     # past the float range (x << 0)
    return _sf(c)


def q_pmf(eta: float, j) -> float:
    """P(Q_eta = j) = P(S > c) - P(S > 2c), c = 2^(eta - 1 - j); 0 at +-inf.

    One series pass, sum_k d_k exp(-2^k c) over the difference coefficients
    of the module notes, from 2c = 1 on; below, where both tails sit at
    1 - tiny, the table's P(S <= 2c) - P(S <= c).

    The value is within 23 eps (eps = 2^-52) of Q_eta({j}). The argument
    c carries the rounding of 2.0**eta, at most eps relative, which moves
    P(S > c) - P(S > 2c) by at most (c f(c) + 2c f(2c)) eps < 1.4 eps, as
    t f(t) < 0.7 for the density f of S. From 2c = 1 on the mass is fsum of
    d_k exp(-2^k c), each d_k = 2^(k-1) a_k within a_k's 2 eps
    (``mixture_coefficients``), each exp within 4 ulp and each product
    rounded once: 6.5 eps of terms whose sizes add to at most
    sum |a_k| / e < 3.1 (2^(k-1) exp(-2^k c) <= 1/e for c >= 1/2), plus
    fsum's eps/2, under 20.7 eps. Below 2c = 1 it is a difference of two
    table values at most 1, each within 4 eps (the module notes), rounded
    once: 8.5 eps.
    """
    _check_eta(eta)
    try:
        c = ldexp(2.0 ** eta, -1 - floor(j))
    except (OverflowError, ValueError):     # as in q_cdf
        return _limit(j, "j", 0.0, 0.0)
    if c + c >= 1.0:
        return _sf_terms(c, _D)
    if c + c < _TABLE_LO:
        return 0.0
    # frexp(2c) = (m, e + 1): 2c reads row r - 8 at c's y, c reads row r
    m, e = frexp(c)
    u = 16.0 * m
    p = int(u)
    y = 2.0 * (u - p) - 1.0
    r = p - 8 - 8 * e
    low = _table_piece(r, y) if c >= _TABLE_LO else 0.0
    return _table_piece(r - 8, y) - low


def q_tail(eta: float, j) -> float:
    """P(Q_eta >= j) = P(S <= 2^(eta - j)) as s_infinity_cdf reads it: the
    table below t = 1, 1 - P(S > t) from 1 on, where the value is above
    1/2. The far right tail, which decays like exp(-j^2 log2 / 2), keeps
    its relative accuracy down to 2^-1022. j = -inf / +inf give 1 / 0.
    """
    _check_eta(eta)
    try:
        t = ldexp(2.0 ** eta, -floor(j))
    except (OverflowError, ValueError):     # as in q_cdf
        return _limit(j, "j", 1.0, 0.0)
    return _cdf(t)


# sample_q's table spans j = _Q_LO.._Q_HI - 1: at every eta, P(Q_eta < _Q_LO)
# <= q_cdf(0, -6) ~ 5.6e-28 and P(Q_eta > _Q_HI) <= q_tail(1, 11) ~ 2.9e-23.
_Q_LO, _Q_HI = -5, 10
_Q_BLOCK = 2 ** 16     # sample_q's draws per block; a block stays in cache


def _q_table(eta: float) -> np.ndarray:
    """C_j = q_cdf(eta, j) for j = _Q_LO.._Q_HI - 1, checked nondecreasing."""
    import numpy as np

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

    The index is #{j : C_j < v}, np.searchsorted(C, v, "left") on the
    nondecreasing C, counted without a search: every C_j < 2^-53 counts,
    no C_j = 1 does, and each other C_j (12 or 13) adds one comparison.
    Draws are inverted _Q_BLOCK at a time, one rng.random call a block, which
    reads the stream as one call for all of them would; beside the int64
    output the transient is one block.
    """
    import numpy as np

    _check_eta(eta)
    table = _q_table(eta)
    below = table < 2.0 ** -53
    lo = _Q_LO + np.count_nonzero(below)
    cuts = table[~below & (table < 1.0)]
    out = np.empty(1 if size is None else size, dtype=np.int64)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _Q_BLOCK):
        v = rng.random(min(_Q_BLOCK, flat.size - start))
        np.subtract(1.0, v, out=v)
        q = np.full(v.shape, lo, dtype=np.int8)
        hit = np.empty(v.shape, dtype=bool)
        for c in cuts:
            q += np.greater(v, c, out=hit)
        flat[start:start + q.size] = q
    return int(out[0]) if size is None else out
