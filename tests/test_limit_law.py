import hashlib
import importlib.util
import math
import struct
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_dst import (
    IntPmf,
    ScaledBase,
    mixture_coefficients,
    q_cdf,
    q_pmf,
    q_tail,
    s_infinity_cdf,
    s_infinity_sf,
    sample_q,
    sample_scaled_limit,
)
from renewal_dst._s_table import ROWS
from renewal_dst.limit_law import (
    _D,
    _MEDIAN_C,
    _Q_HI,
    _Q_LO,
    _TABLE_LO,
    _q_table,
    _sf_terms,
    _table_cdf,
)
from renewal_dst.metrics import limit_pmf_window, tv_vs_limit
from renewal_dst.rng import stream_rng

from _oracles import (
    empirical_cdf_jumps,
    ks_discrete_vs_continuous,
    search_inversion,
)


def test_b_value():
    b = mixture_coefficients()[0]
    assert 3.4627466 < b < 3.4627467
    assert b > 1.0
    recip = math.prod(1 - 2.0 ** -j for j in range(1, 65))
    assert 1.0 / b == pytest.approx(recip, rel=1e-15)


def test_mixture_coefficients():
    a = mixture_coefficients()
    b = a[0]
    assert len(a) == 32 and mixture_coefficients() is a
    # b = a_1 is the float product over j = 1..53, bit for bit
    assert b == 1.0 / math.prod(1.0 - 2.0 ** -j for j in range(1, 54))
    assert a[1] == -b
    assert a[2] == pytest.approx(b / 3, rel=1e-15)
    for k in range(1, 32):
        assert math.copysign(1, a[k]) == -math.copysign(1, a[k - 1])
        assert abs(a[k]) / abs(a[k - 1]) == pytest.approx(
            1.0 / (2.0 ** k - 1), rel=1e-12)
    assert math.fsum(a) == pytest.approx(1.0, abs=1e-13)


def test_mixture_coefficients_within_2_eps():
    # the rounding bounds of the TV rows take each float a_k within 2 eps of
    # the exact one; 1.6 eps is the largest seen
    mp = pytest.importorskip("mpmath")
    exact = _mp_mixture(100)    # a_1..a_37 or more
    with mp.workdps(100):
        for k, ak in enumerate(mixture_coefficients()):
            assert abs(mp.mpf(ak) - exact[k]) <= 2 * EPS * abs(exact[k]), k


def test_s_infinity_cdf_endpoints():
    assert s_infinity_cdf(0.0) == 0.0
    assert s_infinity_cdf(1e300) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        s_infinity_cdf(-0.1)
    xs = np.linspace(0, 4, 2001)
    vals = s_infinity_cdf(xs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))
    scalar = np.array([s_infinity_cdf(float(x)) for x in xs])
    assert np.array_equal(vals, scalar)


def test_s_infinity_upper_tail_geometric_decay():
    u5, u10, u20 = (s_infinity_sf(x) for x in (5.0, 10.0, 20.0))
    assert u5 > u10 > u20 > 0
    assert u10 / u5 < 0.5
    assert u20 / u10 < 0.5


def test_q_complement_identity():
    for eta in (0.0, 0.25, 0.5, 0.9, 1.0):
        for x in range(-4, 10):
            assert q_cdf(eta, x) + q_tail(eta, x + 1) == pytest.approx(
                1.0, abs=1e-14)


def test_q_translate_identity():
    # bit for bit, on the series side and on the table side (x >= 1)
    for x in range(-60, 60):
        assert q_cdf(0.0, x) == q_cdf(1.0, x + 1)
        assert q_pmf(0.0, x) == q_pmf(1.0, x + 1)
        assert q_tail(0.0, x) == q_tail(1.0, x + 1)


def test_q_eta_domain():
    with pytest.raises(ValueError):
        q_cdf(-0.1, 0)
    with pytest.raises(ValueError):
        q_tail(1.1, 0)


def test_q_real_arguments_floored():
    assert q_cdf(0.3, 2.7) == q_cdf(0.3, 2)
    assert q_pmf(0.3, 2.7) == q_pmf(0.3, 2)


@settings(max_examples=60, deadline=None)
@given(eta=st.floats(min_value=0.0, max_value=1.0),
       x=st.integers(min_value=-8, max_value=20))
def test_q_cdf_monotone_in_x_and_eta(eta, x):
    assert q_cdf(eta, x) <= q_cdf(eta, x + 1) + 1e-15
    assert q_cdf(0.0, x) + 1e-15 >= q_cdf(eta, x) >= q_cdf(1.0, x) - 1e-15


def test_q_pmf_mass_and_range():
    for eta in (0.0, 0.5, 1.0):
        vals = [q_pmf(eta, j) for j in range(-10, 41)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert math.fsum(vals) >= 1 - 1e-10


def test_q_tail_bounds():
    for eta in (0.0, 0.5, 1.0):
        assert q_tail(eta, -50) == pytest.approx(1.0, abs=1e-14)
        for j in range(2, 9):
            assert q_tail(eta, j) <= s_infinity_cdf(2.0 ** (-j + 1)) + 1e-18
        for j in range(3, 9):
            assert q_tail(eta, j) <= 2.0 ** (-(j - 1) * (j - 2) / 2)


def test_q_mean_shifts_by_one_with_eta():
    m0 = math.fsum(j * q_pmf(0.0, j) for j in range(-30, 60))
    m1 = math.fsum(j * q_pmf(1.0, j) for j in range(-30, 60))
    assert m1 - m0 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("eta", [0.0, 0.125, 0.25, 0.5, 0.75, 0.9])
def test_q_mean_matches_mellin_fourier_form(eta):
    # At s = chi_m = 2 pi i m / ln 2 every 2^(k s) is 1, so
    # E[S^(-chi_m)] = Gamma(1 - chi_m) with no series, and the Fourier
    # series of floor() gives E[Q_eta] = eta + gamma/ln 2 + 1/2 - alpha_EB
    # + sum_m Im(e^(2 pi i m eta) Gamma(1 - chi_m)) / (pi m), where
    # alpha_EB = sum_k 1/(2^k - 1) is the Erdos-Borwein constant.
    mp = pytest.importorskip("mpmath")
    lo, masses, _ = limit_pmf_window(eta, -40, 60)
    mean = math.fsum((lo + i) * m for i, m in enumerate(masses))
    with mp.workdps(40):
        ln2 = mp.log(2)
        alpha_eb = mp.nsum(lambda k: 1 / (2 ** k - 1), [1, mp.inf])
        wobble = mp.fsum(
            mp.im(mp.expjpi(2 * m * mp.mpf(eta))
                  * mp.gamma(1 - 2j * mp.pi * m / ln2)) / (mp.pi * m)
            for m in range(1, 6))
        want = mp.mpf(eta) + mp.euler / ln2 + 0.5 - alpha_eb + wobble
    assert mean == pytest.approx(float(want), rel=0, abs=1e-14)


def test_q_mean_average_and_gamma_series_at_64_etas():
    # m(eta) = E[Q_eta] - eta averages gamma/ln 2 + 1/2 - alpha over a
    # period (alpha = sum_k 1/(2^k - 1)), and its Fourier coefficients are
    # c_k = -Gamma(-chi_k)/ln 2, chi_k = 2 pi i k / ln 2; |c_4| < 1e-24.
    # Measured: 1.1e-16 off the average, 2.8e-16 off the series.
    mp = pytest.importorskip("mpmath")
    etas = [i / 64 for i in range(64)]
    m = [math.fsum([j * q_pmf(eta, j) for j in range(-40, 40)] + [-eta])
         for eta in etas]
    with mp.workdps(30):
        ln2 = mp.log(2)
        alpha = mp.nsum(lambda k: 1 / (2 ** k - 1), [1, mp.inf])
        const = mp.euler / ln2 + 0.5 - alpha
        c = {k: -mp.gamma(-2j * mp.pi * k / ln2) / ln2
             for k in (-3, -2, -1, 1, 2, 3)}
        assert abs(math.fsum(m) / 64 - const) <= 1e-15
        for eta, mi in zip(etas, m):
            want = const + mp.re(mp.fsum(ck * mp.expjpi(2 * k * mp.mpf(eta))
                                         for k, ck in c.items()))
            assert abs(mi - want) <= 1e-15, eta


@pytest.fixture(scope="module")
def s_infinity_draws():
    return sample_scaled_limit(ScaledBase(2.0), stream_rng(20070201, 11),
                               size=10 ** 6)


def test_sample_s_infinity_moments(s_infinity_draws):
    s = s_infinity_draws
    n = s.size
    mean_se = s.std() / math.sqrt(n)
    assert abs(s.mean() - 1.0) <= 4 * mean_se
    var_se = ((s - s.mean()) ** 2).std() / math.sqrt(n)
    assert abs(s.var() - 1.0 / 3.0) <= 4 * var_se


def test_sample_s_infinity_matches_cdf(s_infinity_draws):
    s = s_infinity_draws
    ks = ks_discrete_vs_continuous(*empirical_cdf_jumps(s), s_infinity_cdf)
    assert ks <= 0.002


def test_sample_q_in_unit_band_when_s_in_half_one():
    rng = stream_rng(123, 9)
    s = sample_scaled_limit(ScaledBase(2.0), rng, size=5000)
    q = np.floor(-np.log2(s))
    sel = (s > 0.5) & (s <= 1.0)
    assert np.all(q[sel] == 0)


def test_sample_q_eta_shift_under_shared_stream():
    q0 = sample_q(0.0, stream_rng(5, 7), size=2000)
    q1 = sample_q(1.0, stream_rng(5, 7), size=2000)
    assert np.array_equal(q1, q0 + 1)
    v0 = sample_q(0.0, stream_rng(5, 7))
    v1 = sample_q(1.0, stream_rng(5, 7))
    assert isinstance(v1, int) and v1 == v0 + 1


def test_q_tables_at_eta_0_and_1_are_translates():
    # why one inversion serves eta = 1: searchsorted over the eta = 1 table
    # returns the eta = 0 index plus one for every v on the 2^-53 grid
    t0, t1 = _q_table(0.0), _q_table(1.0)
    assert np.array_equal(t1[1:], t0[:-1])
    assert 0.0 < t1[0] < 2.0 ** -53
    assert t0[-1] == 1.0


def test_sample_q_scalar():
    v = sample_q(0.5, stream_rng(7, 7))
    assert isinstance(v, int)
    assert v == sample_q(0.5, stream_rng(7, 7), size=1)[0]
    base = ScaledBase(2.0)
    s = sample_scaled_limit(base, stream_rng(7, 7))
    assert isinstance(s, float)
    assert s == sample_scaled_limit(base, stream_rng(7, 7), size=1)[0]


@pytest.mark.parametrize("size", [(3, 4), 0, (2, 0), (500, 400)])
def test_sample_q_shapes_match_flat_draws(size):
    q = sample_q(0.5, stream_rng(9, 3), size=size)
    assert q.dtype == np.int64 and q.shape == np.zeros(size).shape
    flat = sample_q(0.5, stream_rng(9, 3), size=q.size)
    assert np.array_equal(q.reshape(-1), flat)


@pytest.mark.parametrize("eta", [0.0, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("size", [None, 0, (3, 4), 10 ** 6])
def test_sample_q_is_the_search_inversion_bit_for_bit(eta, size):
    table = _q_table(eta)
    for seed, stream in [(20070201, 12), (11, 3), (5, 7)]:
        got = sample_q(eta, stream_rng(seed, stream), size)
        ref = search_inversion(table, _Q_LO, stream_rng(seed, stream), size)
        if size is None:
            assert type(got) is int and got == ref
        else:
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref), (seed, stream)


class _FixedUniforms:
    """A generator stub whose random(size) returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return self.u.reshape(size).copy()


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.999, 1.0])
def test_sample_q_ties_at_every_threshold(eta):
    # v = 1 - u at each C_j and a grid step either side; rng.random() lies
    # in [0, 1 - 2^-53], so v in [2^-53, 1], both ends included
    table = _q_table(eta)
    step = 2.0 ** -53
    u = np.array([1.0 - c + d for c in table for d in (-step, 0.0, step)]
                 + [0.0, step, 0.5, 1.0 - step])
    u = np.clip(u, 0.0, 1.0 - step)
    got = sample_q(eta, _FixedUniforms(u), u.shape)
    ref = search_inversion(table, _Q_LO, _FixedUniforms(u), u.shape)
    assert np.array_equal(got, ref)
    compared = table[(table >= step) & (table < 1.0)]
    assert np.isin(compared, 1.0 - u).sum() >= 5     # exact ties present


def test_sample_q_refuses_a_decreasing_table(monkeypatch):
    # counting C_j < v is the search's index only on a nondecreasing table
    monkeypatch.setattr("renewal_dst.limit_law.q_cdf", lambda eta, j: -j)
    with pytest.raises(RuntimeError, match="decreases"):
        sample_q(0.5, stream_rng(1, 1), size=10)


def _mp_q_cdf(eta, j):
    """P(Q_eta <= j) = P(S > 2^(eta - 1 - j)) from the mpmath law."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        return _mp_law(mp.mpf(2) ** (mp.mpf(eta) - 1 - j))[1]


@pytest.mark.parametrize("seed, stream, eta", [
    (20070201, 12, 0.0), (20070201, 13, 0.5), (11, 3, 0.999), (5, 7, 0.25)])
def test_sample_q_inverts_the_mpmath_cdf(seed, stream, eta):
    cdf = {j: _mp_q_cdf(eta, j) for j in range(_Q_LO - 2, _Q_HI + 2)}
    table = _q_table(eta)
    assert len(table) == _Q_HI - _Q_LO
    for j, c in zip(range(_Q_LO, _Q_HI), table):
        assert abs(c - float(cdf[j])) <= 4.5e-16, (eta, j)
    size = 10 ** 6
    values, counts = np.unique(sample_q(eta, stream_rng(seed, stream), size),
                               return_counts=True)
    got = dict(zip(values.tolist(), counts.tolist()))
    assert set(got) <= set(range(_Q_LO - 1, _Q_HI + 2))
    for j in range(_Q_LO - 1, _Q_HI + 2):
        p = float(cdf[j] - cdf[j - 1])
        se = math.sqrt(p * (1 - p) / size)
        assert abs(got.get(j, 0) / size - p) <= 4 * se, (eta, j)


def test_sample_q_window_tails_below_2_to_minus_64():
    # q_cdf falls as eta grows, so eta = 0 holds the heaviest left tail and
    # eta = 1 the heaviest right one; the window is the narrowest that fits.
    mp = pytest.importorskip("mpmath")
    tiny = mp.ldexp(1, -64)
    assert _mp_q_cdf(0.0, _Q_LO - 1) < tiny <= _mp_q_cdf(0.0, _Q_LO)
    assert 1 - _mp_q_cdf(1.0, _Q_HI) < tiny <= 1 - _mp_q_cdf(1.0, _Q_HI - 1)


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_s_infinity_draws_floor_to_q_eta(s_infinity_draws, eta):
    # An independent sampled check of the Q_eta series: sample_q reads q_cdf.
    qs = np.floor(eta - np.log2(s_infinity_draws)).astype(np.int64)
    tv, _ = tv_vs_limit(IntPmf.from_samples(qs), eta)
    assert tv <= 0.003, tv


# ---- scalar series against reference loops and mpmath ----------------------

# Termwise reference loops: every term formed, 2^k t as (2.0**k) * t, no
# early exit.

def _ref_clamp(v):
    return min(max(v, 0.0), 1.0)


def _ref_cdf(t, a):
    return _ref_clamp(math.fsum(ak * -math.expm1(-(2.0 ** k) * t)
                                for k, ak in enumerate(a, start=1)))


def _ref_sf(x, a):
    return _ref_clamp(math.fsum(ak * math.exp(-(2.0 ** k) * x)
                                for k, ak in enumerate(a, start=1)))


def _ref_q_tail(eta, j, a):
    # t = 2^(eta - j) formed as q_tail forms it, rounded once
    return _ref_cdf(_c(eta, j - 1), a)


def _ref_q_cdf(eta, x, a):
    terms = []
    for k, ak in enumerate(a, start=1):
        w = k + eta - 1.0 - x
        if w < 60.0:
            terms.append(ak * math.exp(-(2.0 ** w)))
    direct = _ref_clamp(math.fsum(terms))
    if direct <= 0.5:
        return direct
    return 1.0 - _ref_q_tail(eta, x + 1, a)


def _ref_q_pmf(eta, j, a):
    left = _ref_q_cdf(eta, j - 1, a)
    if left > 0.5:
        return max(_ref_q_tail(eta, j, a) - _ref_q_tail(eta, j + 1, a), 0.0)
    return max(_ref_q_cdf(eta, j, a) - left, 0.0)


T_GRID = [2.0 ** (e / 8) for e in range(-80, 65)]          # 2^-10 .. 2^8
ETA_GRID = [i / 16 for i in range(17)] + [1e-20, 0.3, 1 - 2.0 ** -53]
J_GRID = range(-10, 15)


@pytest.mark.parametrize("order", [1, 5, 32])
def test_scalar_s_infinity_bit_identical_to_termwise_loop(order):
    # the kernel on prefixes of the one coefficient tuple; the full tuple is
    # what s_infinity_sf uses from the median on (below it, 1 minus the
    # piece table), and s_infinity_cdf from t = 1 on, as 1 minus it (below
    # 1 it reads the piece table, checked against mpmath)
    a = mixture_coefficients()[:order]
    for t in T_GRID + [0.0, 5e-324, 1e-300, 1e300, math.inf]:
        assert _sf_terms(t, a) == _ref_sf(t, a), t
        if order == 32:
            sf = 1.0 - _table_cdf(t) if t < _MEDIAN_C else _ref_sf(t, a)
            assert s_infinity_sf(t) == sf, t
            if t >= 1.0:
                assert s_infinity_cdf(t) == 1.0 - _ref_sf(t, a), t
            else:
                assert _table_close(s_infinity_cdf(t), _mp_cdf(t)), t


def test_sf_terms_clamps_as_min_max():
    # the clamp's comparisons give min(max(s, 0.0), 1.0) as the same float
    # below 0, above 1 and at NaN (math.fsum never returns -0.0)
    for a in [(-1.0,), (-0.0,), (0.5,), (5.0,), (1.0, -1.0), (2.0, -0.5)]:
        for c in [0.0, 1e-3, 0.5, 3.0, math.inf, math.nan]:
            u, terms = c, []
            for ak in a:
                u += u
                if math.exp(-u) == 0.0:
                    break
                terms.append(ak * math.exp(-u))
            got, ref = _sf_terms(c, a), _ref_clamp(math.fsum(terms))
            assert struct.pack("<d", got) == struct.pack("<d", ref), (a, c)


def test_q_tail_bit_identical_to_termwise_loop():
    # 1 - P(S > t) from t = 2^(eta - j) = 1 on, the piece table below
    a = mixture_coefficients()
    for eta in ETA_GRID:
        for j in J_GRID:
            t = _c(eta, j - 1)
            if t >= 1.0:
                assert q_tail(eta, j) == 1.0 - _ref_sf(t, a), (eta, j)
            else:
                assert _table_close(q_tail(eta, j), _mp_cdf(t)), (eta, j)


def test_q_cdf_and_pmf_match_termwise_loop():
    a = mixture_coefficients()
    checked = 0
    for eta in ETA_GRID:
        for j in J_GRID:
            for got, ref in ((q_cdf(eta, j), _ref_q_cdf(eta, j, a)),
                             (q_pmf(eta, j), _ref_q_pmf(eta, j, a))):
                if ref >= 1e-6:
                    assert got == pytest.approx(ref, rel=1e-10, abs=0), (
                        eta, j)
                    checked += 1
    assert checked > len(ETA_GRID) * len(J_GRID)


# The Q_eta forms before one series pass per call: the branch read off a
# computed direct value, and q_pmf from three separate series past the median.

def _c(eta, x):
    # c = 2^(eta - 1 - floor(x)), rounded once, as the Q_eta functions form it
    try:
        return math.ldexp(2.0 ** eta, -1 - math.floor(x))
    except OverflowError:
        return math.inf


def _two_pass_q_cdf(eta, x, a):
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    c = _c(eta, x)
    direct = _sf_terms(c, a)
    return direct if direct <= 0.5 else 1.0 - _ref_cdf(c, a)


def _three_pass_q_pmf(eta, j, a):
    if math.isinf(j):
        return 0.0
    c = _c(eta, j)
    left = _sf_terms(c + c, a)
    if left <= 0.5:
        return max(_sf_terms(c, a) - left, 0.0)
    return max(_ref_cdf(c + c, a) - _ref_cdf(c, a), 0.0)


def _near(c):
    return (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))


# c at and beside the median crossing (for q_cdf at c, for q_pmf at 2c) and
# within 1e-4 either side, at 40 * 2^-k, where -expm1(-2^k c) reaches 1.0
# (k = 33, 34 past the 32 coefficients), where 2^k c crosses exp's
# underflow, and at the ends of the float range
ONE_PASS_C = sorted({
    v for c in (_MEDIAN_C, _MEDIAN_C / 2, 0.8727, 0.8728, 0.87275,
                *(40.0 * 2.0 ** -k for k in range(0, 35)),
                *(745.1332191019412 * 2.0 ** -k for k in range(0, 12)),
                1e-300, 5e-324, 1e300, 1.7e308)
    for v in _near(c)} | {0.0, math.inf})


def test_pmf_coefficients_are_the_exact_differences():
    a = mixture_coefficients()
    assert len(_D) == 33
    for k, ak in enumerate(a):
        assert _D[k].hex() == (ak - (a[k - 1] if k else 0.0)).hex(), k + 1
    assert _D[32] == -a[31]


def test_q_cdf_bit_identical_and_q_pmf_within_1e_15_of_separate_series():
    # eta = 0.80364: q_cdf(eta, 0) has c = 0.872750 and q_pmf(eta, 1) has
    # 2c beside the median; the log2 etas put c (for x = 0) or 2c (for
    # j = 1) at and beside _MEDIAN_C. On the series side (c >= _MEDIAN_C
    # for q_cdf, 2c >= 1 for q_pmf) q_cdf is the two-pass value bit for bit,
    # and q_pmf's one series of differences is within 8.3e-16 of
    # _three_pass_q_pmf's two; on the table side both are checked against
    # mpmath: 1 - F(c) and F(2c) - F(c)
    a = mixture_coefficients()
    etas = set(ETA_GRID) | {0.80364}
    etas.update(_near(1.0 + math.log2(_MEDIAN_C)))
    xs = [*J_GRID, 30, 40, 1000, -1022, -1100, -math.inf, math.inf]
    for eta in sorted(etas):
        for x in xs:
            c = _c(eta, x) if math.isfinite(x) else math.inf
            if c >= _MEDIAN_C:
                assert (q_cdf(eta, x).hex()
                        == _two_pass_q_cdf(eta, x, a).hex()), (eta, x)
            else:
                assert _table_close(q_cdf(eta, x), 1 - _mp_cdf(c)), (eta, x)
            if c + c >= 1.0:
                assert abs(q_pmf(eta, x)
                           - _three_pass_q_pmf(eta, x, a)) <= 1e-15, (eta, x)
            else:
                assert _table_close(q_pmf(eta, x),
                                    _mp_cdf(c + c) - _mp_cdf(c)), (eta, x)
    assert abs(2.0 ** (0.80364 - 1) - _MEDIAN_C) < 1e-4


@lru_cache(maxsize=None)
def _mp_law(t):
    """(P(S <= t), P(S > t)) for an mpf t, from 40 mixture terms at 80
    digits, far more than the cancellation near t = 0 can consume."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        b = mp.mpf(1)
        for j in range(1, 300):
            b /= 1 - mp.ldexp(1, -j)
        a = [b]
        for k in range(1, 40):
            a.append(a[-1] / (1 - mp.ldexp(1, k)))
        sf = mp.fsum(ak * mp.exp(-mp.ldexp(t, k))
                     for k, ak in enumerate(a, start=1))
        return 1 - sf, sf


def test_scalar_series_against_mpmath():
    mp = pytest.importorskip("mpmath")

    def close(got, ref):
        # relative, over the normal-float range
        if ref >= 1e-290:
            assert got == pytest.approx(float(ref), rel=1e-9, abs=0)
            return 1
        return 0

    checked = 0
    for t in T_GRID:
        cdf, sf = _mp_law(mp.mpf(t))
        checked += close(s_infinity_cdf(t), cdf)
        checked += close(s_infinity_sf(t), sf)
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        with mp.workdps(80):
            c = {j: mp.mpf(2) ** (mp.mpf(eta) - 1 - j)
                 for j in range(J_GRID.start - 1, J_GRID.stop)}
        for j in J_GRID:
            cdf_j, sf_j = _mp_law(c[j])
            cdf_left, sf_left = _mp_law(c[j - 1])
            checked += close(q_cdf(eta, j), sf_j)
            checked += close(q_tail(eta, j), cdf_left)
            checked += close(q_pmf(eta, j), sf_j - sf_left)
    assert checked > 600


def test_cdf_from_one_on_within_1_eps_of_mpmath():
    # 1 - P(S > t) against 60 digits, relative, at 321 points of [1, 21]
    # and at every q_tail of the grids with t = 2^(eta - j) >= 1 (0.57 eps
    # measured; the expm1 series it replaced reached 4.48 eps)
    mp = pytest.importorskip("mpmath")

    def within_1_eps(got, t):
        ref = _mp_cdf(t)
        return abs(mp.mpf(got) - ref) <= EPS * ref

    for t in (1.0 + i / 16 for i in range(321)):
        assert within_1_eps(s_infinity_cdf(t), t), t
    checked = 0
    for eta in ETA_GRID:
        for j in J_GRID:
            t = _c(eta, j - 1)
            if t >= 1.0:
                assert within_1_eps(q_tail(eta, j), t), (eta, j)
                checked += 1
    assert checked > 200


def test_sf_within_1_eps_of_mpmath():
    # P(S > t) against 60 digits, relative, at t = 2^(e/8), e = -240..64:
    # 1 minus the piece table below the median, the series from it on
    # (0.88 eps measured; the series alone reached 2.74 eps at t = 0.0241)
    mp = pytest.importorskip("mpmath")
    a = _mp_mixture(60)
    with mp.workdps(60):
        for e in range(-240, 65):
            t = 2.0 ** (e / 8)
            ref = mp.fsum(ak * mp.exp(-mp.ldexp(t, k))
                          for k, ak in enumerate(a, start=1))
            assert abs(mp.mpf(s_infinity_sf(t)) - ref) <= EPS * ref, t


def test_q_cdf_is_s_infinity_sf_at_its_c():
    # one source for P(S > c): q_cdf(eta, x) is s_infinity_sf at its own
    # c = 2^(eta - 1 - floor(x)), bit for bit, on both sides of the median
    rng = np.random.default_rng(28)
    pairs = [(eta, x) for eta in ETA_GRID for x in J_GRID]
    pairs += [(eta, 0) for eta in _near(1.0 + math.log2(_MEDIAN_C))]
    pairs += zip(rng.random(2000).tolist(),
                 (rng.integers(-12, 60, 2000) + rng.random(2000)).tolist())
    sides = set()
    for eta, x in pairs:
        c = _c(eta, x)
        assert q_cdf(eta, x).hex() == s_infinity_sf(c).hex(), (eta, x)
        sides.add(c < _MEDIAN_C)
    assert sides == {True, False}


def test_q_pmf_against_mpmath_including_left_tail():
    # absolute error, at every eta of ETA_GRID
    mp = pytest.importorskip("mpmath")
    for eta in ETA_GRID:
        with mp.workdps(80):
            c = {j: mp.mpf(2) ** (mp.mpf(eta) - 1 - j)
                 for j in range(J_GRID.start - 1, J_GRID.stop)}
        for j in J_GRID:
            ref = _mp_law(c[j])[1] - _mp_law(c[j - 1])[1]
            assert abs(q_pmf(eta, j) - float(ref)) <= 2e-15, (eta, j)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.80364, 1.0])
def test_tv_vs_limit_slack_covers_the_window_rounding(eta):
    # a law on [-2, 3] against Q_eta: the bound is at least the 80-digit TV
    # (Q_eta masses on [-30, 40], the rest below 1e-40) and within twice
    # its slack, which counts 24 eps per window mass
    mp = pytest.importorskip("mpmath")
    pmf = IntPmf(-2, np.array([0.05, 0.25, 0.35, 0.2, 0.1, 0.05]))
    bound, slack = tv_vs_limit(pmf, eta)
    lo, masses, outside = limit_pmf_window(eta, -8, 10)
    assert slack == 0.5 * (outside + masses.size * 24 * EPS)
    with mp.workdps(80):
        c = {j: mp.mpf(2) ** (mp.mpf(eta) - 1 - j) for j in range(-31, 41)}
        truth = mp.fsum(abs(mp.mpf(pmf.prob(j)) - _mp_law(c[j])[1]
                            + _mp_law(c[j - 1])[1])
                        for j in range(-30, 41)) / 2
        assert mp.mpf(bound) >= truth
        assert mp.mpf(bound) - truth <= 2 * mp.mpf(slack)


def test_median_c_is_the_crossing():
    # c < _MEDIAN_C picks the side _sf_terms(c) > 1/2 would: at the
    # crossing, at every float within 10^4 ulps of it, and at ONE_PASS_C
    mp = pytest.importorskip("mpmath")
    a = mixture_coefficients()
    assert _sf_terms(_MEDIAN_C, a) <= 0.5 < _sf_terms(
        math.nextafter(_MEDIAN_C, 0.0), a)
    lo = hi = _MEDIAN_C
    near = [_MEDIAN_C]
    for _ in range(10 ** 4):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        near += (lo, hi)
    for c in near + ONE_PASS_C:
        assert (c < _MEDIAN_C) == (_sf_terms(c, a) > 0.5), c
    with mp.workdps(30):
        median = mp.findroot(lambda t: _mp_law(t)[1] - 0.5, mp.mpf(0.87275))
    assert abs(_MEDIAN_C - median) < 1e-15


def test_q_extreme_arguments():
    for eta in (0.0, 0.4, 1.0):
        for low, high in ((-10 ** 6, 10 ** 6), (-math.inf, math.inf),
                          (np.float64(-math.inf), np.float64(math.inf))):
            assert q_cdf(eta, low) == 0.0
            assert q_cdf(eta, high) == 1.0
            assert q_tail(eta, low) == 1.0
            assert q_tail(eta, high) == 0.0
            assert q_pmf(eta, low) == 0.0
            assert q_pmf(eta, high) == 0.0


def test_scalar_inputs_numpy_scalars_and_0d_arrays():
    for t in (np.float64(0.75), np.float32(0.75), np.array(0.75)):
        v = s_infinity_cdf(t)
        assert type(v) is float and v == s_infinity_cdf(0.75)
        w = s_infinity_sf(t)
        assert type(w) is float and w == s_infinity_sf(0.75)
    assert (s_infinity_cdf(np.int64(2)) == s_infinity_cdf(2)
            == s_infinity_cdf(2.0))
    assert q_cdf(np.float64(0.3), np.int64(2)) == q_cdf(0.3, 2)
    assert q_pmf(np.float64(0.3), np.float64(2.5)) == q_pmf(0.3, 2)
    assert q_tail(np.float64(0.3), np.int32(2)) == q_tail(0.3, 2)
    assert (s_infinity_cdf(1e300) == s_infinity_cdf(math.inf)
            == s_infinity_cdf(10 ** 400) == 1.0)
    assert s_infinity_sf(math.inf) == s_infinity_sf(10 ** 400) == 0.0


@pytest.mark.parametrize("bad", [math.nan, -0.1, -math.inf, np.float64(-1.0),
                                 np.array(math.nan),
                                 pytest.param(-10 ** 400, id="-10**400")])
def test_scalar_series_reject_negative_and_nan(bad):
    with pytest.raises(ValueError):
        s_infinity_cdf(bad)
    with pytest.raises(ValueError):
        s_infinity_sf(bad)


@pytest.mark.parametrize("bad", [math.nan, np.float64(math.nan)])
def test_q_series_reject_nan_naming_the_argument(bad):
    with pytest.raises(ValueError, match="^x "):
        q_cdf(0.5, bad)
    with pytest.raises(ValueError, match="^j "):
        q_pmf(0.5, bad)
    with pytest.raises(ValueError, match="^j "):
        q_tail(0.5, bad)


@pytest.mark.parametrize("bad", [np.array([0.5, math.nan]),
                                 np.array([math.nan, 1.0]),
                                 np.array([1.0, -0.25])])
def test_array_series_reject_negative_and_nan(bad):
    with pytest.raises(ValueError, match="^t "):
        s_infinity_cdf(bad)


def test_limit_pmf_window_outside_mass_is_negligible():
    # every window covers at least [-8, 10], a narrower request included;
    # off it Q_eta carries under 1e-14 at every eta
    for eta in np.linspace(0.0, 1.0, 101):
        lo, masses, outside = limit_pmf_window(eta, -8, 10)
        assert lo == -8 and masses.size == 19
        assert 0.0 <= outside < 1e-14, eta
        lo2, masses2, outside2 = limit_pmf_window(eta, -3, 4)
        assert (lo2, masses2.tolist(), outside2) == (
            lo, masses.tolist(), outside)


# ---- the piece table of P(S <= t) on (0, 1) --------------------------------

EPS = 2.0 ** -52
TABLE_RTOL = 4 * EPS


@lru_cache(maxsize=None)
def _mp_mixture(dps: int):
    """a_1, a_2, ... at dps digits, until |a_k| < 2^-(7 dps) < 10^-(2 dps)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        b = mp.mpf(1)
        for j in range(1, 4 * dps):
            b /= 1 - mp.ldexp(1, -j)
        a = [b]
        while abs(a[-1]) > mp.ldexp(1, -7 * dps):
            a.append(a[-1] / (1 - mp.ldexp(1, len(a))))
        return tuple(a)


@lru_cache(maxsize=None)
def _mp_cdf(t: float, dps: int = 0):
    """P(S <= t) as an mpf. The series cancels from order 1 down to F(t),
    about 10^-(0.16 j^2 + 0.4 j) at t = 2^-j (1e-336 at 2^-44, a few
    digits below that estimate), so the default dps is that plus 60. Below
    2^-44 it returns 0, within F(2^-44) < 2^-1116 of the truth."""
    mp = pytest.importorskip("mpmath")
    if t < 2.0 ** -44:
        return mp.mpf(0)
    j = max(-math.floor(math.log2(t)), 0)
    dps = dps or 60 + math.ceil(0.16 * j * j + 0.4 * j)
    with mp.workdps(dps):
        return mp.fsum(ak * -mp.expm1(-mp.ldexp(t, k))
                       for k, ak in enumerate(_mp_mixture(dps), start=1))


def _table_close(got: float, ref) -> bool:
    """|got - ref| <= 4 eps ref, plus half the least subnormal for a value
    that rounds into (or under) the subnormal range."""
    mp = pytest.importorskip("mpmath")
    return abs(mp.mpf(got) - ref) <= TABLE_RTOL * abs(ref) + mp.ldexp(1, -1075)


def test_left_tail_under_the_papers_bound():
    # P(S <= 2^-j) <= 2^(-j(j-1)/2), and every value is a normal float
    for j in range(2, 41):
        v = s_infinity_cdf(2.0 ** -j)
        assert 2.0 ** -1022 < v <= 2.0 ** (-j * (j - 1) / 2), j
    for t, want in ((2.0 ** -9, 1.965e-19), (2.0 ** -10, 2.887e-23)):
        assert s_infinity_cdf(t) == pytest.approx(float(_mp_cdf(t)),
                                                  rel=1e-14, abs=0)
        assert s_infinity_cdf(t) == pytest.approx(want, rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(min_value=0, max_value=42),
       m=st.floats(min_value=0.5, max_value=1.0, exclude_max=True))
def test_table_against_mpmath(j, m):
    # t = m 2^-j covers [2^-43, 1) octave by octave; 380 digits leave over
    # 40 past the series' cancellation at every t
    t = math.ldexp(m, -j)
    got = s_infinity_cdf(t)
    assert _table_close(got, _mp_cdf(t, 380)), (t, got)
    assert q_tail(0.0, j) == s_infinity_cdf(2.0 ** -j)


def test_table_is_zero_below_2_to_minus_43():
    for t in (0.0, 5e-324, 1e-300, math.nextafter(2.0 ** -43, 0.0)):
        assert s_infinity_cdf(t) == 0.0
    assert s_infinity_cdf(np.array([0.0, 1e-300, 2.0 ** -44])).tolist() == [
        0.0, 0.0, 0.0]


@pytest.mark.parametrize("j", [10, 14, 18])
def test_table_against_talbot_inversion(j):
    # E[exp(-sS)] = prod_k (1 + s 2^-k)^-1 shares no formula with the
    # mixture series; P(S <= t) inverts that transform divided by s
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        terms = 64 + 4 * j      # |s| 2^-terms < 1e-30 on Talbot's contour

        def transform(s):
            return 1 / (s * mp.fprod(1 + s * mp.ldexp(1, -k)
                                     for k in range(1, terms)))

        ref = mp.invertlaplace(transform, mp.ldexp(1, -j), method="talbot")
        assert _table_close(s_infinity_cdf(2.0 ** -j), ref), j


def _monotone_grid(start: float, factors) -> list[float]:
    t = [start]
    for f in factors:
        t.append(t[-1] * f)
    return t


@settings(max_examples=60, deadline=None)
@given(log2_start=st.floats(min_value=-44.0, max_value=0.9),
       steps=st.lists(st.integers(min_value=1, max_value=2 ** 36),
                      min_size=1, max_size=40))
def test_s_infinity_cdf_nondecreasing_on_fine_grids(log2_start, steps):
    # neighbours differ by a ratio of 1 + k 2^-40 (k >= 1) up to one rounding
    t = [x for x in _monotone_grid(2.0 ** log2_start,
                                   [1.0 + k * 2.0 ** -40 for k in steps])
         if x <= 2.0]
    vals = [s_infinity_cdf(x) for x in t]
    assert all(a <= b for a, b in zip(vals, vals[1:])), t
    arr = s_infinity_cdf(np.array(t))
    assert np.all(np.diff(arr) >= 0), t


def test_s_infinity_cdf_nondecreasing_across_octave_edges():
    # 41 points 2^-40 apart in ratio around every piece edge
    # (1/2 + p/16) 2^-j, j = 0..43, the octave edges among them, and around
    # t = 1 and 2
    edges = [math.ldexp(8 + p, -4 - j) for j in range(44) for p in range(8)]
    for edge in edges + [1.0, 2.0]:
        start = edge * (1.0 - 20 * 2.0 ** -40)
        t = _monotone_grid(start, [1.0 + 2.0 ** -40] * 40)
        vals = [s_infinity_cdf(x) for x in t]
        assert all(a <= b for a, b in zip(vals, vals[1:])), edge
        assert np.all(np.diff(s_infinity_cdf(np.array(t))) >= 0), edge


def test_table_cdf_is_the_horner_loop_bit_for_bit():
    # the written-out Horner sum repeats the loop's operations in order, at
    # both ends and 6 random points of every one of the 344 pieces
    rng = np.random.default_rng(11)
    for row, (exponent, coeffs) in enumerate(ROWS):
        j, p = divmod(row, 8)
        lo = math.ldexp(0.5 + p / 16, -j)
        hi = math.nextafter(math.ldexp(0.5 + (p + 1) / 16, -j), 0.0)
        for t in [lo, hi, *rng.uniform(lo, hi, 6)]:
            m, _ = math.frexp(t)
            y = 2.0 * (16.0 * m - int(16.0 * m)) - 1.0
            s = coeffs[-1]
            for c in coeffs[-2::-1]:
                s = s * y + c
            assert _table_cdf(t) == math.ldexp(2.0 ** s, exponent), (row, t)


def test_array_is_the_scalar_values_bit_for_bit():
    rng = np.random.default_rng(3)
    t = np.concatenate([
        np.ldexp(rng.uniform(0.5, 1.0, 20000), rng.integers(-43, 1, 20000)),
        2.0 ** -np.arange(1.0, 46.0), [0.0, 5e-324, math.nextafter(1.0, 0.0)],
        [1.0, 1.5, 2.0, 19.9, 20.0, 40.0, 1e300, math.inf],
        rng.uniform(1.0, 64.0, 200)])
    arr = s_infinity_cdf(t)
    assert arr.shape == t.shape and arr.dtype == np.float64
    assert arr.tobytes() == np.array([s_infinity_cdf(x)
                                      for x in t.tolist()]).tobytes()
    grid = t[:600].reshape(20, 30)
    assert s_infinity_cdf(grid).tobytes() == arr[:600].tobytes()
    for empty in (np.empty(0), np.empty((0, 3))):
        out = s_infinity_cdf(empty)
        assert out.shape == empty.shape and out.dtype == np.float64


def _table_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_s_table.py"
    spec = importlib.util.spec_from_file_location("make_s_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("j", [0, 12, 40])
def test_table_rows_match_their_generator(j):
    # the eight pieces of octaves 0, 12 and 40, rows 8 j .. 8 j + 7
    pytest.importorskip("mpmath")
    generator = _table_generator()
    assert len(ROWS) == 43 * 8
    for p in range(8):
        exponent, coeffs = generator.piece(j, p)
        row = ROWS[8 * j + p]
        assert len(row[1]) == 16
        assert row[0] == exponent
        assert [c.hex() for c in row[1]] == [c.hex() for c in coeffs], p


@pytest.mark.parametrize("eta, j", [(0.3, 20), (0.3, 40), (0.77, 12),
                                    (0.5, 33), (1e-20, 25)])
def test_deep_q_values_round_c_once(eta, j):
    # t = 2^(eta - j) is 2.0**eta scaled by an exact power of two, one
    # rounding of relative size at most 2^-53; F moves by kappa = t F'(t) /
    # F(t) (about j + 4: 45 at j = 40) times that. So the value is within
    # the table's 4 eps of F at the float t, and within 4 eps plus
    # kappa 2^-53 of F at the exact 2^(eta - j). Rounding eta - j first
    # drops low bits of eta: q_tail(0.3, 40) was 395 eps off that way.
    mp = pytest.importorskip("mpmath")
    t = math.ldexp(2.0 ** eta, -j)
    assert q_tail(eta, j) == _table_cdf(t) and q_cdf(eta, j) == 1.0
    assert q_pmf(eta, j) == _table_cdf(t) - _table_cdf(t / 2)
    dps = 60 + math.ceil(0.16 * j * j + 0.4 * j)
    with mp.workdps(dps):
        exact = mp.mpf(2) ** (mp.mpf(eta) - j)
        a = _mp_mixture(dps)
        f = mp.fsum(ak * -mp.expm1(-mp.ldexp(exact, k))
                    for k, ak in enumerate(a, start=1))
        density = mp.fsum(ak * mp.ldexp(1, k) * mp.exp(-mp.ldexp(exact, k))
                          for k, ak in enumerate(a, start=1))
        kappa = exact * density / f
        assert _table_close(q_tail(eta, j), _mp_cdf(t))
        assert abs(q_tail(eta, j) - f) <= (TABLE_RTOL + kappa * 2.0 ** -53) * f
        assert kappa < j + 6


# sha256 of the scalar values below, packed as little-endian binary64: a
# speed-up of any scalar evaluator must leave every one of them bit for bit
_SCALAR_DIGEST = (
    "75cf8cadf4f81d23d0cdc01cacb2590aed54432c6cb48f15cb55be5e34e821df")


def test_scalar_values_match_their_recorded_digest():
    etas = [i / 7 for i in range(8)]
    xs = [-8 + k / 4 for k in range(84)] + list(range(13, 61))
    ts = [2.0 ** (e / 8) for e in range(-360, 81)]
    vals = [f(eta, x) for f in (q_cdf, q_pmf, q_tail)
            for eta in etas for x in xs]
    vals += [f(t) for f in (s_infinity_cdf, s_infinity_sf) for t in ts]
    data = struct.pack(f"<{len(vals)}d", *vals)
    assert len(vals) == 4050
    assert hashlib.sha256(data).hexdigest() == _SCALAR_DIGEST


def _q_args(c):
    """(eta, j) whose q_pmf argument ldexp(2.0**eta, -1 - j) is near c."""
    m, e = math.frexp(c)
    return math.log2(2.0 * m), -e


def test_q_pmf_pair_read_is_two_table_reads():
    # q_pmf reads P(S <= 2c) and P(S <= c) from one frexp; that must equal
    # two _table_cdf calls at both ends and 4 random points of every piece
    # 2c lies in, and across _TABLE_LO for c and for 2c
    rng = np.random.default_rng(29)
    targets = []
    for row in range(len(ROWS)):
        j, p = divmod(row, 8)
        lo = math.ldexp(0.5 + p / 16, -j - 1)
        hi = math.nextafter(math.ldexp(0.5 + (p + 1) / 16, -j - 1), 0.0)
        targets += [lo, hi, *rng.uniform(lo, hi, 4)]
    for edge in (_TABLE_LO, _TABLE_LO / 2):
        targets += [edge * (1.0 + k * 2.0 ** -40) for k in range(-20, 21)]
    seen = set()
    for target in targets:
        eta, j = _q_args(target)
        for eta in (math.nextafter(eta, 0.0), eta, math.nextafter(eta, 1.0)):
            c = math.ldexp(2.0 ** eta, -1 - j)
            if not (0.0 <= eta <= 1.0 and c + c < 1.0):
                continue
            ref = _table_cdf(c + c) - _table_cdf(c)
            assert q_pmf(eta, j) == ref, (eta, j)
            seen.add((c < _TABLE_LO, c + c < _TABLE_LO))
    assert seen == {(False, False), (True, False), (True, True)}
