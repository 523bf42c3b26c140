import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewal_dst import (
    IntPmf,
    mixture_coefficients,
    q_cdf,
    q_pmf,
    q_tail,
    s_infinity_cdf,
    s_infinity_sf,
    sample_q,
    sample_s_infinity,
)
from renewal_dst.limit_law import (
    _MEDIAN_BAND,
    _Q_HI,
    _Q_LO,
    _cdf_pair,
    _cdf_terms,
    _past_median,
    _q_table,
    _sf_pair,
    _sf_terms,
    euler_b,
    exp_convolution_cdf,
    partial_fraction_coefficients,
)
from renewal_dst.metrics import (
    empirical_cdf_jumps,
    ks_discrete_vs_continuous,
    limit_pmf_window,
    tv_vs_limit,
)
from renewal_dst.rng import stream_rng


def test_euler_b_value():
    b = euler_b()
    assert 3.4627466 < b < 3.4627467
    assert b > 1.0
    recip = math.prod(1 - 2.0 ** -j for j in range(1, 65))
    assert 1.0 / b == pytest.approx(recip, rel=1e-15)


def test_mixture_coefficients():
    a = mixture_coefficients()
    b = euler_b()
    assert len(a) == 32 and mixture_coefficients() is a
    assert a[0] == b
    assert a[1] == -b
    assert a[2] == pytest.approx(b / 3, rel=1e-15)
    for k in range(1, 32):
        assert math.copysign(1, a[k]) == -math.copysign(1, a[k - 1])
        assert abs(a[k]) / abs(a[k - 1]) == pytest.approx(
            1.0 / (2.0 ** k - 1), rel=1e-12)
    assert math.fsum(a) == pytest.approx(1.0, abs=1e-13)


def test_partial_fraction_coefficients():
    assert np.allclose(partial_fraction_coefficients(1), [1.0])
    assert np.allclose(partial_fraction_coefficients(2), [2.0, -1.0])
    for n in range(1, 13):
        assert partial_fraction_coefficients(n).sum() == pytest.approx(
            1.0, abs=1e-12)
    with pytest.raises(ValueError):
        partial_fraction_coefficients(0)
    with pytest.raises(ValueError):
        partial_fraction_coefficients(33)


def test_s_infinity_cdf_endpoints():
    assert s_infinity_cdf(0.0) == 0.0
    assert s_infinity_cdf(1e300) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        s_infinity_cdf(-0.1)
    xs = np.linspace(0, 4, 200)
    vals = s_infinity_cdf(xs)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_s_infinity_left_tail_bound():
    for j in range(2, 9):
        assert s_infinity_cdf(2.0 ** -j) <= 2.0 ** (-j * (j - 1) / 2)


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
    for x in range(-6, 20):
        assert q_cdf(0.0, x) == q_cdf(1.0, x + 1)
        assert q_pmf(0.0, x) == q_pmf(1.0, x + 1)


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


@pytest.fixture(scope="module")
def s_infinity_draws():
    return sample_s_infinity(stream_rng(20070201, 11), 64, size=10 ** 6)


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


def test_exp_convolution_cdf_three_terms():
    rng = stream_rng(20070201, 10)
    draws = (rng.exponential(1 / 2, 10 ** 6) + rng.exponential(1 / 4, 10 ** 6)
             + rng.exponential(1 / 8, 10 ** 6))
    ks = ks_discrete_vs_continuous(*empirical_cdf_jumps(draws),
                                   lambda x: exp_convolution_cdf(3, x))
    assert ks <= 0.002


def test_sample_q_in_unit_band_when_s_in_half_one():
    rng = stream_rng(123, 9)
    s = sample_s_infinity(rng, 64, size=5000)
    q = np.floor(-np.log2(s))
    sel = (s > 0.5) & (s <= 1.0)
    assert np.all(q[sel] == 0)


def test_sample_q_eta_shift_under_shared_stream():
    q0 = sample_q(0.0, stream_rng(5, 7), size=2000)
    q1 = sample_q(1.0, stream_rng(5, 7), size=2000)
    assert np.array_equal(q1, q0 + 1)


def test_sample_q_scalar():
    v = sample_q(0.5, stream_rng(7, 7))
    assert isinstance(v, int)
    assert v == sample_q(0.5, stream_rng(7, 7), size=1)[0]
    s = sample_s_infinity(stream_rng(7, 7))
    assert isinstance(s, float)
    assert s == sample_s_infinity(stream_rng(7, 7), 64, size=1)[0]


@pytest.mark.parametrize("size", [(3, 4), 0, (2, 0), (500, 400)])
def test_sample_q_shapes_match_flat_draws(size):
    q = sample_q(0.5, stream_rng(9, 3), size=size)
    assert q.dtype == np.int64 and q.shape == np.zeros(size).shape
    flat = sample_q(0.5, stream_rng(9, 3), size=q.size)
    assert np.array_equal(q.reshape(-1), flat)


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

# The termwise loops the scalar functions used before the two series kernels:
# every term formed, 2^k t as (2.0**k) * t, no early exit.

def _ref_clamp(v):
    return min(max(v, 0.0), 1.0)


def _ref_cdf(t, a):
    return _ref_clamp(math.fsum(ak * -math.expm1(-(2.0 ** k) * t)
                                for k, ak in enumerate(a, start=1)))


def _ref_sf(x, a):
    return _ref_clamp(math.fsum(ak * math.exp(-(2.0 ** k) * x)
                                for k, ak in enumerate(a, start=1)))


def _ref_q_tail(eta, j, a):
    e = eta - j
    return _ref_cdf(2.0 ** e if e < 1024 else math.inf, a)


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


def test_saturation_exit_is_exact():
    # _cdf_terms appends a_k unchanged once 2^k t >= 40
    for u in (40.0, 40.5, 64.0, 745.0, 1e300, math.inf):
        assert -math.expm1(-u) == 1.0


@pytest.mark.parametrize("order", [1, 5, 32])
def test_scalar_s_infinity_bit_identical_to_termwise_loop(order):
    # the kernels on prefixes of the one coefficient tuple; the full tuple
    # is what s_infinity_cdf and s_infinity_sf use
    a = mixture_coefficients()[:order]
    for t in T_GRID + [0.0, 5e-324, 1e-300, 1e300, math.inf]:
        assert _cdf_terms(t, a) == _ref_cdf(t, a), t
        assert _sf_terms(t, a) == _ref_sf(t, a), t
        if order == 32:
            assert s_infinity_cdf(t) == _ref_cdf(t, a), t
            assert s_infinity_sf(t) == _ref_sf(t, a), t


def test_exp_convolution_scalar_bit_identical_to_termwise_loop():
    for n in (1, 2, 3, 9, 32):
        a = partial_fraction_coefficients(n)
        for t in T_GRID:
            assert exp_convolution_cdf(n, t) == _ref_cdf(t, a), (n, t)


def test_q_tail_bit_identical_to_termwise_loop():
    a = mixture_coefficients()
    for eta in ETA_GRID:
        for j in J_GRID:
            assert q_tail(eta, j) == _ref_q_tail(eta, j, a), (eta, j)


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
    e = eta - (math.floor(x) + 1)
    return 2.0 ** e if e < 1024 else math.inf


def _two_pass_q_cdf(eta, x, a):
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    c = _c(eta, x)
    direct = _sf_terms(c, a)
    return direct if direct <= 0.5 else 1.0 - _cdf_terms(c, a)


def _three_pass_q_pmf(eta, j, a):
    if math.isinf(j):
        return 0.0
    c = _c(eta, j)
    left = _sf_terms(c + c, a)
    if left <= 0.5:
        return max(_sf_terms(c, a) - left, 0.0)
    return max(_cdf_terms(c + c, a) - _cdf_terms(c, a), 0.0)


def _near(c):
    return (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))


# c at and beside both band edges and the median of S, at each saturation
# exit 40 * 2^-k of the expm1 pass (k = 33, 34 past the 32 coefficients),
# where 2^k c crosses exp's underflow, and at the ends of the float range
ONE_PASS_C = sorted({
    v for c in (*_MEDIAN_BAND, 0.87275, *(b / 2 for b in _MEDIAN_BAND),
                *(40.0 * 2.0 ** -k for k in range(0, 35)),
                *(745.1332191019412 * 2.0 ** -k for k in range(0, 12)),
                1e-300, 5e-324, 1e300, 1.7e308)
    for v in _near(c)} | {0.0, math.inf})


def test_one_pass_kernels_bit_identical_to_separate_series():
    a = mixture_coefficients()
    for c in ONE_PASS_C:
        assert _past_median(c, a) == (_sf_terms(c, a) > 0.5), c
        for got, ref in zip((*_sf_pair(c, a), *_cdf_pair(c, a)),
                            (_sf_terms(c, a), _sf_terms(c + c, a),
                             _cdf_terms(c, a), _cdf_terms(c + c, a))):
            assert got.hex() == ref.hex(), c


def test_q_cdf_and_pmf_bit_identical_to_separate_series():
    # eta = 0.80364: q_cdf(eta, 0) has c = 0.872750 and q_pmf(eta, 1) has
    # 2c in the band; the log2 etas put c (for x = 0) or 2c (for j = 1) at
    # and beside each band edge
    a = mixture_coefficients()
    etas = set(ETA_GRID) | {0.80364}
    for edge in _MEDIAN_BAND:
        etas.update(_near(1.0 + math.log2(edge)))
    xs = [*J_GRID, 30, 40, 1000, -1022, -1100, -math.inf, math.inf]
    for eta in sorted(etas):
        for x in xs:
            assert (q_cdf(eta, x).hex()
                    == _two_pass_q_cdf(eta, x, a).hex()), (eta, x)
            assert (q_pmf(eta, x).hex()
                    == _three_pass_q_pmf(eta, x, a).hex()), (eta, x)
    assert _MEDIAN_BAND[0] < 2.0 ** (0.80364 - 1) < _MEDIAN_BAND[1]


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

    def close(got, ref, floor):
        # floor: 1e-6 where the value reads the left tail of S, whose
        # cancelling float series loses relative accuracy (a known defect);
        # otherwise the normal-float range
        if ref >= floor:
            assert got == pytest.approx(float(ref), rel=1e-9, abs=0)
            return 1
        return 0

    checked = 0
    for t in T_GRID:
        cdf, sf = _mp_law(mp.mpf(t))
        checked += close(s_infinity_cdf(t), cdf, 1e-6)
        checked += close(s_infinity_sf(t), sf, 1e-290)
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        with mp.workdps(80):
            c = {j: mp.mpf(2) ** (mp.mpf(eta) - 1 - j)
                 for j in range(J_GRID.start - 1, J_GRID.stop)}
        for j in J_GRID:
            cdf_j, sf_j = _mp_law(c[j])
            cdf_left, sf_left = _mp_law(c[j - 1])
            checked += close(q_cdf(eta, j), sf_j, 1e-290)
            checked += close(q_tail(eta, j), cdf_left, 1e-6)
            checked += close(q_pmf(eta, j), sf_j - sf_left, 1e-6)
    assert checked > 300


def test_median_band_certificate():
    # outside the band the side of the median follows from c alone: each
    # end's margin is far above _sf_terms' float error (~1e-14), and the
    # median of S lies strictly inside
    mp = pytest.importorskip("mpmath")
    lo, hi = _MEDIAN_BAND
    a = mixture_coefficients()
    assert _sf_terms(lo, a) - 0.5 > 1e-9
    assert 0.5 - _sf_terms(hi, a) > 1e-9
    with mp.workdps(30):
        median = mp.findroot(lambda t: _mp_law(t)[1] - 0.5, mp.mpf(0.87275))
    assert lo < median < hi


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
        u = exp_convolution_cdf(3, t)
        assert type(u) is float and u == exp_convolution_cdf(3, 0.75)
    assert (s_infinity_cdf(np.int64(2)) == s_infinity_cdf(2)
            == s_infinity_cdf(2.0))
    assert q_cdf(np.float64(0.3), np.int64(2)) == q_cdf(0.3, 2)
    assert q_pmf(np.float64(0.3), np.float64(2.5)) == q_pmf(0.3, 2)
    assert q_tail(np.float64(0.3), np.int32(2)) == q_tail(0.3, 2)
    assert s_infinity_cdf(1e300) == s_infinity_cdf(math.inf) == 1.0
    assert s_infinity_sf(math.inf) == 0.0


@pytest.mark.parametrize("bad", [math.nan, -0.1, -math.inf, np.float64(-1.0),
                                 np.array(math.nan)])
def test_scalar_series_reject_negative_and_nan(bad):
    with pytest.raises(ValueError):
        s_infinity_cdf(bad)
    with pytest.raises(ValueError):
        s_infinity_sf(bad)
    with pytest.raises(ValueError):
        exp_convolution_cdf(3, bad)


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
    with pytest.raises(ValueError, match="^t "):
        exp_convolution_cdf(3, bad)
