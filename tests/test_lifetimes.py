import math

import numpy as np
import pytest

from renewal_dst import (
    GeometricDst,
    IntPmf,
    ScaledBase,
    geometric_pmf,
    sample_lifetime,
    tv_distance,
)
from renewal_dst.rng import stream_rng

DST = GeometricDst()


def geometric_reference(k, j_max):
    masses = np.array([geometric_pmf(k, j) for j in range(1, j_max + 1)])
    return IntPmf(1, masses, truncation=max(0.0, 1.0 - masses.sum()))


@pytest.mark.parametrize("alpha", [1.0, 0.5, math.inf, math.nan])
def test_scaled_base_rejects_alpha_outside_one_to_inf(alpha):
    with pytest.raises(ValueError, match="alpha"):
        ScaledBase(alpha)


def test_scaled_base_rejects_alpha_needing_over_1000_terms():
    for alpha in (1.0001, 1.028):
        with pytest.raises(ValueError, match="alpha"):
            ScaledBase(alpha)
    assert ScaledBase(1.0281).limit_terms <= 1000


def test_family_alpha():
    assert ScaledBase(1.5).alpha == 1.5
    assert GeometricDst().alpha == 2.0


def test_geometric_pmf_values():
    assert geometric_pmf(1, 1) == 1.0
    assert geometric_pmf(1, 2) == 0.0
    assert geometric_pmf(2, 1) == 0.5
    assert geometric_pmf(3, 2) == pytest.approx(0.1875, abs=1e-15)


def test_geometric_pmf_domain():
    with pytest.raises(ValueError):
        geometric_pmf(0, 1)
    with pytest.raises(ValueError):
        geometric_pmf(2, 0)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_geometric_pmf_sums_to_one(k):
    total = math.fsum(geometric_pmf(k, j) for j in range(1, 64 * 2 ** k + 1))
    assert total > 1 - 1e-12


def test_sample_lifetime_k1_is_constant():
    rng = stream_rng(1, 0)
    assert sample_lifetime(DST, 1, rng) == 1.0
    assert np.all(sample_lifetime(DST, 1, rng, size=100) == 1.0)


def test_sample_lifetime_empirical_mean_k5():
    rng = stream_rng(20070201, 22)
    y = sample_lifetime(DST, 5, rng, size=10 ** 6)
    se = y.std() / math.sqrt(y.size)
    assert abs(y.mean() - 16.0) <= 5 * se


def test_sample_lifetime_empirical_law_k3():
    rng = stream_rng(20070201, 21)
    y = sample_lifetime(DST, 3, rng, size=10 ** 6)
    emp = IntPmf.from_samples(y.astype(np.int64))
    ref = geometric_reference(3, emp.support_max + 1)
    assert tv_distance(emp, ref) <= 0.005


def test_sampling_is_bit_reproducible():
    a = sample_lifetime(DST, 7, stream_rng(42, 3), size=1000)
    b = sample_lifetime(DST, 7, stream_rng(42, 3), size=1000)
    c = sample_lifetime(DST, 7, stream_rng(42, 4), size=1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scaled_base_sampling_mean():
    fam = ScaledBase(2.0)
    rng = stream_rng(20070201, 26)
    draws = sample_lifetime(fam, 4, rng, size=200000)
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - 8.0) <= 5 * se
    assert np.all(draws > 0)

