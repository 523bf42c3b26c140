"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line (visible under pytest -s) after its assertions;
tolerances are pinned here and nowhere else. Monte Carlo checks run on fixed
(seed, stream) addresses, so they are deterministic.
"""

import math
import time

import numpy as np

from renewal_dst import (
    IntPmf,
    build,
    depth_distribution_exact,
    knuth_corpus,
    ks_scaled_sum_exact,
    mixture_coefficients,
    pmf_gap_bound_check,
    q_tail,
    s_infinity_cdf,
    sample_q,
    simulate_insertion_depth,
    tv_to_limit,
)
from renewal_dst.cli import main
from renewal_dst.metrics import tv_vs_limit
from renewal_dst.rng import stream_rng

from _oracles import empirical_cdf_jumps, ks_discrete_vs_continuous


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num} {name}: PASS {detail}")


def _partial_fractions(n):
    """a_(n,1..n) of Exp(2) * ... * Exp(2^n) = sum_k a_(n,k) Exp(2^k):
    prod_{j<k} (1 - 2^j)^-1 prod_{j<=n-k} (1 - 2^-j)^-1."""
    return [math.prod(1 / (1 - 2.0 ** j) for j in range(1, k))
            * math.prod(1 / (1 - 2.0 ** -j) for j in range(1, n - k + 1))
            for k in range(1, n + 1)]


def test_criterion_1_corpus_reproduction():
    t0 = time.perf_counter()
    tree, reports = build(knuth_corpus())
    probe = tree.probe("011100")
    elapsed = time.perf_counter() - t0
    assert [r.depth for r in reports] == [0, 1, 1, 2, 2, 3, 3, 2, 3, 3]
    assert (probe.depth, probe.parent, probe.side) == (4, "x_6", "right")
    assert elapsed < 0.1
    report(1, "corpus depth sequence and probe", f"({elapsed * 1e3:.2f} ms)")


def test_criterion_2_coefficient_identities():
    t0 = time.perf_counter()
    a = mixture_coefficients()
    assert abs(math.fsum(a) - 1.0) <= 1e-13
    assert a[1] == -a[0]
    assert abs(a[2] - a[0] / 3.0) <= 1e-15
    for n in range(1, 13):
        assert abs(math.fsum(_partial_fractions(n)) - 1.0) <= 1e-12
    # the n-fold coefficients tend to the mixture's: a_(n,k) / a_k =
    # prod_{j>n-k} (1 - 2^-j) is within 2^(k-n) of 1, plus the rounding of
    # the products
    for k, (ank, ak) in enumerate(zip(_partial_fractions(60), a), start=1):
        assert abs(ank / ak - 1.0) <= 2.0 ** (k - 60) + 1e-14, k
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    report(2, "mixture and partial-fraction identities",
           f"({elapsed * 1e3:.2f} ms)")


def test_criterion_3_mixture_vs_convolution():
    rng = stream_rng(20070201, 10)
    draws = (rng.exponential(1 / 2, 10 ** 6)
             + rng.exponential(1 / 4, 10 ** 6)
             + rng.exponential(1 / 8, 10 ** 6))
    a = _partial_fractions(3)
    ks = ks_discrete_vs_continuous(
        *empirical_cdf_jumps(draws),
        lambda x: 1.0 - sum(ak * np.exp(-(2.0 ** k) * x)
                            for k, ak in enumerate(a, start=1)))
    assert ks <= 0.002
    report(3, "signed mixture vs convolution sample", f"(KS={ks:.5f})")


def test_criterion_4_tv_rate_proxy():
    t0 = time.perf_counter()
    tvs = []
    for e in range(4, 19, 2):
        tv, eta = tv_to_limit(2 ** e)
        assert eta == 0.0
        tvs.append((2 ** e, tv))
    for (_, a), (_, b) in zip(tvs, tvs[1:]):
        assert b < a
    scaled = [tv * n ** 0.9 for n, tv in tvs if n >= 2 ** 8]
    for a, b in zip(scaled, scaled[1:]):
        assert b < a
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(4, "tv decay and n^0.9 proxy", f"({elapsed:.1f} s)")


def test_criterion_5_ks_rate_proxy():
    t0 = time.perf_counter()
    ks_vals = [(n, ks_scaled_sum_exact(n)[0]) for n in range(4, 19)]
    for (_, a), (_, b) in zip(ks_vals, ks_vals[1:]):
        assert b < a
    ref = ks_vals[0][1] * 2.0 ** 4 / 4
    for n, ks in ks_vals:
        assert ks * 2.0 ** n / n <= ref
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(5, "ks decay and 2^n/n proxy", f"({elapsed:.1f} s)")


def test_criterion_6_tail_bounds():
    t0 = time.perf_counter()
    for j in range(2, 9):
        assert s_infinity_cdf(2.0 ** -j) <= 2.0 ** (-j * (j - 1) / 2)
    products = [q_tail(0.0, j) * math.exp(0.3 * j * j) for j in range(4, 10)]
    for a, b in zip(products, products[1:]):
        assert b < a
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    report(6, "left-tail bound and superexponential proxy",
           f"({elapsed * 1e3:.2f} ms)")


def test_criterion_7_pointwise_gap_sandwich():
    t0 = time.perf_counter()
    cases = ([(2 ** 10, j) for j in range(-2, 6)]
             + [(2 ** 20 + 1, j) for j in range(-2, 2)]
             + [(3 * 2 ** 17 + 5, j) for j in range(-4, 4)])
    for t, j in cases:
        lhs, rhs = pmf_gap_bound_check(t, j)
        assert lhs <= rhs, (t, j, lhs, rhs)
    elapsed = time.perf_counter() - t0
    report(7, "pointwise gap bounded by KS pair", f"({elapsed:.1f} s)")


def test_criterion_8_monte_carlo_agreement():
    for stream, eta in ((12, 0.0), (13, 0.5)):
        qs = sample_q(eta, stream_rng(20070201, stream), size=10 ** 6)
        emp = IntPmf.from_samples(qs)
        tv, _ = tv_vs_limit(emp, eta)
        assert tv <= 0.003, (eta, tv)

    replicates = 10 ** 5
    emp = simulate_insertion_depth(100, replicates,
                                   stream_rng(20070201, 14))
    assert emp.truncation == 0.0
    exact = depth_distribution_exact(100)
    lo = min(emp.offset, exact.offset)
    hi = max(emp.support_max, exact.support_max)
    for j in range(lo, hi + 1):
        p = exact.prob(j)
        se = math.sqrt(p * (1 - p) / replicates)
        assert abs(emp.prob(j) - p) <= 4 * se, (j, emp.prob(j), p)
    report(8, "sampler vs exact laws", "(TV<=0.003, per-bucket 4 sigma)")


def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        ("limit-law", "--eta", "0.5"),
        ("depth-dist", "--n", "1024"),
        ("dst-demo", "--probe", "011100"),
        ("simulate", "--n-grid", "16:256:x4", "--samples", "2000"),
        ("converge", "--kind", "ks", "--n-grid", "4:8:1"),
        ("converge", "--kind", "tv", "--n-grid", "16:1024:x4",
         "--format", "json"),
    ]
    for i, argv in enumerate(cases):
        a = tmp_path / f"a{i}.txt"
        b = tmp_path / f"b{i}.txt"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()
    report(9, "CLI reruns byte-identical", f"({len(cases)} commands)")
