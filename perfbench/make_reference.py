"""Regenerate reference.json, the committed oracle values for fixed sizes.

Usage: python3 perfbench/make_reference.py   (about a minute on one core)

The file holds, for every n the benchmark runs at a fixed size:
  laws[n] = [offset, masses]  exact centered depth law, masses > 1e-300
  tv[n]   = d_TV(law, Q_eta), the exact distance the package bounds
  ks[n]   = [ks, trunc]       exact KS distance between 2^-n S_n and S over
                              the jump points the package checks (up to
                              8 * 2^n), and the mass beyond that cap
All values come from oracle.py (mpmath closed forms); the KS search uses a
float64 partial-fraction sweep to find candidate maxima and mpmath to
evaluate them exactly. Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp
import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
LAW_NS = (16, 64, 100, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20)
TV_NS = (16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20)
KS_NS = range(4, 20)
KS_CAP = 8
_CANDIDATES = 32
_CHUNK = 1 << 20


def _sum_cdf_mp(B: dict, n: int, j: int):
    """P(S_n <= j) in mpmath."""
    steps = j - n + 1
    if steps <= 0:
        return mp.mpf(0)
    return mp.fsum(b * -mp.expm1(steps * mp.log1p(-mp.ldexp(1, 1 - i)))
                   for i, b in B.items())


def ks_reference(n: int, cap: int = KS_CAP) -> tuple[float, float]:
    with mp.workdps(40):
        B = oracle.partial_fractions(n)
        bf = [(float(b), math.log1p(-2.0 ** (1 - i))) for i, b in B.items()]
        af = [float(a) for a in oracle.mixture(20)]
        j_max = cap << n
        best = np.empty(0)
        best_j = np.empty(0, dtype=np.int64)
        for start in range(n, j_max + 1, _CHUNK):
            js = np.arange(start, min(start + _CHUNK, j_max + 1))
            cdf = np.zeros(js.size)
            prev = np.zeros(js.size)
            for b, lq in bf:
                cdf += b * -np.expm1((js - n + 1) * lq)
                prev += b * -np.expm1((js - n) * lq)
            t = js * 2.0 ** -n
            lim = np.zeros(js.size)
            for k, a in enumerate(af, start=1):
                lim += a * -np.expm1(-(2.0 ** k) * t)
            gap = np.maximum(np.abs(cdf - lim), np.abs(prev - lim))
            best = np.concatenate((best, gap))
            best_j = np.concatenate((best_j, js))
            keep = np.argsort(best)[-_CANDIDATES:]
            best, best_j = best[keep], best_j[keep]
        ks = 0.0
        for j in best_j.tolist():
            lim = oracle.limit_at(j * 2.0 ** -n)[0]
            ks = max(ks, abs(float(_sum_cdf_mp(B, n, j)) - lim),
                     abs(float(_sum_cdf_mp(B, n, j - 1)) - lim))
        beyond = float(1 - _sum_cdf_mp(B, n, j_max))
        return ks, max(beyond, oracle.limit_at(float(cap))[1])


def main() -> None:
    ref = {"laws": {}, "tv": {}, "ks": {}}
    for n in LAW_NS:
        offset, masses = oracle.depth_law(n, dps=330)
        ref["laws"][str(n)] = [offset, [float(m) for m in masses]]
    for n in TV_NS:
        ref["tv"][str(n)] = float(oracle.tv_exact(n))
    for n in KS_NS:
        ref["ks"][str(n)] = list(ks_reference(n))
        print(f"ks n={n}: {ref['ks'][str(n)]}")
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
