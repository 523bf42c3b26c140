"""Machine-speed probe for scalar calls: fixed work that never touches the
package.

The host this benchmark was built on runs interpreter-bound code up to 1.8
times slower in stretches that last from milliseconds to tens of seconds
(other tenants on shared cores), in steps; memory-bound code such as the KS
lfilter chain moves far less. The median latency of a block of 2016 scalar
limit-law calls spread by 0.56 of its median from one block to the next.

So the runner follows every scalar call with one untimed tick of this probe
and reports the call at the probe's reference speed:

    scaled = raw * REFERENCE_NS / (median of the ticks of the nearest calls)

The tick mirrors the shape of a scalar series call (argument checks, a
60-term expm1 series summed with math.fsum, a clamp) so that it slows down
with the calls. Scaled this way the block-to-block spread of the median
fell to 0.016; one probe per block gave 0.036, and a probe of numpy loops
0.18. The runner scales library and CLI calls and the set-up by ticks
taken around them in the same way. A change to the package moves the raw
time and not the ticks, so it shows in full.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

# a tick's median time at the host's fast speed on the reference host (a
# 2-core Xeon VM), so that scaled and raw times agree there
REFERENCE_NS = 11_500
WINDOW = 11               # ticks of the call itself and its 10 neighbours

_COEFFS = tuple((-1.0) ** k / (k + 1) for k in range(60))


def _series(t: float) -> float:
    if t < 0 or math.isnan(t):
        raise ValueError(t)
    terms = [a * -math.expm1(-(2.0 ** k) * t)
             for k, a in enumerate(_COEFFS, start=1)]
    return min(max(math.fsum(terms), 0.0), 1.0)


def tick_ns(i: int) -> int:
    """Nanoseconds one probe call takes now; ``i`` varies its argument."""
    t0 = perf_counter_ns()
    _series((i % 50 + 1) * 1e-2)
    return perf_counter_ns() - t0
