"""Lifetime families whose k-th law grows like alpha^k in distribution.

Two families ship:

* ``GeometricDst`` -- the holding times of the digital-search-tree birth
  chain: Y_k is geometric on {1, 2, ...} with success parameter 2^(1-k), so
  Y_1 is the constant 1 and 2^(-k) Y_k converges to an Exp(2) law (mean 1/2).
  Growth rate alpha = 2, always.
* ``ScaledBase`` -- the generic construction Y_k = alpha^k * W_k with the W_k
  exponential of mean 1/2, the law of the DST family's scaled limit; the
  scaled limit Y_inf then equals that base law. A base of mean m gives the
  counts of mean 1/2 watched at time t/(2m), so another mean only shifts
  eta by log_alpha(2m), and alpha is the family's one parameter. Its limit
  law is exact for every alpha it accepts (``limit_law``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limit_law import _mixture


@dataclass(frozen=True)
class GeometricDst:
    """Digital-search-tree lifetime family; alpha is pinned to 2."""

    alpha = 2.0


@dataclass(frozen=True)
class ScaledBase:
    """Lifetimes alpha^k * W_k with W_k exponential of mean 1/2.

    alpha must be finite and above 1, and its limit law's mixture must stay
    conditioned, sum_k |A_k| <= 2^13 (``limit_law``): alpha from
    1.2508235044744267 on. Anything else raises ValueError.
    """

    alpha: float

    def __post_init__(self):
        _mixture(self.alpha)


def sample_lifetime(family: GeometricDst | ScaledBase, k: int,
                    rng: np.random.Generator, size: int | None = None):
    """Draw from the k-th lifetime law.

    Geometric draws use CDF inversion, j = ceil(log(1-u) / log(1-p)), one
    uniform per draw regardless of k, so streams stay reproducible and cheap
    even when the mean is 2^(k-1). A lifetime past the float range is +inf,
    past every horizon, as in exact arithmetic.
    """
    if k < 1:
        raise ValueError(f"lifetime index must be >= 1, got {k}")
    if isinstance(family, GeometricDst):
        if k == 1:
            return 1.0 if size is None else np.ones(size)
        u = rng.random(size)
        with np.errstate(over="ignore"):    # log1p(-p) ~ -p is subnormal
            j = np.ceil(np.log1p(-u) / math.log1p(-(2.0 ** (1 - k))))
        return np.maximum(j, 1.0)
    # numpy's power saturates where float ** k raises
    with np.errstate(over="ignore"):
        scale = np.float64(family.alpha) ** k * 0.5
        return scale * rng.standard_exponential(size)

