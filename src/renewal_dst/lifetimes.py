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
  eta by log_alpha(2m), and alpha is the family's one parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The most terms sample_scaled_limit may sum per draw. It bounds alpha below:
# at alpha = 1.0001 the series would need 276,325 terms, minutes per row.
MAX_LIMIT_TERMS = 1000


@dataclass(frozen=True)
class GeometricDst:
    """Digital-search-tree lifetime family; alpha is pinned to 2."""

    alpha = 2.0


@dataclass(frozen=True)
class ScaledBase:
    """Lifetimes alpha^k * W_k with W_k exponential of mean 1/2."""

    alpha: float

    def __post_init__(self):
        if not (1.0 < self.alpha < math.inf
                and self.limit_terms <= MAX_LIMIT_TERMS):
            raise ValueError(
                f"alpha must lie in (1, inf) and need at most "
                f"{MAX_LIMIT_TERMS} series terms (alpha >= about 1.028), "
                f"got {self.alpha!r}")

    @property
    def limit_terms(self) -> int:
        """Terms past the first that ``sample_scaled_limit`` sums: enough
        that the remainder's mean is below 1e-12 of the base mean."""
        return max(4, math.ceil(12 * math.log(10) / math.log(self.alpha)))


def geometric_pmf(k: int, j: int) -> float:
    """P(Y_k = j) = (1 - 2^(1-k))^(j-1) * 2^(1-k); for k = 1, the unit mass at 1."""
    if k < 1:
        raise ValueError(f"lifetime index must be >= 1, got {k}")
    if j < 1:
        raise ValueError(f"geometric support starts at 1, got {j}")
    if k == 1:
        return 1.0 if j == 1 else 0.0
    p = 2.0 ** (1 - k)
    return (1.0 - p) ** (j - 1) * p


def sample_lifetime(family: GeometricDst | ScaledBase, k: int,
                    rng: np.random.Generator, size: int | None = None):
    """Draw from the k-th lifetime law.

    Geometric draws use CDF inversion, j = ceil(log(1-u) / log(1-p)), one
    uniform per draw regardless of k, so streams stay reproducible and cheap
    even when the mean is 2^(k-1).
    """
    if k < 1:
        raise ValueError(f"lifetime index must be >= 1, got {k}")
    if isinstance(family, GeometricDst):
        if k == 1:
            return 1.0 if size is None else np.ones(size)
        u = rng.random(size)
        j = np.ceil(np.log1p(-u) / math.log1p(-(2.0 ** (1 - k))))
        return np.maximum(j, 1.0)
    return family.alpha ** k * 0.5 * rng.standard_exponential(size)

