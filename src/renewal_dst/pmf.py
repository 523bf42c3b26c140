"""Finitely supported probability mass functions on the integers.

IntPmf is the exact-distribution currency of the package: dynamic-programming
results, series evaluations and empirical histograms all travel as an offset
plus a dense mass vector. The optional ``truncation`` field carries a
certified upper bound on mass that the producer dropped outside the stored
support (for example DP states clipped below 1e-300, or simulation replicates
dropped for a probe deeper than 64 bits); consumers that assert distances add
it back as slack so their bounds stay sound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class IntPmf:
    """Probability mass function on {offset, offset+1, ..., offset+len-1}."""

    offset: int
    masses: np.ndarray
    truncation: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty 1-d array")
        if np.any(m < 0):
            raise ValueError("masses must be nonnegative")
        total = float(m.sum())
        if not (1.0 - self.truncation - _MASS_TOL <= total <= 1.0 + _MASS_TOL):
            raise ValueError(
                f"masses sum to {total!r}, expected 1 within truncation "
                f"{self.truncation!r}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @classmethod
    def from_samples(cls, values, truncation: float = 0.0) -> "IntPmf":
        """Empirical pmf of an integer sample; truncation counts mass held
        back by the producer (dropped replicates), not sampling error."""
        v = np.asarray(values, dtype=np.int64)
        lo = int(v.min())
        counts = np.bincount(v - lo)
        return cls(lo, counts / (v.size / (1.0 - truncation)), truncation)

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + len(self.masses) - 1

    def prob(self, j: int) -> float:
        i = j - self.offset
        if 0 <= i < len(self.masses):
            return float(self.masses[i])
        return 0.0

    def total(self) -> float:
        return float(self.masses.sum())

    def shift(self, d: int) -> "IntPmf":
        return IntPmf(self.offset + d, self.masses, self.truncation)

    def tail_ge(self, j: int) -> float:
        """P(X >= j), exact over the stored support."""
        i = max(j - self.offset, 0)
        if i >= len(self.masses):
            return 0.0
        return float(self.masses[i:].sum())

    def trim(self, eps: float = 0.0) -> "IntPmf":
        """Drop edge masses <= eps, folding them into ``truncation``."""
        m = self.masses
        nz = np.nonzero(m > eps)[0]
        if nz.size == 0:
            return self
        lo, hi = int(nz[0]), int(nz[-1])
        dropped = float(m[:lo].sum() + m[hi + 1:].sum())
        return IntPmf(self.offset + lo, m[lo:hi + 1].copy(),
                      self.truncation + dropped)

    def items(self):
        for i, p in enumerate(self.masses):
            yield self.offset + i, float(p)
