"""Deterministic random-number streams addressed by (seed, stream).

Every sampling routine in this package takes an explicit generator; there is
no global RNG state. Streams are built on the Philox counter-based bit
generator, keyed directly by the pair (seed, stream), so distinct stream ids
under the same seed yield independent sequences and the same pair always
reproduces the same draws, bit for bit.
"""

from __future__ import annotations

DEFAULT_SEED = 20070201


def stream_rng(seed: int = DEFAULT_SEED, stream: int = 0) -> np.random.Generator:
    """Return a generator for the given (seed, stream) address.

    Each (seed, stream) pair keys its own Philox counter sequence. A stream
    must be owned by exactly one thread of execution; parallel work should
    allocate one stream id per worker and merge results afterwards.
    """
    import numpy as np

    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
