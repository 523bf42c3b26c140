"""Digital search trees over bit strings.

Keys are routed by successive bits, 0 left and 1 right, and stored at the
first empty node on the path; the tree never compares key values, only bits.
A probe walks the same path without mutating, which is how the depth process
along a fixed direction is read off one built tree.

``Dst`` is the node-by-node reference. ``simulate_insertion_depth`` builds no
tree; it reads the depth off the keys on the probe's path by a record scan.
With nodes 0..d-1 of that path filled, the next key sharing at least d
leading bits with the probe takes node d, and any other key leaves the path
above it; so over the keys in insertion order, ``depth += shared >= depth``
ends at the probe's depth. Simulated keys are the first 64 bits of the
unbounded uniform keys of the model (Flajolet and Sedgewick, SIAM J.
Comput. 1986), one word each. While ``depth`` is at most 64 the scan only
asks whether ``shared >= depth``, which 64 bits settle, so a probe depth of
64 or less is the model's exact depth; a key that runs out of bits in a
64-bit tree lands deeper than 64 in the model, below every node the scan
reads. A replicate drops only when its probe needs more than 64 bits,
which takes a key equal to the probe on all 64 bits: probability at most
n / 2^64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pmf import IntPmf
from .rng import stream_rng

# The classic ten-key corpus: first four bits of the fractional parts of
# sqrt 2, sqrt 3, sqrt 5, sqrt 10, cbrt 2, cbrt 3, 2^(1/4), ln 2, ln 3, ln 10.
_KNUTH_BITS = ("0110", "1011", "0011", "0010", "0100",
               "0111", "0011", "1011", "0001", "0100")

# Bits per simulated key; keys per chunk of replicates in
# simulate_insertion_depth.
_KEY_BITS = 64
_SIM_BATCH = 2 ** 16


class InsufficientBitsError(ValueError):
    """A key ran out of bits before an empty node was found."""

    def __init__(self, label, needed: int):
        super().__init__(f"key {label!r} needs more than {needed} bits")
        self.label = label
        self.needed = needed
        self.index = None  # set by build()


class CorpusFormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class InsertReport:
    """Where a key landed: depth equals the number of bits consumed."""

    label: str | None
    depth: int
    path: str
    parent: str | None
    side: str  # "root", "left" or "right"


class _Node:
    __slots__ = ("label", "left", "right")

    def __init__(self, label):
        self.label = label
        self.left = None
        self.right = None


def _check_bits(bits: str) -> None:
    if any(c not in "01" for c in bits):
        raise ValueError(f"bit string may contain only 0 and 1: {bits!r}")


class Dst:
    """A digital search tree; single writer, probe reads are safe after build."""

    def __init__(self):
        self.root = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _descend(self, label, bits: str) -> tuple[_Node | None, InsertReport]:
        """Parent of the first empty node on the bit path (None for an empty
        tree) and the report of a key landing there.

        Raises InsufficientBitsError if every prefix of ``bits`` leads to an
        occupied node.
        """
        _check_bits(bits)
        if self.root is None:
            return None, InsertReport(label, 0, "", None, "root")
        node = self.root
        for i, c in enumerate(bits):
            child = node.left if c == "0" else node.right
            if child is None:
                side = "left" if c == "0" else "right"
                return node, InsertReport(label, i + 1, bits[: i + 1],
                                          node.label, side)
            node = child
        raise InsufficientBitsError(label, len(bits))

    def insert(self, label, bits: str) -> InsertReport:
        """Place a key at the first empty node along its bit path.

        Raises InsufficientBitsError (tree unchanged) if there is none.
        """
        parent, report = self._descend(label, bits)
        if parent is None:
            self.root = _Node(label)
        else:
            setattr(parent, report.side, _Node(label))  # "left" or "right"
        self._size += 1
        return report

    def probe(self, bits: str, label=None) -> InsertReport:
        """Report where a key with these bits would land, without inserting."""
        return self._descend(label, bits)[1]


def build(corpus) -> tuple[Dst, list[InsertReport]]:
    """Insert (label, bits) pairs left to right; reports come back in order."""
    tree = Dst()
    reports = []
    for idx, (label, bits) in enumerate(corpus):
        try:
            reports.append(tree.insert(label, bits))
        except InsufficientBitsError as err:
            err.index = idx
            raise
    return tree, reports


def knuth_corpus() -> tuple[tuple[str, str], ...]:
    """The embedded ten-entry corpus, labels x_1 .. x_10."""
    return tuple((f"x_{i}", bits) for i, bits in enumerate(_KNUTH_BITS, 1))


def parse_corpus(text: str) -> list[tuple[str, str]]:
    """Parse `label whitespace bitstring` records, one per line.

    Blank lines and lines starting with # are skipped. Errors carry the
    1-based line number.
    """
    records = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CorpusFormatError(
                lineno, f"expected 'label bits', got {len(parts)} fields")
        label, bits = parts
        if any(c not in "01" for c in bits):
            raise CorpusFormatError(lineno, f"invalid bit string {bits!r}")
        records.append((label, bits))
    return records


def load_corpus(path) -> list[tuple[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())


# Leading zero bits of every 16-bit value, 16 for zero.
_LEADING_ZEROS_16 = (16 - np.frexp(np.arange(2.0 ** 16))[1]).astype(np.uint8)


def _shared_bits(x: np.ndarray) -> np.ndarray:
    """Leading zero bits of each uint64 of ``x``: for two keys' XOR, their
    common-prefix length, 64 for equal keys. Bits are read 16 at a time,
    past the first 16 only where all so far were 0."""
    flat = x.ravel()
    out = _LEADING_ZEROS_16[(flat >> np.uint64(48)).view(np.int64)]
    out = out.astype(np.int64)
    rows = np.flatnonzero(out == 16)
    for digit in range(1, 4):
        bits = flat[rows] >> np.uint64(48 - 16 * digit) & np.uint64(0xFFFF)
        out[rows] += _LEADING_ZEROS_16[bits.view(np.int64)]
        rows = rows[out[rows] == 16 * (digit + 1)]
    return out.reshape(x.shape)


def simulate_insertion_depth(n: int, replicates: int,
                             rng: np.random.Generator | None = None,
                             probe_bits: str | None = None) -> IntPmf:
    """Empirical law of the insertion depth of key n+1 under uniform keys.

    Each replicate draws n random 64-bit keys (64 independent fair coins
    each) and records the depth at which one more key would be inserted
    into their tree. With ``probe_bits``, exactly 64 bits, the extra key is
    a fixed direction probed without inserting; the law is the same either
    way. A replicate whose probe finds all 65 nodes on its path filled
    (depth > 64, so it needs more than its 64 bits) is dropped and counted
    in the returned pmf's ``truncation``; every other depth is exact for
    unbounded uniform keys (see the module docstring).

    No tree is built: the depth is the record scan of the module docstring,
    O(n) per replicate. Chunks of at most ``_SIM_BATCH`` keys keep memory
    O(chunk) whatever ``replicates`` is; keys are drawn replicate-major as
    (chunk, keys) uint64 arrays, so the Philox stream is consumed exactly as
    one replicate at a time would.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if probe_bits is not None:
        _check_bits(probe_bits)
        if len(probe_bits) != _KEY_BITS:
            raise ValueError(f"probe_bits must hold exactly {_KEY_BITS} "
                             f"bits, got {len(probe_bits)}")
        probe = np.uint64(int(probe_bits, 2))
    if rng is None:
        rng = stream_rng()

    n_keys = n if probe_bits is not None else n + 1
    chunk = max(1, _SIM_BATCH // max(n_keys, 1))
    depths = []
    for done in range(0, replicates, chunk):
        size = (min(chunk, replicates - done), n_keys)
        keys = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64)
        if probe_bits is None:
            probe = keys[:, n:]
        path = np.ascontiguousarray(_shared_bits(keys[:, :n] ^ probe).T)
        depth = np.zeros(len(keys), dtype=np.int64)
        for shared in path:     # keys in insertion order
            depth += shared >= depth
        depth[depth > _KEY_BITS] = -1
        depths.append(depth)
    depths = np.concatenate(depths)
    kept = depths[depths >= 0]
    if kept.size == 0:
        raise InsufficientBitsError("probe", _KEY_BITS)
    return IntPmf.from_samples(
        kept, truncation=(replicates - kept.size) / replicates)
