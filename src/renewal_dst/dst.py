"""Digital search trees over bit strings.

Keys are routed by successive bits, 0 left and 1 right, and stored at the
first empty node on the path; the tree never compares key values, only bits.
A probe walks the same path without mutating, which is how the depth process
along a fixed direction is read off one built tree.

``Dst`` is the node-by-node reference. ``simulate_insertion_depth`` builds
many random trees without it: in a DST the node for an l-bit prefix holds the
earliest-inserted key with that prefix that no shallower node took, so after
sorting each replicate's keys by value the trees grow level by level, every
level a few array operations over a chunk of replicates. Chunks hold at most
2^16 keys, so the simulator's memory does not grow with the replicate count.
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

# Keys per chunk of replicates in simulate_insertion_depth; bounds its
# memory whatever the replicate count.
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


def bits_from_unit_interval(x: float, length: int) -> str:
    """First ``length`` binary digits of x in [0, 1), by repeated doubling."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got {x!r}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    out = []
    for _ in range(length):
        x *= 2.0
        if x >= 1.0:
            out.append("1")
            x -= 1.0
        else:
            out.append("0")
    return "".join(out)


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


def _prefix_differs(a: np.ndarray, b: np.ndarray, level: int) -> np.ndarray:
    """Whether the rows of ``a`` and ``b``, keys as uint64 words most
    significant first, differ within their first ``level`` bits."""
    out = np.zeros(len(a), dtype=bool)
    for w in range(min(a.shape[1], -(-level // 64))):
        x = a[:, w] ^ b[:, w]
        tail = 64 * (w + 1) - level  # bits of word w below the prefix
        if tail > 0:
            x = x >> np.uint64(tail)
        out |= x != 0
    return out


def _chunk_depths(keys: np.ndarray, bit_budget: int,
                  probe_limit: int) -> np.ndarray:
    """Depth of the last key in each replicate of a chunk, or -1 where a
    key runs out of bits first.

    ``keys`` is (c, n+1, words): each replicate's keys in insertion order,
    the probe last. The first n keys may take nodes down to level
    ``bit_budget``; the probe may descend to level ``probe_limit``.

    The node for an l-bit prefix holds the earliest-inserted key among those
    with that prefix that no shallower node took. With each replicate's keys
    sorted by value, those keys form one contiguous run, so every level is a
    handful of array operations: find the runs, place each run's key of
    least insertion index, drop the placed keys. The probe, inserted last,
    is placed at the first level where no other key in play shares its
    prefix.
    """
    c, n_all, words = keys.shape
    probe = n_all - 1
    order = np.lexsort(keys[..., ::-1].transpose(2, 0, 1), axis=-1)
    key = np.take_along_axis(keys, order[..., None], axis=1).reshape(
        c * n_all, words)
    idx = order.ravel()
    rep = np.repeat(np.arange(c), n_all)
    depth = np.full(c, -1, dtype=np.int64)
    dropped = np.zeros(c, dtype=bool)
    level = 0
    while rep.size:
        start = np.empty(rep.size, dtype=bool)
        start[0] = True
        start[1:] = rep[1:] != rep[:-1]
        start[1:] |= _prefix_differs(key[1:], key[:-1], level)
        runs = np.flatnonzero(start)
        first = np.minimum.reduceat(idx, runs)
        placed = idx == np.repeat(first, np.diff(runs, append=rep.size))
        depth[rep[placed & (idx == probe)]] = level
        keep = ~placed
        if level >= min(bit_budget, probe_limit):
            stuck = keep & np.where(idx == probe, level >= probe_limit,
                                    level >= bit_budget)
            dropped[rep[stuck]] = True
            keep &= ~dropped[rep]
        rep, idx, key = rep[keep], idx[keep], key[keep]
        level += 1
    depth[dropped] = -1
    return depth


def simulate_insertion_depth(n: int, replicates: int, bit_budget: int = 64,
                             rng: np.random.Generator | None = None,
                             probe_bits: str | None = None) -> IntPmf:
    """Empirical law of the insertion depth of key n+1 under uniform keys.

    Each replicate builds a fresh tree from n random keys (each key is
    ``bit_budget`` independent fair coins) and records the depth at which one
    more key would be inserted. With ``probe_bits`` the extra key is a fixed
    direction probed without inserting; the law is the same either way.
    Replicates where any key exhausts its bit budget are dropped and counted
    in the returned pmf's ``truncation``.

    Replicates run in chunks of at most ``_SIM_BATCH`` keys, so memory is
    O(chunk) whatever ``replicates`` is. Within a chunk the trees are built
    level by level for all replicates at once (see ``_chunk_depths``); the
    keys are drawn replicate-major as (chunk, keys, words) uint64 arrays, so
    the Philox stream is consumed exactly as one replicate at a time would.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if bit_budget < 1:
        raise ValueError(f"bit_budget must be >= 1, got {bit_budget}")
    if probe_bits is not None:
        _check_bits(probe_bits)
        if not probe_bits:
            raise ValueError("probe_bits must be nonempty")
    if rng is None:
        rng = stream_rng()

    words = (bit_budget + 63) // 64
    n_keys = n if probe_bits is not None else n + 1
    if probe_bits is not None:
        # Probe bits past the keys' 64 * words are never read: every other
        # key has left the probe's run by level bit_budget <= 64 * words.
        padded = probe_bits[:64 * words].ljust(64 * words, "0")
        fixed = np.array([int(padded[64 * w:64 * (w + 1)], 2)
                          for w in range(words)], dtype=np.uint64)
        probe_limit = len(probe_bits)
    else:
        probe_limit = bit_budget

    chunk = max(1, _SIM_BATCH // max(n_keys, 1))
    depths = []
    for done in range(0, replicates, chunk):
        keys = rng.integers(0, 2 ** 64,
                            size=(min(chunk, replicates - done), n_keys,
                                  words),
                            dtype=np.uint64)
        if probe_bits is not None:
            keys = np.concatenate(
                [keys, np.broadcast_to(fixed, (len(keys), 1, words))], axis=1)
        depths.append(_chunk_depths(keys, bit_budget, probe_limit))
    depths = np.concatenate(depths)
    kept = depths[depths >= 0]
    if kept.size == 0:
        raise InsufficientBitsError("probe", bit_budget)
    return IntPmf.from_samples(
        kept, truncation=(replicates - kept.size) / replicates)
