import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewal_dst import (
    Dst,
    InsufficientBitsError,
    build,
    depth_distribution_exact,
    knuth_corpus,
    simulate_insertion_depth,
    tv_distance,
)
from renewal_dst.dst import (
    CorpusFormatError,
    bits_from_unit_interval,
    parse_corpus,
)
from renewal_dst.pmf import IntPmf
from renewal_dst.rng import stream_rng

EXPECTED_DEPTHS = [0, 1, 1, 2, 2, 3, 3, 2, 3, 3]


def test_insert_into_empty_tree():
    tree = Dst()
    rep = tree.insert("a", "10110")
    assert (rep.depth, rep.side, rep.parent, rep.path) == (0, "root", None, "")
    rep2 = tree.insert("b", "1")
    assert (rep2.depth, rep2.side, rep2.parent) == (1, "right", "a")
    assert len(tree) == 2


def test_insert_validates_bits():
    with pytest.raises(ValueError):
        Dst().insert("a", "012")


def test_insufficient_bits_leaves_tree_unchanged():
    tree, _ = build([("a", "11"), ("b", "11"), ("c", "11")])
    with pytest.raises(InsufficientBitsError):
        tree.insert("d", "11")
    assert len(tree) == 3


def test_knuth_corpus_contents():
    corpus = knuth_corpus()
    assert len(corpus) == 10
    assert all(len(bits) == 4 for _, bits in corpus)
    assert corpus[3] == ("x_4", "0010")
    assert corpus[8] == ("x_9", "0001")


def test_knuth_corpus_depth_sequence():
    tree, reports = build(knuth_corpus())
    assert [r.depth for r in reports] == EXPECTED_DEPTHS
    assert len(tree) == 10


def test_probe_next_key_lands_right_of_x6():
    tree, _ = build(knuth_corpus())
    before = len(tree)
    rep = tree.probe("011100", label="x_11")
    assert (rep.depth, rep.parent, rep.side) == (4, "x_6", "right")
    assert len(tree) == before
    again = tree.probe("011100")
    assert (again.depth, again.parent, again.side) == (4, "x_6", "right")


def test_build_empty_corpus():
    tree, reports = build([])
    assert len(tree) == 0 and reports == []


def test_identical_bit_strings_chain_down():
    corpus = [(f"k{i}", "0110") for i in range(5)]
    tree, reports = build(corpus[:5])
    assert [r.depth for r in reports] == [0, 1, 2, 3, 4]
    with pytest.raises(InsufficientBitsError) as exc:
        build(corpus + [("k5", "0110")])
    assert exc.value.index == 5
    assert exc.value.label == "k5"


def test_prefix_property():
    tree, reports = build(knuth_corpus())
    labels = {label: bits for label, bits in knuth_corpus()}
    for rep in reports:
        assert labels[rep.label].startswith(rep.path)
        assert rep.depth == len(rep.path)


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.text(alphabet="01", min_size=1, max_size=6),
                     max_size=12))
def test_probe_reports_what_insert_then_does(keys):
    tree, placed = Dst(), 0
    for i, bits in enumerate(keys):
        try:
            probed = tree.probe(bits, label=i)
        except InsufficientBitsError:
            with pytest.raises(InsufficientBitsError):
                tree.insert(i, bits)
            continue
        assert len(tree) == placed
        assert tree.insert(i, bits) == probed
        placed += 1
    assert len(tree) == placed


def test_bits_from_unit_interval():
    assert bits_from_unit_interval(0.5, 3) == "100"
    assert bits_from_unit_interval(math.sqrt(2) % 1, 4) == "0110"
    assert bits_from_unit_interval((1 / math.log(2)) % 1, 6) == "011100"
    with pytest.raises(ValueError):
        bits_from_unit_interval(1.0, 4)
    with pytest.raises(ValueError):
        bits_from_unit_interval(0.2, 0)


@settings(max_examples=100, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       length=st.integers(min_value=1, max_value=40))
def test_bits_round_trip(x, length):
    bits = bits_from_unit_interval(x, length)
    lo = int(bits, 2) / 2.0 ** length
    assert lo <= x < lo + 2.0 ** -length


def test_parse_corpus():
    text = "a 0101\n\n# comment\nb 11\n"
    assert parse_corpus(text) == [("a", "0101"), ("b", "11")]
    with pytest.raises(CorpusFormatError) as exc:
        parse_corpus("a 01\nbroken line here\n")
    assert exc.value.line == 2
    with pytest.raises(CorpusFormatError):
        parse_corpus("a 0123\n")
    assert parse_corpus("") == []


def test_simulated_depth_degenerate_cases():
    assert dict(simulate_insertion_depth(0, 40).items()) == {0: 1.0}
    assert dict(simulate_insertion_depth(1, 40).items()) == {1: 1.0}


def test_simulated_depth_matches_exact_law():
    emp = simulate_insertion_depth(100, 4000, stream_rng(20070201, 25))
    assert tv_distance(emp, depth_distribution_exact(100)) <= 0.04


def test_probe_direction_does_not_matter():
    a = simulate_insertion_depth(50, 20000, stream_rng(20070201, 23),
                                 probe_bits="0" * 64)
    b = simulate_insertion_depth(50, 20000, stream_rng(20070201, 24),
                                 probe_bits="1" * 64)
    assert tv_distance(a, b) <= 0.03


@pytest.mark.parametrize("probe", ["", "01", "0" * 63, "1" * 65, "1" * 128,
                                   "0" * 63 + "2"])
def test_probe_must_be_64_bits(probe):
    rng = stream_rng(1, 2)
    with pytest.raises(ValueError):
        simulate_insertion_depth(5, 10, rng, probe_bits=probe)
    assert rng.random() == stream_rng(1, 2).random()    # nothing drawn


class _MaskedRng:
    """A generator whose integer draws are ANDed with a mask, so keys share
    long prefixes, trees chain down to depth 64 and some probes need more
    than 64 bits."""

    def __init__(self, rng, mask):
        self._rng = rng
        self._mask = np.uint64(mask)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs) & self._mask


def test_simulated_depth_reports_budget_exhaustion():
    # 66 keys 0 or 1: the first 64 fill the nodes at depths 0..63 of the
    # path they share, the 65th one of the two nodes at depth 64; the 66th,
    # the implicit probe, needs more than 64 bits when it equals the 65th
    emp = simulate_insertion_depth(65, 500, _MaskedRng(stream_rng(1, 1), 1))
    assert 0 < emp.truncation < 1
    assert emp.total() == pytest.approx(1 - emp.truncation, abs=1e-12)
    # 66 all-zero keys: the 66th, the probe, finds all 65 nodes of its path
    # filled, so every replicate drops
    with pytest.raises(InsufficientBitsError):
        simulate_insertion_depth(65, 50, _MaskedRng(stream_rng(1, 2), 0))


def test_simulated_depth_reproducible():
    a = simulate_insertion_depth(10, 500, stream_rng(9, 9))
    b = simulate_insertion_depth(10, 500, stream_rng(9, 9))
    assert a.offset == b.offset and np.array_equal(a.masses, b.masses)


# (offset, masses, truncation) recorded from the one-replicate-at-a-time
# set walk that the level-synchronous simulator replaced; equality is exact,
# so these pin both the tree logic and the Philox draw layout.
P64 = "0110" * 16
P01 = "01" + "0" * 62
PRAND = "1101000110100111010010111100110001011110010100011111000011011010"
PINNED = [
    ((100, 3000, (20070201, 25), None),
     (4, [0.005333333333333333, 0.136, 0.43033333333333335, 0.328, 0.09,
          0.01, 0.0003333333333333333], 0.0)),
    ((100, 3000, (20070201, 25), P64),
     (4, [0.005, 0.12633333333333333, 0.44433333333333336, 0.344,
          0.07366666666666667, 0.006333333333333333, 0.0003333333333333333],
      0.0)),
    # 1500 = 2 * 648 + 204 replicates: a ragged last chunk
    ((100, 1500, (3, 5), None),
     (4, [0.006, 0.13666666666666666, 0.43666666666666665, 0.328,
          0.08466666666666667, 0.008], 0.0)),
    ((5, 500, (1, 1), None), (1, [0.062, 0.522, 0.36, 0.056], 0.0)),
    ((40, 600, (7, 3), None),
     (3, [0.013333333333333334, 0.20833333333333334, 0.44666666666666666,
          0.27166666666666667, 0.055, 0.005], 0.0)),
    ((40, 600, (7, 4), "10" * 32),
     (3, [0.011666666666666667, 0.23166666666666666, 0.4816666666666667,
          0.23666666666666666, 0.03666666666666667, 0.0016666666666666668],
      0.0)),
    ((12, 7000, (2, 2), None),
     (1, [0.00042857142857142855, 0.08328571428571428, 0.448,
          0.37942857142857145, 0.08342857142857144, 0.005,
          0.00042857142857142855], 0.0)),
    # a probe whose first two bits are blocked in most replicates
    ((6, 400, (5, 6), P01),
     (1, [0.0325, 0.425, 0.4425, 0.0975, 0.0025], 0.0)),
    ((0, 30, (5, 7), P01), (0, [1.0], 0.0)),
    ((1, 30, (5, 8), None), (1, [1.0], 0.0)),
    # as the monte-carlo benchmark workload calls it
    ((100, 10 ** 4, (20070201, 26), None),
     (4, [0.005, 0.1239, 0.4323, 0.3492, 0.0823, 0.0072, 0.0001], 0.0)),
    ((100, 10 ** 4, (20070201, 27), PRAND),
     (4, [0.004, 0.1315, 0.4226, 0.3485, 0.0868, 0.0062, 0.0004], 0.0)),
]


@pytest.mark.parametrize("args,expected", PINNED)
def test_simulated_depth_pinned(args, expected):
    n, replicates, (seed, stream), probe = args
    emp = simulate_insertion_depth(n, replicates, stream_rng(seed, stream),
                                   probe_bits=probe)
    assert (emp.offset, emp.masses.tolist(), emp.truncation) == expected


def _oracle_depths(n, replicates, rng, probe):
    """Insert each replicate's 64-bit keys into a ``Dst`` one at a time,
    drawing them replicate by replicate. A key that runs out of bits is
    skipped: with unbounded keys it lands deeper than 64, below every node
    a probe of 64 bits reaches. -1 marks a replicate whose probe runs out."""
    n_keys = n if probe is not None else n + 1
    depths = []
    for _ in range(replicates):
        keys = rng.integers(0, 2 ** 64, size=n_keys, dtype=np.uint64)
        bits = [format(int(k), "064b") for k in keys]
        tree = Dst()
        for i, b in enumerate(bits[:n]):
            try:
                tree.insert(i, b)
            except InsufficientBitsError:
                pass
        try:
            depths.append(tree.probe(probe if probe is not None
                                     else bits[n]).depth)
        except InsufficientBitsError:
            depths.append(-1)
    return np.array(depths)


def _assert_matches_oracle(n, replicates, make_rng, probe):
    depths = _oracle_depths(n, replicates, make_rng(), probe)
    kept = depths[depths >= 0]
    if kept.size == 0:
        with pytest.raises(InsufficientBitsError):
            simulate_insertion_depth(n, replicates, make_rng(), probe)
        return
    emp = simulate_insertion_depth(n, replicates, make_rng(), probe)
    want = IntPmf.from_samples(
        kept, truncation=(replicates - kept.size) / replicates)
    assert (emp.offset, emp.masses.tolist(), emp.truncation) == (
        want.offset, want.masses.tolist(), want.truncation), (n, probe)


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("probe", [None, "1" * 64, "0" * 64, "01" * 32])
def test_simulated_depth_matches_dst_oracle(monkeypatch, probe, batch):
    if batch is not None:
        # several chunks per call, the last one ragged
        monkeypatch.setattr("renewal_dst.dst._SIM_BATCH", batch)
    for n in (0, 1, 2, 5, 9):
        stream = 64000 + 10 * n + len(probe or "")
        _assert_matches_oracle(n, 60, lambda: stream_rng(64, stream), probe)


@pytest.mark.parametrize("probe", [None, "0" * 64, "0" * 63 + "1",
                                   "0" * 56 + "1" * 8])
@pytest.mark.parametrize("mask", [1, 3, 7])
def test_deep_trees_match_dst_oracle(monkeypatch, mask, probe):
    # Masked keys agree on all but their last few bits, so the trees chain
    # down to depth 64, keys tied on all 64 bits often run out of bits and
    # probes often need more than 64.
    monkeypatch.setattr("renewal_dst.dst._SIM_BATCH", 200)
    for n in (64, 65, 70):
        _assert_matches_oracle(
            n, 30, lambda: _MaskedRng(stream_rng(64, n), mask), probe)


class _ScriptedRng:
    """A generator whose integer draws replay given keys, in whatever shape
    is asked for."""

    def __init__(self, keys):
        self._keys = keys
        self._next = 0

    def integers(self, low, high, size, dtype):
        count = math.prod(np.atleast_1d(size))
        out = self._keys[self._next:self._next + count]
        self._next += count
        return out.reshape(size)


def _key(bits: str) -> int:
    return int(bits, 2) if bits else 0


@st.composite
def _shared_prefix_replicates(draw):
    """Replicates of keys that start with a few prefixes of one path, so
    trees chain down along it, some keys equal on all 64 bits."""
    n = draw(st.integers(0, 40))
    path = draw(st.text("01", min_size=64, max_size=64))
    stems = [path[:k] for k in draw(st.lists(st.integers(0, 64),
                                             min_size=1, max_size=4))]
    probe = draw(st.none()
                 | st.sampled_from(stems).map(
                     lambda s: (s + "1").ljust(64, "0")[:64])
                 | st.text("01", min_size=64, max_size=64))
    n_keys = n if probe is not None else n + 1
    replicates = draw(st.integers(1, 4))
    keys = []
    for _ in range(replicates * n_keys):
        stem = draw(st.sampled_from(stems))
        tail = draw(st.integers(0, 2 ** (64 - len(stem)) - 1))
        keys.append(_key(stem) << (64 - len(stem)) | tail)
    return n, probe, replicates, np.array(keys, dtype=np.uint64)


# Keys 0^d 1^(64-d), d = 0..64, fill the nodes at depths 0..64 on the
# all-zero path, so a second all-zero key (the 66th) runs out of bits and
# is skipped; no replicate drops, as the probe 1^64 stops at depth 1. In
# the second replicate three all-zero keys land at depths 0 and 64, and the
# last of them runs out of bits; in the third the two all-zero keys come
# first and land at depths 0 and 1.
_CHAIN = [_key("0" * d + "1" * (64 - d)) for d in range(65)]
_TIES = (66, "1" * 64, 3, np.array(
    _CHAIN + [0] + [0] + _CHAIN[1:64] + [0, 0] + [0, 0] + _CHAIN[:64],
    dtype=np.uint64))


@pytest.mark.parametrize("probe,depth", [("1" * 64, 1),
                                         ("0" * 63 + "1", 64)])
def test_key_out_of_bits_leaves_probe_depth_pinned(probe, depth):
    # the 66th key, all-zero, runs out of bits below the all-zero path; the
    # probes leave that path at depth 1 and 64, above it
    keys = np.array(_CHAIN + [0], dtype=np.uint64)
    emp = simulate_insertion_depth(66, 1, _ScriptedRng(keys), probe)
    assert dict(emp.items()) == {depth: 1.0}


@settings(max_examples=100, deadline=None)
@given(case=_shared_prefix_replicates(), batch=st.sampled_from([None, 5]))
@example(case=_TIES, batch=None)
def test_record_scan_matches_dst_per_replicate(case, batch):
    n, probe, replicates, keys = case
    per_rep = len(keys) // replicates
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr("renewal_dst.dst._SIM_BATCH", batch)
        # each replicate alone: its depth, or its drop
        for r in range(replicates):
            mine = keys[r * per_rep:(r + 1) * per_rep]
            want = _oracle_depths(n, 1, _ScriptedRng(mine), probe)[0]
            if want < 0:
                with pytest.raises(InsufficientBitsError):
                    simulate_insertion_depth(n, 1, _ScriptedRng(mine), probe)
            else:
                emp = simulate_insertion_depth(n, 1, _ScriptedRng(mine),
                                               probe)
                assert dict(emp.items()) == {want: 1.0}
        # and all of them in one call
        _assert_matches_oracle(n, replicates,
                               lambda: _ScriptedRng(keys), probe)
