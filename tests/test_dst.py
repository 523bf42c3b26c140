import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewal_dst import (
    Dst,
    InsufficientBitsError,
    bits_from_unit_interval,
    build,
    depth_distribution_exact,
    knuth_corpus,
    parse_corpus,
    simulate_insertion_depth,
    tv_distance,
)
from renewal_dst.dst import CorpusFormatError
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
    emp = simulate_insertion_depth(100, 4000, 64, stream_rng(20070201, 25))
    assert tv_distance(emp, depth_distribution_exact(100)) <= 0.04


def test_probe_direction_does_not_matter():
    a = simulate_insertion_depth(50, 20000, 64, stream_rng(20070201, 23),
                                 probe_bits="0" * 40)
    b = simulate_insertion_depth(50, 20000, 64, stream_rng(20070201, 24),
                                 probe_bits="1" * 40)
    assert tv_distance(a, b) <= 0.03


def test_simulated_depth_reports_budget_exhaustion():
    emp = simulate_insertion_depth(5, 500, 3, stream_rng(1, 1))
    assert 0 < emp.truncation < 1
    assert emp.total() == pytest.approx(1 - emp.truncation, abs=1e-12)
    # 20 keys can never fit under a 3-bit budget: every replicate drops,
    # which is known before any key is drawn
    rng = stream_rng(1, 2)
    with pytest.raises(InsufficientBitsError):
        simulate_insertion_depth(20, 50, 3, rng)
    assert rng.random() == stream_rng(1, 2).random()


def test_simulated_depth_reproducible():
    a = simulate_insertion_depth(10, 500, 64, stream_rng(9, 9))
    b = simulate_insertion_depth(10, 500, 64, stream_rng(9, 9))
    assert a.offset == b.offset and np.array_equal(a.masses, b.masses)


# (offset, masses, truncation) recorded from the one-replicate-at-a-time
# set walk that the level-synchronous simulator replaced; equality is exact,
# so these pin both the tree logic and the Philox draw layout.
P64 = "0110" * 16
P100 = "10" * 50
PINNED = [
    ((100, 3000, 64, (20070201, 25), None),
     (4, [0.005333333333333333, 0.136, 0.43033333333333335, 0.328, 0.09,
          0.01, 0.0003333333333333333], 0.0)),
    ((100, 3000, 64, (20070201, 25), P64),
     (4, [0.005, 0.12633333333333333, 0.44433333333333336, 0.344,
          0.07366666666666667, 0.006333333333333333, 0.0003333333333333333],
      0.0)),
    ((5, 500, 3, (1, 1), None), (1, [0.052, 0.516, 0.36], 0.072)),
    ((40, 600, 70, (7, 3), None),
     (3, [0.023333333333333334, 0.21333333333333335, 0.4633333333333333,
          0.25666666666666665, 0.04, 0.0033333333333333335], 0.0)),
    ((40, 600, 70, (7, 4), P100),
     (3, [0.02, 0.23333333333333334, 0.47833333333333333, 0.22, 0.045,
          0.0033333333333333335], 0.0)),
    # 1500 = 2 * 648 + 204 replicates: a ragged last chunk
    ((100, 1500, 64, (3, 5), None),
     (4, [0.006, 0.13666666666666666, 0.43666666666666665, 0.328,
          0.08466666666666667, 0.008], 0.0)),
    ((12, 7000, 4, (2, 2), None),
     (1, [0.00014285714285714287, 0.05828571428571429, 0.373,
          0.3387142857142857], 0.22985714285714287)),
    # a two-bit probe that is blocked in most replicates
    ((6, 400, 64, (5, 6), "01"), (1, [0.0325, 0.425], 0.5425)),
    ((0, 30, 64, (5, 7), "01"), (0, [1.0], 0.0)),
]


@pytest.mark.parametrize("args,expected", PINNED)
def test_simulated_depth_pinned(args, expected):
    n, replicates, budget, (seed, stream), probe = args
    emp = simulate_insertion_depth(n, replicates, budget,
                                   stream_rng(seed, stream), probe_bits=probe)
    assert (emp.offset, emp.masses.tolist(), emp.truncation) == expected


class _MaskedRng:
    """A generator whose integer draws are ANDed with a per-word mask, so
    keys share long prefixes and trees grow past one 64-bit word."""

    def __init__(self, rng, mask):
        self._rng = rng
        self._mask = np.array(mask, dtype=np.uint64)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs) & self._mask


def _oracle_depths(n, replicates, budget, rng, probe):
    """Insert each replicate's keys into a ``Dst`` one at a time, drawing
    them replicate by replicate; -1 marks a dropped replicate."""
    words = (budget + 63) // 64
    n_keys = n if probe is not None else n + 1
    depths = []
    for _ in range(replicates):
        rows = rng.integers(0, 2 ** 64, size=(n_keys, words), dtype=np.uint64)
        bits = ["".join(format(int(w), "064b") for w in row)[:budget]
                for row in rows]
        tree = Dst()
        try:
            for i, b in enumerate(bits[:n]):
                tree.insert(i, b)
            depths.append(tree.probe(probe if probe is not None
                                     else bits[n]).depth)
        except InsufficientBitsError:
            depths.append(-1)
    return np.array(depths)


def _assert_matches_oracle(n, replicates, budget, make_rng, probe):
    depths = _oracle_depths(n, replicates, budget, make_rng(), probe)
    kept = depths[depths >= 0]
    if kept.size == 0:
        with pytest.raises(InsufficientBitsError):
            simulate_insertion_depth(n, replicates, budget, make_rng(), probe)
        return
    emp = simulate_insertion_depth(n, replicates, budget, make_rng(), probe)
    want = IntPmf.from_samples(
        kept, truncation=(replicates - kept.size) / replicates)
    assert (emp.offset, emp.masses.tolist(), emp.truncation) == (
        want.offset, want.masses.tolist(), want.truncation), (n, budget, probe)


@pytest.mark.parametrize("batch", [None, 7])
@pytest.mark.parametrize("probe", [None, "01", "1" * 70])
@pytest.mark.parametrize("budget", [2, 3, 64, 70])
def test_simulated_depth_matches_dst_oracle(monkeypatch, budget, probe, batch):
    if batch is not None:
        # several chunks per call, the last one ragged
        monkeypatch.setattr("renewal_dst.dst._SIM_BATCH", batch)
    for n in (0, 1, 2, 5, 9):
        stream = 1000 * budget + 10 * n + len(probe or "")
        _assert_matches_oracle(n, 60, budget,
                               lambda: stream_rng(budget, stream), probe)


@pytest.mark.parametrize("probe", [None, "0" * 66, "0" * 63 + "1" * 9])
@pytest.mark.parametrize("budget", [64, 66, 70])
def test_deep_trees_match_dst_oracle(monkeypatch, budget, probe):
    # Keys agree on their first 63 bits, so the trees chain down past bit 64
    # (the second key word) and often exhaust the budget.
    monkeypatch.setattr("renewal_dst.dst._SIM_BATCH", 200)
    mask = [1, 0xFF << 56][:(budget + 63) // 64]
    for n in (64, 70):
        _assert_matches_oracle(
            n, 30, budget,
            lambda: _MaskedRng(stream_rng(budget, n), mask), probe)


class _ScriptedRng:
    """A generator whose integer draws replay given keys, row by row, in
    whatever (..., words) shape is asked for."""

    def __init__(self, rows):
        self._rows = rows
        self._next = 0

    def integers(self, low, high, size, dtype):
        count = math.prod(size[:-1])
        out = self._rows[self._next:self._next + count]
        self._next += count
        return out.reshape(size)


@st.composite
def _shared_prefix_replicates(draw):
    """Replicates of keys that start with a few prefixes of one path, so
    trees chain down and exhaust small budgets; budgets past 64 span two
    words."""
    n = draw(st.integers(0, 40))
    budget = draw(st.integers(1, 6) | st.integers(1, 70)
                  | st.integers(62, 70))
    words = (budget + 63) // 64
    # prefixes of one path, so keys line up along it, each a little deeper
    path = draw(st.text("01", min_size=budget + 2, max_size=budget + 2))
    stems = [path[:k] for k in draw(st.lists(st.integers(0, budget + 2),
                                             min_size=1, max_size=4))]
    probe = draw(st.none() | st.sampled_from(stems).map(lambda s: s + "1")
                 | st.text("01", min_size=1, max_size=70))
    n_keys = n if probe is not None else n + 1
    replicates = draw(st.integers(1, 4))
    rows = []
    for _ in range(replicates * n_keys):
        stem = draw(st.sampled_from(stems))[:64 * words]
        tail = draw(st.integers(0, 2 ** (64 * words - len(stem)) - 1))
        key = (int(stem, 2) if stem else 0) << (64 * words - len(stem)) | tail
        rows.append([key >> (64 * (words - 1 - w)) & (2 ** 64 - 1)
                     for w in range(words)])
    rows = np.array(rows, dtype=np.uint64).reshape(-1, words)
    return n, budget, probe, replicates, rows


# Only the last of the keys starting 00 runs out of bits: the depth-2 node
# on its path fills just before it arrives.
_LAST_KEY_DROPS = (4, 2, "1", 1, np.array(
    [[int(k.ljust(64, "0"), 2)] for k in ("00", "01", "001", "0001")],
    dtype=np.uint64))


@settings(max_examples=100, deadline=None)
@given(case=_shared_prefix_replicates(), batch=st.sampled_from([None, 5]))
@example(case=_LAST_KEY_DROPS, batch=None)
def test_record_scan_matches_dst_per_replicate(case, batch):
    n, budget, probe, replicates, rows = case
    per_rep = len(rows) // replicates
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr("renewal_dst.dst._SIM_BATCH", batch)
            mp.setattr("renewal_dst.dst._SCAN_BLOCK", 3)
        # each replicate alone: its depth, or its drop
        for r in range(replicates):
            mine = rows[r * per_rep:(r + 1) * per_rep]
            want = _oracle_depths(n, 1, budget, _ScriptedRng(mine), probe)[0]
            if want < 0:
                with pytest.raises(InsufficientBitsError):
                    simulate_insertion_depth(n, 1, budget,
                                             _ScriptedRng(mine), probe)
            else:
                emp = simulate_insertion_depth(n, 1, budget,
                                               _ScriptedRng(mine), probe)
                assert dict(emp.items()) == {want: 1.0}
        # and all of them in one call
        _assert_matches_oracle(n, replicates, budget,
                               lambda: _ScriptedRng(rows), probe)
