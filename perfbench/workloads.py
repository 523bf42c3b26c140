"""The four workloads: the operations of one pass and the check of each.

A pass is a fixed list of calls whose sizes never depend on the seed; the
seed (through ``rng``) picks only eta offsets, random streams and the CLI's
--seed, so those inputs differ between passes. Commands with no such input
(the default converge grids, depth-dist, ks_scaled_sum_exact(19), dst-demo)
repeat when a run makes several passes; the runner clears the package's
result caches before every call, so none reuses a result. Each call goes
through the package namespace or ``renewal_dst.cli.main``, so the traced
run sees it; each is checked against oracle.py or reference.json after the
pass, outside the timed region.

An operation is one library or CLI call, or one sweep of scalar calls: one
function over the whole x (or t) grid at one eta (or t offset). Calls of a
sweep share a ``group``; the sweep fails if any of its calls does. Every
sweep of q_pmf, q_tail and s_infinity_cdf reads the left tail, so whether
it fails does not hinge on where the seeded grid meets the defect's edge,
and a run's failed count depends only on the workload and pass count.

A check returns None, or (message, known) where ``known`` marks a failure
that lies wholly inside a defect listed in KNOWN_DEFECTS. Known failures
still count as failed operations.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from functools import lru_cache

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

KNOWN_DEFECTS = {
    "left-tail": "P(S <= t) below 1e-6 loses relative accuracy: "
                 "s_infinity_cdf(2^-8) is off by 2.6e-3, q_tail/q_pmf(eta, j) "
                 "for j >= 9 read below float resolution (ROADMAP item 3)",
}

# One block of scalar Q_eta calls: N_ETA etas x N_X real x in [-8, 13) x 3
# functions = 2016 calls in 24 sweeps. The law is integer-supported and
# answers at floor(x), so one reference table per eta serves all 84 x; real x
# keeps the oracle cheap.
X_LO, X_CELLS, N_X = -8, 21, 84
SERIES = ("q_cdf", "q_pmf", "q_tail")
N_ETA = 8
T_EXPONENTS = range(-8, 6)       # s_infinity_cdf / _sf at t = 2^(phi + i)
N_T_PHI = 4
MC_DRAWS = 10 ** 6
MC_REPLICATES = 10 ** 4
MC_KEYS = 100
SIM_SAMPLES = 10 ** 4            # the simulate command's default
TV_DEFAULT_GRID = [16 * 4 ** i for i in range(8)]       # 16 .. 262144
SIM_DEFAULT_GRID = [16 * 4 ** i for i in range(7)]      # 16 .. 65536
KS_DEFAULT_GRID = list(range(4, 19))
DEPTH_DIST_BIG, DEPTH_DIST_SMALL = 1 << 20, 1024
TV_PAIR_EXP = 18
KS_SINGLE = 19
ALPHA_REF_DRAWS = 10 ** 5


class Op:
    """One timed call. Scalar calls carry the block their latency statistics
    are taken over and the sweep (``group``) they are checked as part of.

    ``scaled=False`` keeps a library or CLI call's time raw instead of
    scaling it by the probe ticks around it (run.py). The KS calls are kept
    raw: they spend their time in lfilter over arrays of up to 2^22 points,
    memory-bound code that the host's slow stretches barely touch, and
    scaling them by the interpreter-bound ticks made exact-ks's wall_s
    spread 0.21 of its median instead of 0.04.
    """

    __slots__ = ("name", "call", "check", "scalar", "cli", "group", "block",
                 "scaled")

    def __init__(self, name, call, check, scalar=False, cli=False,
                 group=None, block=None, scaled=True):
        self.name = name
        self.call = call
        self.check = check
        self.scalar = scalar
        self.cli = cli
        self.group = group
        self.block = block
        self.scaled = scaled


@lru_cache(maxsize=1)
def reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=256)
def limit_ref(phi: float, m_lo: int = -8, m_hi: int = 13) -> oracle.LimitRef:
    return oracle.LimitRef(phi, m_lo, m_hi)


def _ref_law(n: int) -> dict:
    offset, masses = reference()["laws"][str(n)]
    return {offset + i: m for i, m in enumerate(masses)}


def _frac_log(n: int, alpha: float = 2.0) -> tuple[int, float]:
    if alpha == 2.0:
        k = n.bit_length() - 1
        return k, math.log2(n) - k
    x = math.log(n) / math.log(alpha)
    return math.floor(x), x - math.floor(x)


def _pkg_call(module, attr, *args, **kwargs):
    # attribute lookup at call time, so the traced run's wrappers are used
    return lambda: getattr(module, attr)(*args, **kwargs)


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return call


def _raised(out, known=False):
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}", known
    return None


def _verdict(problems):
    """Fold per-cell (message, known) problems into one op verdict."""
    if not problems:
        return None
    known = all(k for _, k in problems)
    return f"{len(problems)} bad values, first: {problems[0][0]}", known


def _table(out, columns):
    """Rows of a CSV command output as dicts; raises ValueError if malformed."""
    code, text, err = out
    if code != 0:
        raise ValueError(f"exit {code}: {err.strip()[:200]}")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    missing = set(columns) - set(rows[0] if rows else ())
    if missing:
        raise ValueError(f"missing columns {sorted(missing)}")
    return rows


def _check_cli(parse):
    def check(out):
        if isinstance(out, BaseException):
            return _raised(out)
        try:
            return parse(out)
        except (ValueError, KeyError, IndexError) as err:
            return f"bad output: {err}", False
    return check


def _cell(problems, label, got, ref, tol, known=False):
    if not oracle.within(got, ref, tol):
        problems.append(
            (f"{label}: got {got!r}, reference {float(ref)!r}", known))


# ---- scalar limit-law calls ------------------------------------------------

def _series_check(fn, eta, real_x):
    x = math.floor(real_x)

    def check(out):
        r = limit_ref(eta)
        if fn == "q_cdf":
            ref, known = r.cdf(x), False
        elif fn == "q_tail":
            ref, known = r.tail(x), r.in_left_tail(x)
        else:
            ref, known = r.pmf(x), r.in_left_tail(x)
        failed = _raised(out, known)
        if failed:
            return failed
        problems = []
        _cell(problems, f"{fn}({eta!r}, {real_x!r})", out, ref,
              oracle.LIMIT_TOL, known)
        return _verdict(problems)
    return check


def _s_check(fn, t):
    def check(out):
        F, SF = oracle.limit_at(t)
        ref, known = ((F, F < oracle.LEFT_TAIL_DEFECT)
                      if fn == "s_infinity_cdf" else (SF, False))
        failed = _raised(out, known)
        if failed:
            return failed
        problems = []
        _cell(problems, f"{fn}({t!r})", out, ref, oracle.LIMIT_TOL, known)
        return _verdict(problems)
    return check


def scalar_block(pkg, rng, block=0) -> list[Op]:
    """q_cdf, q_pmf, q_tail on a stratified (eta, x) grid; offsets seeded.
    One sweep per (function, eta); the calls interleave the three functions."""
    u, v = rng.random(2).tolist()
    ops = []
    for i in range(N_ETA):
        eta = (i + u) / N_ETA
        for k in range(N_X):
            x = X_LO + (k + v) * X_CELLS / N_X
            for fn in SERIES:
                ops.append(Op(fn, _pkg_call(pkg, fn, eta, x),
                              _series_check(fn, eta, x), scalar=True,
                              group=(block, fn, i), block=block))
    return ops


def s_infinity_block(pkg, rng, block=0) -> list[Op]:
    """s_infinity_cdf and _sf at t = 2^(phi + i), i = -8..5, 4 offsets phi.
    One sweep per (function, phi)."""
    u = float(rng.random())
    ops = []
    for r in range(N_T_PHI):
        for i in T_EXPONENTS:
            t = 2.0 ** ((r + u) / N_T_PHI + i)
            for fn in ("s_infinity_cdf", "s_infinity_sf"):
                ops.append(Op(fn, _pkg_call(pkg, fn, t), _s_check(fn, t),
                              scalar=True, group=(block, fn, r), block=block))
    return ops


# ---- CLI commands ---------------------------------------------------------

def _limit_law_parse(eta):
    def parse(out):
        r = limit_ref(eta)
        problems = []
        rows = _table(out, ("x", "cdf", "pmf", "tail"))
        if [int(row["x"]) for row in rows] != list(range(-3, 13)):
            return "limit-law grid is not the default -3:12:1", False
        for row in rows:
            x = int(row["x"])
            known = r.in_left_tail(x)
            _cell(problems, f"cdf x={x}", float(row["cdf"]), r.cdf(x),
                  oracle.LIMIT_TOL)
            _cell(problems, f"pmf x={x}", float(row["pmf"]), r.pmf(x),
                  oracle.LIMIT_TOL, known)
            _cell(problems, f"tail x={x}", float(row["tail"]), r.tail(x),
                  oracle.LIMIT_TOL, known)
        return _verdict(problems)
    return parse


def _depth_dist_parse(n):
    def parse(out):
        law = _ref_law(n)
        rows = _table(out, ("j", "exact_pmf", "q_pmf", "abs_diff"))
        body = [row for row in rows if row["j"] != "tv"]
        trailer = [row for row in rows if row["j"] == "tv"]
        js = [int(row["j"]) for row in body]
        if not trailer or js != list(range(js[0], js[-1] + 1)):
            return "depth-dist rows are not a contiguous window plus tv", False
        r = limit_ref(0.0, js[0], js[-1] + 1)
        problems = []
        for row, j in zip(body, js):
            known = r.in_left_tail(j)
            ex, q = law.get(j, 0.0), r.pmf(j)
            _cell(problems, f"exact_pmf j={j}", float(row["exact_pmf"]), ex,
                  oracle.LAW_TOL)
            _cell(problems, f"q_pmf j={j}", float(row["q_pmf"]), q,
                  oracle.LIMIT_TOL, known)
            # |exact - q| may be off by the sum of both columns' tolerances
            slack = (oracle.LAW_TOL[0] + oracle.LAW_TOL[1] * ex
                     + oracle.LIMIT_TOL[0] + oracle.LIMIT_TOL[1] * q)
            if not abs(float(row["abs_diff"]) - abs(ex - q)) <= slack:
                problems.append((f"abs_diff j={j}: got {row['abs_diff']}",
                                 known))
        _cell(problems, "tv", float(trailer[0]["abs_diff"]),
              reference()["tv"][str(n)], oracle.DIST_TOL)
        return _verdict(problems)
    return parse


def _converge_parse(kind):
    def parse(out):
        rows = _table(out, ("n", "eta", "kind", "value", "trunc_bound"))
        ns = [int(row["n"]) for row in rows]
        problems = []
        if kind == "tv":
            if ns != TV_DEFAULT_GRID:
                return f"converge tv grid {ns}", False
            for row, n in zip(rows, ns):
                _cell(problems, f"tv n={n}", float(row["value"]),
                      reference()["tv"][str(n)], oracle.DIST_TOL)
                if not 0.0 <= float(row["trunc_bound"]) <= oracle.DIST_TOL[0]:
                    problems.append((f"trunc_bound n={n}", False))
        else:
            if ns != KS_DEFAULT_GRID:
                return f"converge ks grid {ns}", False
            for row, n in zip(rows, ns):
                ks, trunc = reference()["ks"][str(n)]
                _cell(problems, f"ks n={n}", float(row["value"]), ks,
                      oracle.DIST_TOL)
                _cell(problems, f"ks trunc n={n}", float(row["trunc_bound"]),
                      trunc, oracle.DIST_TOL)
        return _verdict(problems)
    return parse


def _dst_reference(corpus, probe):
    """Insertion reports from a prefix map: depth = shortest free prefix."""
    occupied, rows = {}, []
    for label, bits in corpus:
        depth = next(i for i in range(len(bits) + 1)
                     if bits[:i] not in occupied)
        occupied[bits[:depth]] = label
        rows.append((label, depth, occupied.get(bits[:depth - 1], "")
                     if depth else "", _side(bits, depth)))
    if probe is not None:
        depth = next(i for i in range(len(probe) + 1)
                     if probe[:i] not in occupied)
        rows.append(("probe:" + probe, depth, occupied[probe[:depth - 1]],
                     _side(probe, depth)))
    return rows


def _side(bits, depth):
    if depth == 0:
        return "root"
    return "left" if bits[depth - 1] == "0" else "right"


def _dst_demo_parse(pkg, probe):
    def parse(out):
        rows = _table(out, ("label", "depth", "parent", "side"))
        got = [(row["label"], int(row["depth"]), row["parent"], row["side"])
               for row in rows]
        want = _dst_reference(pkg.knuth_corpus(), probe)
        if got != want:
            return f"dst-demo rows {got} != {want}", False
        return None
    return parse


def _simulate_parse(alpha, seed):
    def parse(out):
        rows = _table(out, ("n", "eta", "kind", "value", "trunc_bound"))
        ns = [int(row["n"]) for row in rows]
        if ns != SIM_DEFAULT_GRID:
            return f"simulate grid {ns}", False
        if alpha != 2.0:
            refs = _alpha_reference(alpha, seed)
        problems = []
        for row, n in zip(rows, ns):
            if abs(float(row["eta"]) - _frac_log(n, alpha)[1]) > 1e-12:
                problems.append((f"eta n={n}: {row['eta']}", False))
            if alpha == 2.0:
                ref = reference()["tv"][str(n)]
                bound = oracle.tv_noise(_ref_law(n), SIM_SAMPLES) \
                    + oracle.DIST_TOL[0]
            else:
                ref, bound = refs[n]
            value = float(row["value"])
            if not abs(value - ref) <= bound:
                problems.append((f"sim_tv n={n}: {value} vs reference "
                                 f"{ref:.6f} +- {bound:.6f}", False))
        return _verdict(problems)
    return parse


def _alpha_reference(alpha, seed) -> dict:
    """n -> (TV estimate, allowed gap) for the simulate command at alpha != 2.

    An independent numpy simulation of N_t - floor(log_alpha t) and of
    floor(-log_alpha S + eta), ALPHA_REF_DRAWS draws each. The command's
    value is the TV between two samples of SIM_SAMPLES, so the gap adds the
    noise bounds of all four samples.
    """
    rng = np.random.default_rng([seed, 15])
    ns = np.array(SIM_DEFAULT_GRID, dtype=float)
    counts = np.zeros((ns.size, ALPHA_REF_DRAWS), dtype=np.int64)
    sums = np.zeros(ALPHA_REF_DRAWS)
    j = 1
    while sums.min() <= ns[-1]:
        sums += alpha ** j * 0.5 * rng.standard_exponential(ALPHA_REF_DRAWS)
        counts += sums <= ns[:, None]
        j += 1
    terms = max(4, math.ceil(12 * math.log(10) / math.log(alpha)))
    limit = sum(alpha ** -m * 0.5 * rng.standard_exponential(ALPHA_REF_DRAWS)
                for m in range(terms + 1))
    out = {}
    for row, n in zip(counts, SIM_DEFAULT_GRID):
        k, eta = _frac_log(n, alpha)
        emp = _shares(row - k)
        lim = _shares(np.floor(-np.log(limit) / math.log(alpha) + eta))
        tv = 0.5 * sum(abs(emp.get(j, 0.0) - lim.get(j, 0.0))
                       for j in set(emp) | set(lim))
        out[n] = tv, sum(oracle.tv_noise(law, draws)
                         for law in (emp, lim)
                         for draws in (SIM_SAMPLES, ALPHA_REF_DRAWS))
    return out


def _counts(values) -> dict:
    keys, counts = np.unique(np.asarray(values, dtype=np.int64),
                             return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))


def _shares(values) -> dict:
    counts = _counts(values)
    total = sum(counts.values())
    return {j: c / total for j, c in counts.items()}


# ---- library calls --------------------------------------------------------

def _tv_to_limit_check(n):
    def check(out):
        failed = _raised(out)
        if failed:
            return failed
        tv, eta = out
        problems = []
        _cell(problems, f"tv_to_limit({n})", tv, oracle.tv_exact(n),
              oracle.DIST_TOL)
        if abs(eta - _frac_log(n)[1]) > 1e-15:
            problems.append((f"eta of n={n}: {eta!r}", False))
        return _verdict(problems)
    return check


def _ks_check(n):
    def check(out):
        failed = _raised(out)
        if failed:
            return failed
        ks, trunc = reference()["ks"][str(n)]
        problems = []
        _cell(problems, f"ks n={n}", out[0], ks, oracle.DIST_TOL)
        _cell(problems, f"ks trunc n={n}", out[1], trunc, oracle.DIST_TOL)
        return _verdict(problems)
    return check


def _sample_q_check(eta):
    def check(out):
        failed = _raised(out)
        if failed:
            return failed
        if np.shape(out) != (MC_DRAWS,):
            return f"sample_q returned shape {np.shape(out)}", False
        r = limit_ref(eta, -16, 20)
        ref = {j: float(r.pmf(j)) for j in range(-16, 20)}
        counts = _counts(out)
        tv = 0.5 * sum(abs(counts.get(j, 0) / MC_DRAWS - ref.get(j, 0.0))
                       for j in set(counts) | set(ref))
        if tv > 0.003:
            return f"sample_q({eta!r}): TV {tv:.5f} > 0.003", False
        problem = oracle.histogram_problem(counts, ref, MC_DRAWS)
        return (f"sample_q({eta!r}): {problem}", False) if problem else None
    return check


def _insertion_check():
    def check(out):
        failed = _raised(out)
        if failed:
            return failed
        if out.truncation != 0.0:
            return f"dropped replicates: truncation {out.truncation}", False
        k = MC_KEYS.bit_length() - 1
        ref = {j + k: p for j, p in _ref_law(MC_KEYS).items()}
        counts = {j: round(p * MC_REPLICATES) for j, p in out.items()}
        problem = oracle.histogram_problem(counts, ref, MC_REPLICATES)
        return (f"insertion depth: {problem}", False) if problem else None
    return check


# ---- workloads --------------------------------------------------------------

def _interleave(heavy, pkg, rng, per_op):
    """``per_op`` whole scalar blocks after each heavy op, so call latencies
    sample the whole pass rather than one moment of it, and every block
    starts either just after a heavy op or just after another block."""
    ops = []
    for op in heavy:
        ops.append(op)
        for _ in range(per_op):
            ops += scalar_block(pkg, rng, len(ops))
    return ops


def exact_depth(pkg, cli, rng, seed):
    base = 1 << TV_PAIR_EXP
    # n_a and n_b are odd (never dyadic) and sum to 3 * 2^18 for every seed
    n_a = base + int(rng.integers(base // 64, base - base // 64)) | 1
    n_b = 3 * base - n_a
    n = DEPTH_DIST_BIG
    ops = [
        Op("cli converge --kind tv", _cli_call(cli, ["converge", "--kind", "tv"]),
           _check_cli(_converge_parse("tv")), cli=True),
        Op("cli depth-dist", _cli_call(cli, ["depth-dist", "--n", str(n)]),
           _check_cli(_depth_dist_parse(n)), cli=True),
    ]
    for m in (n_a, n_b):
        ops.append(Op("tv_to_limit", _pkg_call(pkg, "tv_to_limit", m),
                      _tv_to_limit_check(m)))
    return _interleave(ops, pkg, rng, 2)


def exact_ks(pkg, cli, rng, seed):
    ops = [
        Op("cli converge --kind ks", _cli_call(cli, ["converge", "--kind", "ks"]),
           _check_cli(_converge_parse("ks")), cli=True, scaled=False),
        Op("ks_scaled_sum_exact", _pkg_call(pkg, "ks_scaled_sum_exact",
                                            KS_SINGLE),
           _ks_check(KS_SINGLE), scaled=False),
    ]
    return _interleave(ops, pkg, rng, 4)


def monte_carlo(pkg, cli, rng, seed):
    streams = [int(s) for s in rng.integers(0, 2 ** 62, size=4)]
    cli_seeds = [str(int(s)) for s in rng.integers(0, 2 ** 62, size=2)]
    etas = [float(e) for e in rng.random(2)]
    probe = "".join(map(str, rng.integers(0, 2, size=64)))
    ops = []
    for eta, stream in zip(etas, streams):
        ops.append(Op("sample_q", _pkg_call(
            pkg, "sample_q", eta, pkg.stream_rng(seed, stream), size=MC_DRAWS),
            _sample_q_check(eta)))
    for probe_bits, stream in ((None, streams[2]), (probe, streams[3])):
        ops.append(Op("simulate_insertion_depth", _pkg_call(
            pkg, "simulate_insertion_depth", MC_KEYS, MC_REPLICATES,
            rng=pkg.stream_rng(seed, stream), probe_bits=probe_bits),
            _insertion_check()))
    for alpha, cli_seed in zip((2.0, 1.5), cli_seeds):
        argv = ["simulate", "--alpha", str(alpha), "--seed", cli_seed]
        ops.append(Op(f"cli simulate --alpha {alpha}", _cli_call(cli, argv),
                      _check_cli(_simulate_parse(alpha, int(cli_seed))),
                      cli=True))
    return _interleave(ops, pkg, rng, 2)


def series_calls(pkg, cli, rng, seed):
    eta = float(rng.random())
    n = DEPTH_DIST_SMALL
    ops = scalar_block(pkg, rng) + s_infinity_block(pkg, rng)
    ops += [
        Op("cli limit-law", _cli_call(cli, ["limit-law", "--eta", repr(eta)]),
           _check_cli(_limit_law_parse(eta)), cli=True),
        Op("cli dst-demo", _cli_call(cli, ["dst-demo"]),
           _check_cli(_dst_demo_parse(pkg, None)), cli=True),
        Op("cli dst-demo --probe", _cli_call(cli, ["dst-demo", "--probe",
                                                   "011100"]),
           _check_cli(_dst_demo_parse(pkg, "011100")), cli=True),
        Op("cli depth-dist", _cli_call(cli, ["depth-dist", "--n", str(n)]),
           _check_cli(_depth_dist_parse(n)), cli=True),
    ]
    return ops


WORKLOADS = {
    "exact-depth": exact_depth,
    "exact-ks": exact_ks,
    "monte-carlo": monte_carlo,
    "series-calls": series_calls,
}

# Seconds one pass takes on the reference host (a 2-core Xeon VM), its
# checks included. A run makes pass_count passes: a number fixed by the
# workload and --seconds, never by timing, so that two runs of the same
# code attempt, and fail, the same operations.
PASS_S = {
    "exact-depth": 10.0,
    "exact-ks": 12.0,
    "monte-carlo": 7.5,
    "series-calls": 0.18,
}


def pass_count(name: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[name]))
