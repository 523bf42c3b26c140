"""Benchmark runner for renewal-dst.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process and one thread runs the workload's pass (see
workloads.py) back to back, closed loop. The number of passes depends only
on the workload and --seconds (workloads.pass_count), never on how fast
they run, so two runs of the same code attempt the same operations; a traced
run makes as many untraced and traced passes, alternating. Every
operation's output is checked after its pass, outside the timed region.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is the result object; the line before it is a JSON
detail record (raw and scaled times, probe ticks, sample counts, failures).

Scalar calls are timed against the speed probe (probe.py): each is followed
by one untimed probe tick, and its time is multiplied by REFERENCE_NS over
the median of the WINDOW ticks around it. A library or CLI call is scaled
by the mean of two tick medians, of WINDOW ticks just before it and WINDOW
just after, unless its workload marks it raw (Op.scaled in workloads.py);
each set-up is scaled the same way by ticks taken in its own interpreter
(set-up times swung between 0.9 and 1.9 s with the host's speed).
wall_s, call_p50_us, call_p99_us and trace.overhead_s use these times; the
raw figures are in the detail record.

wall_s is the median over the run's passes. Call latency percentiles are
taken per scalar block (2016 Q_eta calls, plus 112 s_infinity calls on
series-calls; one block per pass of series-calls, eight per pass of
exact-depth and exact-ks, twelve of monte-carlo): call_p50_us is the
median of the blocks' p50s and call_p99_us the least of their p99s.
The slowest 1% of a block's calls depends on how many host hiccups, too
short for a tick to see, land in it, so the least disturbed block is the
steadiest reading of the code's own tail (run-to-run spread 0.01-0.09 of
the median, against 0.06-0.16 for the median over blocks). The number of
blocks is fixed by the workload and --seconds, so runs stay comparable.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter_ns

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
from probe import REFERENCE_NS, WINDOW, tick_ns  # noqa: E402

SETUP_RUNS = 3
# import plus the first lazy build of the default mixture (euler_b, a_k),
# bracketed by probe ticks; the probe imports only math and time, which the
# interpreter has loaded anyway, so the timed import is untouched
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from probe import WINDOW, tick_ns
def speed():
    return sorted(tick_ns(k) for k in range(WINDOW))[WINDOW // 2]
before = speed()
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import renewal_dst
renewal_dst.s_infinity_cdf(1.0)
elapsed = time.perf_counter() - t0
print(elapsed, (before + speed()) / 2)
"""

# (metric, layer, stats key, unit); calls and self_s come from spans
PER_LAYER = [
    ("renewal.calls", "renewal", "calls", "count"),
    ("renewal.self_s", "renewal", "self_s", "s"),
    ("renewal.law_n", "renewal", "law_n", "count"),
    ("renewal.ks_points", "renewal", "ks_points", "count"),
    ("renewal.out_bytes", "renewal", "out_bytes", "bytes"),
    ("limit_law.calls", "limit_law", "calls", "count"),
    ("limit_law.self_s", "limit_law", "self_s", "s"),
    ("limit_law.scalar_calls", "limit_law", "scalar_calls", "count"),
    ("limit_law.cdf_points", "limit_law", "cdf_points", "count"),
    ("limit_law.draws", "limit_law", "draws", "count"),
    ("lifetimes.calls", "lifetimes", "calls", "count"),
    ("lifetimes.self_s", "lifetimes", "self_s", "s"),
    ("lifetimes.draws", "lifetimes", "draws", "count"),
    ("dst.calls", "dst", "calls", "count"),
    ("dst.self_s", "dst", "self_s", "s"),
    ("dst.keys", "dst", "keys", "count"),
    ("dst.kept_ratio", "dst", "kept_ratio", "ratio"),
    ("metrics.calls", "metrics", "calls", "count"),
    ("metrics.self_s", "metrics", "self_s", "s"),
    ("metrics.window_len", "metrics", "window_len", "count"),
    ("cli.calls", "cli", "calls", "count"),
    ("cli.self_s", "cli", "self_s", "s"),
    ("cli.out_bytes", "cli", "out_bytes", "bytes"),
]


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "renewal_dst", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: package source not found at {init}")
    sys.path.insert(0, SRC)
    import renewal_dst
    import renewal_dst.cli
    if os.path.abspath(renewal_dst.__file__) != init:
        sys.exit(f"error: imported {renewal_dst.__file__}, expected {init}")
    return renewal_dst, sys.modules["renewal_dst.cli"]


def measure_setup() -> list[tuple[float, float]]:
    """(raw seconds, tick speed) of SETUP_RUNS fresh-interpreter set-ups."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        elapsed, speed = proc.stdout.split()[-2:]
        samples.append((float(elapsed), float(speed)))
    return samples


def result_caches() -> list:
    """cache_clear of every functools cache in the package that takes
    arguments, such as ks_scaled_sum_exact's. Argument-free caches (euler_b,
    the default mixture) are lazy set-up, which setup_s measures."""
    clears = []
    for name, module in list(sys.modules.items()):
        if name != "renewal_dst" and not name.startswith("renewal_dst."):
            continue
        for obj in vars(module).values():
            if (getattr(obj, "__module__", None) == name
                    and hasattr(obj, "cache_clear")
                    and inspect.signature(obj).parameters):
                clears.append(obj.cache_clear)
    return clears


def stretches(flags) -> list:
    """(start, stop) of every run of consecutive true flags."""
    out, start = [], None
    for i, flag in enumerate(list(flags) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            out.append((start, i))
            start = None
    return out


class Pass:
    """One timed pass: outputs, raw op times and the probe ticks."""

    def __init__(self, ops, tracer, clears):
        self.outputs, self.raw_ns, self.scaled_ns, ticks = [], [], [], []
        self.op_times = []      # (name, raw ns, tick speed) of non-scalar ops
        for i, op in enumerate(ops):
            if not op.scalar:
                before = statistics.median(tick_ns(k) for k in range(WINDOW))
            for clear in clears:       # every operation starts cold, as a
                clear()                # fresh CLI process would
            t0 = perf_counter_ns()
            try:
                out = op.call()
            except Exception as err:   # a raising operation is a failed one
                out = err
            elapsed = perf_counter_ns() - t0
            self.raw_ns.append(elapsed)
            self.scaled_ns.append(elapsed)
            if op.scalar:
                ticks.append(tick_ns(i))
            else:
                ticks.append(0)
                after = statistics.median(tick_ns(k) for k in range(WINDOW))
                speed = (before + after) / 2
                self.op_times.append((op.name, elapsed, speed))
                if op.scaled:
                    self.scaled_ns[i] = elapsed * REFERENCE_NS / speed
            if tracer is not None and op.cli and isinstance(out, tuple):
                tracer.add("cli", "out_bytes", len(out[1].encode()))
            self.outputs.append(out)
        self.scalar = [op.scalar for op in ops]
        self.blocks = [op.block for op in ops]
        # a scalar call is scaled by the median tick of the WINDOW calls
        # around it in its stretch of scalar calls
        self.ticks_ns = []
        for lo, hi in stretches(self.scalar):
            padded = np.pad(np.array(ticks[lo:hi], dtype=float), WINDOW // 2,
                            mode="edge")
            speed = np.median(sliding_window_view(padded, WINDOW), axis=1)
            for i, tick in zip(range(lo, hi), speed.tolist()):
                self.scaled_ns[i] = self.raw_ns[i] * REFERENCE_NS / tick
            self.ticks_ns += ticks[lo:hi]

    def wall(self, scaled=True) -> float:
        return sum(self.scaled_ns if scaled else self.raw_ns) / 1e9

    def latencies_us(self, scaled=True) -> list:
        times = self.scaled_ns if scaled else self.raw_ns
        return [t / 1e3 for t, s in zip(times, self.scalar) if s]

    def block_latencies_us(self, scaled=True) -> list:
        """Scalar call latencies, one list per scalar block."""
        times = self.scaled_ns if scaled else self.raw_ns
        blocks = {}
        for t, b in zip(times, self.blocks):
            if b is not None:
                blocks.setdefault(b, []).append(t / 1e3)
        return list(blocks.values())


def percentile(values, q):
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer) -> dict:
    st = tracer.stats
    dst = st["dst"]
    dst["kept_ratio"] = dst["kept"] / dst["attempted"] if dst["attempted"] else 0.0
    return {name: st[layer][key] for name, layer, key, _ in PER_LAYER}


class Tally:
    """Checked operations, failures by known-defect flag, a few examples.

    Calls that share an Op.group form one operation (a sweep), which fails
    if any of its calls does, and then counts as known only if every failed
    call is. ``bad_calls`` counts the failed calls themselves."""

    def __init__(self):
        self.attempted = 0
        self.bad_calls = 0
        self.failed = {False: 0, True: 0}
        self.examples = {False: [], True: []}

    def check(self, ops, outputs) -> None:
        operations = {}
        for i, (op, out) in enumerate(zip(ops, outputs)):
            try:
                verdict = op.check(out)
            except Exception as err:   # an output of the wrong shape
                verdict = f"check raised {type(err).__name__}: {err}", False
            key = i if op.group is None else op.group
            bad = operations.setdefault(key, [])
            if verdict is not None:
                bad.append((op.name, verdict))
        for bad in operations.values():
            self.attempted += 1
            if not bad:
                continue
            self.bad_calls += len(bad)
            known = all(verdict[1] for _, verdict in bad)
            self.failed[known] += 1
            if len(self.examples[known]) < 6:
                name, (problem, _) = next(
                    (b for b in bad if not b[1][1]), bad[0])
                self.examples[known].append({"op": name, "calls_failed":
                                             len(bad), "problem": problem})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2 ** 63

    pkg, cli = load_package()
    clears = result_caches()
    build = workloads.WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup()
    tick_ns(0)        # warm the probe's own code paths

    tally = Tally()
    passes = {False: [], True: []}      # keyed by traced
    layer_runs = []
    unmeasured, missing = [], set()
    count = workloads.pass_count(args.workload, args.seconds)
    gc.disable()      # building and checking passes allocate heavily
    for index in range(count * (2 if args.trace else 1)):
        traced = bool(args.trace) and index % 2 == 1
        ops = build(pkg, cli, np.random.default_rng([seed, index]), seed)
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        gc.enable()   # the collector runs only while the package runs
        try:
            done = Pass(ops, tracer, clears)
        finally:
            gc.disable()
            if tracer is not None:
                tracer.uninstall()
        passes[traced].append(done)
        if tracer is not None:
            layer_runs.append(layer_metrics(tracer))
            unmeasured, missing = tracer.unmeasured, missing | tracer.missing
        tally.check(ops, done.outputs)
        done.outputs = None   # checked; keep peak memory independent of passes

    def median_of(stat, scaled=True, traced=False):
        return statistics.median(stat(p, scaled) for p in passes[traced])

    def wall(p, scaled):
        return p.wall(scaled)

    def call_percentile(q, over_blocks, scaled=True):
        return over_blocks(
            percentile(block, q) for p in passes[False]
            for block in p.block_latencies_us(scaled))

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layer_runs),
                          "unit": unit} for name, _, _, unit in PER_LAYER}
        metrics["trace.overhead_s"] = {
            "value": median_of(wall, traced=True) - median_of(wall),
            "unit": "s"}
    else:
        # wall_s over passes, call latencies over blocks (module docstring)
        metrics = {
            "setup_s": {"value": statistics.median(
                t * REFERENCE_NS / speed for t, speed in setup), "unit": "s"},
            "wall_s": {"value": median_of(wall), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "ok_ops": {"value": 1 - sum(tally.failed.values()) / tally.attempted,
                       "unit": "ratio"},
            "call_p50_us": {"value": call_percentile(0.50, statistics.median),
                            "unit": "us"},
            "call_p99_us": {"value": call_percentile(0.99, min),
                            "unit": "us"},
        }
    untraced = passes[False]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "passes": len(untraced), "traced_passes": len(passes[True]),
        "raw_wall_s": [p.wall(False) for p in untraced],
        "raw_call_p50_us": call_percentile(0.50, statistics.median, False),
        "raw_call_p99_us": call_percentile(0.99, min, False),
        "scaled_wall_s": [p.wall() for p in untraced],
        "tick_median_ns": [statistics.median(p.ticks_ns) for p in untraced],
        "op_times": [p.op_times for p in untraced],
        "setup_samples_s": setup,      # (raw seconds, tick speed in ns)
        "call_samples": sum(len(p.latencies_us()) for p in untraced),
        "block_p50_p99_raw_us": [
            [percentile(b, q) for q in (0.5, 0.99)]
            for p in untraced for b in p.block_latencies_us(False)],
        "block_p50_p99_us": [
            [percentile(b, q) for q in (0.5, 0.99)]
            for p in untraced for b in p.block_latencies_us()],
        "calls_failed": tally.bad_calls,
        "failed_known": tally.failed[True],
        "failed_unknown": tally.failed[False],
        "known_defects": workloads.KNOWN_DEFECTS,
        "unknown_failures": tally.examples[False],
        "known_failures": tally.examples[True],
        "unmeasured_layers": unmeasured, "missing_wrappers": sorted(missing),
    }))
    print(json.dumps({"correct": tally.failed[False] == 0,
                      "attempted": tally.attempted,
                      "failed": sum(tally.failed.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
