"""Per-layer spans for the traced run, installed from outside the package.

A layer is one module of the package. The tracer replaces every function
that one layer reaches in another (the cross-module bindings, such as
``renewal_dst.metrics.q_pmf``) and every function on the package namespace
with a wrapper that opens a span. Calls inside one module stay unwrapped, so
a span marks a layer boundary; the few own-module names in ``INNER`` are
wrapped as well because their arguments or results feed a counter.

Self time is a span's duration minus the time its child spans cover.
``calls`` counts spans entered from outside their layer. Counters come from
arguments and results ("computed"), never from inside the package;
renewal.out_bytes sums the array bytes every renewal span returns.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "renewal_dst"
LAYERS = ("renewal", "limit_law", "metrics", "dst", "lifetimes", "cli")
INNER = (("renewal", "partial_sum_pmf"), ("metrics", "limit_pmf_window"),
         ("cli", "main"))


def _nbytes(result) -> int:
    if isinstance(result, np.ndarray):
        return result.nbytes
    if isinstance(result, tuple):
        return sum(_nbytes(r) for r in result)
    masses = getattr(result, "masses", None)
    return masses.nbytes if isinstance(masses, np.ndarray) else 0


def _size(size) -> int:
    return 1 if size is None else int(np.prod(size))


def _scalar_call(st, args, result):
    st["scalar_calls"] += 1


def _law(st, args, result):
    st["law_n"] += args["n"]


def _ks(st, args, result):
    st["ks_points"] += args["cap_multiplier"] << args["n"]


def _cdf(st, args, result):
    if np.ndim(args["t"]) == 0:
        st["scalar_calls"] += 1
    else:
        st["cdf_points"] += np.size(args["t"])


def _draws(st, args, result):
    st["draws"] += _size(args["size"])


def _simulate(st, args, result):
    replicates = args["replicates"]
    st["keys"] += args["n"] * replicates
    st["attempted"] += replicates
    st["kept"] += round(replicates * (1.0 - result.truncation))


def _build(st, args, result):
    st["keys"] += len(result[1])


def _window(st, args, result):
    st["window_len"] += len(result[1])


# function name -> (needs bound arguments, counter)
COUNTERS = {
    "q_cdf": (False, _scalar_call),
    "q_pmf": (False, _scalar_call),
    "q_tail": (False, _scalar_call),
    "s_infinity_sf": (False, _scalar_call),
    "s_infinity_cdf": (True, _cdf),
    "sample_q": (True, _draws),
    "sample_s_infinity": (True, _draws),
    "sample_lifetime": (True, _draws),
    "depth_distribution_exact": (True, _law),
    "centered_count_distribution": (True, _law),
    "ks_scaled_sum_exact": (True, _ks),
    "simulate_insertion_depth": (True, _simulate),
    "build": (False, _build),
    "limit_pmf_window": (False, _window),
}


class Tracer:
    """Installs span wrappers, aggregates per-layer numbers, restores."""

    def __init__(self):
        self.stats = {layer: defaultdict(float) for layer in LAYERS}
        self.unmeasured: list[str] = []
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        # sys.modules, not attribute access: renewal_dst.limit_law is a function
        modules = {layer: sys.modules.get(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        owner = {m.__name__: layer for layer, m in modules.items() if m}
        self.unmeasured = [layer for layer, m in modules.items() if m is None]
        for target in [sys.modules[PACKAGE], *filter(None, modules.values())]:
            for name, obj in list(vars(target).items()):
                layer = owner.get(getattr(obj, "__module__", None))
                if (layer is None or isinstance(obj, type)
                        or not callable(obj) or target is modules[layer]):
                    continue
                self._wrap(target, name, layer)
        for layer, name in INNER:
            module = modules[layer]
            if module is not None and callable(getattr(module, name, None)):
                self._wrap(module, name, layer)
            else:
                self.missing.add(f"{layer}.{name}")

    def uninstall(self) -> None:
        while self._installed:
            target, name, original = self._installed.pop()
            setattr(target, name, original)

    def add(self, layer: str, key: str, value: float) -> None:
        self.stats[layer][key] += value

    def _wrap(self, target, name: str, layer: str) -> None:
        fn = getattr(target, name)
        needs_args, counter = COUNTERS.get(name, (False, None))
        signature = inspect.signature(fn) if needs_args else None
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = span(layer, fn, args, kwargs)
            if counter is not None:
                try:
                    if signature is not None:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        args = bound.arguments
                    counter(self.stats[layer], args, result)
                except (KeyError, TypeError, AttributeError):
                    # the signature moved on: the counter is unmeasured
                    self.missing.add(f"{layer}.{name} counter")
            if layer == "renewal":
                self.stats[layer]["out_bytes"] += _nbytes(result)
            return result

        setattr(target, name, traced)
        self._installed.append((target, name, fn))

    def _span(self, layer: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            self._stack.pop()
            st = self.stats[layer]
            st["self_s"] += elapsed - frame[1]
            if parent is None or parent[0] != layer:
                st["calls"] += 1
            if parent is not None:
                parent[1] += elapsed
