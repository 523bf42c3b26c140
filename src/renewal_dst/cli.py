"""Command-line front end: every computation as a reproducible command.

Commands emit CSV or JSON tables (plot data, not plots). Output is a pure
function of the flags: ``simulate``, the one command that draws, reads
``--seed``, whose default is fixed and printed in its header, and floats
are written with 17 significant digits, so identical invocations are
byte-identical.

Exit codes: 0 success / assertions hold, 1 assertion failure, 2 usage
(a request too big for memory among them), 3 data error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
# limit_law and rng load no numpy; the commands import the modules that do
from .limit_law import q_cdf, q_pmf, q_tail
from .rng import DEFAULT_SEED, stream_rng

_GRID_DEFAULTS = {
    "limit-law": "-3:12:1",
    "simulate": "16:65536:x4",
    "converge-tv": "16:262144:x4",
    "converge-ks": "4:18:1",
}
_MAX_GRID_POINTS = 10 ** 6


class DataError(Exception):
    pass


def _parse_grid(text: str) -> list[int] | range:
    """Grid points of A:B:STEP (a ``range``, so its bounds are checked without
    building it) or A:B:xM (a geometric list)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be A:B:STEP or A:B:xM, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"grid endpoints must be integers: {text!r}")
    if a > b:
        raise ValueError(f"reversed grid: {text!r}")
    step = parts[2]
    if step.startswith("x"):
        try:
            m = int(step[1:])
        except ValueError:
            raise ValueError(f"bad grid multiplier: {text!r}")
        if m < 2:
            raise ValueError("grid multiplier must be >= 2")
        if a < 1:
            raise ValueError("geometric grid needs a positive start")
        vals, v = [], a
        while v <= b:
            vals.append(v)
            v *= m
        return vals
    try:
        s = int(step)
    except ValueError:
        raise ValueError(f"bad grid step: {text!r}")
    if s < 1:
        raise ValueError("grid step must be >= 1")
    count = (b - a) // s + 1    # len() of a range past sys.maxsize raises
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"grid limited to {_MAX_GRID_POINTS} points, "
                         f"got {count}")
    return range(a, b + 1, s)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    # int, bool and numpy's integers; hasattr costs a float cell less than
    # an isinstance check against numbers.Integral
    if hasattr(v, "__index__"):
        return str(int(v))
    f = float(v)
    if f.is_integer() and abs(f) < 2 ** 53:  # every such integer is exact
        return str(int(f))
    return format(f, ".17g")


def _emit(meta: dict, columns, rows, fmt: str, out, extra: dict | None = None):
    if fmt == "csv":
        lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items()),
                 ",".join(columns)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        import json
        obj = {"meta": meta, "rows": [dict(zip(columns, row)) for row in rows]}
        if extra:
            obj.update(extra)
        text = json.dumps(obj, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write output: {err}")
    else:
        sys.stdout.write(text)


def cmd_limit_law(args) -> int:
    eta = args.eta
    xs = _parse_grid(args.n_grid or _GRID_DEFAULTS["limit-law"])
    meta = {"command": "limit-law", "version": __version__, "eta": _cell(eta),
            "grid": args.n_grid or _GRID_DEFAULTS["limit-law"]}
    rows = [(x, q_cdf(eta, x), q_pmf(eta, x), q_tail(eta, x)) for x in xs]
    _emit(meta, ("x", "cdf", "pmf", "tail"), rows, args.format, args.out)
    return 0


def cmd_depth_dist(args) -> int:
    from .metrics import tv_to_limit
    from .renewal import depth_distribution_exact, floor_log2

    if args.n is None:
        raise ValueError("--n is required")
    # the centred law: level j + k of the depth law, k = floor(log2 n)
    k = floor_log2(args.n)
    law = depth_distribution_exact(args.n)
    tv, eta = tv_to_limit(args.n)
    rows = []
    # q_pmf, not the mixture window: its masses keep relative accuracy
    for j in range(min(law.offset - k, -8), max(law.support_max - k, 10) + 1):
        ex, qm = law.prob(j + k), q_pmf(eta, j)
        rows.append((j, ex, qm, abs(ex - qm)))
    meta = {"command": "depth-dist", "version": __version__, "n": args.n,
            "eta": _cell(eta)}
    if args.format == "csv":    # JSON writes tv as a key of its own
        rows.append(("tv", None, None, tv))
    _emit(meta, ("j", "exact_pmf", "q_pmf", "abs_diff"), rows, args.format,
          args.out, extra={"tv": tv})
    return 0


def cmd_dst_demo(args) -> int:
    from .dst import (CorpusFormatError, InsufficientBitsError, build,
                      knuth_corpus, load_corpus)

    if args.corpus:
        try:
            corpus = load_corpus(args.corpus)
        except CorpusFormatError as err:
            raise ValueError(f"corpus {args.corpus}: {err}")
        except OSError as err:
            raise ValueError(f"cannot read corpus: {err}")
    else:
        corpus = knuth_corpus()
    try:
        tree, reports = build(corpus)
    except InsufficientBitsError as err:
        raise DataError(f"insufficient bits for key {err.label!r} "
                        f"(entry {err.index})")
    rows = [(r.label, r.depth, r.parent or "", r.side) for r in reports]
    if args.probe is not None:
        if not args.probe:      # Dst.probe checks the bits
            raise ValueError(f"--probe must be a nonempty bit string, "
                             f"got {args.probe!r}")
        try:
            pr = tree.probe(args.probe, label="probe")
        except InsufficientBitsError:
            raise DataError(f"probe {args.probe} exhausted its bits")
        rows.append(("probe:" + args.probe, pr.depth, pr.parent or "",
                     pr.side))
    meta = {"command": "dst-demo", "version": __version__,
            "corpus": args.corpus or "builtin"}
    _emit(meta, ("label", "depth", "parent", "side"), rows, args.format,
          args.out)
    return 0


def cmd_simulate(args) -> int:
    from .lifetimes import GeometricDst, ScaledBase
    from .metrics import REPORT_COLUMNS, count_report

    grid = args.n_grid or _GRID_DEFAULTS["simulate"]
    horizons = _parse_grid(grid)
    family = GeometricDst() if args.alpha == 2 else ScaledBase(args.alpha)
    rows = count_report(family, horizons, args.samples, stream_rng(args.seed))
    meta = {"command": "simulate", "version": __version__, "seed": args.seed,
            "alpha": _cell(args.alpha), "samples": args.samples, "grid": grid}
    _emit(meta, REPORT_COLUMNS, rows, args.format, args.out)
    return 0


def cmd_converge(args) -> int:
    from .metrics import REPORT_COLUMNS, check_rate_report, rate_report

    kind = {"tv": "tv_limit", "ks": "ks_scaled"}[args.kind]
    grid = args.n_grid or _GRID_DEFAULTS["converge-" + args.kind]
    rows = rate_report(_parse_grid(grid), kind)
    meta = {"command": "converge", "version": __version__,
            "kind": args.kind, "grid": grid}
    _emit(meta, REPORT_COLUMNS, rows, args.format, args.out)
    problems = check_rate_report(rows)
    for p in problems:
        print(f"rate check failed: {p}", file=sys.stderr)
    return 1 if problems else 0


_COMMANDS = ("limit-law", "depth-dist", "dst-demo", "simulate", "converge")


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The whole CLI parser; with ``command``, that subcommand's parser alone,
    under the prog it has as a subparser, so its output is the same."""
    if command:
        parser = argparse.ArgumentParser(prog=f"renewal-dst {command}")
    else:
        parser = argparse.ArgumentParser(
            prog="renewal-dst",
            description="Limit laws of renewal counts under exponentially "
                        "increasing lifetimes, with the digital-search-tree "
                        "depth chain as the exact engine.")
        sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        if not command:
            return sub.add_parser(name, help=help)
        return parser if name == command else None

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    if p := add("limit-law", "CDF/pmf/tail table of the limit family"):
        p.add_argument("--eta", type=float, default=0.0)
        p.add_argument("--n-grid", default=None, metavar="A:B:STEP",
                       help="x range (default %s); a negative start needs "
                            "the = form, --n-grid=-3:12:1"
                            % _GRID_DEFAULTS["limit-law"])
        common(p)
        p.set_defaults(func=cmd_limit_law)

    if p := add("depth-dist", "exact centered count law next to its limit"):
        from .renewal import MAX_N

        p.add_argument("--n", type=int, help=f"step count, 1 <= n <= {MAX_N}")
        common(p)
        p.set_defaults(func=cmd_depth_dist)

    if p := add("dst-demo", "insertion report for a bit corpus"):
        p.add_argument("--corpus", default=None,
                       help="path to 'label bits' records (default: builtin)")
        p.add_argument("--probe", default=None, metavar="BITS",
                       help="append a non-mutating probe of this direction")
        common(p)
        p.set_defaults(func=cmd_dst_demo)

    if p := add("simulate", "Monte Carlo centered counts vs the limit family"):
        p.add_argument("--alpha", type=float, default=2.0,
                       help="lifetime growth base (default %(default)s)")
        p.add_argument("--samples", type=int, default=10000,
                       help="renewal paths, each read at every grid point "
                            "(default %(default)s)")
        p.add_argument("--n-grid", default=None, metavar="A:B:STEP",
                       help="horizon grid (default %s)"
                            % _GRID_DEFAULTS["simulate"])
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="64-bit stream seed (default %(default)s)")
        common(p)
        p.set_defaults(func=cmd_simulate)

    if p := add("converge", "exact convergence-rate report with checks"):
        from .renewal import MAX_EXACT_KS_N, MAX_N

        p.add_argument("--kind", choices=("tv", "ks"), default="tv")
        p.add_argument("--n-grid", metavar="A:B:STEP", help=(
            f"n grid (default {_GRID_DEFAULTS['converge-tv']} for tv, "
            f"{_GRID_DEFAULTS['converge-ks']} for ks); 1 <= n <= {MAX_N} "
            f"for tv, 1 <= n <= {MAX_EXACT_KS_N} for ks"))
        common(p)
        p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    """Run one command line; return its exit code. A leading command parses
    with its own parser; the whole parser reports any words that leaves."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:
            args, rest = _build_parser(argv[0]).parse_known_args(argv[1:])
            if rest:
                _build_parser().parse_args(argv)    # exits with the error
        else:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
