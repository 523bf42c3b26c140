import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import renewal_dst
import renewal_dst.cli
import renewal_dst.metrics
from renewal_dst import (
    DEFAULT_SEED,
    GeometricDst,
    IntPmf,
    knuth_corpus,
    q_cdf,
    q_pmf,
    simulate_count,
    stream_rng,
    tv_to_limit,
)
from renewal_dst.cli import _cell, main
from renewal_dst.limit_law import _mixture
from renewal_dst.metrics import REPORT_COLUMNS, tv_vs_limit


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_limit_law_table(tmp_path):
    code, data = run(tmp_path, "limit-law", "--eta", "0")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0].startswith("# command=limit-law")
    assert " seed=" not in lines[0]     # simulate alone reads a seed
    assert lines[1] == "x,cdf,pmf,tail"
    body = [line.split(",") for line in lines[2:]]
    assert len(body) == 16
    cdfs = [float(r[1]) for r in body]
    assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))


def test_limit_law_eta_translate(tmp_path):
    c0, d0 = run(tmp_path, "limit-law", "--eta", "0", "--n-grid=-3:12:1")
    c1, d1 = run(tmp_path, "limit-law", "--eta", "1", "--n-grid=-2:13:1")
    assert c0 == c1 == 0
    rows0 = [line.split(",") for line in d0.decode().strip().split("\n")[2:]]
    rows1 = [line.split(",") for line in d1.decode().strip().split("\n")[2:]]
    assert len(rows0) == len(rows1) == 16
    for r0, r1 in zip(rows0, rows1):
        assert int(r1[0]) == int(r0[0]) + 1
        assert r1[1:] == r0[1:]


def test_limit_law_json_schema(tmp_path):
    code, data = run(tmp_path, "limit-law", "--format", "json")
    assert code == 0
    obj = json.loads(data)
    assert set(obj) == {"meta", "rows"}
    assert "seed" not in obj["meta"]
    assert all(set(r) == {"x", "cdf", "pmf", "tail"} for r in obj["rows"])
    r0 = obj["rows"][0]
    assert r0["cdf"] == q_cdf(0.0, r0["x"])


@pytest.mark.parametrize("eta", ["1.5", "nan"])
def test_limit_law_bad_eta(tmp_path, capsys, eta):
    code, _ = run(tmp_path, "limit-law", "--eta", eta)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    code = main(["limit-law", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output")
    assert err.count("\n") == 1


def test_depth_dist_table_and_trailer(tmp_path):
    code, data = run(tmp_path, "depth-dist", "--n", "1024")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[1] == "j,exact_pmf,q_pmf,abs_diff"
    body = [line.split(",") for line in lines[2:] if not line.startswith("tv")]
    exact_sum = math.fsum(float(r[1]) for r in body)
    q_sum = math.fsum(float(r[2]) for r in body)
    assert exact_sum == pytest.approx(1.0, abs=1e-10)
    assert q_sum == pytest.approx(1.0, abs=1e-10)
    trailer = [line for line in lines if line.startswith("tv")]
    assert len(trailer) == 1
    assert float(trailer[0].split(",")[3]) == tv_to_limit(1024)[0]


def test_depth_dist_point_mass(tmp_path):
    code, data = run(tmp_path, "depth-dist", "--n", "1", "--format", "json")
    assert code == 0
    obj = json.loads(data)
    ones = [r for r in obj["rows"] if r["exact_pmf"] == 1.0]
    assert len(ones) == 1 and ones[0]["j"] == 1
    assert obj["tv"] == tv_to_limit(1)[0]


@pytest.mark.parametrize("n", [1, 1024, 3 * 2 ** 20])
def test_depth_dist_q_pmf_rows_span_minus_8_to_10(tmp_path, n):
    # the q_pmf column is q_pmf itself, on contiguous rows j that cover the
    # law's support and at least [-8, 10]
    code, data = run(tmp_path, "depth-dist", "--n", str(n))
    assert code == 0
    eta = tv_to_limit(n)[1]
    body = [line.split(",") for line in data.decode().split("\n")[2:-2]]
    js = [int(row[0]) for row in body]
    assert js == list(range(js[0], js[-1] + 1))
    assert js[0] <= -8 and js[-1] >= 10
    assert [row[2] for row in body] == [_cell(q_pmf(eta, j)) for j in js]


def test_depth_dist_at_the_dp_limit(tmp_path):
    # n = 2^53 is MAX_N, the one n limit of the exact entry points
    code, data = run(tmp_path, "depth-dist", "--n", str(2 ** 53))
    assert code == 0
    trailer = [line for line in data.decode().split("\n")
               if line.startswith("tv")]
    assert len(trailer) == 1
    assert float(trailer[0].split(",")[3]) == tv_to_limit(2 ** 53)[0]


def test_depth_dist_usage_errors(tmp_path, capsys):
    assert run(tmp_path, "depth-dist")[0] == 2
    for n in (0, -3, 2 ** 53 + 1):
        assert run(tmp_path, "depth-dist", "--n", str(n))[0] == 2, n
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 4
    assert all(e.startswith("error:") for e in errors)


def test_dst_demo_builtin(tmp_path):
    code, data = run(tmp_path, "dst-demo", "--probe", "011100")
    assert code == 0
    lines = data.decode().strip().split("\n")
    rows = [line.split(",") for line in lines[2:]]
    depths = [int(r[1]) for r in rows[:10]]
    assert depths == [0, 1, 1, 2, 2, 3, 3, 2, 3, 3]
    probe = rows[10]
    assert probe[0] == "probe:011100"
    assert (int(probe[1]), probe[2], probe[3]) == (4, "x_6", "right")


def test_dst_demo_corpus_file(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a 0\nb 1\n")
    code, data = run(tmp_path, "dst-demo", "--corpus", str(corpus))
    assert code == 0
    assert len(data.decode().strip().split("\n")) == 4


def test_dst_demo_empty_corpus(tmp_path):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    code, data = run(tmp_path, "dst-demo", "--corpus", str(corpus))
    assert code == 0
    assert len(data.decode().strip().split("\n")) == 2  # meta + header only


def test_dst_demo_parse_error_exit_2(tmp_path):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("a 01\nnot-a-record\n")
    code, _ = run(tmp_path, "dst-demo", "--corpus", str(corpus))
    assert code == 2


def test_dst_demo_insufficient_bits_exit_3(tmp_path):
    corpus = tmp_path / "deep.txt"
    corpus.write_text("\n".join(f"k{i} 11" for i in range(4)))
    code, _ = run(tmp_path, "dst-demo", "--corpus", str(corpus))
    assert code == 3


@pytest.mark.parametrize("probe, message", [
    ("21", "error: bit string may contain only 0 and 1: '21'\n"),
    ("0120", "error: bit string may contain only 0 and 1: '0120'\n"),
    ("", "error: --probe must be a nonempty bit string, got ''\n"),
], ids=["21", "0120", "empty"])
def test_dst_demo_bad_probe(tmp_path, capsys, probe, message):
    assert run(tmp_path, "dst-demo", "--probe", probe) == (2, b"")
    assert capsys.readouterr().err == message


def test_simulate_dyadic_matches_exact_trailer(tmp_path):
    code, data = run(tmp_path, "simulate", "--n-grid", "1024:1024:1",
                     "--samples", "20000")
    assert code == 0
    row = data.decode().strip().split("\n")[-1].split(",")
    assert abs(float(row[3]) - tv_to_limit(1024)[0]) <= 0.05


@pytest.mark.parametrize("t", [3 * 2 ** 40 + 1, 10 ** 300, 2 ** 40],
                         ids=["3*2^40+1", "10^300", "2^40"])
def test_simulate_charges_the_rounding_of_eta(tmp_path, t):
    # off powers of two eta = log2(t) - k is rounded, and both columns
    # carry 1.5 ulp(log2 t), which covers 1.49 times eta's error
    # (tv_vs_limit); at a power of two eta is exact and the charge is 0
    mp = pytest.importorskip("mpmath")
    code, data = run(tmp_path, "simulate", "--samples", "10", "--n-grid",
                     f"{t}:{t}:1")
    assert code == 0
    _, eta, _, value, trunc = data.decode().strip().split("\n")[-1].split(",")
    k = t.bit_length() - 1
    law, = simulate_count(GeometricDst(), [t], 10,
                          stream_rng(DEFAULT_SEED, 0))
    tv, slack = tv_vs_limit(IntPmf(law.offset - k, law.masses), float(eta))
    charge = 1.5 * math.ulp(math.log2(t)) if t & (t - 1) else 0.0
    assert (float(value), float(trunc)) == (tv + charge, slack + charge)
    with mp.workdps(60):
        assert 1.49 * abs(mp.log(t, 2) - k - mp.mpf(eta)) <= charge


def test_simulate_alpha_1_5_rows_certified(tmp_path):
    # the default grid and samples: each row is a TV bound against the exact
    # law, with the rounding of its masses and of eta as positive slack
    code, data = run(tmp_path, "simulate", "--alpha", "1.5")
    assert code == 0
    rows = [line.split(",") for line in data.decode().strip().split("\n")[2:]]
    assert len(rows) == 7
    for row in rows:
        assert 0.0 <= float(row[3]) <= 1.0 and 0.0 < float(row[4]) < 1e-11


def test_simulate_general_alpha(tmp_path):
    code, data = run(tmp_path, "simulate", "--alpha", "3.0",
                     "--n-grid", "9:81:x3", "--samples", "4000")
    assert code == 0
    rows = [line.split(",") for line in data.decode().strip().split("\n")[2:]]
    assert len(rows) == 3
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


@pytest.mark.parametrize("argv", [
    ["limit-law", "--seed", "1"], ["depth-dist", "--n", "4", "--seed", "1"],
    ["dst-demo", "--seed", "1"],
    ["converge", "--n-grid", "16:16:1", "--seed", "1"],
])
def test_deterministic_commands_refuse_seed(argv):
    # simulate is the one command that draws, and the one that takes --seed
    code, out, err = _run_captured(argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err


def test_simulate_reads_seed(tmp_path):
    code, data = run(tmp_path, "simulate", "--seed", "5", "--samples", "10",
                     "--n-grid", "16:16:1")
    assert code == 0 and " seed=5 " in data.decode().split("\n")[0]


def test_simulate_usage_errors(tmp_path):
    assert run(tmp_path, "simulate", "--samples", "0")[0] == 2
    assert run(tmp_path, "simulate", "--alpha", "1.0")[0] == 2
    assert run(tmp_path, "simulate", "--alpha", "inf")[0] == 2
    assert run(tmp_path, "simulate", "--n-grid", "64:16:x4")[0] == 2


# below alpha = 1.2508 the limit law's mixture cancels past sum_k |A_k| =
# 2^13: refused before any draw
@pytest.mark.parametrize("alpha", ["1.0", "nan", "1.0001", "1.03", "1.2"])
def test_simulate_bad_alpha_one_error_line(tmp_path, capsys, alpha):
    code, _ = run(tmp_path, "simulate", "--alpha", alpha)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_simulate_grid_past_float_range_one_error_line(tmp_path, capsys):
    end = "1" + "0" * 400
    code, data = run(tmp_path, "simulate", "--alpha", "2", "--samples",
                     "10", "--n-grid", f"{end}:{end}:1")
    assert code == 2 and data == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# each growth rate's mixture is built once a process (limit_law._mixture)
@pytest.mark.parametrize("argv", [
    ("--alpha", "1.5"),
    ("--alpha", "2"),
    ("--alpha", "1.5", "--n-grid", "1000:1100:1"),
], ids=["alpha-1.5", "alpha-2", "alpha-1.5-101-rows"])
def test_simulate_builds_mixture_once(tmp_path, argv):
    _mixture.cache_clear()
    code, _ = run(tmp_path, "simulate", *argv)
    assert code == 0 and _mixture.cache_info().misses <= 1


def _simulate_warns_nothing(tmp_path, capsys, alpha, grid, samples):
    code, data = run(tmp_path, "simulate", "--alpha", alpha, "--n-grid",
                     grid, "--samples", samples)
    assert code == 0 and capsys.readouterr().err == ""
    lines = data.decode().strip().split("\n")
    assert 0.0 <= float(lines[-1].split(",")[3]) <= 1.0
    return lines


# lifetimes past the float range are inf, silently
@pytest.mark.filterwarnings("error")
def test_simulate_huge_alpha_warns_nothing(tmp_path, capsys):
    lines = _simulate_warns_nothing(tmp_path, capsys, "1e308", "16:16:1",
                                    "100")
    # an integral float past 2^53 is not spelled out as a 309-digit integer
    assert " alpha=1e+308 " in lines[0]


# at a horizon of 10^308 the partial sums pass the float range too
@pytest.mark.filterwarnings("error")
def test_simulate_huge_horizon_warns_nothing(tmp_path, capsys):
    end = 10 ** 308
    lines = _simulate_warns_nothing(tmp_path, capsys, "2", f"{end}:{end}:1",
                                    "10")
    assert " alpha=2 " in lines[0]


def test_cell_spells_integers_only_below_2_53():
    # below 2^53 every integral float is an exact integer; past it the
    # shortest round-trip form, as for any other float
    assert _cell(2.0) == "2" and _cell(-0.0) == "0"
    assert _cell(2.0 ** 53 - 1) == "9007199254740991"
    assert _cell(2.0 ** 60) == "1.152921504606847e+18"
    assert _cell(-1e308) == "-1e+308"
    # numpy scalars, recognised without importing numpy
    assert _cell(np.int64(-3)) == "-3"
    assert _cell(np.uint64(2 ** 64 - 1)) == "18446744073709551615"
    assert _cell(np.float64(2.0)) == "2"
    assert _cell(np.float64(0.1)) == "0.10000000000000001"
    assert _cell(np.bool_(True)) == "1"


def test_converge_tv_small_grid(tmp_path):
    code, data = run(tmp_path, "converge", "--kind", "tv",
                     "--n-grid", "16:4096:x4")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[1] == "n,eta,kind,value,trunc_bound"
    vals = [float(line.split(",")[3]) for line in lines[2:]]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(len(line.split(",")) == len(REPORT_COLUMNS)
               for line in lines[2:])


def test_converge_ks_small_grid(tmp_path):
    argv = ("converge", "--kind", "ks", "--n-grid", "4:10:1")
    code, data = run(tmp_path, *argv, "--format", "csv")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[1] == "n,eta,kind,value,trunc_bound"
    assert [line.split(",")[0] for line in lines[2:]] == [
        str(n) for n in range(4, 11)]
    code, data = run(tmp_path, *argv, "--format", "json")
    assert code == 0
    obj = json.loads(data)
    assert [r["n"] for r in obj["rows"]] == list(range(4, 11))
    assert all(tuple(r) == REPORT_COLUMNS for r in obj["rows"])


# cmd_simulate imports tv_vs_limit when it runs, so the patch on metrics
# reaches it
@pytest.mark.parametrize("module, name, argv", [
    (renewal_dst.metrics, "tv_vs_limit",
     ("simulate", "--n-grid", "16:64:x4", "--samples", "100")),
    (renewal_dst.metrics, "ks_scaled_sum_exact",
     ("converge", "--kind", "ks", "--n-grid", "4:6:1")),
], ids=["simulate", "converge"])
def test_rate_row_value_outside_unit_interval_exits_2(
        tmp_path, monkeypatch, capsys, module, name, argv):
    monkeypatch.setattr(module, name, lambda *args: (1.5, 0.0))
    assert run(tmp_path, *argv)[0] == 2
    assert "out of [0, 1]" in capsys.readouterr().err


def test_converge_grid_errors(tmp_path):
    assert run(tmp_path, "converge", "--n-grid", "64:16:1")[0] == 2
    assert run(tmp_path, "converge", "--n-grid", "16:64")[0] == 2
    assert run(tmp_path, "converge", "--kind", "ks", "--n-grid", "4:40:1")[0] == 2
    # the TV rows reach n = 2^53, one past it is refused
    assert run(tmp_path, "converge", "--kind", "tv", "--n-grid",
               f"{2 ** 53 - 2}:{2 ** 53 + 1}:1")[0] == 2
    # --help names each default and each n limit
    text = {command: " ".join(_run_captured([command, "--help"])[1].split())
            for command in ("converge", "depth-dist", "simulate")}
    assert "default 16:262144:x4 for tv, 4:18:1 for ks" in text["converge"]
    assert (f"1 <= n <= {2 ** 53} for tv, 1 <= n <= 22 for ks"
            in text["converge"])
    assert f"1 <= n <= {2 ** 53}" in text["depth-dist"]
    assert "(default 2.0)" in text["simulate"]
    assert "(default 10000)" in text["simulate"]


# the grid limits are checked in metrics.rate_report, before any row: a
# 10^6-point TV grid ending past 2^53 would otherwise run for about 96 s
@pytest.mark.parametrize("kind, grid", [
    ("tv", "9007199253740994:9007199254740993:1"), ("ks", "4:23:1")])
def test_converge_grid_limit_computes_no_row(tmp_path, capsys, monkeypatch,
                                            kind, grid):
    def unreachable(n):
        raise AssertionError("row computed before the grid limit was checked")

    for name in ("_tv_with_slack", "ks_scaled_sum_exact"):
        monkeypatch.setattr(renewal_dst.metrics, name, unreachable)
    a, b, step = map(int, grid.split(":"))
    with pytest.raises(ValueError, match="limited to"):
        renewal_dst.metrics.rate_report(
            range(a, b + 1, step), {"tv": "tv_limit", "ks": "ks_scaled"}[kind])
    code, data = run(tmp_path, "converge", "--kind", kind, "--n-grid", grid)
    assert code == 2 and data == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limited to" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# a grid end the machine cannot allocate a list for: refused at its bound,
# before any point is built
@pytest.mark.parametrize("kind,grid", [("ks", "4:1000000000000000000:1"),
                                       ("tv", "1:1000000000000000000:1")])
def test_converge_huge_grid_one_error_line(tmp_path, capsys, kind, grid):
    code, data = run(tmp_path, "converge", "--kind", kind, "--n-grid", grid)
    assert code == 2 and data == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limited to" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# sizes past any machine: each is refused or fails to allocate at once
@pytest.mark.parametrize("argv", [
    ("limit-law", "--n-grid", "0:1000000000000000000:1"),
    ("limit-law", "--n-grid", f"0:{10 ** 400}:1"),
    ("simulate", "--samples", "10", "--n-grid", "16:1000000000000000000:1"),
    ("simulate", "--samples", "1000000000000000", "--n-grid", "16:16:1"),
], ids=["limit-law-grid", "limit-law-grid-past-maxsize", "simulate-grid",
        "simulate-samples"])
def test_request_too_big_one_error_line(tmp_path, capsys, argv):
    code, data = run(tmp_path, *argv)
    assert code == 2 and data == b""
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1 and "Traceback" not in err


# a bad first grid point or sample count: the library refuses it at the
# first row, before any output is written
@pytest.mark.parametrize("argv", [
    ("depth-dist", "--n", "0"),
    ("simulate", "--samples", "0"),
    ("converge", "--kind", "tv", "--n-grid", "0:3:1"),
    ("converge", "--kind", "ks", "--n-grid", "0:3:1"),
], ids=["depth-dist-n", "simulate-samples", "converge-tv", "converge-ks"])
def test_bad_first_point_one_error_line(tmp_path, capsys, argv):
    code, data = run(tmp_path, *argv)
    assert code == 2 and data == b""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unknown_command_exits_2(tmp_path):
    assert main(["frobnicate"]) == 2


def test_a_run_builds_only_its_own_subcommand(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _ = run(tmp_path, "dst-demo", "--probe", "011100")
    assert code == 0
    assert built == ["renewal-dst dst-demo"]
    built.clear()
    assert main(["--help"]) == 0      # any other first word builds them all
    assert len(built) == 1 + len(renewal_dst.cli._COMMANDS) == 6


# a run parses with its leading command's parser only, and with the whole
# parser after any other first word or when words are left over; each must
# print and exit as the whole parser does
@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h", "dst-demo"], ["frobnicate"], ["dst"],
    ["--", "dst-demo"], ["--foo", "dst-demo"],
    ["dst-demo", "--probe", "011100"], ["dst-demo", "--prob", "011100"],
    ["dst-demo", "extra"], ["dst-demo", "--nope"], ["dst-demo", "converge"],
    ["dst-demo", "--help", "--probe", "1"], ["dst-demo", "--seed", "x"],
    ["limit-law", "--eta", "x"], ["limit-law", "--n-grid", "-3:12:1"],
    ["limit-law", "-h"], ["depth-dist", "--n", "0"],
    ["depth-dist", "--n", "64", "--format", "json"], ["depth-dist", "--help"],
    ["simulate", "--help"], ["simulate", "--samples", "x"],
    ["converge", "--help"], ["converge", "--kind", "x"],
    ["converge", "--n-grid", "1:3"],
    # words left over: the whole parser's error, or a help or error that
    # the command's parser stops at first
    ["dst-demo", "--", "x"], ["dst-demo", "--nope", "-h"],
    ["limit-law", "--eta"], ["converge", "--kind", "ks", "stray"],
    ["simulate", "--samples", "3", "stray", "--seed", "x"],
])
def test_one_command_parser_runs_as_the_whole_parser(argv, monkeypatch):
    first = _run_captured(argv)
    monkeypatch.setattr(renewal_dst.cli, "_COMMANDS", ())
    assert _run_captured(argv) == first


def _readme_cli_argvs():
    """argv of each `renewal-dst ...` line in the README's CLI block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("renewal-dst ")]


@pytest.mark.parametrize("argv", _readme_cli_argvs(), ids=" ".join)
def test_readme_cli_examples_run(tmp_path, argv):
    if "--corpus" in argv:
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"{label} {bits}\n"
                                  for label, bits in knuth_corpus()))
        argv[argv.index("--corpus") + 1] = str(corpus)
    code, data = run(tmp_path, *argv)
    assert code == 0 and data, argv


@pytest.mark.parametrize("argv", [
    ("limit-law", "--eta", "0.5"),
    ("limit-law", "--eta", "0.25", "--format", "json"),
    ("depth-dist", "--n", "300"),
    ("dst-demo", "--probe", "011100", "--format", "json"),
    ("simulate", "--n-grid", "16:256:x4", "--samples", "3000"),
    ("simulate", "--alpha", "2.7", "--n-grid", "16:64:x2", "--samples", "2000"),
    ("converge", "--kind", "ks", "--n-grid", "4:8:1", "--format", "json"),
    ("converge", "--kind", "tv", "--n-grid", "16:1024:x4"),
])
def test_byte_identical_reruns(tmp_path, argv):
    _, first = run(tmp_path, *argv)
    _, second = run(tmp_path, *argv)
    assert first == second and first


# SHA-256 of the CSV these commands write, recorded on x86-64 Linux with
# numpy 2.4. They pin the placement rule of Dst, the Q_eta values and, for
# simulate, one set of renewal paths drawn on stream (seed, 0) and read at
# every grid point, across refactors; the header's version field is in the
# bytes. The simulate rows were recorded again when every grid point came
# to be read off that one path set, in place of a fresh process per point
# (the first row kept its bytes); the other four when their headers lost
# the seed no command of theirs reads.
@pytest.mark.parametrize("argv, digest", [
    (("simulate", "--n-grid", "16:256:x4", "--samples", "3000"),
     "b3cf2f8fd55ca4cac1370876669f131250e48e0f9e67483dc49a5dd0c3286f0c"),
    (("simulate", "--alpha", "2.7", "--n-grid", "16:64:x2",
      "--samples", "2000"),
     "def52597669c1769f64ea142a7069d0911a4337264f367cc5c42c53103d7c086"),
    # 11 rows off one path set at a non-dyadic alpha
    (("simulate", "--alpha", "1.5", "--n-grid", "1000:1100:10",
      "--samples", "2000"),
     "6c187eb0e39011fd8bc6363f2e189625f1d93831cf1a1a8c19c3a2dff13f6199"),
    (("dst-demo", "--probe", "011100"),
     "6183fd7673c75556cdb8509d3100f023e45169bb55c08c2b8cb95c968adede23"),
    # eta = 0.80364 puts c = 0.872750 (x = 0) 1.2e-5 below the median
    # crossing limit_law._MEDIAN_C, and 2c of q_pmf at j = 1 there too
    (("limit-law", "--eta", "0.80364"),
     "8cb5bd5079785e40b03502de05f85706f9b559b1ea7d30347c344da071bbf6df"),
    (("limit-law", "--eta", "0.5"),
     "5c445d6ee3af1a18d98e363927c1af2ae402a8fe61cfeb5212a18b841ea51ce9"),
    (("depth-dist", "--n", "1024"),
     "3f9e9958ba8c3c462d111ffdfb9d7cbdc80664e67f6a86fb5356bc1a9dafe5f8"),
], ids=["simulate-dyadic", "simulate-alpha-2.7", "simulate-alpha-1.5-rows",
        "dst-demo-probe",
        "limit-law-median-band", "limit-law-half", "depth-dist-1024"])
def test_output_matches_recorded_digest(tmp_path, argv, digest):
    code, data = run(tmp_path, *argv)
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == digest


def test_package_exports_resolve():
    names = renewal_dst.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(renewal_dst, n)]
    assert not missing, f"__all__ names with no binding: {missing}"
    # each name, bound on first use, is the object in its home module
    for name in names:
        home = importlib.import_module(
            f"renewal_dst.{renewal_dst._EXPORTS[name]}")
        assert getattr(renewal_dst, name) is getattr(home, name), name
    assert renewal_dst.q_cdf is renewal_dst.limit_law.q_cdf
    assert set(names) <= set(dir(renewal_dst))
    star = {}
    exec("from renewal_dst import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    assert all(star[n] is getattr(renewal_dst, n) for n in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        renewal_dst.no_such_name


# names no command needs: reachable from their modules, not the package
_MODULE_ONLY = {
    "dst": ["parse_corpus"],
}


def test_module_only_names_stay_off_the_package():
    assert len(renewal_dst.__all__) == 27
    for module, names in _MODULE_ONLY.items():
        mod = importlib.import_module(f"renewal_dst.{module}")
        for name in names:
            assert hasattr(mod, name), (module, name)
            assert not hasattr(renewal_dst, name), name
            assert name not in renewal_dst.__all__, name


# The scalar values of Q_eta and S and the DST reports need no numpy: a
# process that uses only them, through the package or the scalar commands,
# never loads it, and the first array does.
_SCALAR_ONLY = """\
import contextlib, io, sys
import renewal_dst
from renewal_dst.cli import main
renewal_dst.q_cdf(0.5, 3), renewal_dst.q_pmf(0.5, -2), renewal_dst.q_tail(0.5, 3)
renewal_dst.s_infinity_cdf(1.0), renewal_dst.s_infinity_sf(0.5)
renewal_dst.mixture_coefficients()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["limit-law"]), main(["limit-law", "--help"]),
             main(["dst-demo", "--probe", "011100"])]
assert codes == [0, 0, 0], codes
assert "numpy" not in sys.modules, "a scalar path loaded numpy"
draws = renewal_dst.sample_q(0.5, renewal_dst.stream_rng(1, 1), size=10)
assert draws.shape == (10,) and "numpy" in sys.modules
"""


def _run_fresh(code):
    src = str(pathlib.Path(renewal_dst.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_scalar_paths_load_no_numpy():
    proc = _run_fresh(_SCALAR_ONLY)
    assert proc.returncode == 0, proc.stderr


# json serves only JSON output, and the lifetime families only the
# Monte Carlo counts: a CSV table and an exact report load neither
_NO_JSON_NO_LIFETIMES = """\
import contextlib, io, sys
from renewal_dst.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["limit-law"]), main(["converge", "--n-grid", "16:16:1"])]
assert codes == [0, 0], codes
assert "json" not in sys.modules, "a CSV run loaded json"
assert "renewal_dst.lifetimes" not in sys.modules, "converge loaded lifetimes"
"""


def test_csv_and_exact_paths_load_no_json_or_lifetimes():
    proc = _run_fresh(_NO_JSON_NO_LIFETIMES)
    assert proc.returncode == 0, proc.stderr


# The grammar fuzz: argv for the five commands from option values that
# include NaN, +-inf, -0.0, 1e308, huge ints, empty strings and reversed or
# malformed grids. A valid grid holds at most 4 points with n <= 2^12 and
# --samples is at most 50; every other size is at least 10^15, so each argv
# is refused at once or runs in tens of milliseconds.
_HUGE = [str(10 ** 15), str(10 ** 18), str(-10 ** 15), str(10 ** 400)]
_JUNK = ["", "x", "1.5", "nan", "-0.0"]
_FLOATS = st.sampled_from(["0", "-0.0", "0.5", "1", "2", "2.7", "1.03",
                           "0.80364", "1e308", "-1e308", "nan", "inf", "-inf",
                           "1e400", "", "x"])
_GRIDS = st.sampled_from([
    "1:1:1", "3:3:1", "16:16:1", "-3:0:1", "0:3:1", "4:7:1", "5:10:2",
    "1:8:x2", "16:4096:x8",
    "", "1:2", "1:2:3:4", "::", "a:b:1", "1.5:2:1", "5:1:1", "4096:16:x8",
    "1:5:0", "1:5:-1", "1:5:x1", "1:5:x", "1:5:xx", "0:5:x2",
    f"0:{10 ** 15}:1", f"16:{10 ** 18}:1", f"0:{10 ** 400}:1",
    f"{-10 ** 15}:0:1", f"{10 ** 400}:{10 ** 400}:1"])


def _ints(lo, hi):
    return st.integers(lo, hi).map(str) | st.sampled_from(_HUGE + _JUNK)


_OPTIONS = {
    "limit-law": {"--eta": _FLOATS, "--n-grid": _GRIDS},
    "depth-dist": {"--n": _ints(-2, 2 ** 12)},
    "dst-demo": {"--probe": st.text("01x", max_size=70),
                 "--corpus": st.just("no-such-corpus.txt")},
    "simulate": {"--alpha": _FLOATS, "--samples": _ints(-2, 50),
                 "--n-grid": _GRIDS, "--seed": _ints(-2, 5)},
    "converge": {"--kind": st.sampled_from(["tv", "ks", "x"]),
                 "--n-grid": _GRIDS},
}
# left out, these would run the defaults: 10^4 samples, 2^18-point laws
_REQUIRED = {"--samples", "--n-grid"}
_COMMON = {"--format": st.sampled_from(["csv", "json", "xml"])}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for name, values in {**_OPTIONS[command], **_COMMON}.items():
        if name in _REQUIRED or draw(st.booleans()):
            argv.append(f"{name}={draw(values)}")
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(_argv())
# refused: alpha 1.03 is past the limit law's conditioning limit
@example(["simulate", "--alpha=1.03", "--n-grid=3:3:1", "--samples=10",
          "--seed=2"])
@example(["limit-law", "--n-grid=0:1000000000000000000:1"])
@example(["simulate", "--samples=10", "--n-grid=16:1000000000000000000:1"])
@example(["simulate", "--samples=1000000000000000", "--n-grid=16:16:1"])
@example(["--help"])
@example(["simulate", "--help"])
@example(["converge", "--help"])
def test_cli_grammar_fuzz(argv):
    first = _run_captured(argv)
    code, _, err = first
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    # a distance outside [0, 1] is a defect, not a usage error
    assert "out of [0, 1]" not in err, (argv, err)
    assert _run_captured(argv) == first, argv
