import hashlib
import importlib
import json
import math

import pytest

import renewal_dst
import renewal_dst.cli
import renewal_dst.metrics
from renewal_dst import q_cdf, tv_to_limit
from renewal_dst.cli import main
from renewal_dst.metrics import REPORT_COLUMNS


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_limit_law_table(tmp_path):
    code, data = run(tmp_path, "limit-law", "--eta", "0")
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0].startswith("# command=limit-law")
    assert "seed=20070201" in lines[0]
    assert lines[1] == "x,cdf,pmf,tail"
    body = [line.split(",") for line in lines[2:]]
    assert len(body) == 16
    cdfs = [float(r[1]) for r in body]
    assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))


def test_limit_law_eta_translate(tmp_path):
    _, d0 = run(tmp_path, "limit-law", "--eta", "0", "--n-grid", "-3:12:1")
    _, d1 = run(tmp_path, "limit-law", "--eta", "1", "--n-grid", "-2:13:1")
    rows0 = [line.split(",") for line in d0.decode().strip().split("\n")[2:]]
    rows1 = [line.split(",") for line in d1.decode().strip().split("\n")[2:]]
    for r0, r1 in zip(rows0, rows1):
        assert int(r1[0]) == int(r0[0]) + 1
        assert r1[1:] == r0[1:]


def test_limit_law_json_schema(tmp_path):
    code, data = run(tmp_path, "limit-law", "--format", "json")
    assert code == 0
    obj = json.loads(data)
    assert set(obj) == {"meta", "rows"}
    assert obj["meta"]["seed"] == 20070201
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


def test_depth_dist_usage_errors(tmp_path):
    assert run(tmp_path, "depth-dist")[0] == 2
    assert run(tmp_path, "depth-dist", "--n", "0")[0] == 2
    assert run(tmp_path, "depth-dist", "--n", str(2 ** 23))[0] == 2


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


def test_dst_demo_bad_probe(tmp_path):
    assert run(tmp_path, "dst-demo", "--probe", "21")[0] == 2


def test_simulate_dyadic_matches_exact_trailer(tmp_path):
    code, data = run(tmp_path, "simulate", "--n-grid", "1024:1024:1",
                     "--samples", "20000")
    assert code == 0
    row = data.decode().strip().split("\n")[-1].split(",")
    assert abs(float(row[3]) - tv_to_limit(1024)[0]) <= 0.05


def test_simulate_general_alpha(tmp_path):
    code, data = run(tmp_path, "simulate", "--alpha", "3.0",
                     "--n-grid", "9:81:x3", "--samples", "4000")
    assert code == 0
    rows = [line.split(",") for line in data.decode().strip().split("\n")[2:]]
    assert len(rows) == 3
    assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)


def test_simulate_usage_errors(tmp_path):
    assert run(tmp_path, "simulate", "--samples", "0")[0] == 2
    assert run(tmp_path, "simulate", "--alpha", "1.0")[0] == 2
    assert run(tmp_path, "simulate", "--alpha", "inf")[0] == 2
    assert run(tmp_path, "simulate", "--n-grid", "64:16:x4")[0] == 2


# 1.0001 would need 276,325 series terms per draw: refused before any draw
@pytest.mark.parametrize("alpha", ["1.0", "nan", "1.0001"])
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


def test_simulate_disjoint_laws_exits_0(tmp_path):
    # the simulated and reference laws share no atom: the distance is 1
    code, data = run(tmp_path, "simulate", "--alpha", "1.03", "--n-grid",
                     "3:3:1", "--samples", "10", "--seed", "2")
    assert code == 0
    assert data.decode().strip().split("\n")[-1].split(",")[3] == "1"


@pytest.mark.filterwarnings("error")
def test_simulate_huge_alpha_warns_nothing(tmp_path, capsys):
    code, data = run(tmp_path, "simulate", "--alpha", "1e308", "--n-grid",
                     "16:16:1", "--samples", "100")
    assert code == 0 and capsys.readouterr().err == ""
    row = data.decode().strip().split("\n")[-1].split(",")
    assert 0.0 <= float(row[3]) <= 1.0


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


@pytest.mark.parametrize("module, name, argv", [
    (renewal_dst.cli, "tv_vs_limit",
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


def test_unknown_command_exits_2(tmp_path):
    assert main(["frobnicate"]) == 2


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
# numpy 2.4. They pin the draw layout of simulate_count, the placement rule
# of Dst and the Q_eta values across refactors; the header's version field
# is in the bytes.
@pytest.mark.parametrize("argv, digest", [
    (("simulate", "--n-grid", "16:256:x4", "--samples", "3000"),
     "cf25cc812890d306c1621842a9a1240f3eeeb605cff2dadc4813b8e243c65680"),
    (("simulate", "--alpha", "2.7", "--n-grid", "16:64:x2",
      "--samples", "2000"),
     "ac1a8cc3e2d8c6f118e090c6f27ea60a3bf6a783bcc3186cad8be71f3d51bba4"),
    (("dst-demo", "--probe", "011100"),
     "5c7373d7d7a42fd4907281b67eaf4cbf9c92ae319e5c9411880ccb92e2dc687e"),
    # eta = 0.80364 puts c = 0.872750 (x = 0) inside limit_law._MEDIAN_BAND
    (("limit-law", "--eta", "0.80364"),
     "7d7620a55649ed863daab8d9962845a028f4dde8a60fc87bb8dc84b9a3bb3c10"),
    (("limit-law", "--eta", "0.5"),
     "2778d4b2e609255bd00829606a9964bb151959887ac15dba55afc9f5612f9cda"),
    (("depth-dist", "--n", "1024"),
     "0eb9b900d534438a991d4a8be5bffc43d09908a304abcfa6ee9e65ef70b1d489"),
], ids=["simulate-dyadic", "simulate-alpha-2.7", "dst-demo-probe",
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


# names no command needs: reachable from their modules, not the package
_MODULE_ONLY = {
    "dst": ["bits_from_unit_interval", "parse_corpus"],
    "lifetimes": ["geometric_pmf"],
    "limit_law": ["euler_b", "exp_convolution_cdf",
                  "partial_fraction_coefficients"],
    "metrics": ["empirical_cdf_jumps", "ks_discrete_vs_continuous"],
    "renewal": ["scaled_sum_sample"],
}


def test_module_only_names_stay_off_the_package():
    assert len(renewal_dst.__all__) == 31
    for module, names in _MODULE_ONLY.items():
        mod = importlib.import_module(f"renewal_dst.{module}")
        for name in names:
            assert hasattr(mod, name), (module, name)
            assert not hasattr(renewal_dst, name), name
            assert name not in renewal_dst.__all__, name
