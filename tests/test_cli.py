import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from modkernel import cli
from modkernel.acceptance import CRITERIA
from modkernel.cli import build_parser, main, parse_weight_source
from modkernel.kernels import jacobi_sobolev_poly
from modkernel.polycore import Chebyshev1, recurrence_coefficients


def run(argv):
    return main(argv)


class TestWeightSources:
    def setup_method(self):
        self.fam = Chebyshev1()
        self.rc = recurrence_coefficients(self.fam, 12)

    def test_ones(self):
        w = parse_weight_source("ones", self.fam, self.rc, 8, 1)
        assert len(w) == 9 and all(w[k] == 1.0 for k in range(9))

    def test_kernel(self):
        w = parse_weight_source("kernel:t0=1.5", self.fam, self.rc, 8, 1)
        assert all(w[k] > 0 for k in range(9))
        assert w[3] == pytest.approx(math.sqrt(2 / math.pi) * math.cosh(3 * math.acosh(1.5)), rel=1e-12)

    def test_eigkernel(self):
        w = parse_weight_source("eigkernel:c=2,t0=1.5", self.fam, self.rc, 8, 1)
        ref = parse_weight_source("kernel:t0=1.5", self.fam, self.rc, 8, 1)
        for k in range(9):
            assert w[k] == pytest.approx(ref[k] / (2.0 + k * k), rel=1e-12)

    def test_secondkind(self):
        w = parse_weight_source("secondkind:t0=2.0", self.fam, self.rc, 8, 1)
        assert w[0] == 1.0 and all(w[k] > 0 for k in range(9))

    def test_random_is_seeded(self):
        w1 = parse_weight_source("random:seed=5", self.fam, self.rc, 8, 1)
        w2 = parse_weight_source("random:seed=5", self.fam, self.rc, 8, 99)
        np.testing.assert_array_equal(w1.c, w2.c)

    def test_file(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("\n".join(str(1.0 + 0.1 * k) for k in range(12)))
        w = parse_weight_source(f"file:{p}", self.fam, self.rc, 8, 1)
        assert w[2] == pytest.approx(1.2)


class TestPencilCommand:
    def test_chebyshev_ones_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["pencil", "--family", "chebyshev", "--c", "ones", "--nmax", "20", "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "pencil"
        assert all(c["pass"] for c in doc["checks"])
        names = {c["name"] for c in doc["checks"]}
        assert "construction-path-equality" in names
        assert "recurrence-matches-weighted-sums" in names

    def test_jacobi_kernel_weights_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["pencil", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3",
                    "--c", "kernel:t0=1.5", "--nmax", "12", "--emit", str(out)])
        assert code == 0

    def test_bands_csv(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "bands.csv"
        code = run(["pencil", "--family", "chebyshev", "--c", "ones", "--nmax", "8",
                    "--emit", str(out), "--bands-csv", str(csv)])
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "n,a,b,alpha,beta,gamma"
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == 1.0 and first[2] == -2.0

    def test_failed_check_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "weighted_sum_residual", lambda *args: 1.0)
        out = tmp_path / "r.json"
        code = run(["pencil", "--family", "chebyshev", "--c", "ones", "--nmax", "12", "--emit", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert [c["name"] for c in doc["checks"] if not c["pass"]] == ["recurrence-matches-weighted-sums"]

    def test_nonpositive_file_weight_names_index(self, tmp_path, capsys):
        p = tmp_path / "w.csv"
        p.write_text("1.0\n1.0\n-0.5\n" + "\n".join(["1.0"] * 30))
        code = run(["pencil", "--family", "chebyshev", "--c", f"file:{p}", "--nmax", "8"])
        captured = capsys.readouterr()
        assert code == 2
        assert "c[2]" in captured.err


    @pytest.mark.parametrize("argv, message", [
        (["--family", "chebyshev", "--c", "file:/nonexistent/weights.csv"], "cannot read weight file"),
        (["--family", "chebyshev", "--c", "kernel:"], "needs t0="),
        (["--family", "jacobi", "--alpha", "-1.5"], "must exceed -1"),
        (["--family", "chebyshev", "--c", "bogus:1"], "cannot parse weight source"),
    ])
    def test_bad_input_exits_two_with_one_line(self, argv, message, capsys):
        code = run(["pencil", *argv, "--nmax", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("nmax", ["0", "1"])
    def test_nmax_below_two_certifies(self, nmax, tmp_path):
        out = tmp_path / "r.json"
        code = run(["pencil", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3",
                    "--c", "kernel:t0=1.5", "--nmax", nmax, "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["checks"]) == 4 and all(c["pass"] for c in doc["checks"])
        resid = {c["name"]: c for c in doc["checks"]}["five-term-self-residual"]
        assert resid["measured"] == 0.0 and resid["details"] == {"rows": 0}

    def test_short_weight_file_exits_two(self, tmp_path, capsys):
        p = tmp_path / "w.csv"
        p.write_text("1.0,1.0,1.0")
        code = run(["pencil", "--family", "chebyshev", "--c", f"file:{p}", "--nmax", "8"])
        assert code == 2
        assert "3 values" in capsys.readouterr().err

    def test_range_limit_is_named_without_warnings(self, capsys):
        # the README example at nmax 400: c_369^2 overflows, so 1/c^2 would
        # read 0 in the bands; one named line, no numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["pencil", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3",
                        "--c", "kernel:t0=1.5", "--nmax", "400"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: weight c[369] = 1.56789e+154 is outside the pencil's range: ")
        assert err.endswith("1/c[369]^2 reads 0\n") and err.count("\n") == 1

    def test_vanishing_weight_is_named(self, tmp_path, capsys):
        p = tmp_path / "w.csv"
        p.write_text("\n".join(["1.0"] * 5 + ["1e-170"] + ["1.0"] * 10))
        code = run(["pencil", "--family", "chebyshev", "--c", f"file:{p}", "--nmax", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: weight c[5] = 1e-170 is outside the pencil's range: 1/c[5]^2 reads inf\n"


@pytest.mark.parametrize("argv", [
    ["gram", "--family", "jacobi", "--alpha", "-1.5", "--t0", "1"],
    ["diffcheck", "--family", "laguerre", "--alpha", "-2"],
])
def test_bad_family_parameters_exit_two(argv, capsys):
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["pencil", "--family", "chebyshev", "--alpha", "7", "--beta", "9"], "--family chebyshev takes no --alpha, got 7.0"),
    (["pencil", "--family", "chebyshev", "--beta", "9"], "--family chebyshev takes no --beta, got 9.0"),
    (["pencil", "--family", "laguerre", "--alpha", "0.5", "--beta", "1"], "--family laguerre takes no --beta, got 1.0"),
    (["gram", "--family", "chebyshev", "--alpha", "0.5", "--t0", "1"], "--family chebyshev takes no --alpha, got 0.5"),
    (["diffcheck", "--family", "laguerre", "--beta", "-0.3"], "--family laguerre takes no --beta, got -0.3"),
    (["plotdata", "--what", "tn", "--t0", "1.5"], "plotdata --what tn takes no --t0, got 1.5"),
    (["plotdata", "--what", "tn", "--family", "jacobi"], "plotdata --what tn takes no --family, got jacobi"),
    (["plotdata", "--what", "tn", "--alpha", "0.5"], "plotdata --what tn takes no --alpha, got 0.5"),
    (["plotdata", "--what", "P", "--family", "laguerre"], "plotdata --what P takes no --family, got laguerre"),
    (["plotdata", "--what", "L", "--family", "jacobi"], "plotdata --what L takes no --family, got jacobi"),
    (["plotdata", "--what", "L", "--beta", "0.5"], "plotdata --what L takes no --beta, got 0.5"),
    (["plotdata", "--what", "kernel", "--c", "2"], "plotdata --what kernel takes no --c, got 2.0"),
    (["plotdata", "--what", "kernel", "--family", "chebyshev", "--beta", "1"], "--family chebyshev takes no --beta, got 1.0"),
])
def test_unread_options_exit_two(argv, message, tmp_path, capsys):
    code = run([*argv, "--emit", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["pencil", "--family", "chebyshev", "--alpha", "0", "--beta", "0", "--nmax", "4"],
    ["pencil", "--family", "laguerre", "--alpha", "0.5", "--beta", "0", "--nmax", "4"],
    ["plotdata", "--what", "tn", "--family", "chebyshev", "--alpha", "0", "--beta", "0", "--t0", "1"],
    ["plotdata", "--what", "P", "--family", "chebyshev", "--alpha", "0.5", "--t0", "1.5"],
    ["plotdata", "--what", "kernel", "--c", "1", "--t0", "1"],
])
def test_unread_options_at_their_defaults_pass(argv, tmp_path):
    assert run([*argv, "--emit", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("alpha", ["200", "280"])
@pytest.mark.parametrize("argv", [
    ["pencil", "--family", "laguerre", "--nmax", "5"],
    ["integralcheck", "--nmax", "0", "--x=-1"],
])
def test_gamma_overflow_exits_two(argv, alpha, capsys):
    # Gamma(alpha + 1) of the LaguerreNeg weight leaves the double range
    code = run([*argv, "--alpha", alpha])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: gamma_fn({float(alpha) + 1.0}) overflows double precision\n"


@pytest.mark.parametrize("argv", [
    ["pencil", "--family", "chebyshev", "--nmax"],
    ["gram", "--family", "chebyshev", "--t0", "1", "--nmax"],
    ["integralcheck", "--nmax"],
    ["plotdata", "--what", "tn", "--n"],
])
def test_negative_nmax_exits_two(argv, capsys):
    # the last element is the degree flag, given -1
    with pytest.raises(SystemExit) as exc:
        run([*argv, "-1"])
    err_lines = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert exc.value.code == 2
    assert len(err_lines) == 1 and f"{argv[-1]}: must be nonnegative, got -1" in err_lines[0]


class TestGramCommand:
    def test_jacobi_defaults_pass(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["gram", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3",
                    "--c", "2", "--t0", "1.5", "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["offdiagonal-suppression"]["pass"]
        assert by_name["diagonal-positivity"]["pass"]

    def test_laguerre_edge_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["gram", "--family", "laguerre", "--alpha", "0", "--c", "1", "--t0", "0",
                    "--emit", str(out)])
        assert code == 0

    def test_below_edge_rejected(self, capsys):
        code = run(["gram", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3",
                    "--c", "1", "--t0", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "edge" in captured.err

    def test_gram_csv(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "g.csv"
        code = run(["gram", "--family", "chebyshev", "--c", "1", "--t0", "1", "--nmax", "6",
                    "--emit", str(out), "--gram-csv", str(csv)])
        assert code == 0
        rows = csv.read_text().strip().splitlines()
        assert len(rows) == 8  # header + 7
        diag = [float(rows[i + 1].split(",")[i]) for i in range(7)]
        for d in diag:
            assert d == pytest.approx(1.0 / math.pi, rel=1e-9)


class TestDiffcheckCommand:
    def test_chebyshev_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["diffcheck", "--family", "chebyshev", "--c", "1", "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        comp = by_name["composed-equation-shifted-reading"]
        assert comp["pass"]
        # the rejected reading is reported alongside, and visibly fails
        assert comp["details"]["unshifted_reading_residual"] > 1e-2

    def test_laguerre_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["diffcheck", "--family", "laguerre", "--alpha", "0", "--c", "2", "--emit", str(out)])
        assert code == 0

    def test_every_degree_is_checked(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["diffcheck", "--family", "laguerre", "--alpha", "0.5", "--c", "1", "--nmax", "40",
                    "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["checks"][0]["details"]["per_n"]) == 41

    def test_eigen_table_zero_row(self, tmp_path):
        out = tmp_path / "r.json"
        run(["diffcheck", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3", "--c", "1",
             "--emit", str(out)])
        doc = json.loads(out.read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        per_n = by_name["eigen-relation"]["details"]["per_n"]
        assert per_n[0] == 0.0

    def test_nan_degree_fails_the_eigen_relation(self, tmp_path, monkeypatch):
        # a NaN past the first degree must not be folded away
        monkeypatch.setattr(cli, "verify_eigen_relation", lambda *args: np.array([0.0, np.nan, np.nan, np.nan]))
        out = tmp_path / "r.json"
        code = run(["diffcheck", "--family", "chebyshev", "--c", "1", "--nmax", "3", "--emit", str(out)])
        assert code == 1
        eigen = json.loads(out.read_text())["checks"][0]
        assert eigen["name"] == "eigen-relation"
        assert math.isnan(eigen["measured"]) and not eigen["pass"]


class TestIntegralcheckCommand:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["integralcheck", "--alpha", "0", "--c", "1", "--nmax", "3",
                    "--x=-0.5,-1", "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        table = doc["checks"][0]["details"]["table"]
        assert len(table) == 8
        zero_rows = [r for r in table if r["n"] == 0]
        assert all(r["relative_error"] <= 1e-10 for r in zero_rows)

    def test_non_integer_c_rejected(self, capsys):
        code = run(["integralcheck", "--alpha", "0", "--c", "1.5", "--x=-1"])
        assert code == 2
        assert "integer" in capsys.readouterr().err

    def test_positive_x_rejected(self, capsys):
        code = run(["integralcheck", "--alpha", "0", "--c", "1", "--x=0.5"])
        assert code == 2

    def test_overflowing_x_rejected(self, capsys):
        code = run(["integralcheck", "--alpha", "0.5", "--c", "1", "--nmax", "1", "--x=-1e6"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: x = -1000000.0") and err.count("\n") == 1

    @pytest.mark.parametrize("nmax", ["52", "100"])
    def test_high_order_certifies_without_warnings(self, nmax, tmp_path, capsys):
        # the inner factor once overflowed from nmax 52, with a numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["integralcheck", "--alpha", "0", "--c", "1", "--nmax", nmax, "--x=-0.5",
                        "--emit", str(tmp_path / "r.json")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_budget_refusal_marks_the_domain_edge(self, capsys):
        # the Bessel round-off budget is what ends the measured domain of the routes
        code = run(["integralcheck", "--alpha", "0", "--c", "1", "--nmax", "1", "--x=-20"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: Bessel series round-off budget 0.118 exceeds 0.001 ") and err.count("\n") == 1


class TestPlotdataCommand:
    def test_tn_bounds_columns(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run(["plotdata", "--what", "tn", "--c", "1", "--n", "5",
                    "--grid=-1,1,1001", "--emit", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x,value,derivative,bound_value,bound_derivative"
        assert len(rows) == 1002
        for line in rows[1:]:
            x, v, d, bv, bd = (float(s) for s in line.split(","))
            assert abs(v) <= bv and abs(d) <= bd

    def test_t1_crosses_root(self, tmp_path):
        out = tmp_path / "t.csv"
        c = 1.0
        run(["plotdata", "--what", "tn", "--c", "1", "--n", "1", "--grid=-1.2,0,2401",
             "--emit", str(out)])
        rows = out.read_text().strip().splitlines()[1:]
        data = np.array([[float(s) for s in r.split(",")] for r in rows])
        root = data[np.abs(data[:, 1]).argmin(), 0]
        assert abs(root - (-(c + 1) / (2 * c))) < 1e-3

    def test_sobolev_plot(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run(["plotdata", "--what", "P", "--alpha", "0.5", "--beta", "-0.3", "--c", "1",
                    "--t0", "1.5", "--n", "4", "--grid=-1,1,11", "--emit", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 12

    def test_sobolev_slope_is_exact(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run(["plotdata", "--what", "P", "--alpha", "0.5", "--beta", "-0.3", "--c", "1",
                    "--t0", "1.5", "--n", "6", "--grid=-1,1,11", "--emit", str(out)])
        assert code == 0
        data = np.array([[float(v) for v in row.split(",")] for row in out.read_text().splitlines()[1:]])
        slope = jacobi_sobolev_poly(0.5, -0.3, 1.0, 1.5, 6).derivative()(data[:, 0])
        np.testing.assert_allclose(data[:, 2], slope, rtol=1e-11)

    def test_sobolev_plot_beyond_the_coefficient_cap(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run(["plotdata", "--what", "P", "--alpha", "0.5", "--beta", "-0.3", "--c", "1",
                    "--t0", "1.5", "--n", "45", "--grid=-1,1,11", "--emit", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 12

    def test_laguerre_and_kernel_plots(self, tmp_path):
        out = tmp_path / "l.csv"
        code = run(["plotdata", "--what", "L", "--alpha", "0.5", "--c", "1", "--t0", "0",
                    "--n", "3", "--grid=-5,0,11", "--emit", str(out)])
        assert code == 0
        out2 = tmp_path / "k.csv"
        code = run(["plotdata", "--what", "kernel", "--family", "chebyshev", "--t0", "1",
                    "--n", "4", "--grid=-1,1,11", "--emit", str(out2)])
        assert code == 0
        header = out2.read_text().splitlines()[0]
        assert header == "x,value,derivative"

    def test_empty_grid_rejected(self, capsys):
        code = run(["plotdata", "--what", "tn", "--grid", ""])
        assert code == 2


@pytest.mark.parametrize("argv, tolerances", [
    (["pencil", "--family", "chebyshev", "--nmax", "6"],
     {"definition-positivity": 0.0, "construction-path-equality": 1e-12,
      "five-term-self-residual": 1e-10, "recurrence-matches-weighted-sums": 1e-9}),
    (["gram", "--family", "chebyshev", "--t0", "1", "--nmax", "6"],
     {"diagonal-positivity": 0.0, "offdiagonal-suppression": 1e-9}),
    (["diffcheck", "--family", "chebyshev", "--nmax", "6"],
     {"eigen-relation": 1e-11, "kernel-image-identity": 1e-10, "composed-equation-shifted-reading": 1e-9}),
    (["integralcheck", "--nmax", "2", "--x=-1"], {"double-integral-vs-closed-form": 1e-5}),
])
def test_report_tolerances_are_pinned(argv, tolerances, tmp_path):
    # every check of every subcommand, with its tolerance written out, so an
    # edit of acceptance.TOLERANCES cannot loosen a certificate unnoticed
    out = tmp_path / "r.json"
    assert run([*argv, "--emit", str(out)]) == 0
    assert {c["name"]: c["tolerance"] for c in json.loads(out.read_text())["checks"]} == tolerances


class TestReportDeterminism:
    def test_reports_identical_apart_from_timestamp(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["pencil", "--family", "chebyshev", "--c", "random:seed=3", "--nmax", "10"]
        run(args + ["--emit", str(a)])
        run(args + ["--emit", str(b)])
        strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
        assert strip(a.read_text()) == strip(b.read_text())

    @pytest.mark.parametrize("argv, family", [
        (["pencil", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3", "--nmax", "6"],
         {"family": "jacobi", "alpha": 0.5, "beta": -0.3}),
        (["gram", "--family", "jacobi", "--alpha", "0.5", "--beta", "-0.3", "--t0", "1.5", "--nmax", "6"],
         {"family": "jacobi", "alpha": 0.5, "beta": -0.3}),
        (["diffcheck", "--family", "laguerre", "--alpha", "0.5", "--nmax", "6"],
         {"family": "laguerre-neg", "alpha": 0.5}),
        (["pencil", "--family", "chebyshev", "--nmax", "6"], {"family": "chebyshev1"}),
    ])
    def test_reports_record_the_family_parameters(self, argv, family, tmp_path):
        # the parameters that select the family, and no others, in reports
        # that are identical apart from the timestamp
        texts = []
        for name in ("a.json", "b.json"):
            assert run([*argv, "--emit", str(tmp_path / name)]) == 0
            texts.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', (tmp_path / name).read_text()))
        assert texts[0] == texts[1]
        params = json.loads(texts[0])["parameters"]
        assert {k: params[k] for k in ("family", "alpha", "beta") if k in params} == family

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODKERNEL_OUTPUT_DIR", str(tmp_path))
        code = run(["pencil", "--family", "chebyshev", "--c", "ones", "--nmax", "6"])
        assert code == 0
        assert (tmp_path / "pencil-report.json").exists()


class TestSelftestCommand:
    def test_all_criteria_pass(self, tmp_path, capsys):
        out = tmp_path / "selftest.json"
        code = run(["selftest", "--emit", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        names = [c["name"] for c in doc["checks"]]
        assert [n[:12] for n in names] == [f"criterion-{k:02d}" for k in range(1, 13)]
        assert all(c["pass"] for c in doc["checks"])
        assert capsys.readouterr().out.count("PASS ") == 12
        # every criterion is timed by the registry runner; budgeted ones say so
        assert all(c["details"]["elapsed"] >= 0.0 for c in doc["checks"])
        assert [c["details"].get("budget_seconds") for c in doc["checks"]] == [
            crit.budget_seconds for crit in CRITERIA]


def _module_env():
    """The environment for ``python -m modkernel`` on the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("modkernel").__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "modkernel", "--help"], capture_output=True, text=True,
                          env=_module_env())
    assert proc.returncode == 0
    assert "selftest" in proc.stdout


def test_closed_stdout_pipe_stops_without_traceback():
    # `modkernel selftest | head -1` with the reader gone before the first
    # write: every write to stdout then fails with EPIPE, the report's too
    env = _module_env()
    env.pop("MODKERNEL_OUTPUT_DIR", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "modkernel", "selftest"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_parser_covers_subcommands():
    ap = build_parser()
    for cmd in ("pencil", "gram", "diffcheck", "integralcheck", "plotdata", "selftest"):
        assert cmd in ap.format_help()
