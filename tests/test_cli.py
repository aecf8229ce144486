import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from discmax import allocsim, cli, extremes
from discmax.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestProfileCommand:
    def test_reference_row(self, capsys):
        code, out = run_cli(["profile", "--model", "poisson", "--params", "lam=1",
                             "--extension", "asymptotic", "--n", "1e4",
                             "--x-sigfigs", "6"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert float(row["x_n"]) == pytest.approx(5.84299, abs=1e-5)
        assert row["m_n"] == "6"
        assert float(row["p_n"]) == pytest.approx(0.47741767, abs=1e-7)
        assert row["regime"] == "GammaZero"
        assert float(row["briggs_x"]) == pytest.approx(5.84299, abs=0.2)

    def test_geometric_smallest_n(self, capsys):
        code, out = run_cli(["profile", "--model", "geometric", "--params", "q=0.5",
                             "--n", "2"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["gamma"]) == 0.5
        assert row["cluster_escape_bound"] == ""  # Poisson-only column

    @pytest.mark.parametrize("n", ["2", "2.5"])
    def test_poisson_below_briggs_range(self, capsys, n):
        # the Lambert-W refinement needs n >= 3; the row leaves it empty
        code, out = run_cli(["profile", "--params", "lam=1", "--n", n], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["briggs_x"] == ""
        assert float(row["cluster_escape_bound"]) > 0.0
        code, out = run_cli(["profile", "--params", "lam=1", "--n", n, "--format", "json"],
                            capsys)
        assert code == 0
        assert json.loads(out)[0]["briggs_x"] is None

    def test_simulate_two_boxes(self, capsys):
        code, out = run_cli(["simulate", "--boxes", "2", "--balls", "3", "--trials", "50",
                             "--extension", "natural", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["profile"]["briggs_x"] is None

    def test_dcauchy_beyond_doubling_range(self, capsys):
        code, out = run_cli(["profile", "--model", "dcauchy", "--n", "1e61"], capsys)
        assert code == 0
        assert float(parse_csv(out)[0]["x_n"]) == pytest.approx(0.48153922e61, rel=1e-8)

    def test_json_format(self, capsys):
        code, out = run_cli(["profile", "--model", "poisson", "--params", "lam=1",
                             "--n", "1000", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["m_n"] == 5

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "row.csv"
        code, _ = run_cli(["profile", "--model", "poisson", "--params", "lam=1",
                           "--n", "1000", "--out", str(target)], capsys)
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert parse_csv(text)[0]["m_n"] == "5"


class TestScanCommand:
    def test_geometric_range_with_breakpoint(self, capsys):
        code, out = run_cli(["scan", "--model", "poisson", "--params", "lam=0.01",
                             "--extension", "asymptotic", "--x-sigfigs", "6",
                             "--n-range", "2000:512000:x2"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 9
        assert [r["m_n"] for r in rows] == ["1"] * 8 + ["2"]
        assert [r["is_breakpoint"] for r in rows].count("True") == 1
        assert rows[7]["is_breakpoint"] == "True"
        assert float(rows[3]["p_n"]) == pytest.approx(0.4492, abs=5e-4)

    def test_arithmetic_range(self, capsys):
        code, out = run_cli(["scan", "--model", "poisson", "--params", "lam=1",
                             "--n-range", "1000:3000:+1000"], capsys)
        assert code == 0
        assert [float(r["n"]) for r in parse_csv(out)] == [1000.0, 2000.0, 3000.0]

    def test_range_to_the_float_maximum(self, capsys):
        # the end stop * (1 + 1e-12) overflowed to inf here, so the range
        # ran on to the 10^5-value cap and exited 2
        code, out = run_cli(["scan", "--model", "poisson", "--params", "lam=1",
                             "--n-range", f"1e300:{sys.float_info.max!r}:x10"], capsys)
        assert code == 0
        ns = [float(r["n"]) for r in parse_csv(out)]
        assert ns == pytest.approx([10.0 ** k for k in range(300, 309)], rel=1e-12)

    def test_empty_range_usage_error(self, capsys):
        code, _ = run_cli(["scan", "--model", "poisson", "--params", "lam=1",
                           "--n-range", "5000:1000:x2"], capsys)
        assert code == 2

    def test_range_past_the_cap_refused(self):
        # ~1.08 10^6 values: refused once the list reaches the cap
        with pytest.raises(ValueError, match="lists more than 100000 values"):
            cli._parse_n_range("1e3:1e50:x1.0001")

    def test_range_at_the_cap_accepted(self):
        assert len(cli._parse_n_range(f"1:{cli.MAX_ROWS}:+1")) == cli.MAX_ROWS

    def test_step_lost_to_rounding_usage_error(self, capsys):
        # 1e16 + 1 == 1e16: without the cap the range never ends
        code, out = run_cli(["scan", "--model", "poisson", "--params", "lam=1",
                             "--n-range", "1e16:2e16:+1"], capsys)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("n_range, message", [
        ("1e3:1e6:xnan", "needs a finite start, stop and step"),
        ("1e3:1e6:+nan", "needs a finite start, stop and step"),
        ("1e3:1e6:xinf", "needs a finite start, stop and step"),
        ("nan:1e6:x2", "needs a finite start, stop and step"),
        ("1e3:inf:+1", "needs a finite start, stop and step"),
        ("0:1e6:x2", "needs a start above 0"),
        ("-1e3:1e6:x2", "needs a start above 0"),
        ("1e3:1e5", "malformed range '1e3:1e5'"),
        ("1e3:1e5:*2", "malformed step rule '*2'"),
        ("1e3:1e5:+0", "arithmetic step must be positive"),
    ])
    def test_bad_range_usage_error(self, capsys, n_range, message):
        # a nan or inf factor printed one row and exited 0; a geometric
        # range from 0 listed 10^5 zeros before it was refused
        code = main(["scan", "--model", "poisson", "--params", "lam=1", f"--n-range={n_range}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and message in captured.err


class TestTiesCommand:
    def test_reference_tie_rows(self, capsys):
        code, out = run_cli(["ties", "--model", "poisson", "--params", "lam=0.01",
                             "--extension", "asymptotic", "--x-sigfigs", "6",
                             "--n", "16000", "--t-max", "3"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert float(rows[0]["p_n"]) == pytest.approx(0.44924115, abs=5e-6)
        assert float(rows[0]["exactly"]) == pytest.approx(0.35948, abs=5e-5)
        assert float(rows[0]["at_least"]) == 1.0

    def test_regime_mismatch_usage_error(self, capsys):
        code, _ = run_cli(["ties", "--model", "geometric", "--params", "q=0.5",
                           "--n", "100"], capsys)
        assert code == 2

    def test_t_max_at_the_row_cap_accepted(self, capsys):
        code, out = run_cli(["ties", "--params", "lam=1", "--n", "1e6",
                             "--t-max", str(cli.MAX_ROWS)], capsys)
        assert code == 0
        assert [row["t"] for row in parse_csv(out)][-1] == str(cli.MAX_ROWS)

    def test_t_max_past_the_row_cap_refused_before_the_profile(self, capsys, monkeypatch):
        def no_profile(*args, **kwargs):
            raise AssertionError("profiled before refusing --t-max")

        monkeypatch.setattr(extremes, "profile", no_profile)
        code = main(["ties", "--params", "lam=1", "--n", "1e6",
                     "--t-max", str(cli.MAX_ROWS + 1)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"usage error: t_max must be at most {cli.MAX_ROWS}, got 100001\n"


class TestSimulateCommand:
    def test_csv_tables(self, capsys):
        code, out = run_cli(["simulate", "--kind", "multinomial", "--boxes", "400",
                             "--balls", "4", "--trials", "60", "--seed", "5"], capsys)
        assert code == 0
        rows = parse_csv(out)
        tables = {r["table"] for r in rows}
        assert {"max", "ties", "merging"} <= tables
        max_rows = [r for r in rows if r["table"] == "max"]
        assert sum(int(r["count"]) for r in max_rows) == 60
        for r in max_rows:
            assert float(r["frequency"]) == pytest.approx(int(r["count"]) / 60, abs=1e-8)

    def test_natural_extension_large_rate(self, capsys):
        # mean occupancy 10^4: the natural Poisson tail at a ~ x ~ 10^4
        code, out = run_cli(["simulate", "--boxes", "100", "--balls", "1000000",
                             "--trials", "2", "--extension", "natural"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert sum(int(r["count"]) for r in rows if r["table"] == "max") == 2

    def test_json_payload(self, capsys):
        code, out = run_cli(["simulate", "--kind", "dirichlet", "--r", "1.0",
                             "--boxes", "50", "--balls", "25", "--trials", "30",
                             "--seed", "2", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["kind"] == "dirichlet"
        assert sum(payload["summary"]["max_histogram"].values()) == 30

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--kind", "multinomial", "--boxes", "100", "--balls",
                "10", "--trials", "40", "--seed", "9"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_dirichlet_honours_extension(self, capsys):
        # r = 1 would be geometric, whose log tail is already linear
        args = ["simulate", "--kind", "dirichlet", "--r", "2.0", "--boxes", "50",
                "--balls", "25", "--trials", "30", "--seed", "2", "--format", "json"]
        _, default = run_cli(args, capsys)
        _, natural = run_cli(args + ["--extension", "natural"], capsys)
        code, loglinear = run_cli(args + ["--extension", "loglinear"], capsys)
        assert code == 0
        assert default == natural
        row_natural = json.loads(natural)["profile"]
        row_loglinear = json.loads(loglinear)["profile"]
        assert row_loglinear["x_n"] != pytest.approx(row_natural["x_n"], rel=1e-6)

    def test_dirichlet_asymptotic_usage_error(self, capsys):
        code, _ = run_cli(["simulate", "--kind", "dirichlet", "--r", "1.0", "--boxes", "50",
                           "--balls", "25", "--trials", "5", "--extension", "asymptotic"],
                          capsys)
        assert code == 2

    def test_multinomial_default_is_asymptotic(self, capsys):
        args = ["simulate", "--boxes", "400", "--balls", "4", "--trials", "20", "--seed", "5"]
        _, default = run_cli(args, capsys)
        _, asymptotic = run_cli(args + ["--extension", "asymptotic"], capsys)
        _, natural = run_cli(args + ["--extension", "natural"], capsys)
        assert default == asymptotic != natural

    @pytest.mark.parametrize("kind,r,extension,t_max", [
        ("multinomial", None, "asymptotic", 3),
        ("multinomial", None, "asymptotic", 0),
        ("dirichlet", 1.0, "natural", 3),
    ])
    def test_max_theory_is_the_limiting_law(self, capsys, kind, r, extension, t_max):
        # every max row, the cluster's two values and the rest, reads the
        # regime's limiting law; for gamma = 0 that is 0 off the cluster
        args = ["simulate", "--kind", kind, "--boxes", "50", "--balls", "200",
                "--trials", "100", "--seed", "3", "--t-max", str(t_max)] + (
                    ["--r", str(r)] if r else [])
        code, out = run_cli(args, capsys)
        assert code == 0
        spec = allocsim.AllocationSpec(n_boxes=50, n_balls=200, kind=kind, trials=100, seed=3,
                                       r=r)
        prof = extremes.profile(allocsim.matched_model(spec, extension), 50)
        rows = parse_csv(out)
        max_rows = [r for r in rows if r["table"] == "max"]
        assert len(max_rows) > 2
        for r in max_rows:
            want = extremes.limiting_max_pmf(prof, int(r["value"]) - prof.m_n)
            assert float(r["theory"]) == pytest.approx(want, rel=1e-7, abs=1e-12), r
            assert float(r["abs_error"]) == pytest.approx(
                abs(float(r["frequency"]) - want), rel=1e-7, abs=1e-12), r
        if kind == "multinomial":
            off_cluster = [r for r in max_rows if int(r["value"]) not in (prof.m_n, prof.m_n + 1)]
            assert off_cluster and all(r["theory"] == "0" for r in off_cluster)
        # the tie rows read the gamma = 0 tie law up to --t-max and nothing
        # past it; outside gamma = 0 there is no tie law
        tie_rows = [r for r in rows if r["table"] == "ties"]
        assert sum(int(r["count"]) for r in tie_rows) == 100
        law = extremes.tie_distribution(prof, t_max).exactly if kind == "multinomial" else {}
        for r in tie_rows:
            t = int(r["value"])
            if t in law:
                assert float(r["theory"]) == pytest.approx(law[t], rel=1e-7, abs=1e-12), r
                assert float(r["abs_error"]) == pytest.approx(
                    abs(float(r["frequency"]) - law[t]), rel=1e-7, abs=1e-12), r
            else:
                assert r["theory"] == r["abs_error"] == "", r
        if kind == "multinomial":
            # rows on both sides of --t-max
            values = {int(r["value"]) for r in tie_rows}
            assert values & set(law) and max(values) > t_max

    def test_missing_r_usage_error(self, capsys):
        code, _ = run_cli(["simulate", "--kind", "dirichlet", "--boxes", "10",
                           "--balls", "5", "--trials", "5", "--seed", "1"], capsys)
        assert code == 2


class TestFitCommand:
    @pytest.fixture
    def counts_file(self, tmp_path):
        import numpy as np
        rng = np.random.default_rng(123)
        draws = rng.negative_binomial(0.5, 0.5, size=2400)
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(str(int(v)) for v in draws) + "\n", encoding="utf-8")
        return str(path)

    def test_json_report(self, counts_file, capsys):
        code, out = run_cli(["fit", "--input", counts_file, "--block", "24",
                             "--trials", "2000", "--seed", "4",
                             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["fit"]["overdispersed"] is True
        assert math.fsum(e["probability"] for e in payload["theory"]) == pytest.approx(
            1.0, abs=1e-9)
        assert math.fsum(e["frequency"] for e in payload["empirical"]) == pytest.approx(
            1.0, abs=1e-9)
        assert payload["simulated"] is not None

    def test_csv_report(self, counts_file, capsys):
        code, out = run_cli(["fit", "--input", counts_file, "--block", "24"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows and set(rows[0]) == {"value", "theory", "empirical", "simulated"}

    def test_unlistable_tail_usage_error(self, tmp_path, capsys):
        # one count of 100000 in 2400 hours: the fitted tail needs more than
        # datafit.MAX_LAW_VALUES values before its law reaches 1 - 1e-9
        path = tmp_path / "spike.csv"
        path.write_text("\n".join(["0"] * 1000 + ["100000"] + ["0"] * 1399) + "\n",
                        encoding="utf-8")
        code = main(["fit", "--input", str(path), "--block", "24"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: the maximum of 24 draws from "
                                       "NegativeBinomialModel(")
        assert captured.err.endswith("its law needs more than 100000 values\n")

    @pytest.mark.parametrize("block", ["0", "-3"])
    def test_block_below_one_usage_error(self, counts_file, capsys, block):
        code = main(["fit", "--input", counts_file, "--block", block])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: block_size must be >= 1, got {block}\n"

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1\nfoo\n", encoding="utf-8")
        code, _ = run_cli(["fit", "--input", str(bad), "--block", "1"], capsys)
        assert code == 4


class TestExitCodes:
    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--model", "nosuch", "--n", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        # bounded empirical tail cannot reach 1/n for large n
        (["--model", "empirical", "--params", "probabilities=0.5:0.5", "--n", "1e9"],
         "no genuine crossing"),
        # x_n ~ 4.8e299 lies past the bracket's last end, the float below 2^990
        (["--model", "dcauchy", "--n", "1e300"], "beyond the solver's range"),
        # lgamma(r + 1) overflows in the tail's incomplete beta
        (["--model", "negbinom", "--params", "r=1e306,p=0.5", "--n", "1e6"],
         "incomplete beta prefactor overflowed (a=1.0, b=1e+306, x=0.5)"),
    ], ids=["bounded", "dcauchy-1e300", "negbinom-r1e306"])
    def test_numeric_failure(self, capsys, argv, message):
        assert main(["profile"] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ["profile", "--model", "negbinom", "--params", "r=1e306,p=0.5", "--n", "1e6"],
        ["profile", "--model", "poisson", "--params", "lam=1e306", "--n", "1e6"],
        ["profile", "--model", "geometric", "--params", "q=0.9999999999999999", "--n", "1e6"],
        ["profile", "--model", "empirical", "--params", "probabilities=0.5:0.5", "--n", "1e6"],
        ["simulate", "--kind", "dirichlet", "--boxes", "3", "--balls", "6", "--r", "0.001",
         "--trials", "2000"],
    ], ids=["negbinom-r1e306", "poisson-lam1e306", "geometric-q-near-1", "empirical-2-atoms",
            "dirichlet-r1e-3"])
    def test_extreme_valid_input_keeps_the_exit_contract(self, argv):
        # a fresh interpreter: a crash shows as exit 1 and a traceback
        proc = subprocess.run([sys.executable, "-m", "discmax", *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode in (0, 2, 3, 4), proc.stderr
        assert "Traceback" not in proc.stderr
        if argv[0] == "simulate":  # gamma weights of shape 1e-3 were once 0 / 0
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr

    @pytest.mark.parametrize("n", ["nan", "inf"])
    def test_non_finite_n_usage_error(self, capsys, n):
        code, _ = run_cli(["profile", "--model", "poisson", "--params", "lam=1",
                           "--n", n], capsys)
        assert code == 2

    def test_bad_params_usage_error(self, capsys):
        code, _ = run_cli(["profile", "--model", "poisson", "--params", "lam",
                           "--n", "100"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["profile", "--params", "lam=nan"], "poisson rate must be positive and finite, got nan"),
        (["profile", "--params", "lam=inf"], "poisson rate must be positive and finite, got inf"),
        (["profile", "--model", "negbinom", "--params", "r=nan,p=0.5"],
         "negative binomial r must be positive and finite, got nan"),
        (["profile", "--model", "negbinom", "--params", "r=inf,p=0.5"],
         "negative binomial r must be positive and finite, got inf"),
        (["profile", "--model", "poisson"], "missing 1 required positional argument: 'lam'"),
        (["profile", "--model", "geometric", "--params", "q=0.5:0.3"],
         "bad parameters {'q': [0.5, 0.3]} for model 'geometric'"),
        (["profile", "--model", "empirical", "--params", "probabilities=0.5"],
         "bad parameters {'probabilities': 0.5} for model 'empirical'"),
        (["profile", "--params", "lam=1,foo=2"], "unexpected keyword argument 'foo'"),
        (["profile", "--params", "lam=1", "--x-sigfigs", "0"], "x_sigfigs must be at least 1, got 0"),
        (["profile", "--params", "lam=1", "--x-sigfigs", "-2"],
         "x_sigfigs must be at least 1, got -2"),
        (["profile", "--params", "lam=1,lam=2"], "parameter 'lam' given more than once"),
        (["profile", "--model", "negbinom", "--params", "r=2,p=0.3,r=3"],
         "parameter 'r' given more than once"),
    ])
    def test_rejected_input_usage_error(self, capsys, argv, message):
        # unchecked, these exited 3 after 500 continued-fraction steps,
        # raised a traceback, silently dropped foo, or printed a row
        code = main(argv + ["--n", "1e6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and message in captured.err

    @pytest.mark.parametrize("kind", [["--kind", "multinomial"],
                                      ["--kind", "dirichlet", "--r", "1"]])
    def test_negative_t_max_usage_error(self, capsys, monkeypatch, kind):
        # outside gamma = 0 no tie law is built to refuse it, and the flag
        # is refused before the simulation runs
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before refusing --t-max")

        monkeypatch.setattr(allocsim, "simulate", no_simulation)
        code = main(["simulate", "--boxes", "10", "--balls", "5", "--trials", "5",
                     "--t-max", "-1"] + kind)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "usage error: t_max must be >= 0, got -1\n"

    @pytest.mark.parametrize("kind", [["--kind", "multinomial"],
                                      ["--kind", "dirichlet", "--r", "1"]])
    def test_t_max_row_cap(self, capsys, monkeypatch, kind):
        argv = ["simulate", "--boxes", "10", "--balls", "5", "--trials", "5"] + kind
        code, out = run_cli(argv + ["--t-max", str(cli.MAX_ROWS)], capsys)
        assert code == 0
        assert f",merging,ties_eq_{cli.MAX_ROWS}," in out

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before refusing --t-max")

        monkeypatch.setattr(allocsim, "simulate", no_simulation)
        code = main(argv + ["--t-max", str(cli.MAX_ROWS + 1)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"usage error: t_max must be at most {cli.MAX_ROWS}, got 100001\n"

    @pytest.mark.parametrize("argv, field", [
        (["--balls", "0"], "n_balls must be >= 1"),
        (["--balls", "0", "--kind", "dirichlet", "--r", "1"], "n_balls must be >= 1"),
        (["--balls", "5", "--kind", "dirichlet", "--r", "1e-300"], "r = 1e-300 is too small"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_matched_model_usage_error(self, capsys, argv, field, fmt):
        # these named the model's rate or p, not the flag given
        code = main(["simulate", "--boxes", "10", "--trials", "5", "--format", fmt] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and field in captured.err

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_non_finite_r_usage_error(self, capsys, r):
        code = main(["simulate", "--kind", "dirichlet", "--r", r, "--boxes", "10",
                     "--balls", "5", "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"positive finite r, got {r}" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_multinomial_r_usage_error(self, capsys, fmt):
        # r belongs to the Dirichlet mixture; it was ignored and echoed in the spec
        code = main(["simulate", "--kind", "multinomial", "--r", "5", "--boxes", "10",
                     "--balls", "5", "--trials", "5", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "usage error: multinomial allocations take no r, got 5.0\n"

    def test_trials_past_the_spawn_key_usage_error(self, capsys):
        code = main(["simulate", "--boxes", "10", "--balls", "5", "--trials", str(2 ** 32)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "usage error: trials must be below 2^32, got 4294967296\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--boxes", "10", "--balls", "5", "--trials", "5"],
        ["simulate", "--kind", "dirichlet", "--r", "1", "--boxes", "10", "--balls", "5",
         "--trials", "5"],
        ["fit", "--block", "4", "--trials", "5"]])
    def test_negative_seed_usage_error(self, capsys, tmp_path, argv):
        counts = tmp_path / "counts.csv"
        counts.write_text("0\n1\n0\n3\n2\n0\n0\n1\n", encoding="utf-8")
        if argv[0] == "fit":
            argv = argv + ["--input", str(counts)]
        code = main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "usage error: seed must be a nonnegative int, got -1\n"

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unopenable_input_usage_error(self, capsys, tmp_path, where):
        # these printed a traceback and exited 1
        path = tmp_path / "missing.csv" if where == "missing" else tmp_path
        code = main(["fit", "--input", str(path), "--block", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: [Errno ")
        assert captured.err.endswith(f"{str(path)!r}\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [
        ["fit", "--input", "{counts}", "--block", "2"],
        ["profile", "--params", "lam=1", "--n", "1e6"],
    ], ids=["fit", "profile"])
    def test_unwritable_out_usage_error(self, capsys, tmp_path, command):
        counts = tmp_path / "counts.csv"
        counts.write_text("0\n1\n0\n3\n", encoding="utf-8")
        out = tmp_path / "no-such-dir" / "out.csv"
        argv = [arg.format(counts=counts) for arg in command] + ["--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"usage error: [Errno 2] No such file or directory: {str(out)!r}\n"

    @pytest.mark.parametrize("command,work", [
        (["fit", "--input", "{counts}", "--block", "2"], "datafit.ingest"),
        (["profile", "--params", "lam=1", "--n", "1e6"], "extremes.profile"),
    ], ids=["fit", "profile"])
    def test_out_into_missing_directory_refused_before_the_command(
            self, capsys, tmp_path, monkeypatch, command, work):
        # the command used to run in full before its --out was refused
        module, name = work.split(".")
        monkeypatch.setattr(getattr(cli, module), name,
                            lambda *args, **kwargs: pytest.fail(f"{work} was called"))
        counts = tmp_path / "counts.csv"
        counts.write_text("0\n1\n0\n3\n", encoding="utf-8")
        out = tmp_path / "no-such-dir" / "out.csv"
        argv = [arg.format(counts=counts) for arg in command] + ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == [counts]

    def test_not_utf8_input_data_error(self, capsys, tmp_path):
        # this exited 2, as a usage error: UnicodeDecodeError is a ValueError
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1\n2\n\xe9\n")
        code = main(["fit", "--input", str(path), "--block", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(f"data error: {path} is not UTF-8 text: ")
        assert captured.err.count("\n") == 1

    def test_byte_order_mark_input_accepted(self, capsys, tmp_path):
        # this failed with: line 1: not an integer count: '\ufeff1'
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"1\n0\n3\n0\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = [run_cli(["fit", "--input", str(path), "--block", "2"], capsys)
                   for path in (plain, marked)]
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empirical_gamma_not_estimable_usage_error(self, capsys, fmt):
        # three atoms give one usable tail ratio: no gamma, so no regime
        code = main(["profile", "--model", "empirical", "--params",
                     "probabilities=0.5:0.3:0.2", "--n", "3", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "usage error: the empirical tail ratio could not be estimated" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ties_gamma_not_estimable_usage_error(self, capsys):
        # refused for the missing gamma, not as outside the gamma = 0 regime
        code = main(["ties", "--model", "empirical", "--params", "probabilities=0.5:0.3:0.2",
                     "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("usage error: the limiting law needs a tail ratio gamma; "
                                "it is nan (not estimable)\n")

    def test_x_sigfigs_below_support_edge_usage_error(self, capsys):
        code = main(["profile", "--model", "empirical", "--params",
                     "probabilities=0.9:0.05:0.03:0.02,support_min=1005", "--n", "2",
                     "--x-sigfigs", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage error: x_sigfigs=3 rounds x_n = 1004.3")
        assert captured.err.endswith(
            "to 1000.0, whose anchor lies below the support edge support_min - 1 = 1004\n")


class TestRoundTrip:
    def test_csv_reparses_to_producing_values(self, capsys):
        from discmax.extremes import profile as lib_profile
        from discmax.tailmodel import PoissonModel
        code, out = run_cli(["profile", "--model", "poisson", "--params", "lam=1",
                             "--extension", "asymptotic", "--n", "1e5"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        prof = lib_profile(PoissonModel(1.0, "asymptotic"), 1e5)
        assert float(row["x_n"]) == pytest.approx(prof.x_n, rel=1e-7)
        assert float(row["p_n"]) == pytest.approx(prof.p_n, rel=1e-7)
        assert int(row["m_n"]) == prof.m_n


def run_fresh(body: str) -> subprocess.CompletedProcess:
    """Run body in a fresh interpreter with src on the path."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n{body}"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)


class TestNumpyImport:
    """profile, scan, ties and fit without --trials are pure math and must
    not load numpy; the test process has numpy loaded already, so each
    check runs in a fresh interpreter.  Module presence is asserted, not
    start-up time."""

    PURE = [
        ["profile", "--model", "poisson", "--params", "lam=1", "--n", "1e6"],
        ["profile", "--model", "negbinom", "--params", "r=2,p=0.3", "--n", "1e4",
         "--format", "json"],
        ["scan", "--model", "poisson", "--params", "lam=0.01", "--extension", "asymptotic",
         "--n-range", "2000:512000:x2"],
        ["ties", "--model", "poisson", "--params", "lam=0.01", "--extension", "asymptotic",
         "--n", "16000", "--t-max", "3"],
        ["fit", "--input", "{counts}", "--block", "4", "--format", "json"],
    ]
    # for fit: overdispersed, so the fit and its law are negative binomial
    COUNTS = "0\n1\n0\n3\n2\n0\n0\n1\n0\n5\n0\n0\n"

    @pytest.fixture
    def counts(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(self.COUNTS, encoding="utf-8")
        return str(path)

    def test_pure_commands_leave_numpy_unloaded(self, counts):
        pure = [[arg.format(counts=counts) for arg in argv] for argv in self.PURE]
        proc = run_fresh(f"""
import discmax
assert "numpy" not in sys.modules, "import discmax"
from discmax import cli
for argv in {pure!r}:
    assert cli.main(argv) == 0
    assert "numpy" not in sys.modules, argv[0]
""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("\n") > len(self.PURE)

    def test_simulate_loads_numpy_with_the_same_output(self, capsys):
        argv = ["simulate", "--kind", "multinomial", "--boxes", "400", "--balls", "4",
                "--trials", "60", "--seed", "5"]
        proc = run_fresh(f"""
from discmax import cli
assert "numpy" not in sys.modules
code = cli.main({argv!r})
assert "numpy" in sys.modules
sys.exit(code)
""")
        assert proc.returncode == 0, proc.stderr
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert proc.stdout == out

    def test_fit_trials_loads_numpy_with_the_same_output(self, capsys, counts):
        argv = ["fit", "--input", counts, "--block", "4", "--trials", "50", "--seed", "3"]
        proc = run_fresh(f"""
from discmax import cli
assert "numpy" not in sys.modules
code = cli.main({argv!r})
assert "numpy" in sys.modules
sys.exit(code)
""")
        assert proc.returncode == 0, proc.stderr
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert proc.stdout == out
        assert any(row["simulated"] for row in parse_csv(out))

    # the functions that draw or tally samples, as module.function
    NUMPY_USERS = {"allocsim.trial_counts", "allocsim.simulate", "datafit.simulate_daily_max"}

    def test_only_the_samplers_import_numpy(self):
        found = []
        for path in sorted(Path(SRC, "discmax").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = [(path.stem, tree)]  # (qualified name, node) still to walk
            while scopes:
                name, scope = scopes.pop()
                for node in ast.iter_child_nodes(scope):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        scopes.append((f"{name}.{node.name}", node))
                        continue
                    if isinstance(node, ast.Import):
                        modules = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        modules = [node.module or ""]
                    else:
                        scopes.append((name, node))
                        continue
                    if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                        found.append(name)
        assert sorted(found) == sorted(self.NUMPY_USERS)


class TestLazyStdlibImports:
    """`import discmax.cli` loads no standard module that only some calls
    need: `datetime` (hourly ingest), `csv` (CSV output), nor `dataclasses`
    and the `inspect` it pulls in.  No module uses `fractions` (or the
    `decimal` it pulls in): exact enumeration and EmpiricalModel sum in
    integers, and they leave both unloaded.  Those calls still work in that
    fresh interpreter, with the results they give here.  Module presence
    is asserted, not start-up time."""

    LAZY = ["dataclasses", "inspect", "fractions", "decimal", "datetime", "csv", "concurrent"]
    STAMPS = ["2024-03-01T00:10:00", "2024-03-01T02:59:59+00:00", "2024-03-01T00:00:00"]

    def test_cli_import_leaves_them_unloaded(self):
        proc = run_fresh(f"""
from discmax import cli
loaded = [m for m in {self.LAZY!r} if m in sys.modules]
assert not loaded, loaded
from discmax import allocsim, datafit, tailmodel
print(repr([allocsim.enumerate_conditional(3, 4, "dirichlet", r=1.5),
            allocsim.enumerate_conditional(2, 3, "multinomial"),
            tailmodel.EmpiricalModel([0.5, 0.3, 0.2])._tails,
            datafit.ingest({self.STAMPS!r}, 1, bin_by="hour").counts]))
assert "fractions" not in sys.modules and "decimal" not in sys.modules
""")
        assert proc.returncode == 0, proc.stderr
        from discmax import datafit, tailmodel
        want = [allocsim.enumerate_conditional(3, 4, "dirichlet", r=1.5),
                allocsim.enumerate_conditional(2, 3, "multinomial"),
                tailmodel.EmpiricalModel([0.5, 0.3, 0.2])._tails,
                datafit.ingest(self.STAMPS, 1, bin_by="hour").counts]
        assert want[3] == (2, 0, 1)
        assert proc.stdout == repr(want) + "\n"
