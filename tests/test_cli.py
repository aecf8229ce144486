import csv
import io
import json
import math

import pytest

from discmax.cli import main


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

    def test_empty_range_usage_error(self, capsys):
        code, _ = run_cli(["scan", "--model", "poisson", "--params", "lam=1",
                           "--n-range", "5000:1000:x2"], capsys)
        assert code == 2


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

    def test_numeric_failure(self, capsys):
        # bounded empirical tail cannot reach 1/n for large n
        code, _ = run_cli(["profile", "--model", "empirical",
                           "--params", "probabilities=0.5:0.5", "--n", "1e9"], capsys)
        assert code == 3

    @pytest.mark.parametrize("n", ["nan", "inf"])
    def test_non_finite_n_usage_error(self, capsys, n):
        code, _ = run_cli(["profile", "--model", "poisson", "--params", "lam=1",
                           "--n", n], capsys)
        assert code == 2

    def test_bad_params_usage_error(self, capsys):
        code, _ = run_cli(["profile", "--model", "poisson", "--params", "lam",
                           "--n", "100"], capsys)
        assert code == 2


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
