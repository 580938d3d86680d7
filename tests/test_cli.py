import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from slopestab import cli, oracle, toric
from slopestab.models import parse_model, serialize_model
from slopestab.oracle import VerificationRecord
from slopestab.toric import export_table


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_t1(self, capsys, models_dir):
        code, out, err = run(capsys, "analyze", str(models_dir / "t1.json"), "--c", "1/2")
        assert code == 0 and err == ""
        assert "mu: 3\n" in out
        assert "mu_c: 30/11\n" in out
        assert "verdict: positive\n" in out
        assert "Q: 0 0 1/2 -1/2\n" in out
        assert "destabilizing: none" in out

    def test_toric_model_accepted(self, capsys, models_dir):
        code, out, _ = run(capsys, "analyze", str(models_dir / "p2.json"))
        assert code == 0
        assert "mu: 3\n" in out
        assert "epsilon: 1\n" in out

    def test_t3_reports_interval(self, capsys, models_dir):
        code, out, _ = run(capsys, "analyze", str(models_dir / "t3.json"),
                           "--c", "9/10,1/2")
        assert code == 0
        assert "verdict: negative" in out and "verdict: positive" in out
        assert "destabilizing: ((" in out and "], 1]" in out

    def test_width_flag(self, capsys, models_dir):
        code, out, _ = run(capsys, "analyze", str(models_dir / "t3.json"),
                           "--width", "2^-6")
        assert code == 0

    def test_bad_width(self, capsys, models_dir):
        code, _, err = run(capsys, "analyze", str(models_dir / "t3.json"),
                           "--width", "0")
        assert code == 2 and "width" in err

    @pytest.mark.parametrize("width", ["2^-4097", "2^-1000000000", f"1/{2**4097}"])
    def test_width_below_limit_rejected(self, capsys, models_dir, width):
        code, out, err = run(capsys, "analyze", str(models_dir / "t3.json"),
                             "--width", width)
        assert code == 2 and out == ""
        assert err == f"error: --width must be at least 2^-4096, got {width}\n"

    def test_width_exponent_too_long_for_int_rejected(self, capsys, models_dir):
        # int() refuses strings of more than 4300 digits; the flag is named
        # and the exponent is not echoed
        code, out, err = run(capsys, "analyze", str(models_dir / "t1.json"),
                             "--width", "2^-" + "1" * 5000)
        assert code == 2 and out == ""
        assert err == "error: --width must be at least 2^-4096, got an exponent of 5000 digits\n"

    def test_width_exponent_leading_zeros_ignored(self, capsys, models_dir):
        code, out, err = run(capsys, "analyze", str(models_dir / "t1.json"),
                             "--width", "2^-" + "0" * 5000 + "64")
        assert (code, err) == (0, "")
        assert out == run(capsys, "analyze", str(models_dir / "t1.json"), "--width", "2^-64")[1]

    def test_width_at_limit_accepted(self, capsys, models_dir):
        # every root of Q for t1 is rational, so no interval is refined
        code, _, err = run(capsys, "analyze", str(models_dir / "t1.json"),
                           "--width", "2^-4096")
        assert code == 0 and err == ""

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-model.json")
        assert code == 2 and "cannot read" in err

    @pytest.mark.parametrize("command, model, flag", [
        ("analyze", "t1.json", "--c"),
        ("analyze", "t1.json", "--width"),
        ("limit", "f1_bignef.json", "--eps"),
    ])
    def test_overlong_rational_flag_named(self, capsys, models_dir, command, model, flag):
        value = "1/" + "1" * 5000
        code, out, err = run(capsys, command, str(models_dir / model), flag, value)
        assert code == 2 and out == ""
        assert err == (f"error: bad {flag} value {value!r}: rational literal too long: "
                       "a part of 5000 digits, limit 4300\n")

    def test_unwritable_out_exits_2(self, capsys, models_dir, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "scan", str(models_dir / "t1.json"), "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output file: ") and str(path) in err

    def test_parser_keeps_no_state_between_calls(self, capsys, models_dir):
        path = str(models_dir / "t1.json")
        code, out, _ = run(capsys, "analyze", path, "--c", "1/2")
        assert code == 0 and "c: 1/2\n" in out
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0 and out.startswith("label: ")
        assert not any(line.startswith(("c:", "mu_c:", "verdict:")) for line in out.splitlines())


class TestScan:
    def test_t3_grid(self, capsys, models_dir):
        code, out, _ = run(capsys, "scan", str(models_dir / "t3.json"),
                           "--steps", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,mu,mu_c,Q_sign"
        assert [row.split(",")[0] for row in lines[1:]] == ["1/4", "1/2", "3/4", "1"]
        assert [row.split(",")[3] for row in lines[1:]] == ["+", "+", "+", "-"]
        assert all(row.split(",")[1] == "5/3" for row in lines[1:])

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_steps_below_one_rejected(self, capsys, models_dir, steps):
        code, out, err = run(capsys, "scan", str(models_dir / "t1.json"), "--steps", steps)
        assert code == 2 and out == ""
        assert err == f"error: --steps must be at least 1, got {steps}\n"

    def test_steps_above_limit_rejected(self, capsys, models_dir):
        code, out, err = run(capsys, "scan", str(models_dir / "t1.json"), "--steps", "10001")
        assert code == 2 and out == ""
        assert err == "error: --steps must be at most 10000, got 10001\n"

    @pytest.mark.parametrize("ae, kae", [
        # the ROADMAP table, a 15-digit AE[0]
        ([10**14 + 3, 0, -1], [-3, -1]),
        # n = 3 with a 25-digit AE[0]
        ([10**24 + 7, 0, 0, -1], [-(3 * 10**13 + 1), 0, -1]),
    ])
    def test_large_entries_finish_quickly(self, capsys, tmp_path, ae, kae):
        doc = {"kind": "table", "label": "large", "n": len(ae) - 1,
               "AE": ae, "KAE": kae, "epsilon": "1"}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, _ = run(capsys, "scan", str(path))
        assert time.perf_counter() - start < 2
        assert code == 0 and len(out.splitlines()) == 21


class TestVerify:
    def test_p2_multiple_c(self, capsys, models_dir):
        code, out, _ = run(capsys, "verify", str(models_dir / "p2.json"),
                           "--c", "1/3,1/2,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == [
            "label", "c", "df_oracle", "df_predicted", "sign_match", "exact_match"
        ]
        assert len(lines) == 4
        for row in lines[1:]:
            assert row.endswith("True True")

    def test_table_model_rejected(self, capsys, models_dir):
        code, _, err = run(capsys, "verify", str(models_dir / "t1.json"),
                           "--c", "1/2")
        assert code == 2
        assert "oracle requires toric realization" in err

    def test_missing_c(self, capsys, models_dir):
        code, _, err = run(capsys, "verify", str(models_dir / "p2.json"))
        assert code == 2 and "--c" in err

    def test_max_m_controls_sample_count(self, capsys, models_dir):
        code, out, _ = run(capsys, "verify", str(models_dir / "p2.json"),
                           "--c", "1", "--max-m", "6")
        assert code == 0
        assert out.strip().splitlines()[1].endswith("True True")

    def test_max_m_steps_by_lcm_of_denominators(self, capsys, models_dir):
        # m = 6, 12, ..., 60: every c*m integral (stepping by the largest
        # denominator, 3, would start at m = 3 with c = 1/2)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"),
                             "--c", "1/2,1/3", "--max-m", "60")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "P2 O(1) point 1/2 1/8 1/8 True True",
            "P2 O(1) point 1/3 2/27 2/27 True True",
        ]

    def test_point_budget_exits_2_quickly(self, capsys, tmp_path):
        rays = [[int(i == j) for j in range(4)] for i in range(4)] + [[-1] * 4]
        doc = {"kind": "toric", "label": "P4 O(1)", "rays": rays,
               "max_cones": [[j for j in range(5) if j != i] for i in range(5)],
               "L": [0, 0, 0, 0, 1], "sigma": [0]}
        path = tmp_path / "p4.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path), "--c", "1", "--max-m", "100000")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert "budget exceeded at m=" in err

    def test_p5_o2_codim_3_within_budget(self, capsys, tmp_path):
        # the bounding boxes of its m-samples hold 2.6 * 10^6 prefixes, more than
        # the budget: the count must stay inside the polytope's projections
        rays = [[int(i == j) for j in range(5)] for i in range(5)] + [[-1] * 5]
        doc = {"kind": "toric", "label": "P5 O(2)", "rays": rays,
               "max_cones": [[j for j in range(6) if j != i] for i in range(6)],
               "L": [0, 0, 0, 0, 0, 2], "sigma": [0, 1, 2]}
        path = tmp_path / "p5.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), "--c", "1/2")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "P5 O(2) 1/2 405/4096 405/4096 True True"

    def test_large_fan_exits_2_quickly(self, capsys, tmp_path, blown_up_projective_space):
        # 15 rays in dimension 4, L = 2048 pi*O(1) - sum_j 2^(10-j) E_j
        model = blown_up_projective_space(4, 2**11, [2 ** (10 - j) for j in range(10)], 5)
        path = tmp_path / "large_fan.json"
        path.write_text(json.dumps(toric.serialize_toric_model(model)))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path), "--c", "1")
        assert time.perf_counter() - start < 2
        assert len(model.fan.rays) == 15 and code == 2 and out == ""
        assert "budget exceeded at m=" in err

    def test_row_limit_exits_2(self, capsys, models_dir, monkeypatch):
        monkeypatch.setattr(oracle, "_ROW_LIMIT", 1)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/2")
        assert code == 2 and out == ""
        assert err == "error: row limit exceeded eliminating x_2: 2 rows, limit 1\n"

    def test_sign_mismatch_exits_3(self, capsys, models_dir, monkeypatch):
        fake = VerificationRecord(
            label="fake", c=F(1, 2), df_oracle=F(-1), df_predicted=F(1),
            sign_match=False, exact_match=False, samples=(),
        )
        monkeypatch.setattr(cli.oracle_mod, "verify_main_theorem",
                            lambda model, c, m_list=None: fake)
        code, out, _ = run(capsys, "verify", str(models_dir / "p2.json"),
                           "--c", "1/2")
        assert code == 3
        assert "False" in out


class TestInternalFault:
    def test_runtime_error_exits_4(self, capsys, models_dir, monkeypatch):
        def fail(model, c, m_list=None):
            raise RuntimeError("sign of Q at c=1/2 disagrees with mu - mu_c")

        monkeypatch.setattr(cli.oracle_mod, "verify_main_theorem", fail)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"),
                             "--c", "1/2")
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        assert err == "internal error: sign of Q at c=1/2 disagrees with mu - mu_c\n"

    def test_generic_direction_fault_exits_4(self, capsys, models_dir, monkeypatch):
        def fail(*args):
            raise RuntimeError("no generic direction among 10 candidates")

        monkeypatch.setattr(toric, "_generic_direction", fail)
        code, out, err = run(capsys, "export-table", str(models_dir / "p2.json"))
        assert code == 4 and out == ""
        assert err.startswith("internal error: no generic direction")


class TestLimit:
    def test_f1_bignef(self, capsys, models_dir):
        code, out, _ = run(capsys, "limit", str(models_dir / "f1_bignef.json"),
                           "--c", "1/2", "--eps", "1/10,1/100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps 1/10: 11740/55627"
        assert lines[1] == "eps 1/100: 78340900/297099277"
        assert lines[2] == "eps 0: 3/11"

    def test_plain_table_rejected(self, capsys, models_dir):
        code, _, err = run(capsys, "limit", str(models_dir / "t1.json"),
                           "--c", "1/2")
        assert code == 2 and "mixed table" in err

    def test_inconsistent_mixed_table_same_error_as_analyze(self, capsys, tmp_path, load_model):
        doc = serialize_model(export_table(load_model("f1_bignef")))
        doc["AE"][0] = "2"  # the MIX j=0 slice says 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        analyze = run(capsys, "analyze", str(path))
        limit = run(capsys, "limit", str(path), "--c", "1/2", "--eps", "1/10")
        assert analyze == limit == (2, "", "error: MIX j=0 slice disagrees with AE at k=0\n")

    def test_not_big_mixed_table_same_error_as_analyze(self, capsys, tmp_path, load_model):
        doc = serialize_model(export_table(load_model("f1_bignef")))
        doc["AE"][0] = doc["MIX"]["2,0,0"] = "-1"  # the j=0 slice stays consistent
        path = tmp_path / "not_big.json"
        path.write_text(json.dumps(doc))
        analyze = run(capsys, "analyze", str(path))
        limit = run(capsys, "limit", str(path), "--c", "1/2", "--eps", "1/10")
        assert analyze == limit == (2, "", "error: not big: top self-intersection -1 <= 0\n")

    def test_bad_eps_names_eps(self, capsys, models_dir):
        code, out, err = run(capsys, "limit", str(models_dir / "f1_bignef.json"),
                             "--c", "1/2", "--eps", "1/x")
        assert code == 2 and out == ""
        assert err == "error: bad --eps value '1/x': malformed rational literal '1/x'\n"

    def test_needs_single_c(self, capsys, models_dir):
        code, _, err = run(capsys, "limit", str(models_dir / "f1_bignef.json"),
                           "--c", "1/4,1/2")
        assert code == 2 and "exactly one" in err


class TestExportTable:
    def test_round_trip(self, capsys, models_dir, tmp_path, load_model):
        out_path = tmp_path / "table.json"
        code, out, _ = run(capsys, "export-table", str(models_dir / "p2.json"),
                           "--out", str(out_path))
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "table"
        assert parse_model(out_path.read_bytes()) == export_table(load_model("p2"))

    def test_mixed_round_trip(self, capsys, models_dir, tmp_path, load_model):
        out_path = tmp_path / "mixed.json"
        code, _, _ = run(capsys, "export-table", str(models_dir / "f1_bignef.json"),
                         "--out", str(out_path))
        assert code == 0
        again = parse_model(out_path.read_bytes())
        assert again.mixed == export_table(load_model("f1_bignef")).mixed

    def test_table_model_rejected(self, capsys, models_dir):
        code, _, err = run(capsys, "export-table", str(models_dir / "t1.json"))
        assert code == 2 and "toric" in err

    def test_winding_cones_rejected(self, capsys, tmp_path):
        # eight smooth cones that wind three times around the plane
        rays = [[1, 0], [-1, 1], [0, -1], [1, 1], [-1, 0], [1, -1], [0, 1], [-1, -1]]
        doc = {"kind": "toric", "label": "winding", "rays": rays,
               "max_cones": [sorted([i, (i + 1) % 8]) for i in range(8)],
               "L": [1] * 8, "sigma": [0]}
        path = tmp_path / "winding.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export-table", str(path))
        assert code == 2 and out == ""
        assert "lies in 3 maximal cones" in err


class TestDeterminism:
    def test_byte_identical_runs(self, models_dir):
        def once(args):
            return subprocess.run(
                [sys.executable, "-m", "slopestab.cli", *args],
                capture_output=True, text=True, cwd=str(models_dir.parent),
            )

        for args in (
            ["analyze", "models/t3.json", "--c", "1/2"],
            ["scan", "models/t2.json", "--steps", "5"],
            ["export-table", "models/f1_ample.json"],
        ):
            first, second = once(args), once(args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
