import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest

from slopestab import cli, oracle, toric
from slopestab.models import parse_model, serialize_model
from slopestab.oracle import VerificationRecord
from slopestab.toric import export_table


# P^1 with L = O(3), blown up at the point of ray 0
P1_O3 = {"kind": "toric", "label": "P1 O(3) point", "rays": [[1], [-1]],
         "max_cones": [[0], [1]], "L": [0, 3], "sigma": [0]}


# n = 1 with Q identically zero
TABLE_DOC = {"kind": "table", "label": "x", "n": 1, "AE": [1, 0], "KAE": [-2], "epsilon": 1}
P2_DOC = {"kind": "toric", "label": "P2", "rays": [[1, 0], [0, 1], [-1, -1]],
          "max_cones": [[0, 1], [1, 2], [0, 2]], "L": [0, 0, 1], "sigma": [0, 1]}


def _doc(base, **fields):
    return {**base, **fields}


def toric_doc(model):
    return {"kind": "toric", "label": model.label, "rays": model.fan.rays,
            "max_cones": model.fan.max_cones, "L": model.L, "sigma": model.sigma}


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

    def test_overlong_output_rational_named(self, capsys, models_dir):
        # c itself is at the digit limit; mu_c has parts past it
        code, out, err = run(capsys, "analyze", str(models_dir / "t1.json"),
                             "--c", "1/" + "1" * 4300)
        assert code == 2 and out == ""
        assert err == "error: rational too long to write: a part of more than 4300 digits\n"

    def test_overlong_interval_end_named(self, capsys, tmp_path, models_dir):
        # epsilon's parts are at the digit limit; the dyadic interval ends of
        # (0, epsilon] have denominators past it
        q = 10**4299 + 7
        doc = json.loads((models_dir / "t3.json").read_text())
        doc["epsilon"] = f"{q - 1}/{q}"
        path = tmp_path / "t3_long_eps.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "analyze", str(path)) == (
            2, "", "error: rational too long to write: a part of more than 4300 digits\n")

    def test_flat_table(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(TABLE_DOC))
        code, out, err = run(capsys, "analyze", str(path), "--c", "1/2")
        assert (code, err) == (0, "")
        assert out.endswith("Q: 0\ndestabilizing: flat (Q identically zero)\n"
                            "c: 1/2\nmu_c: 1\nverdict: flat\n")

    def test_adjacent_isolating_intervals(self, capsys, tmp_path):
        # Q = t^2 ((t - 1/2)^2 - 1/1000) is negative between its two roots
        # near 1/2, whose isolating intervals meet there
        path = tmp_path / "adjacent.json"
        path.write_text(json.dumps(_doc(TABLE_DOC, n=4, AE=[24, 0, 0, 0, 0],
                                        KAE=[-12, "-249/125", -12, -48])))
        code, out, err = run(capsys, "analyze", str(path), "--width", "1/16")
        assert (code, err) == (0, "")
        assert out.endswith("destabilizing: ((7/16, 1/2], (1/2, 9/16])\n")

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed JSON: maximum recursion depth exceeded")

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
        path.write_text(json.dumps(toric_doc(model)))
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
        monkeypatch.setattr(cli.oracle_mod, "verify",
                            lambda model, cs, m_list=None: (fake,))
        code, out, _ = run(capsys, "verify", str(models_dir / "p2.json"),
                           "--c", "1/2")
        assert code == 3
        assert "False" in out


class TestVerifyOneWalkPerOp:
    """verify checks each c in turn, then counts each m-sample once for every c."""

    @pytest.mark.parametrize("cs", ["1/2,2", "2,1/2"])
    def test_out_of_range_c_named_in_either_order(self, capsys, models_dir, cs):
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"), "--c", cs)
        assert (code, out, err) == (2, "", "error: c=2 outside (0, 1]\n")

    # p2 visits m + 1 prefixes at m: c = 1 takes m = 1..6 (27 prefixes in all),
    # c = 1/2 takes m = 2, 4, ..., 12 (48), and both together 9 distinct m (60)
    @pytest.mark.parametrize("budget, cs, m", [
        (20, "1,1/2", 6), (20, "1/2,1", 8), (40, "1,1/2", 12), (40, "1/2,1", 12),
    ])
    def test_budget_refusal_names_the_failing_c_own_m(self, capsys, models_dir,
                                                      monkeypatch, budget, cs, m):
        monkeypatch.setattr(oracle, "_PREFIX_BUDGET", budget)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"), "--c", cs)
        assert (code, out) == (2, "")
        assert err == (f"error: lattice-point budget exceeded at m={m}: more than "
                       f"{budget} prefixes to enumerate\n")

    def test_budget_is_per_c_not_per_op(self, capsys, models_dir, monkeypatch):
        # each c's own m-list stays within 50 prefixes, their union does not
        monkeypatch.setattr(oracle, "_PREFIX_BUDGET", 50)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1,1/2")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "P2 O(1) point 1 0 0 True True",
            "P2 O(1) point 1/2 1/8 1/8 True True",
        ]

    def count_work(self, monkeypatch):
        calls = {"export_table": 0, "fit_polynomial": 0, "sample": []}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def sample(model, m, levels, caps):
            calls["sample"].append((m, tuple(caps)))
            return original_sample(model, m, levels, caps)

        original_sample = oracle._sample
        monkeypatch.setattr(oracle, "_sample", sample)
        monkeypatch.setattr(oracle, "export_table", counted("export_table", oracle.export_table))
        monkeypatch.setattr(oracle, "fit_polynomial",
                            counted("fit_polynomial", oracle.fit_polynomial))
        return calls

    def test_shared_m_list_walked_once(self, capsys, models_dir, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/3,2/3")
        assert code == 0
        # m = 3, 6, ..., 18 once each, with the caps m/3 and 2m/3
        assert calls["sample"] == [(m, (m // 3, 2 * m // 3)) for m in range(3, 19, 3)]
        # one table, one h0 fit for the shared m-list and one weight fit per c
        assert (calls["export_table"], calls["fit_polynomial"]) == (1, 3)

    def test_overlapping_m_lists_walk_each_m_once(self, capsys, models_dir, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/2,1")
        assert code == 0
        walked = dict(calls["sample"])
        assert len(calls["sample"]) == len(walked) == 9
        assert sorted(walked) == [1, 2, 3, 4, 5, 6, 8, 10, 12]
        assert walked[4] == (2, 4) and walked[5] == (5,) and walked[8] == (4,)
        # one table, one h0 fit over all nine m and one weight fit per c
        assert (calls["export_table"], calls["fit_polynomial"]) == (1, 3)

    def test_h0_fitted_once_per_op(self, capsys, models_dir, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/4,1/2,3/4")
        assert code == 0
        # two distinct m-lists, one h0 fit, and one weight fit per c
        assert (calls["export_table"], calls["fit_polynomial"]) == (1, 4)

    def test_repeated_c_prints_two_lines(self, capsys, models_dir, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, out, _ = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/2,1/2")
        assert code == 0
        assert out.splitlines()[1:] == ["P2 O(1) point 1/2 1/8 1/8 True True"] * 2
        assert [caps for _, caps in calls["sample"]] == [(m // 2,) for m in range(2, 13, 2)]

    @pytest.mark.parametrize("name", [
        "p2", "p2_o2", "p3", "f1_ample", "f1_bignef",
        "p4_o2_codim2", "p1_cubed_point", "blp3_014", "p2_o2_point_02",
    ])
    def test_many_c_is_the_single_c_runs_joined(self, capsys, tmp_path, models_dir,
                                                load_model, name):
        path = models_dir / f"{name}.json"
        model = load_model(name)
        if not path.exists():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(toric_doc(model)))
        eps = export_table(model).epsilon
        cs = [eps / 2, eps / 4, eps]
        text = ",".join(str(c) for c in cs)
        max_m = lcm(*(c.denominator for c in cs)) * (model.fan.dim + 5)
        for extra in ([], ["--max-m", str(max_m)]):
            code, out, err = run(capsys, "verify", str(path), "--c", text, *extra)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert len(lines) == 4
            for c, line in zip(cs, lines[1:]):
                assert run(capsys, "verify", str(path), "--c", str(c), *extra) == (
                    0, f"{lines[0]}\n{line}\n", "")

    def test_p1(self, capsys, tmp_path):
        path = tmp_path / "p1.json"
        path.write_text(json.dumps(P1_O3))
        code, out, err = run(capsys, "verify", str(path), "--c", "1/2,1")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "P1 O(3) point 1/2 5/72 5/72 True True",
            "P1 O(3) point 1 1/9 1/9 True True",
        ]


class TestInternalFault:
    def test_runtime_error_exits_4(self, capsys, models_dir, monkeypatch):
        def fail(model, cs, m_list=None):
            raise RuntimeError("sign of Q at c=1/2 disagrees with mu - mu_c")

        monkeypatch.setattr(cli.oracle_mod, "verify", fail)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"),
                             "--c", "1/2")
        assert code == cli.EXIT_INTERNAL == 4 and out == ""
        assert err == "internal error: sign of Q at c=1/2 disagrees with mu - mu_c\n"

    def test_forged_witness_exits_4(self, capsys, models_dir, load_model, monkeypatch):
        # on a valid toric model the counts are polynomials in m, so a fit
        # witness that disagrees is a fault of the oracle, not of the input
        sample = oracle._sample

        def forged(model, m, levels, caps):
            out = sample(model, m, levels, caps)
            return tuple(replace(s, h0=s.h0 + 1) for s in out) if m == 12 else out

        monkeypatch.setattr(oracle, "_sample", forged)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"),
                             "--c", "1/2")
        p2 = load_model("p2")
        h0 = sample(p2, 12, oracle._levels(p2), (0,))[0].h0
        assert code == 4 and out == ""
        assert err == ("internal error: oracle counts are not polynomial in m: "
                       f"witness sample at x=12: fit predicts {h0}, "
                       f"sample gives {h0 + 1}\n")

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

    @pytest.mark.parametrize("old, new, message", [
        ('"1,1,0": "2"', '"1,1,0": "2", "+1,1,0": "999"', "MIX key '+1,1,0' repeats the index 1,1,0"),
        ('"AE": [', '"AE": ["1", "0", "0"], "AE": [', "repeated key 'AE' in a JSON object"),
    ], ids=["mix-index", "json-field"])
    def test_repeated_key_exits_2(self, capsys, tmp_path, load_model, old, new, message):
        # a repeated key used to be overwritten by its last value, silently
        text = json.dumps(serialize_model(export_table(load_model("f1_bignef"))))
        assert old in text
        path = tmp_path / "repeated.json"
        path.write_text(text.replace(old, new, 1))
        limit = run(capsys, "limit", str(path), "--c", "1/2", "--eps", "1/10")
        assert limit == (2, "", f"error: {message}\n")

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


class TestRefusedDocuments:
    # one document per input check of models and toric, each named on stderr
    @pytest.mark.parametrize("doc, message", [
        (_doc(TABLE_DOC, n=0, AE=[1], KAE=[]), "dimension must be positive, got 0"),
        (_doc(TABLE_DOC, KAE=[]), "KAE must have 1 entries, got 0"),
        (_doc(TABLE_DOC, n="1"), "field 'n' must be an integer"),
        (_doc(TABLE_DOC, AE="1"), "field 'AE' must be a list"),
        (_doc(TABLE_DOC, kind="mixed-table", MIX=[], KMIX={}), "field 'MIX' must be an object"),
        ([], "model document must be a JSON object"),
        (_doc(TABLE_DOC, kind="cubic"), "unknown model kind 'cubic'"),
        (_doc(P2_DOC, rays="x"), "field 'rays' must be a list"),
        (_doc(P2_DOC, rays=[[1, 0], [0, "1"], [-1, -1]]), "field 'rays' must hold integer vectors"),
        (_doc(P2_DOC, max_cones=[[0, 1], 2, [0, 2]]),
         "field 'max_cones' must hold integer vectors"),
        (_doc(P2_DOC, L=[0, 0, True]), "field 'L' must be a list of integers"),
        (_doc(P2_DOC, rays=[]), "fan has no rays"),
        (_doc(P2_DOC, rays=[[1, 0], [0, 1], [-1]]), "rays of mixed dimension"),
        (_doc(P2_DOC, rays=[[1, 0], [0, 0], [-1, -1]]), "zero ray"),
        (_doc(P2_DOC, max_cones=[[0, 1], [1], [0, 2]]), "maximal cone (1,) does not have 2 rays"),
        (_doc(P2_DOC, max_cones=[[0, 1], [1, 3], [0, 2]]), "cone (1, 3) references missing ray"),
        (_doc(P2_DOC, L=[0, 1]), "L coefficient count does not match the fan"),
        (_doc(P2_DOC, sigma=[]), "sigma is empty"),
        (_doc(P2_DOC, sigma=[0, 3]), "sigma references a missing ray"),
        (_doc(P2_DOC, sigma=[0, 1, 2]), "sigma (0, 1, 2) is not a face of any cone"),
    ])
    def test_exits_2_naming_the_check(self, capsys, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "analyze", str(path)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["analyze"], ["export-table"], ["verify", "--c", "1/2"]])
    def test_zero_nef_threshold_exits_2(self, capsys, tmp_path, models_dir, argv):
        # a torus-fixed point of E0 on F1, with L pulled back from P2: L has
        # degree 0 on the strict transform of E0, which E meets, so pi*L - tE
        # is nef for no t > 0
        doc = json.loads((models_dir / "f1_bignef.json").read_text())
        del doc["H"]
        doc["sigma"] = [0, 3]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, argv[0], str(path), *argv[1:]) == (
            2, "", "error: nef threshold is zero: center not permissible\n")


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
