import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import given, strategies as st

from reference import mixed_entries
from slopestab import cli, oracle, slope, toric
from slopestab.models import IntersectionTable, parse_model, serialize_model
from slopestab.oracle import VerificationRecord
from slopestab.polynomials import UniPoly
from slopestab.toric import export_table


# P^1 with L = O(3), blown up at the point of ray 0
P1_O3 = {"kind": "toric", "label": "P1 O(3) point", "rays": [[1], [-1]],
         "max_cones": [[0], [1]], "L": [0, 3], "sigma": [0]}


# n = 1 with Q identically zero
TABLE_DOC = {"kind": "table", "label": "x", "n": 1, "AE": [1, 0], "KAE": [-2], "epsilon": 1}
P2_DOC = {"kind": "toric", "label": "P2", "rays": [[1, 0], [0, 1], [-1, -1]],
          "max_cones": [[0, 1], [1, 2], [0, 2]], "L": [0, 0, 1], "sigma": [0, 1]}
P4_DOC = {"kind": "toric", "label": "P4 O(1)",
          "rays": [[int(i == j) for j in range(4)] for i in range(4)] + [[-1] * 4],
          "max_cones": [[j for j in range(5) if j != i] for i in range(5)],
          "L": [0, 0, 0, 0, 1], "sigma": [0]}


def child_env(root):
    """The environment of a child `python -m slopestab.cli`, with root/src on
    its path, whatever the parent's PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


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

    def test_csck_product_is_semistable(self, capsys, tmp_path, product_model):
        # P^1 x P^1 with O(1, 2) is cscK, so slope semistable (Ross-Thomas):
        # the theorem gate's round trip through the command line
        path = tmp_path / "model.json"
        path.write_text(json.dumps(toric_doc(product_model("P1 x P1 O(1, 2)", (1, 1), (1, 2)))))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0 and out.endswith("destabilizing: none\n")

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

    def test_overlong_interval_end_named_at_finest_width(self, capsys, tmp_path, models_dir):
        # the same table at the finest width: its one irrational root is
        # narrowed from the first cell to level 4096 by quadratic steps, a
        # few dozen Horner passes, where halving took one a level (4.5 s)
        q = 10**4299 + 7
        doc = json.loads((models_dir / "t3.json").read_text())
        doc["epsilon"] = f"{q - 1}/{q}"
        path = tmp_path / "t3_long_eps.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        result = run(capsys, "analyze", str(path), "--width", "2^-4096")
        assert time.perf_counter() - start < 1
        assert result == (
            2, "", "error: rational too long to write: a part of more than 4300 digits\n")

    def test_thousand_digit_table_within_bounds(self, capsys, tmp_path):
        # the n = 6 table of the benchmark's table recipe with 1000-digit
        # entries: Q's square-free part has a lead of about 2000 digits, so
        # the rational-root test of its cell took about 6600 halvings (3 s);
        # the digest is of the output the halving kernel printed
        n, digits, eps, rng = 6, 1000, F(1, 2), random.Random(5)

        def signed():
            v = rng.randrange(10 ** (digits - 1), 10**digits)
            return v if rng.random() < 0.5 else -v

        ae_tail = [signed() for _ in range(n)]
        bound = sum(comb(n, k) * eps**k * abs(a) for k, a in enumerate(ae_tail, 1))
        doc = {"kind": "table", "label": "n6", "n": n,
               "AE": [int(bound) + rng.randrange(1, 10**digits), *ae_tail],
               "KAE": [signed() for _ in range(n)], "epsilon": "1/2"}
        path = tmp_path / "n6.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path), "--c", "1/4")
        assert time.perf_counter() - start < 1.5
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "07aac6ec62cd9fcd1c844b674fb894aeef7aae545a9397667a53ad057f8c24db")

    def test_flat_table(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(TABLE_DOC))
        code, out, err = run(capsys, "analyze", str(path), "--c", "1/2")
        assert (code, err) == (0, "")
        assert out.endswith("Q: 0\ndestabilizing: flat (Q identically zero)\n"
                            "c: 1/2\nmu_c: 1\nverdict: flat\n")

    @pytest.mark.parametrize("width, interval", [
        (None, "(430645/1048576, 215323/524288]"),
        ("2^-40", "(451564637891/1099511627776, 112891159473/274877906944]"),
    ])
    def test_q_with_a_c_squared_factor(self, capsys, tmp_path, width, interval):
        # AE_1 = 0 (a center of codimension 2 or more) makes Q'(0) = 0 as well
        # as Q(0), so c^2 divides Q; its other factor has one root in (0, 1/2)
        path = tmp_path / "c2.json"
        path.write_text(json.dumps({"kind": "table", "label": "c2", "n": 3,
                                    "AE": [8, 0, -7, 2], "KAE": [-7, 4, -5],
                                    "epsilon": "1/2"}))
        argv = ["analyze", str(path)] + (["--width", width] if width else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == ("label: c2\nn: 3\nepsilon: 1/2\nalpha0: 4/3 0 -7/2 -1/3\n"
                       "alpha1: 7/4 2 5/4\nmu: 21/16\nQ: 0 0 3/4 -57/32 -7/64\n"
                       f"destabilizing: ({interval}, 1/2]\n")

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

    def test_rows_take_no_polynomial_evaluation(self, capsys, models_dir, monkeypatch):
        # mu_c comes from one kernel over the c-grid: the UniPoly.at calls
        # of a scan are those of its analysis, whatever the number of rows
        calls = []
        at = UniPoly.at

        def counted(poly, num, den):
            calls.append((num, den))
            return at(poly, num, den)

        monkeypatch.setattr(UniPoly, "at", counted)
        counts = []
        for steps in ("1", "32"):
            calls.clear()
            code, out, _ = run(capsys, "scan", str(models_dir / "t3.json"), "--steps", steps)
            assert code == 0 and len(out.splitlines()) == int(steps) + 1
            counts.append(len(calls))
        assert counts[0] == counts[1]

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

    def test_fraction_count_independent_of_steps(self, capsys, models_dir, monkeypatch):
        # rows are built from integer pairs: on an integer table, a scan
        # constructs the same Fractions however many rows it writes
        argv = ["scan", str(models_dir / "t3.json"), "--steps"]
        assert cli.main([*argv, "1"]) == 0  # any set-up on first use is done
        new, counts = F.__new__, []

        def counted(cls, *args, **kwargs):
            counts[-1] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        for steps in ("1", "32"):
            counts.append(0)
            assert cli.main([*argv, steps]) == 0
        monkeypatch.undo()
        assert len(capsys.readouterr().out.splitlines()) == 2 + 2 + 33
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("model, fields, steps", [
        # c = i eps / steps has a denominator past the digit limit
        pytest.param("t3.json", {"epsilon": f"{10**4299 + 6}/{10**4299 + 7}"}, "20",
                     id="c"),
        # c has one digit, mu_c has parts past the limit
        pytest.param("t1.json", {"AE": [10**4299 - 1, 0, -1]}, "3", id="mu_c"),
    ])
    def test_overlong_row_named(self, capsys, tmp_path, models_dir, model, fields, steps):
        doc = {**json.loads((models_dir / model).read_text()), **fields}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "scan", str(path), "--steps", steps) == (
            2, "", "error: rational too long to write: a part of more than 4300 digits\n")

    def test_dimension_96_table_within_a_second(self, capsys, tmp_path):
        # the n = 96 table of the benchmark's table recipe (3-digit entries,
        # AE[0] above the dominance bound that keeps alpha0 positive on
        # [0, eps]); its two square-free parts took over 10 s to isolate by
        # Sturm sequences
        n, eps, rng = 96, F(1, 2), random.Random(7)

        def signed():
            v = rng.randrange(100, 1000)
            return v if rng.random() < 0.5 else -v

        ae_tail = [signed() for _ in range(n)]
        bound = sum(comb(n, k) * eps**k * abs(a) for k, a in enumerate(ae_tail, 1))
        doc = {"kind": "table", "label": "n96", "n": n,
               "AE": [int(bound) + rng.randrange(1, 1000), *ae_tail],
               "KAE": [signed() for _ in range(n)], "epsilon": "1/2"}
        path = tmp_path / "n96.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path), "--c", "1/4")
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert ("destabilizing: (0, (19717/1048576, 9859/524288]); "
                "((116391/1048576, 14549/131072], (317005/1048576, 158503/524288])\n") in out
        assert out.endswith("verdict: negative\n")


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
        path = tmp_path / "p4.json"
        path.write_text(json.dumps(P4_DOC))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(path), "--c", "1", "--max-m", "100000")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert "budget exceeded at m=" in err

    @pytest.mark.parametrize("model, q, max_m", [
        pytest.param("p3", 10**19, None, id="p3-20-digits"),
        pytest.param("p3", 10**59 + 1, None, id="p3-60-digits"),
        pytest.param("p3", 10**4300 - 1, None, id="p3-4300-digits"),
        pytest.param("p3", 10**19, 10**20, id="p3-20-digits-max-m"),
        pytest.param("p4", 10**19, None, id="p4-20-digits"),
        pytest.param("p4", 10**59 + 1, 10**60, id="p4-60-digits-max-m"),
    ])
    def test_point_budget_past_sys_maxsize_exits_2(self, capsys, tmp_path, models_dir,
                                                   model, q, max_m):
        # a slice of more than sys.maxsize points in dimension 3 or more is
        # refused by the budget, not by the integer size of a C counter
        if model == "p4":
            path = tmp_path / "p4.json"
            path.write_text(json.dumps(P4_DOC))
        else:
            path = models_dir / f"{model}.json"
        argv = ["verify", str(path), "--c", f"1/{q}"]
        if max_m is not None:
            argv += ["--max-m", str(max_m)]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == (f"error: lattice-point budget exceeded at m={q}: "
                       "more than 2000000 prefixes to enumerate\n")

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

    def test_max_m_past_sys_maxsize_exits_2(self, models_dir):
        # the m-range has more samples than len() can count: the prefix
        # budget refuses it, with no traceback
        result = subprocess.run(
            [sys.executable, "-m", "slopestab.cli", "verify", "models/p2.json",
             "--c", "1/2", "--max-m", "9" * 20],
            capture_output=True, text=True, cwd=str(models_dir.parent),
            env=child_env(models_dir.parent),
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert "Traceback" not in result.stderr
        assert result.stderr == ("error: lattice-point budget exceeded at m=2828: "
                                 "more than 2000000 prefixes to enumerate\n")

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

    # p2 visits m + 1 prefixes at m > 0 and max(0, M - 2) at m = -M, the
    # interior of M * P: c = 1 takes m = 1, -1, 2, -2, 3 (9 prefixes in all),
    # c = 1/2 takes m = 2, -2, 4, -4, 6 (17), and both together 8 distinct m
    # (23); at 8 and 9 the first c to go over decides, at 16 only c = 1/2 does
    @pytest.mark.parametrize("budget, cs, m", [
        (8, "1,1/2", 3), (9, "1/2,1", -4), (16, "1,1/2", 6), (16, "1/2,1", 6),
    ])
    def test_budget_refusal_names_the_failing_c_own_m(self, capsys, models_dir,
                                                      monkeypatch, budget, cs, m):
        monkeypatch.setattr(oracle, "_PREFIX_BUDGET", budget)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"), "--c", cs)
        assert (code, out) == (2, "")
        assert err == (f"error: lattice-point budget exceeded at m={m}: more than "
                       f"{budget} prefixes to enumerate\n")

    def test_budget_is_per_c_not_per_op(self, capsys, models_dir, monkeypatch):
        # each c's own m-list stays within 20 prefixes, their union does not
        monkeypatch.setattr(oracle, "_PREFIX_BUDGET", 20)
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

        def sample(model, m, levels, form, caps, steps=None):
            calls["sample"].append((m, tuple(caps)))
            return original_sample(model, m, levels, form, caps, steps)

        original_sample = oracle._sample
        monkeypatch.setattr(oracle, "_sample", sample)
        monkeypatch.setattr(oracle, "export_table", counted("export_table", oracle.export_table))
        monkeypatch.setattr(oracle, "fit_polynomial",
                            counted("fit_polynomial", oracle.fit_polynomial))
        return calls

    @staticmethod
    def count_walks(monkeypatch):
        """(m, s) -> the top-level _walk calls of the m-sample's walk, and
        (m, s) -> the steps its last walk yielded."""
        walks, steps = Counter(), {}
        walk = oracle._walk

        def counted(levels, xs, *rest):
            if rest:  # the walk's own recursion passes x_lo and count
                return walk(levels, xs, *rest)
            walks[xs] += 1
            out = list(walk(levels, xs))
            steps[xs] = len(out)
            return iter(out)

        monkeypatch.setattr(oracle, "_walk", counted)
        return walks, steps

    @pytest.mark.parametrize("name, cs, m_list", [
        ("p2", (F(1, 2), 1), None), ("f1_ample", (F(1, 2), 1), None),
        ("p3", (1,), range(1, 9)), ("blp3_014", (F(1, 2), F(1, 3)), None),
    ], ids=["p2", "f1_ample", "p3-m-list", "blp3_014"])
    def test_one_walk_per_m(self, load_model, monkeypatch, name, cs, m_list):
        # the budget's count walk holds its steps, and _sample reads them
        walks, _ = self.count_walks(monkeypatch)
        records = oracle.verify(load_model(name), cs, m_list)
        sampled = {s.m for r in records for s in r.samples}
        assert len(sampled) > 5
        assert walks == Counter(oracle._walk_of(m) for m in sampled)

    # two c on default m-lists, and one explicit m-list
    @pytest.mark.parametrize("op", [
        ("p2.json", "1/2,1"), ("f1_ample.json", "1/2,1"), ("p3.json", "1", "--max-m", "8"),
    ], ids=["p2", "f1_ample", "p3-max-m"])
    def test_held_steps_cap(self, capsys, models_dir, monkeypatch, op):
        # past the cap an m is walked again by _sample, with the same output
        argv = ["verify", str(models_dir / op[0]), "--c", *op[1:]]
        expected = run(capsys, *argv)
        assert expected[0] == 0
        walks, steps = self.count_walks(monkeypatch)
        for cap in (0, 1):
            walks.clear()
            monkeypatch.setattr(oracle, "_HELD_STEPS", cap)
            assert run(capsys, *argv) == expected
            # an m walked once was held: at cap 0 none is, at cap 1 only
            # walks of at most one step in all, as an empty interior's
            held = [xs for xs, count in walks.items() if count == 1]
            assert set(walks.values()) <= {1, 2}
            assert sum(steps[xs] for xs in held) <= cap
            assert cap or held == []

    def test_shared_m_list_walked_once(self, capsys, models_dir, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/3,2/3")
        assert code == 0
        # m = 3, -3, 6, -6, 9 once each, with the caps m/3 and 2m/3
        assert calls["sample"] == [(m, (m // 3, 2 * m // 3)) for m in (3, -3, 6, -6, 9)]
        # one table, one h0 fit for the shared m-list and one weight fit per c
        assert (calls["export_table"], calls["fit_polynomial"]) == (1, 3)

    def test_overlapping_m_lists_walk_each_m_once(self, capsys, models_dir, monkeypatch):
        calls = self.count_work(monkeypatch)
        code, _, _ = run(capsys, "verify", str(models_dir / "p2.json"), "--c", "1/2,1")
        assert code == 0
        walked = dict(calls["sample"])
        assert len(calls["sample"]) == len(walked) == 8
        assert sorted(walked) == [-4, -2, -1, 1, 2, 3, 4, 6]
        assert walked[2] == (1, 2) and walked[-2] == (-1, -2)
        assert walked[3] == (3,) and walked[6] == (3,)
        # one table, one h0 fit over all eight m and one weight fit per c
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
        assert [caps for _, caps in calls["sample"]] == [(m // 2,) for m in (2, -2, 4, -4, 6)]

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
        assert err == ("internal error: RuntimeError: "
                       "sign of Q at c=1/2 disagrees with mu - mu_c\n")

    def test_forged_witness_exits_4(self, capsys, models_dir, load_model, monkeypatch):
        # on a valid toric model the counts are polynomials in m, so a fit
        # witness that disagrees is a fault of the oracle, not of the input
        sample = oracle._sample

        def forged(model, m, levels, form, caps, steps=None):
            out = sample(model, m, levels, form, caps, steps)
            return tuple(s._replace(h0=s.h0 + 1) for s in out) if m == 6 else out

        monkeypatch.setattr(oracle, "_sample", forged)
        code, out, err = run(capsys, "verify", str(models_dir / "p2.json"),
                             "--c", "1/2")
        p2 = load_model("p2")
        h0 = sample(p2, 6, oracle._levels(p2), oracle._sigma_form(p2), (0,))[0].h0
        assert code == 4 and out == ""
        assert err == ("internal error: RuntimeError: "
                       "oracle counts are not polynomial in m: "
                       f"witness sample at x=6: fit predicts {h0}, "
                       f"sample gives {h0 + 1}\n")

    def test_generic_direction_fault_exits_4(self, capsys, models_dir, monkeypatch):
        def fail(*args):
            raise RuntimeError("no generic direction among 10 candidates")

        monkeypatch.setattr(toric, "_generic_direction", fail)
        code, out, err = run(capsys, "export-table", str(models_dir / "p2.json"))
        assert code == 4 and out == ""
        assert err.startswith("internal error: RuntimeError: no generic direction")

    # only a ModelError is refused input: an exception of any other type,
    # ValueError included, is a fault of slopestab
    # the message names the type: a bare KeyError would print only 'x'
    @pytest.mark.parametrize("argv, module, name, exc, message", [
        (["analyze", "t3.json"], slope, "isolate_roots", ValueError("empty interval"),
         "ValueError: empty interval"),
        (["export-table", "p2.json"], toric, "_generic_direction", KeyError("x"),
         "KeyError: 'x'"),
        (["verify", "p2.json", "--c", "1/2"], oracle, "_sample",
         ZeroDivisionError("division by zero"), "ZeroDivisionError: division by zero"),
    ], ids=["ValueError", "KeyError", "ZeroDivisionError"])
    def test_stray_exception_exits_4(self, capsys, models_dir, monkeypatch,
                                     argv, module, name, exc, message):
        def fail(*args):
            raise exc

        monkeypatch.setattr(module, name, fail)
        code, out, err = run(capsys, argv[0], str(models_dir / argv[1]), *argv[2:])
        assert (code, out, err) == (4, "", f"internal error: {message}\n")


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

    @pytest.mark.parametrize("eps", ["-3", "0", "1/10,0"])
    def test_non_positive_eps_exits_2(self, capsys, models_dir, eps):
        # -3 used to print a row for L - 3H, and 0 the eps 0 row twice
        code, out, err = run(capsys, "limit", str(models_dir / "f1_bignef.json"),
                             "--c", "1/2", f"--eps={eps}")
        assert (code, out) == (2, "")
        assert err == f"error: eps must be positive, got {eps.split(',')[-1]}\n"

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
        assert mixed_entries(again) == mixed_entries(export_table(load_model("f1_bignef")))

    def test_table_model_rejected(self, capsys, models_dir):
        code, _, err = run(capsys, "export-table", str(models_dir / "t1.json"))
        assert code == 2 and "toric" in err

    @staticmethod
    def analyze_bytes(capsys, tmp_path, model_path, eps):
        """`analyze` of the file at model_path with --c eps/2,eps, as bytes."""
        out = tmp_path / "analyze.txt"
        code, _, err = run(capsys, "analyze", str(model_path), "--c", f"{eps / 2},{eps}",
                           "--out", str(out))
        assert code == 0 and err == ""
        return out.read_bytes()

    @pytest.mark.parametrize("name", ["p2", "p2_o2", "p3", "f1_ample", "f1_bignef"])
    def test_analyze_of_export_is_analyze(self, capsys, tmp_path, models_dir, load_model,
                                          name):
        model_path, table_path = models_dir / f"{name}.json", tmp_path / "table.json"
        code, _, _ = run(capsys, "export-table", str(model_path), "--out", str(table_path))
        assert code == 0
        eps = export_table(load_model(name)).epsilon
        assert (self.analyze_bytes(capsys, tmp_path, table_path, eps)
                == self.analyze_bytes(capsys, tmp_path, model_path, eps))

    @pytest.mark.parametrize("name", [
        "p4_o2_codim2", "p1_cubed_point", "blp3_014", "p2_o2_point_02"])
    def test_analyze_of_serialized_table_is_analyze(self, capsys, tmp_path, load_model, name):
        # the models of EXTRA_TORIC in conftest, which have no file
        model = load_model(name)
        table = export_table(model)
        model_path, table_path = tmp_path / "model.json", tmp_path / "table.json"
        model_path.write_text(json.dumps(toric_doc(model)))
        table_path.write_text(json.dumps(serialize_model(table)))
        assert parse_model(table_path.read_bytes()) == table
        assert (self.analyze_bytes(capsys, tmp_path, table_path, table.epsilon)
                == self.analyze_bytes(capsys, tmp_path, model_path, table.epsilon))

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

    def test_non_utf8_model_exits_2(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"kind": "table", "label": "\xff"}')
        assert run(capsys, "analyze", str(path)) == (
            2, "", "error: 'utf-8' codec can't decode byte 0xff in position 28: "
                   "invalid start byte\n")

    @pytest.mark.parametrize("model, out", [("t1.json\0", None), ("t1.json", "out\0.txt")],
                             ids=["model", "out"])
    def test_nul_byte_in_path_exits_2(self, capsys, models_dir, model, out):
        argv = ["--out", out] if out else []
        assert run(capsys, "analyze", str(models_dir) + "/" + model, *argv) == (
            2, "", "error: embedded null byte\n")

    @pytest.mark.parametrize("out", [None, "out.txt"])
    def test_unencodable_label_exits_2(self, capsys, tmp_path, monkeypatch, out):
        # JSON carries a lone surrogate, which UTF-8 cannot encode
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_doc(TABLE_DOC, label="\ud800")))
        # strict UTF-8, whatever the encoding of the captured stdout
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="utf-8"))
        argv = ["--out", str(tmp_path / out)] if out else []
        if out:
            (tmp_path / out).write_text("kept\n")
        code, _, err = run(capsys, "analyze", str(path), *argv)
        assert (code, err) == (2, "error: 'utf-8' codec can't encode character '\\ud800' "
                                  "in position 7: surrogates not allowed\n")
        # a refused run leaves an existing output file as it was
        assert not out or (tmp_path / out).read_text() == "kept\n"


MODEL_DOCS = [json.loads(path.read_text()) for path in
              sorted((pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.json"))]
LEAVES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-2/3", "0", "1/0", "x", "", "\ud800", "1/" + "1" * 5000]),
    # valid at the 4300-digit limit of a rational's part
    st.sampled_from(["9" * 4300, "-" + "9" * 4300, "1/" + "3" * 4300,
                     "9" * 4300 + "/" + "7" * 4300, 10**4300 - 1]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=4),
)
C_VALUES = st.sampled_from(["1/2", "1", "1/3,1/2", "2", "0", "-1/2", "1/0", "x", ""])
FLAGS = {
    "analyze": {"--c": C_VALUES,
                "--width": st.sampled_from(["2^-5", "2^-64", "2^-4096", "1/1000", "0", "-1",
                                            "2^-5000", "x"])},
    "scan": {"--steps": st.integers(-2, 12) | st.just(10001)},
    "verify": {"--c": C_VALUES, "--max-m": st.sampled_from([-4, 0, 12, 30, 10**20])},
    "limit": {"--c": C_VALUES,
              "--eps": st.sampled_from(["1/10", "1/10,1/100", "0", "-1", "x", ""])},
    "export-table": {},
}


@st.composite
def mutated_docs(draw):
    """A bundled model with one to three edits, each at a random node, most
    often below the top level: the node's value replaced or, below the top
    level, the node removed or repeated (a repeated key under a new name)."""
    doc = copy.deepcopy(draw(st.sampled_from(MODEL_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        key = draw(st.sampled_from(list(node)))
        while isinstance(node[key], (dict, list)) and node[key] and draw(st.integers(0, 3)):
            node = node[key]
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        edit = "replace" if node is doc else draw(st.sampled_from(["replace", "remove", "repeat"]))
        if edit == "replace":
            node[key] = draw(LEAVES)
        elif edit == "remove":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, node[key])
        else:
            node[f"{key}0"] = node[key]
    return doc


@st.composite
def command_lines(draw, path):
    command = draw(st.sampled_from(list(FLAGS)))
    argv = [command, path]
    for flag, values in FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


class TestPathsAsGiven:
    """Model and --out paths are opened as given, not normalized first."""

    def test_trailing_slash_on_model_refused(self, capsys, models_dir):
        path = str(models_dir / "t1.json") + "/"
        assert run(capsys, "analyze", path) == (
            2, "", f"error: cannot read model file: [Errno 20] Not a directory: {path!r}\n")

    def test_empty_model_path_refused(self, capsys):
        assert run(capsys, "analyze", "") == (
            2, "", "error: cannot read model file: [Errno 2] No such file or directory: ''\n")

    def test_doubled_separator_echoed(self, capsys, models_dir):
        path = f"{models_dir}//missing.json"
        assert run(capsys, "analyze", path) == (
            2, "", f"error: cannot read model file: [Errno 2] No such file or directory: "
                   f"{path!r}\n")

    def test_trailing_slash_on_out_refused(self, capsys, models_dir, tmp_path):
        out = f"{tmp_path}/new/"
        assert run(capsys, "analyze", str(models_dir / "t1.json"), "--out", out) == (
            2, "", f"error: cannot write output file: [Errno 21] Is a directory: {out!r}\n")
        assert list(tmp_path.iterdir()) == []


class TestOneParsePass:
    @pytest.mark.parametrize("argv", [
        ("analyze", "t1.json", "--c", "1/2"),
        ("scan", "t1.json", "--steps", "2"),
        ("verify", "p2.json", "--c", "1/2"),
        ("limit", "f1_bignef.json", "--c", "1/2"),
        ("export-table", "p2.json"),
    ], ids=lambda argv: argv[0])
    def test_one_parse_pass_per_command(self, capsys, models_dir, monkeypatch, argv):
        # the command's own parser parses the line, once; the top-level
        # parser does not parse it first
        passes = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            passes.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        code, _, err = run(capsys, argv[0], str(models_dir / argv[1]), *argv[2:])
        assert (code, err) == (0, "")
        assert passes == [f"slopestab {argv[0]}"]


OVERLONG = 10**4300 - 1  # the longest int that str() writes; sums and products run past it


class TestOverlongNumbers:
    """A diagnostic that names an integer past the 4300 digits str() writes
    gives its digit count: the run exits 2, never 4."""

    @pytest.mark.parametrize("name", sorted(
        path.stem for path in (pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.json")
        if json.loads(path.read_text())["kind"] == "toric"))
    def test_every_toric_leaf(self, capsys, tmp_path, models_dir, name):
        # each rays, L and H entry set in turn to +-OVERLONG
        doc = json.loads((models_dir / f"{name}.json").read_text())
        vectors = [*doc["rays"], doc["L"], *([doc["H"]] if "H" in doc else [])]
        path = tmp_path / "model.json"
        for v, vector in enumerate(vectors):
            for j, kept in enumerate(vector):
                for value in (OVERLONG, -OVERLONG):
                    vector[j] = value
                    path.write_text(json.dumps(doc))
                    code, _, err = run(capsys, "export-table", str(path))
                    assert code in (0, 2), (v, j, value > 0, err[:200])
                vector[j] = kept

    @pytest.mark.parametrize("doc, message", [
        (_doc(P2_DOC, L=[-OVERLONG, -OVERLONG, 0]),
         "; ".join(f"L not nef: degree a number of 4301 digits on wall ({i},)" for i in range(3))),
        (_doc(P2_DOC, rays=[[1, -OVERLONG], [0, 1], [-1, -1]]),
         "non-smooth cone (0, 2), det a number of 4301 digits"),
        (_doc(P2_DOC, H=[-OVERLONG, -OVERLONG, 0]),
         "; ".join(f"H not ample: degree a number of 4301 digits on wall ({i},)" for i in range(3))),
    ])
    def test_diagnostic_gives_digit_count(self, capsys, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "export-table", str(path)) == (2, "", f"error: {message}\n")

    def test_limit_gives_digit_count(self, capsys, tmp_path):
        # L + eps H with H = -10^4299 and eps = 10^4299: alpha0(0) = 1 - 10^8598
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(_doc(
            TABLE_DOC, kind="mixed-table", AE=[1, 1],
            MIX={"1,0,0": 1, "0,1,0": -10**4299, "0,0,1": 1}, KMIX={"0,0,0": -2})))
        assert run(capsys, "limit", str(path), "--c", "1/2", "--eps", str(10**4299)) == (
            2, "", "error: alpha0(0) = a number of 8598 digits is not positive\n")

    def test_verify_epsilon_gives_digit_count(self, capsys, tmp_path):
        # L = (10^4300 - 1) (1, 1, 1) on the plane: epsilon = 3 (10^4300 - 1)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_doc(P2_DOC, L=[OVERLONG] * 3)))
        assert run(capsys, "verify", str(path), "--c", "0") == (
            2, "", "error: c=0 outside (0, a number of 4301 digits]\n")

    def test_mu_c_and_verdict_give_digit_count(self):
        eps = F(3 * OVERLONG)
        pair = slope.alpha_polys(IntersectionTable("t", 2, 1, (1, 0, 0), (-3, -1), eps))
        report = slope.SlopeReport(eps, pair.mu, slope.df_numerator(pair), (), False)
        for outside in (lambda: slope.mu_c(pair, 0), lambda: report.verdict(0)):
            with pytest.raises(slope.ModelError) as excinfo:
                outside()
            assert str(excinfo.value) == "c=0 outside (0, a number of 4301 digits]"

    def test_analyze_refuses_before_isolating(self, capsys, tmp_path, models_dir):
        # epsilon = 10^4300 - 1 is written, but alpha0 has coefficients past
        # the limit: the refusal comes before Q's roots are isolated in
        # (0, epsilon], which took over a minute
        doc = json.loads((models_dir / "f1_ample.json").read_text())
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_doc(doc, L=[0, 0, OVERLONG, -1])))
        start = time.perf_counter()
        assert run(capsys, "analyze", str(path)) == (
            2, "", "error: rational too long to write: a part of more than 4300 digits\n")
        assert time.perf_counter() - start < 2


    def test_analyze_refuses_q_before_isolating(self, capsys, tmp_path):
        # epsilon, alpha0, alpha1 and mu have at most 3001 digits and are
        # written, but Q has a coefficient past the limit: the refusal comes
        # before Q's roots are isolated, which took several seconds
        doc = {"kind": "table", "label": "long Q", "n": 2,
               "AE": [10**3000 + 7, 10**2998 + 3, 1], "KAE": [3 * 10**2999 + 11, 10**2999],
               "epsilon": "1/4"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run(capsys, "analyze", str(path)) == (
            2, "", "error: rational too long to write: a part of more than 4300 digits\n")
        assert time.perf_counter() - start < 2


class TestMutatedInput:
    """Every run on an edited model, with any value of each flag, is an
    answer or a refusal: never exit 3 or 4, and never an escaped exception."""

    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated") / "model.json"

    @given(doc=mutated_docs(), data=st.data())
    def test_answered_or_refused(self, model_path, doc, data):
        model_path.write_text(json.dumps(doc))
        argv = data.draw(command_lines(str(model_path)))
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # strict, like a UTF-8 pipe
        stderr = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 2), stderr.getvalue()


class TestDeterminism:
    def test_byte_identical_runs(self, models_dir):
        def once(args):
            return subprocess.run(
                [sys.executable, "-m", "slopestab.cli", *args],
                capture_output=True, text=True, cwd=str(models_dir.parent),
                env=child_env(models_dir.parent),
            )

        for args in (
            ["analyze", "models/t3.json", "--c", "1/2"],
            ["scan", "models/t2.json", "--steps", "5"],
            ["export-table", "models/f1_ample.json"],
        ):
            first, second = once(args), once(args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout


class TestImportCost:
    @pytest.fixture(scope="class")
    def loaded(self, models_dir):
        """The exit code of analyze in a bare interpreter that imports the
        CLI, then the watched modules it holds, sorted."""
        root = models_dir.parent
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(root / 'src')!r})\n"
            "from slopestab.cli import main\n"
            f"code = main(['analyze', {str(models_dir / 'p2.json')!r}])\n"
            "print(code, *sorted(m for m in sys.modules\n"
            "                    if m in ('dataclasses', 'inspect', 'typing')\n"
            "                    or m.startswith('slopestab')))\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script],
                              capture_output=True, text=True, cwd=str(root))
        assert proc.returncode == 0 and proc.stderr == ""
        return proc.stdout.splitlines()[-1].split()

    def test_no_dataclasses_or_inspect(self, loaded):
        # the records and validated types are built without generated code:
        # a bare interpreter that imports the CLI and runs an op loads neither
        # module, and loads the package's seven modules, no more and no fewer
        assert loaded[0] == "0" and not {"dataclasses", "inspect"} & set(loaded)
        assert [m for m in loaded if m.startswith("slopestab")] == [
            "slopestab", "slopestab.cli", "slopestab.models", "slopestab.oracle",
            "slopestab.polynomials", "slopestab.slope", "slopestab.toric",
        ]

    def test_no_typing(self, loaded):
        # the records are collections.namedtuple subclasses, and the
        # annotation names come from collections.abc
        assert loaded[0] == "0" and "typing" not in loaded
