"""The benchmark's output checks accept real outputs and reject corrupted
ones (a flipped verdict, a dropped interval, a changed AE entry, ...)."""

import importlib
import json

import corpus
import run
from spans import Tracer


def test_checker_accepts_outputs_and_rejects_corruptions(tmp_path):
    docs, ops = corpus._with_canaries({}, [])
    # F1 2H-E0 along E0: Q < 0 on an interval ending at epsilon
    docs["t.json"] = {"kind": "table", "label": "t", "n": 2, "AE": [3, 1, -1],
                      "KAE": [-5, -1], "epsilon": "1"}
    ops.append(corpus._op("analyze", "t.json", "--c", "1/4,1/2,9/10", "--width", "2^-30"))
    ops.append(corpus._op("scan", "t.json", "--steps", "7"))
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    cli = importlib.import_module("slopestab.cli")  # no reload: other tests share it
    first, _ = run.run_pass(cli, ops, tmp_path, Tracer(), 0)
    checker = run.Checker(cli, docs, ops, first, tmp_path)
    problems = checker.check_first()
    assert problems == [[] for _ in ops]
    caught, missed = checker.self_test(problems)
    assert missed == []
    # analyze: verdict, interval, mu_c; one each for scan, limit, export, verify
    assert caught == 7
