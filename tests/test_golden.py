"""Byte-identical CLI output: exit code, stdout and stderr of every bundled
model under a fixed set of commands, and of a fixed set of help and misuse
command lines, replayed in-process against the transcript in golden/cli.json.

A change that alters any of these outputs on purpose rewrites the transcript
with `PYTHONPATH=src python tests/test_golden.py` and shows the diff.
"""

import contextlib
import functools
import io
import json
import os
import pathlib
import sys

import pytest

from slopestab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"

COMMANDS = (
    ("analyze",),
    ("analyze", "--c", "1/3,1/2,2/3"),
    ("analyze", "--width", "2^-40"),
    ("scan",),
    ("scan", "--steps", "7"),
    ("export-table",),
    ("verify", "--c", "1/2"),
    ("verify", "--c", "1/4,3/4", "--max-m", "12"),
    ("limit", "--c", "1/2", "--eps", "1/10,1/100"),
    ("limit", "--c", "1/2"),
)

# help and misuse, run as given from the repository root: help at both levels,
# no command, unknown commands, unrecognized and extra arguments, missing and
# malformed flag values, abbreviations, --flag=value, repeated flags and --
COMMAND_LINES = (
    (),
    ("-h",),
    ("--help",),
    ("--he",),
    ("--", "analyze", "models/t3.json"),
    ("frobnicate", "models/t3.json"),
    ("Analyze", "models/t3.json"),
    ("analyze",),
    ("analyze", "-h"),
    ("scan", "--help"),
    ("verify", "-h"),
    ("limit", "--h"),
    ("export-table", "-h"),
    ("analyze", "models/t3.json", "-h", "--bogus"),
    ("analyze", "models/t3.json", "models/t2.json"),
    ("analyze", "models/t3.json", "--bogus"),
    ("analyze", "models/t3.json", "-x", "y", "--steps", "3"),
    ("export-table", "models/p2.json", "--c", "1/2"),
    ("analyze", "models/t3.json", "--c"),
    ("analyze", "models/t3.json", "--width"),
    ("scan", "models/t3.json", "--out"),
    ("scan", "models/t3.json", "--steps", "x"),
    ("scan", "models/t3.json", "--steps=x"),
    ("scan", "models/t3.json", "--steps=3"),
    ("scan", "models/t3.json", "--steps", "-1"),
    ("verify", "models/p2.json", "--c", "1/2", "--max-m", "1.5"),
    ("verify", "models/p2.json", "--c", "1/2", "--ma", "12"),
    ("analyze", "models/t3.json", "--w", "2^-10"),
    ("analyze", "models/t3.json", "--c=1/2", "--c", "1/3"),
    ("scan", "models/t3.json", "--steps", "2", "--steps", "3"),
    ("analyze", "--c", "1/2", "models/t3.json"),
    ("analyze", "--", "models/t3.json"),
    ("analyze", "models/t3.json", "--", "--c"),
    ("limit", "models/f1_bignef.json", "--c", "1/2", "--eps="),
)


def _argvs():
    models = sorted(p.name for p in (ROOT / "models").glob("*.json"))
    return [
        [command, f"models/{name}", *flags]
        for name in models
        for command, *flags in COMMANDS
    ]


def _replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], str(ROOT / argv[1]), *argv[2:]])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _replay_command_line(argv):
    """One command line run as given, from the repository root with COLUMNS
    at 80 (argparse wraps help and usage to it); a SystemExit is recorded by
    its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            run = {"exit": cli.main(list(argv))}
        except SystemExit as exc:
            run = {"system_exit": exc.code}
    return {"argv": list(argv), **run, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _transcript():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_transcript_covers_every_model_and_command():
    assert [run["argv"] for run in _transcript()] == _argvs() + list(map(list, COMMAND_LINES))


@pytest.mark.parametrize(
    "index", [pytest.param(i, id=" ".join(argv)) for i, argv in enumerate(_argvs())]
)
def test_output_is_byte_identical(index):
    expected = _transcript()[index]
    assert _replay(expected["argv"]) == expected


@pytest.mark.parametrize(
    "index", [pytest.param(i, id=" ".join(argv) or "(none)") for i, argv in enumerate(COMMAND_LINES)]
)
def test_command_line_handling_is_byte_identical(index, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    expected = _transcript()[len(_argvs()) + index]
    assert _replay_command_line(expected["argv"]) == expected


if __name__ == "__main__":
    runs = [_replay(argv) for argv in _argvs()]
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    runs += [_replay_command_line(argv) for argv in COMMAND_LINES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
