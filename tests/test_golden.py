"""Byte-identical CLI output: exit code, stdout and stderr of every bundled
model under a fixed set of commands, replayed in-process against the
transcript in golden/cli.json.

A change that alters any of these outputs on purpose rewrites the transcript
with `PYTHONPATH=src python tests/test_golden.py` and shows the diff.
"""

import contextlib
import functools
import io
import json
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


@functools.cache
def _transcript():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_transcript_covers_every_model_and_command():
    assert [run["argv"] for run in _transcript()] == _argvs()


@pytest.mark.parametrize(
    "index", [pytest.param(i, id=" ".join(argv)) for i, argv in enumerate(_argvs())]
)
def test_output_is_byte_identical(index):
    expected = _transcript()[index]
    assert _replay(expected["argv"]) == expected


if __name__ == "__main__":
    runs = [_replay(argv) for argv in _argvs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
