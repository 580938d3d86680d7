"""Byte-identical output of every benchmark op: the nine corpora of
bench/corpus.py (each workload at seeds 1, 1000 and 77) are written to a
temporary directory and replayed in-process through cli.main.  Each op's
exit code, stdout and stderr, with the work directory replaced by a
placeholder, is hashed and compared against golden/bench_ops.json, keyed
workload/seed/index.

A change that alters any of these outputs on purpose rewrites the digest
with `PYTHONPATH=src python tests/test_bench_ops.py` and lists the ops that
changed.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile

import pytest

from slopestab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST = pathlib.Path(__file__).resolve().parent / "golden" / "bench_ops.json"
SEEDS = (1, 1000, 77)
WORKDIR = "<workdir>"


def _load_corpus():
    # bench/corpus.py imports nothing from slopestab
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_CORPUS = _load_corpus()
CORPORA = [(workload, seed) for workload in _CORPUS.WORKLOADS for seed in SEEDS]


def _digests(workload, seed, workdir: pathlib.Path) -> dict:
    """key -> sha256 of [exit, stdout, stderr] for every op of one corpus."""
    docs, ops = _CORPUS.GENERATORS[workload](seed)
    for name, doc in docs.items():
        (workdir / name).write_text(json.dumps(doc))
    out = {}
    for i, op in enumerate(ops):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([op["cmd"], str(workdir / op["doc"]), *op["args"]])
        text = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
        text = text.replace(str(workdir), WORKDIR)
        out[f"{workload}/{seed}/{i}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


@functools.cache
def _golden():
    return json.loads(DIGEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, seed", CORPORA)
def test_bench_ops_are_byte_identical(workload, seed, tmp_path):
    expected = {k: v for k, v in _golden().items() if k.startswith(f"{workload}/{seed}/")}
    got = _digests(workload, seed, tmp_path)
    assert expected, f"no digest for {workload}/{seed}"
    differ = [k for k in got.keys() | expected.keys() if got.get(k) != expected.get(k)]
    differ.sort(key=lambda k: int(k.rsplit("/", 1)[1]))
    assert differ == [], f"{len(differ)} ops differ, first: {differ[:5]}"


if __name__ == "__main__":
    digests = {}
    for workload, seed in CORPORA:
        with tempfile.TemporaryDirectory() as workdir:
            digests.update(_digests(workload, seed, pathlib.Path(workdir)))
    old = json.loads(DIGEST.read_text(encoding="utf-8")) if DIGEST.exists() else {}
    changed = [k for k in digests.keys() | old.keys() if digests.get(k) != old.get(k)]
    DIGEST.parent.mkdir(exist_ok=True)
    DIGEST.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
    print(f"{len(digests)} ops, {len(changed)} changed: {sorted(changed)[:20]}")
    sys.exit(0)
