"""The names that code outside the package imports must keep resolving:
the layers that bench/spans.py traces, and the README's Library example."""

import importlib
import importlib.util
import pathlib
import re

import pytest

import slopestab

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in _SPANS.SPANS + _SPANS.COUNTED],
)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_readme_library_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = [
        name.strip()
        for line in re.findall(r"^from slopestab import (.+)$", library, re.MULTILINE)
        for name in line.split(",")
    ]
    assert names
    missing = [name for name in names if not hasattr(slopestab, name)]
    assert missing == []
