"""The names that code outside the package imports must keep resolving:
the layers that bench/spans.py traces, and the README's Library example.
The traced path itself runs here too: installing and removing the tracer,
and bench/run.py's box_points, which hands a model's L to the package.
Conversely, every function, method and property of the package, public or
private, has a caller outside the tests."""

import ast
import importlib
import importlib.util
import pathlib
import re
import sys
from collections import Counter

import pytest

import slopestab
from slopestab import oracle

ROOT = pathlib.Path(__file__).resolve().parent.parent
TORIC_FIXTURES = ("p2", "p2_o2", "p3", "f1_ample", "f1_bignef")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load_spans()


def _load_run():
    """bench/run.py, which imports its sibling modules by name."""
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module("run")


def _traced_bindings():
    """(module, name) -> object, for every traced name in each slopestab
    module (or class) that binds it."""
    out = {}
    for module, attr, _ in _SPANS.SPANS + _SPANS.COUNTED:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, name = attr.split(".")
            out[(module, attr)] = vars(getattr(owner, cls_name))[name]
            continue
        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "slopestab" and hasattr(mod, attr):
                out[(key, attr)] = getattr(mod, attr)
    return out


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in _SPANS.SPANS + _SPANS.COUNTED],
)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _readme_library():
    """The code block of the README's Library section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def _referenced(tree):
    """Every identifier a tree refers to: names, attributes, imported names,
    and the dotted parts of string constants (bench/spans.py names its
    targets as strings).  The name a def statement defines is not among them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def _unreferenced(private):
    """The functions, methods and properties of the package, public or
    private as asked, that nothing refers to outside their own body: not
    the package elsewhere, the README's Library example, or the benchmark
    (bench/spans.py traces names, bench/run.py imports them).  Dunders are
    exempt."""
    outside = set(_referenced(ast.parse(_readme_library())))
    for name in ("spans.py", "run.py"):
        outside.update(_referenced(ast.parse((ROOT / "bench" / name).read_text())))
    statements = [
        node
        for path in sorted(pathlib.Path(slopestab.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    defs = [
        node
        for statement in statements
        for node in (statement.body if isinstance(statement, ast.ClassDef) else [statement])
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    package = Counter(name for node in statements for name in _referenced(node))
    return [
        node.name
        for node in defs
        if node.name not in outside and package[node.name] == Counter(_referenced(node))[node.name]
    ]


def test_every_public_function_has_a_caller():
    # a public function, method or property that only the tests call is dead
    # code
    assert _unreferenced(private=False) == []


def test_every_private_function_has_a_caller():
    # so is a private one that only its own body or the tests refer to
    assert _unreferenced(private=True) == []


def test_readme_library_imports():
    names = [
        name.strip()
        for line in re.findall(r"^from slopestab import (.+)$", _readme_library(), re.MULTILINE)
        for name in line.split(",")
    ]
    assert names
    missing = [name for name in names if not hasattr(slopestab, name)]
    assert missing == []


def test_tracer_uninstall_restores_every_traced_name():
    before = _traced_bindings()
    tracer = _SPANS.Tracer()
    tracer.install()
    try:
        during = _traced_bindings()
    finally:
        tracer.uninstall()
    wrapped = [(module, attr) for module, attr, _ in _SPANS.SPANS + _SPANS.COUNTED]
    assert all(during[key] is not before[key] for key in wrapped)
    after = _traced_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("name", TORIC_FIXTURES)
def test_box_points_on_toric_fixture(load_model, name):
    model = load_model(name)
    tracer = _SPANS.Tracer()
    tracer.verified.append((model, (1, 2)))
    points = _load_run().box_points(tracer)
    # the bounding boxes of P_L and 2 P_L hold every lattice point of both
    assert type(points) is int
    levels, form = oracle._levels(model), oracle._sigma_form(model)
    assert points >= sum(oracle._sample(model, m, levels, form, (0,))[0].h0 for m in (1, 2))
    if name == "p2":  # the unit triangle: boxes of 2 x 2 and 3 x 3 points
        assert points == 13
