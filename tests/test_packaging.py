"""Packaging metadata: every declared console script resolves, the
claim map in malab.__doc__ names real code and accounts for every
public name, member and keyword default of malab, and the padded-box
half runs without scipy.sparse.

The rule the scans hold: a public thing exists because a step of the map,
another module of malab or the benchmark in perfbench/ needs it. They
read the sources as ASTs, so they see code, not docstrings or comments.
"""

import ast
import collections
import importlib
import os
import pathlib
import re
import subprocess
import sys
import tomllib

import malab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "malab"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
# module.name, module.Class.member and file::test, as the map writes them
MAP_NAME = re.compile(r"\b(" + "|".join(MODULES)
                      + r")\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)?)")
MAP_TEST = re.compile(r"\b(test_\w+\.py)::(\w+)")
MAPPED = {f"{mod}.{name}" for mod, name in MAP_NAME.findall(malab.__doc__)}


def _trees(folder: pathlib.Path) -> dict:
    return {p.stem: ast.parse(p.read_text())
            for p in sorted(folder.glob("*.py")) if p.stem != "__init__"}


SRC_TREES = _trees(SRC)
BENCH_TREES = _trees(ROOT / "perfbench")
TEST_TREES = _trees(ROOT / "tests")
CODE_TREES = [*SRC_TREES.values(), *BENCH_TREES.values()]


def test_project_scripts_import_and_are_callable():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module), attr)
        assert callable(func), name


def test_claim_map_names_resolve():
    tests = MAP_TEST.findall(malab.__doc__)
    assert MAPPED and tests
    missing = []
    for entry in sorted(MAPPED):
        mod, *path = entry.split(".")
        obj = importlib.import_module(f"malab.{mod}")
        for name in path:
            obj = getattr(obj, name, missing)
        if obj is missing:
            missing.append(entry)
    missing += [f"{file}::{name}" for file, name in tests
                if name not in {n.name for n in TEST_TREES[file[:-3]].body
                                if isinstance(n, ast.FunctionDef)}]
    assert missing == []


def _public(nodes) -> list:
    """(name, node) of the functions, classes and assigned names among
    nodes that have no leading _."""
    out = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.Assign):
            out += [(t.id, node) for t in node.targets
                    if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("_")]


def _public_classes():
    """(module.Class, node) of every public class of malab."""
    return [(f"{mod}.{name}", node) for mod, tree in SRC_TREES.items()
            for name, node in _public(tree.body)
            if isinstance(node, ast.ClassDef)]


def _decorators(node) -> set:
    return {getattr(d, "id", getattr(d, "attr", None))
            for d in (getattr(d, "func", d) for d in node.decorator_list)}


def _reads(trees) -> collections.Counter:
    """How often the trees read each attribute name."""
    return collections.Counter(
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _benchmark_uses() -> set:
    """Every bare name, attribute, imported name and string constant of
    perfbench/ (its tracer names its targets by string)."""
    out = set()
    for tree in BENCH_TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def _imported_from(tree, mod: str) -> set:
    """The names a tree imports from malab.mod."""
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, mod), (0, f"malab.{mod}"))
            for a in node.names}


def unneeded_names() -> list:
    """Public top-level names of malab that the map does not name, no
    other module of malab imports and perfbench/ does not use."""
    bench = _benchmark_uses()
    out = []
    for mod, tree in SRC_TREES.items():
        imported = set().union(*(_imported_from(t, mod)
                                 for m, t in SRC_TREES.items() if m != mod))
        out += [f"{mod}.{name}" for name, _ in _public(tree.body)
                if f"{mod}.{name}" not in MAPPED
                and name not in imported | bench]
    return out


def test_every_public_name_is_needed():
    # a name that only its own module or its tests use is not needed
    assert unneeded_names() == []


def unneeded_members() -> list:
    """Public methods and properties of public classes that the map does
    not name and nothing in src/ or perfbench/ reads outside their own
    body, and dataclass fields that nothing reads, tests included."""
    code, anywhere = _reads(CODE_TREES), _reads(TEST_TREES.values())
    anywhere.update(code)
    out = []
    for entry, cls in _public_classes():
        out += [f"{entry}.{name}" for name, node in _public(cls.body)
                if f"{entry}.{name}" not in MAPPED
                and code[name] <= _reads([node])[name]]
        if "dataclass" in _decorators(cls):
            out += [f"{entry}.{n.target.id}" for n in cls.body
                    if isinstance(n, ast.AnnAssign)
                    and not anywhere[n.target.id]]
    return out


def test_every_public_member_is_needed():
    # tests count for fields only: they read the certificate reports
    assert unneeded_members() == []


def _calls(tree, refusals: bool = True) -> list:
    """The calls in tree, without those inside a pytest.raises block
    unless refusals (a call that must be refused computes nothing)."""
    out = []

    def visit(node):
        if not refusals and isinstance(node, ast.With) and any(
                isinstance(i.context_expr, ast.Call)
                and getattr(i.context_expr.func, "attr", None) == "raises"
                for i in node.items):
            return
        if isinstance(node, ast.Call):
            out.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)
    visit(tree)
    return out


def _public_functions() -> list:
    """(entry, node, offset) of every public function of malab: top-level
    functions and the methods of public classes; offset is 1 where a call
    does not spell the first parameter (self or cls)."""
    out = [(f"{mod}.{name}", node, 0) for mod, tree in SRC_TREES.items()
           for name, node in _public(tree.body)
           if isinstance(node, ast.FunctionDef)]
    for entry, cls in _public_classes():
        out += [(f"{entry}.{name}", node,
                 int("staticmethod" not in _decorators(node)))
                for name, node in _public(cls.body)
                if isinstance(node, ast.FunctionDef)]
    return out


def _defaulted(fn: ast.FunctionDef, offset: int) -> list:
    """(position in a call or None, name) of fn's defaulted parameters."""
    a = fn.args
    pos = (a.posonlyargs + a.args)[offset:]
    out = [(k, p.arg) for k, p in enumerate(pos)
           if k >= len(pos) - len(a.defaults)]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether call passes the parameter name, by keyword or at the
    positional index (None for a keyword-only one); a *args passes every
    position, a **kwargs no name."""
    if any(k.arg == name for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args))


def unset_defaults() -> list:
    """entry:param of every defaulted parameter of a public function that
    no call passes: no call in src/ or perfbench/, and no test call
    outside a pytest.raises block. Calls match by the callee's name."""
    calls = collections.defaultdict(list)
    for tree, refusals in [*((t, True) for t in CODE_TREES),
                           *((t, False) for t in TEST_TREES.values())]:
        for call in _calls(tree, refusals):
            f = call.func
            calls[getattr(f, "id", getattr(f, "attr", None))].append(call)
    return [f"{entry}:{name}" for entry, fn, offset in _public_functions()
            for index, name in _defaulted(fn, offset)
            if not any(_passes(c, index, name) for c in calls[fn.name])]


def test_every_keyword_default_is_set():
    # a default that no caller sets is a module constant in disguise
    assert unset_defaults() == []


# imports every module of malab and runs the padded-box half (steps 5-6)
# before the domain half loads scipy.sparse at its first operator set
IMPORT_BOUNDARY = """
import importlib, pathlib, pkgutil, sys
import numpy as np
import malab
assert pathlib.Path(malab.__file__).is_relative_to(sys.argv[1]), malab.__file__
for m in pkgutil.iter_modules(malab.__path__):
    importlib.import_module("malab." + m.name)
from malab import cgo, geomkit, maforward
from malab.grid import MetricField, PaddedGrid, VectorField, build_disk

box = PaddedGrid(4.0, 64)
X, Y = box.meshgrid()
bump = np.exp(-(X * X + Y * Y) / 0.5)
c11, c22, c12 = 1.0 + 0.25 * bump, 1.0 - 0.15 * bump, 0.1 * X * Y * bump
det = c11 * c22 - c12 ** 2
geomkit.isothermal(MetricField(c22 / det, -c12 / det, c11 / det, box))
box = PaddedGrid(6.0, 128)
X, Y = box.meshgrid()
bump = np.exp(-(X * X + Y * Y) / 0.6)
cgo.build_cgo_holo(cgo.phase_spec((0.0, 0.0, -0.25), box), 0.4,
                   VectorField(0.5 * bump, -0.3 * bump, box), q=0.2 * bump)
loaded = [m for m in sys.modules if m.startswith("scipy.sparse")]
assert loaded == [], loaded

ops = maforward.build_stencil_ops(build_disk(1.0, 32))
assert "scipy.sparse.linalg" in sys.modules
lu = maforward.SparseLU(ops.system(1.0, 0.0, 1.0))
assert np.all(np.isfinite(lu.solve(np.ones(ops.N), rtol=1e-10)))
"""


def test_box_half_runs_without_scipy_sparse():
    # a child interpreter: pytest's filterwarnings already loaded
    # scipy.sparse in this one
    src = ROOT / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, str(src)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
