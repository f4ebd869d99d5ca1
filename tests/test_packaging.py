"""Packaging metadata: every declared console script resolves, and the
claim map in malab.__doc__ names real code and accounts for every
public name."""

import ast
import importlib
import pathlib
import re
import tomllib

import malab

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src" / "malab"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
# module.name and file::test, as the map writes them
MAP_NAME = re.compile(r"\b(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")
MAP_TEST = re.compile(r"\b(test_\w+\.py)::(\w+)")


def test_project_scripts_import_and_are_callable():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module), attr)
        assert callable(func), name


def test_claim_map_names_resolve():
    names, tests = MAP_NAME.findall(malab.__doc__), MAP_TEST.findall(malab.__doc__)
    assert names and tests
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(f"malab.{mod}"), name)]
    for file, name in tests:
        tree = ast.parse((ROOT / "tests" / file).read_text())
        if name not in {n.name for n in tree.body
                        if isinstance(n, ast.FunctionDef)}:
            missing.append(f"{file}::{name}")
    assert not missing


def _public_names(path: pathlib.Path) -> list:
    """Top-level functions, classes and assigned names without a leading _."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in out if not n.startswith("_")]


def _referenced(paths, strings: bool = False) -> set:
    """Every bare name, attribute and imported name the files use, and with
    strings every string constant (perfbench's tracer names its targets)."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                out.add(node.value)
    return out


def test_every_public_name_is_needed():
    # one hop: named on the map, used by another module of malab, or used
    # by the benchmark; a name only its own tests call is not needed
    needed = ({name for _, name in MAP_NAME.findall(malab.__doc__)}
              | _referenced((ROOT / "perfbench").glob("*.py"), strings=True))
    unneeded = []
    for mod in MODULES:
        others = _referenced(SRC / f"{m}.py" for m in MODULES if m != mod)
        unneeded += [f"{mod}.{name}" for name in _public_names(SRC / f"{mod}.py")
                     if name not in needed | others]
    assert not unneeded
