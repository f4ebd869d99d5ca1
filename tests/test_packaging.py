"""Packaging metadata: every declared console script resolves."""

import importlib
import pathlib
import tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_project_scripts_import_and_are_callable():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        func = getattr(importlib.import_module(module), attr)
        assert callable(func), name
