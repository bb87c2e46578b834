"""Package-level promises: the README's library example runs as written,
the package root exports what its callers use, and the package imports
nothing outside the standard library."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import stabledistrict
from stabledistrict import render_svg
from stabledistrict.render import district_color

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(stabledistrict.__file__).parent


def test_the_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_the_package_imports_only_the_standard_library():
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def test_only_the_cli_opens_files():
    # Inputs are read through cli._text_lines; outputs are checked by
    # cli._check_outputs and written by cli._write_text. The library takes
    # strings and streams.
    openers = set()
    for path in PACKAGE.glob("*.py"):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    openers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert openers == {"cli._text_lines", "cli._write_text", "cli._check_outputs"}


def test_every_root_export_resolves():
    assert len(set(stabledistrict.__all__)) == len(stabledistrict.__all__)
    for name in stabledistrict.__all__:
        assert getattr(stabledistrict, name) is not None, name


@pytest.mark.parametrize("module, name", [
    ("bench", "BenchRecord"),
    ("circle", "CircleRun"),
    ("nnc", "DnnOracle"),
    ("nnc", "NncRun"),
    ("gale_shapley", "PreferenceTables"),
])
def test_per_solver_types_live_in_their_modules_only(module, name):
    assert name not in stabledistrict.__all__
    assert not hasattr(stabledistrict, name)
    assert hasattr(importlib.import_module(f"stabledistrict.{module}"), name)


def test_maps_are_drawn_at_one_fixed_geometry():
    assert list(inspect.signature(render_svg).parameters) == ["inst", "a"]
    assert list(inspect.signature(district_color).parameters) == ["center_index"]
    assert not hasattr(stabledistrict, "SvgOptions")
    assert not hasattr(stabledistrict.render, "SvgOptions")
