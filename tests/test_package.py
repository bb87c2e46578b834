"""Package-level promises: the README's library example runs as written,
and the package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import stabledistrict

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
