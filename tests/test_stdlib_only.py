"""The package imports nothing outside the Python standard library."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import weyldecomp


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(weyldecomp.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
