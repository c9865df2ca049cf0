"""The package imports nothing outside the Python standard library, and
its import stays cheap."""
from __future__ import annotations

import ast
import os
import subprocess
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


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Together about 15 ms of start-up, more than the whole package needs.
    # -S keeps site's own imports out of the check.
    env = {**os.environ, "PYTHONPATH": str(Path(weyldecomp.__file__).parents[1])}
    probe = (
        "import sys, weyldecomp.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert loaded.stdout == "[]\n"
