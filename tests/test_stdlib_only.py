"""The package imports nothing outside the Python standard library, its
import stays cheap, each public name is declared once by the module that
defines it, and no module imports a name it never uses."""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import weyldecomp

SOURCES = sorted(Path(weyldecomp.__file__).parent.glob("*.py"))
# The modules whose public names the package re-exports.
MODULES = ["decompose", "errors", "rootsys", "weyl", "words"]


def test_package_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
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


def _top_level_names(path: Path) -> set[str]:
    """The names a module's own top-level defs, classes and assignments bind."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_is_declared_once_by_the_module_that_defines_it():
    exported = weyldecomp.__all__
    assert len(set(exported)) == len(exported)
    bound: dict = {}
    exec("from weyldecomp import *", bound)
    assert set(bound) - {"__builtins__"} == set(exported)
    listed: Counter[str] = Counter()
    for name in MODULES:
        module = importlib.import_module(f"weyldecomp.{name}")
        defined = _top_level_names(Path(module.__file__))
        for public in module.__all__:
            assert public in defined, f"{name}.__all__ lists {public}, defined elsewhere"
            assert getattr(weyldecomp, public) is getattr(module, public)
        listed.update(module.__all__)
    assert [name for name, k in listed.items() if k > 1] == []
    assert sorted(listed) == sorted(exported)


def test_no_module_imports_a_name_it_never_uses():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "*":  # the package's re-exports
                        imported.add(alias.asname or alias.name.split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:  # a name a literal __all__ lists is used as an export
            if isinstance(node, ast.Assign) and "__all__" in [ast.unparse(t) for t in node.targets]:
                used.update(ast.literal_eval(node.value))
        assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"
