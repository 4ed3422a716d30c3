"""Package hygiene: every exported name exists, and the runtime imports
nothing outside the standard library."""

import ast
import importlib
import os
import pkgutil
import sys

import pytest

import exformal

MODULES = sorted(
    f"exformal.{m.name}" for m in pkgutil.iter_modules(exformal.__path__)
) + ["exformal"]
SOURCES = sorted(
    os.path.join(exformal.__path__[0], f)
    for f in os.listdir(exformal.__path__[0])
    if f.endswith(".py")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_imports_only_stdlib_and_own_modules(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    outside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        outside.update(
            t for t in tops
            if t != "exformal" and t not in sys.stdlib_module_names
        )
    assert not outside, f"{path} imports {sorted(outside)}"
