"""The demos name only what the package defines (they are not run here)."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_names(tree: ast.Module):
    """(module, name) for every `alias.<name>` of an imported spherewave module
    and every `from spherewave... import <name>`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spherewave":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spherewave":
            for alias in node.names:
                yield node.module, alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_names_resolve(demo):
    names = list(package_names(ast.parse(demo.read_text())))
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{demo.name} uses undefined names: {missing}"
