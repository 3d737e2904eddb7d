"""The demos name only what the package defines and call it with keywords it
takes (they are not run here)."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(tree: ast.Module):
    """Local names bound to spherewave: {alias: module} for every imported
    spherewave module and {name: (module, name)} for every
    `from spherewave... import <name>`."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spherewave":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spherewave":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


def package_names(tree: ast.Module):
    """(module, name) for every `alias.<name>` of an imported spherewave module
    and every `from spherewave... import <name>`."""
    modules, names = package_imports(tree)
    yield from names.values()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


def package_calls(tree: ast.Module):
    """(call, callable) for every call of a package function, class or class
    attribute reached through an import; calls on instances are skipped."""
    modules, names = package_imports(tree)

    def resolve(node):
        if isinstance(node, ast.Name):
            if node.id in modules:
                return importlib.import_module(modules[node.id])
            if node.id in names:
                module, name = names[node.id]
                return getattr(importlib.import_module(module), name, None)
        elif isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if inspect.ismodule(owner) or inspect.isclass(owner):
                return getattr(owner, node.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = resolve(node.func)
            if callable(target) and not inspect.ismodule(target):
                yield node, target


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_names_resolve(demo):
    names = list(package_names(ast.parse(demo.read_text())))
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{demo.name} uses undefined names: {missing}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_keywords_exist(demo):
    calls = list(package_calls(ast.parse(demo.read_text())))
    assert calls
    wrong = []
    for call, target in calls:
        # `**kwargs` (arg None) cannot be checked statically
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        try:
            inspect.signature(target).bind_partial(**keywords)
        except TypeError as exc:
            wrong.append(f"line {call.lineno}: {ast.unparse(call.func)}: {exc}")
    assert not wrong, f"{demo.name} calls with keywords the package does not take: {wrong}"
