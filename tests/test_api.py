"""Every public name a module exports resolves; every name a module imports is used;
every keyword-only option is set by some caller; only fields applies A_h, contracts
and crosses fields; each solver has one stepping loop."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spherewave

MODULES = sorted(info.name for info in pkgutil.iter_modules(spherewave.__path__))


def test_modules_found():
    assert "study" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"spherewave.{name}")
    exported = getattr(module, "__all__", ())
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"spherewave.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # a name a module imports is read in it or re-exported through __all__;
    # deleting the last reader of an import must delete the import too
    tree = ast.parse(Path(spherewave.__path__[0], f"{name}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(importlib.import_module(f"spherewave.{name}"), "__all__", ()))
    unused = sorted(imported - used - exported)
    assert not unused, f"spherewave.{name} imports unused names {unused}"


# Parameters a function may take without reading them: a leading underscore
# marks a slot that the caller fills for every entry of a table (the checks'
# rng streams);
# config.limit_params_from keeps `basis` while the benchmark harness
# (benchmarks/workloads.py::expected) still passes it.
UNREAD_PARAMETERS = {("config", "limit_params_from", "basis")}


def _parameters(args: ast.arguments) -> list[str]:
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [param.arg for param in params if param is not None]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_parameters(name):
    # every parameter of a function or lambda is read in its body, nested
    # functions included; self and cls are the receiver, not an input
    tree = ast.parse(Path(spherewave.__path__[0], f"{name}.py").read_text())
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
        label = getattr(node, "name", "<lambda>")
        unread += [(name, label, param) for param in _parameters(node.args)
                   if param not in read and param not in ("self", "cls")
                   and not param.startswith("_") and (name, label, param) not in UNREAD_PARAMETERS]
    assert not unread, f"spherewave.{name} has parameters no body reads: {unread}"


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_keyword_options_are_set():
    # every keyword-only parameter of a package function is passed by name in
    # some call of the repository's code, outside that function's own body; an
    # __init__ counts the calls of its class.  An option no caller sets is a
    # branch no run takes: delete it
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "tests", "demos", "benchmarks")
             for path in sorted((root / folder).rglob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = []
    for path, tree in trees.items():
        if path.parent != root / "src" / "spherewave":
            continue
        owners = {child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or not node.args.kwonlyargs:
                continue
            init = node.name == "__init__"
            callee = owners[node] if init else node.name
            own = {id(sub) for sub in ast.walk(node)}
            passed = {keyword.arg for call in calls
                      if id(call) not in own and _call_name(call) == callee
                      for keyword in call.keywords}
            label = f"{callee}.__init__" if init else callee
            unset += [(path.stem, label, param.arg) for param in node.args.kwonlyargs
                      if param.arg not in passed]
    assert not unset, f"keyword-only parameters no call sets: {unset}"


@pytest.mark.parametrize("name", MODULES)
def test_no_scipy_import_statement(name):
    # fields loads the three compiled routines it needs from scipy's
    # extension files; importing a scipy package costs most of a cold start.
    # jsonschema is no dependency: config walks a document itself
    tree = ast.parse(Path(spherewave.__path__[0], f"{name}.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [mod for mod in imported if mod.split(".")[0] in ("scipy", "jsonschema")]


def test_cold_import_loads_no_scipy_package():
    # a fresh interpreter importing the CLI maps neither scipy.fft (with
    # scipy.special) nor scipy.linalg, nor the check suite, nor jsonschema,
    # and warns nothing
    heavy = ("scipy.fft", "scipy.special", "scipy.linalg", "spherewave.checks", "jsonschema")
    code = ("import sys, spherewave, spherewave.cli;"
            f" print(sorted(m for m in {heavy!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, cwd=Path(spherewave.__path__[0]).parent, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n" and done.stderr == ""


def _bound(node):
    # a slice bound as written: None when absent, its value when a literal
    try:
        return None if node is None else ast.literal_eval(node)
    except ValueError:
        return node


def _whole_axes(node) -> bool:
    return ((isinstance(node, ast.Constant) and node.value is Ellipsis)
            or (isinstance(node, ast.Slice) and node.lower is node.upper is node.step is None))


def _neighbour_slice(node) -> bool:
    return (isinstance(node, ast.Slice) and node.step is None
            and (_bound(node.lower), _bound(node.upper)) in ((1, None), (None, -1)))


def test_second_difference_has_one_owner():
    # A_h is applied in fields alone: no other module shifts node rows by one
    # (x[..., 1:], x[:, :-1]), the neighbour reads of a second copy of the stencil
    shifted = []
    for name in MODULES:
        tree = ast.parse(Path(spherewave.__path__[0], f"{name}.py").read_text())
        shifted += [f"{name}.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
                    if name != "fields" and isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Tuple)
                    and any(_whole_axes(a) and _neighbour_slice(b)
                            for a, b in zip(node.slice.elts, node.slice.elts[1:]))]
    assert not shifted, f"node rows shifted outside fields: {shifted}"


def _component_gather(call: ast.Call) -> bool:
    # a take along the component axis: x.take(rows, axis=-2) or np.take(x, rows, axis=-2)
    if _call_name(call) != "take":
        return False
    axes = [kw.value for kw in call.keywords if kw.arg == "axis"] + call.args[2:3]
    return any(_bound(axis) == -2 for axis in axes)


def test_contractions_have_one_owner():
    # fields decides how a field is summed or crossed, so the float order
    # behind the 1e-12 gates is written once: no other module names numpy's
    # C einsum or gathers component rows for a cross product
    stray = []
    for name in MODULES:
        if name == "fields":
            continue
        tree = ast.parse(Path(spherewave.__path__[0], f"{name}.py").read_text())
        for node in ast.walk(tree):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {alias.name for alias in node.names}
                     if isinstance(node, ast.ImportFrom) else set())
            if "c_einsum" in names or isinstance(node, ast.Call) and _component_gather(node):
                stray.append(f"{name}.py:{node.lineno}: {ast.unparse(node)}")
    assert not stray, f"contractions or component gathers outside fields: {stray}"


# the one caller of each stepping call in the package: limit_rows builds and
# advances every limit flow (_Etd2Flow, and _HeatFlow on the silent basis),
# _HeatFlow.advance alone computes the heat flow's next chunk of steps, and
# SpdeStepper.run steps every stochastic engine
STEPPING_DRIVERS = {"_Etd2Flow": "limit.limit_rows", "_HeatFlow": "limit.limit_rows",
                    "advance": "limit.limit_rows", "_refill": "limit._HeatFlow.advance",
                    "step": "spde.SpdeStepper.run"}


def _calls_by_owner(node, owner):
    # (qualified name of the innermost enclosing def or class, call) for each call
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{owner}.{child.name}"
        elif isinstance(child, ast.Call):
            yield owner, child
        yield from _calls_by_owner(child, name)


def test_each_solver_has_one_stepping_loop():
    # a second loop over a limit flow's advance or SpdeStepper.step is a second
    # copy of the row logic, free to drift from its driver
    stray = []
    for name in MODULES:
        tree = ast.parse(Path(spherewave.__path__[0], f"{name}.py").read_text())
        stray += [f"{owner}: {ast.unparse(call)}" for owner, call in _calls_by_owner(tree, name)
                  if STEPPING_DRIVERS.get(_call_name(call), owner) != owner]
    assert not stray, f"stepping calls outside their driver: {stray}"
