"""Rules on the package source that no runtime test can see, checked on the
parsed modules of src/telebound and, for the export lists, on the package
they make up."""

import ast
import importlib
from pathlib import Path

import telebound

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "telebound"
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES}
SUBMODULES = [path for path in MODULES if path.stem != "__init__"]
# The modules whose __all__ the package re-exports: all but the CLI.
LIBRARY = [path for path in SUBMODULES if path.stem != "cli"]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _private(name):
    """Leading underscore, except dunders such as __all__, which are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _calls(node, func=None):
    """(innermost enclosing function name, call) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield func, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _calls(child, inner)


def test_no_module_uses_another_modules_private_names():
    found = []
    for path in MODULES:
        tree = _tree(path)
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "telebound":
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module in (None, "telebound") and alias.name in MODULE_NAMES:
                    modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    assert found == []


def test_random_streams_are_built_only_by_seeded_stream():
    found = []
    for path in MODULES:
        for func, call in _calls(_tree(path)):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name in ("Philox", "SeedSequence") and (path.stem, func) != ("core", "seeded_stream"):
                found.append(f"{path.name}:{call.lineno} calls {name} in {func}")
    assert found == []


def _declared(tree):
    """The module's __all__ list and the names its top level defines
    (assignments, functions and classes; imports do not count)."""
    exported, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name):
                defined.add(target.id)
                if target.id == "__all__" and isinstance(node.value, ast.List):
                    exported = [ast.literal_eval(elt) for elt in node.value.elts]
    return exported, defined


def test_every_exported_name_is_defined_in_its_module():
    found = []
    for path in SUBMODULES:
        exported, defined = _declared(_tree(path))
        found += [f"{path.name} exports {name} but does not define it"
                  for name in exported if name not in defined]
    assert found == []


def test_no_name_is_exported_by_two_modules():
    owners = {}
    for path in SUBMODULES:
        for name in _declared(_tree(path))[0]:
            owners.setdefault(name, []).append(path.stem)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_package_exports_are_the_objects_their_modules_define():
    owner = {name: path.stem for path in LIBRARY for name in _declared(_tree(path))[0]}
    assert sorted(telebound.__all__) == sorted(owner)
    found = []
    for name in telebound.__all__:
        module = importlib.import_module(f"telebound.{owner[name]}")
        if getattr(telebound, name) is not getattr(module, name):
            found.append(f"telebound.{name} is not telebound.{owner[name]}.{name}")
    assert found == []
