"""Rules on the package source that no runtime test can see, checked on the
parsed modules of src/telebound and, for the export lists, on the package
they make up."""

import ast
import importlib
import subprocess
import sys
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


def _nodes(node, kind, func=None):
    """(innermost enclosing function name, node) for every node of the given
    kind under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kind):
            yield func, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _nodes(child, kind, inner)


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
        for func, call in _nodes(_tree(path), ast.Call):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name in ("Philox", "SeedSequence") and (path.stem, func) != ("core", "seeded_stream"):
                found.append(f"{path.name}:{call.lineno} calls {name} in {func}")
    assert found == []


def test_random_streams_are_read_front_to_back():
    # Each segment of random draws has a stream of its own, so no stream is
    # moved past draws it has not made.
    found = []
    for path in MODULES:
        for func, call in _nodes(_tree(path), ast.Call):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            if name in ("advance", "random_raw"):
                found.append(f"{path.name}:{call.lineno} calls {name} in {func}")
    assert found == []


def test_only_core_tests_a_strategy_type():
    # A strategy carries its guess factor and kinks, so no other module has
    # to ask which one it holds; the closed form for a gain is the exception.
    found = []
    for path in MODULES:
        if path.stem == "core":
            continue
        for func, call in _nodes(_tree(path), ast.Call):
            if getattr(call.func, "id", None) not in ("isinstance", "issubclass") or len(call.args) != 2:
                continue
            for node in ast.walk(call.args[1]):
                name = getattr(node, "id", getattr(node, "attr", None))
                if name in ("Gain", "RadialCurve") and (path.stem, func, name) != (
                        "quadrature", "decomposition_residual", "Gain"):
                    found.append(f"{path.name}:{call.lineno} tests {name} in {func}")
    assert found == []


def test_cli_builds_strategies_in_one_parser():
    # Every command spells its strategy as a model string, gain:G or
    # curve:FILE, so one function turns the text into a strategy.
    found = []
    for func, call in _nodes(_tree(PACKAGE / "cli.py"), ast.Call):
        name = getattr(call.func, "id", None)
        if name in ("Gain", "_load_curve") and func != "_parse_model":
            found.append(f"cli.py:{call.lineno} calls {name} in {func}")
    assert found == []


def test_text_is_decoded_once_with_surrogateescape():
    # A byte that is not UTF-8 must reach the reader, which names its line
    # with data.utf8_error; no read may fail inside the codec.
    found = []
    for path in MODULES:
        for func, node in _nodes(_tree(path), (ast.Call, ast.ExceptHandler)):
            if isinstance(node, ast.ExceptHandler):
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                for name in {getattr(t, "id", None) for t in types} & {"UnicodeDecodeError", "UnicodeError"}:
                    if (path.stem, func, name) != ("data", "utf8_error", "UnicodeError"):
                        found.append(f"{path.name}:{node.lineno} catches {name} in {func}")
                continue
            if getattr(node.func, "id", None) != "open":
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            errors = keywords.get("errors")
            if not (isinstance(errors, ast.Constant) and errors.value == "surrogateescape"):
                found.append(f"{path.name}:{node.lineno} opens text without errors='surrogateescape'")
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


def _imported_modules(tree):
    """Top-level names of the modules a parsed module imports, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_the_writer_imports_orjson():
    assert {path.stem for path in MODULES if "orjson" in set(_imported_modules(_tree(path)))} == {"data"}


def test_import_leaves_orjson_unloaded():
    # Every CLI call pays the cold import; orjson loads on the first write.
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import telebound; "
            "print('orjson' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "False"
