"""Rules on the package source that no runtime test can see, checked on the
parsed modules of src/telebound."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "telebound"
MODULES = sorted(PACKAGE.glob("*.py"))
MODULE_NAMES = {path.stem for path in MODULES}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


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
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module in (None, "telebound") and alias.name in MODULE_NAMES:
                    modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")):
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
