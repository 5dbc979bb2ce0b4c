"""The intra-package import graph of cayleyclass, read with ``ast``.

Function-local imports count too, so an import that only dodges a cycle
at load time still shows up here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cayleyclass"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_imports(name):
    """Modules of the package that the module imports anywhere in its body."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "cayleyclass":
                    continue
                target = parts[1:]
            else:
                target = (node.module or "").split(".") if node.module else []
            if target:
                found.add(target[0])
            else:
                # "from . import words": the names are the modules
                found.update(alias.name for alias in node.names if alias.name in MODULES)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "cayleyclass" and len(parts) > 1:
                    found.add(parts[1])
    found.discard(name)
    return found


def test_every_import_names_a_module_of_the_package():
    for name in MODULES:
        assert package_imports(name) <= set(MODULES), name


def test_package_import_graph_has_no_cycle():
    graph = {name: package_imports(name) for name in MODULES}
    state = {}  # name -> "open" while on the path, "done" after

    def visit(name, path):
        if state.get(name) == "open":
            raise AssertionError("import cycle: " + " -> ".join(path + [name]))
        if state.get(name) == "done":
            return
        state[name] = "open"
        for target in sorted(graph[name]):
            visit(target, path + [name])
        state[name] = "done"

    for name in MODULES:
        visit(name, [])


def test_groups_imports_only_words():
    assert package_imports("groups") == {"words"}


def test_theory_places_representatives_without_graphs():
    assert not package_imports("dicyclic_theory") & {"cayley", "iso"}


def test_no_module_asserts():
    # checks must survive python -O, which strips assert statements; every
    # file under src/ counts, not only the package's top-level modules
    sources = sorted(PACKAGE.parent.rglob("*.py"))
    assert PACKAGE / "groups.py" in sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, (str(path.relative_to(PACKAGE.parent)), lines)
