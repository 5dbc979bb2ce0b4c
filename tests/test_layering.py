"""The intra-package import graph of cayleyclass, read with ``ast``.

Function-local imports count too, so an import that only dodges a cycle
at load time still shows up here.
"""

import ast
from pathlib import Path

from test_bench_spans import load_layers

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cayleyclass"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def module_level_nodes(tree):
    """The nodes ast.walk yields, but for those inside a function body:
    what runs when the module is imported."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def package_imports(name, module_level=False):
    """Modules of the package that the module imports anywhere in its
    body, or with module_level only outside its functions."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in (module_level_nodes if module_level else ast.walk)(tree):
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


def test_the_classifier_core_loads_no_presentation_or_theorem_module():
    # import cayleyclass and import cayleyclass.cli load the core alone, so
    # a classify run never compiles presentations or dicyclic_theory; the
    # commands that use them import them in their bodies
    core = ("__init__", "words", "groups", "cayley", "iso", "classify", "cli")
    for name in core:
        assert not package_imports(name, module_level=True) & {"presentations",
                                                               "dicyclic_theory"}, name
    assert {"presentations", "dicyclic_theory"} <= package_imports("cli")


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


def test_no_module_scans_characters_by_hand():
    # names, integers and cycles are the patterns of words; a str.isdigit
    # loop accepts digits int() rejects, and a copy of the name set
    # drifts from words.NAME
    banned_calls = {"isdigit", "isspace", "isalpha", "isalnum"}
    banned_names = {"_NAME_START", "_NAME_CHARS"}
    for path in sorted(PACKAGE.parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = (str(path.relative_to(PACKAGE.parent)), getattr(node, "lineno", None))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in banned_calls, where
            assert getattr(node, "id", None) not in banned_names, where
            assert getattr(node, "attr", None) not in banned_names, where


def test_only_words_reads_its_private_names():
    for name in MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        private = sorted(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                         and isinstance(node.value, ast.Name) and node.value.id == "words")
        assert not private, (name, private)


def test_only_groups_reads_the_private_fields_of_a_group():
    # the table, the inverses, the spanning tree, the element orders and
    # Aut(G) are derived inside groups; other modules ask the group (row,
    # inv, mul) or group_automorphisms
    fields = {"_table", "_inv_table", "_mul_fn", "_steps", "_tree", "_orders",
              "_automorphisms"}
    for path in sorted(PACKAGE.parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "attr", None) for node in ast.walk(tree)}
        names |= {getattr(node, "id", None) for node in ast.walk(tree)}
        names |= {getattr(node, "name", None) for node in ast.walk(tree)}
        where = str(path.relative_to(PACKAGE.parent))
        assert not names & {"left_row", "_inv_fn"}, where
        if path != PACKAGE / "groups.py":
            assert not names & fields, where


def test_a_word_is_its_letters_everywhere():
    # a word is held as its letters, 2g and 2g+1, from the parser to the
    # coset table: no module converts to or from (generator, exponent)
    # syllables
    banned = {"letters_to_syllables", "syllables_to_letters", "_letter_indices", "syllables"}
    for path in sorted(PACKAGE.parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            names |= {getattr(node, field, None) for field in ("id", "attr", "name", "arg")}
        assert not names & banned, str(path.relative_to(PACKAGE.parent))


def test_the_order_route_over_a_cyclic_subgroup_is_gone():
    # group_order proves an order over all generators but the last by
    # Schreier-Sims; the cyclic subgroup <u> and the prime test of the
    # order of u's permutation are gone
    for path in sorted(PACKAGE.parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            names |= {getattr(node, field, None) for field in ("id", "attr", "name")}
        assert not names & {"_cyclic_subgroup", "_prime_factors"}, str(path.relative_to(PACKAGE.parent))


def test_only_the_group_class_reads_its_table():
    # extend_subgroup maps a coset through a row, with or without a table,
    # so nothing outside FiniteGroup branches on the table
    tree = ast.parse((PACKAGE / "groups.py").read_text(encoding="utf-8"))
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "FiniteGroup":
            inside = {id(n) for n in ast.walk(node)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_table"]
    assert inside and reads
    outside = [node.lineno for node in reads if id(node) not in inside]
    assert not outside, outside


# public definitions that nothing in src/ calls, each with why it stays:
# the closed forms of dicyclic_theory state the paper's lemmas, which the
# tests confront with the classifier
UNCALLED = {
    "generates_pair_xx": "when (a^k*x, a^m*x) generates: gcd(n, k - m) = 1",
    "generates_pair_ax": "when (a^k, a^m*x) generates: gcd(n, k) = 1",
    "same_class_xx": "when two generating pairs (a^k*x, a^m*x) share a class",
    "order_constraint_ax": "the order of a^k in a generating pair (a^k, a^m*x)",
}


def local_names(tree):
    """Ids of the Name nodes that name a binding of the function they are
    in (a parameter, or a name it or a function inside it assigns), not
    a module-level definition."""
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
            names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
            bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
            local.update(id(n) for n in names if n.id in bound)
    return local


def test_every_public_definition_has_a_caller():
    # every public module-level function and class is referenced, by name,
    # in src/ outside its own definition, or traced by the benchmark's
    # bench/spans.py LAYERS, or listed in UNCALLED: src/ holds no code
    # that only tests call.  The package's re-exports are no reference,
    # and neither is a parameter or local variable of the same name.
    traced = {(module, attribute) for module, attribute, _, _ in load_layers()}
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in MODULES}
    references: dict[str, list[int]] = {}  # name -> ids of the nodes naming it
    for name, tree in trees.items():
        if name == "__init__":
            continue
        local = local_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in local:
                references.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append(id(node))
    defined, uncalled = set(), []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.add(node.name)
                inside = {id(n) for n in ast.walk(node)}
                if (not any(ref not in inside for ref in references.get(node.name, ()))
                        and (name, node.name) not in traced and node.name not in UNCALLED):
                    uncalled.append(f"{name}.{node.name}")
    assert not uncalled, uncalled
    assert set(UNCALLED) <= defined
