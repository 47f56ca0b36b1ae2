"""The coxkl import graph, read from the source with ast: every import of
a coxkl module sits at module level, and no two modules import each
other, directly or through others."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxkl"
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _coxkl_imports(node):
    """The coxkl modules that one import statement names."""
    if isinstance(node, ast.Import):
        return {
            alias.name.split(".")[1] if "." in alias.name else "__init__"
            for alias in node.names
            if alias.name.split(".")[0] == "coxkl"
        }
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "coxkl":
                return set()
            module = module[len("coxkl."):] if "." in module else ""
        if module:
            return {module.split(".")[0]}
        # "from . import x": x is a module, or a name of the package
        return {a.name if a.name in MODULES else "__init__" for a in node.names}
    return set()


def _graph():
    """(module -> coxkl modules it imports, imports found in a function body)."""
    edges, nested = {}, []
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        edges[name] = set()
        for node in ast.walk(tree):
            edges[name] |= _coxkl_imports(node)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    found = _coxkl_imports(node)
                    if found:
                        nested.append((name, fn.name, sorted(found)))
    return edges, nested


def test_graph_reader_sees_imports():
    edges, _ = _graph()
    assert {"core", "bruhat", "invariance", "extension"} <= edges["__init__"]
    assert "core" in edges["bruhat"]
    tree = ast.parse("def f():\n    from .extension import lift\n    import mpmath\n")
    found = [_coxkl_imports(node) for node in ast.walk(tree)]
    assert {"extension"} in found and all(f <= {"extension"} for f in found)


def test_no_function_imports_a_coxkl_module():
    # a third-party import inside a function (mpmath in
    # CyclotomicRing._sign_slow) is allowed
    _, nested = _graph()
    assert nested == []


def test_import_graph_has_no_cycle():
    edges, _ = _graph()
    done, path = set(), []

    def visit(name):
        if name in path:
            return path[path.index(name):] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in sorted(edges.get(name, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(name)
        return None

    for name in sorted(edges):
        cycle = visit(name)
        assert cycle is None, " -> ".join(cycle)
