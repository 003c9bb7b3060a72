"""The package's internal import graph, read from the source with ``ast``."""

import ast
from pathlib import Path

import casimir_lab

SRC = Path(casimir_lab.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = ("casimir_lab",) + path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _internal_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules ``path`` imports, at any depth of its syntax tree."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                # "from . import kernels" imports a module; "from .x import f" imports x
                found.add(f"{base}.{alias.name}" if f"{base}.{alias.name}" in modules else base)
    return found & modules


def _graph() -> dict[str, set[str]]:
    paths = sorted(SRC.rglob("*.py"))
    modules = {_module_name(p) for p in paths}
    return {_module_name(p): _internal_imports(p, modules) for p in paths}


def test_graph_resolves_relative_imports():
    graph = _graph()
    assert "casimir_lab.forms3.grid" in graph["casimir_lab.fluid"]
    assert "casimir_lab.kernels" in graph["casimir_lab.forms3.sampling"]
    assert "casimir_lab.fluid" in graph["casimir_lab.foliation"]


def test_internal_imports_have_no_cycle():
    graph, done, path = _graph(), set(), []

    def visit(module):
        if module in path:
            raise AssertionError(" -> ".join(path[path.index(module):] + [module]))
        if module in done:
            return
        path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
