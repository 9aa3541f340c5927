"""The package's module graph: relative imports never form a cycle."""

from __future__ import annotations

import ast
from pathlib import Path

import coincalc

PACKAGE = Path(coincalc.__file__).resolve().parent
ENTRY_POINTS = ("__init__", "__main__")  # they import the layers, nothing imports them


def _imports(path: Path) -> set[str]:
    """The sibling modules ``path`` imports relatively, function-local
    imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_relative_imports_are_acyclic():
    graph = {path.stem: _imports(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.stem not in ENTRY_POINTS}
    assert graph["homotopy_db"] and graph["coincidence"]
    # depth-first search; a module met again while still open closes a cycle
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]):
        assert module not in path, f"import cycle: {' -> '.join(path + (module,))}"
        if module in done:
            return
        for target in sorted(graph.get(module, ())):
            visit(target, path + (module,))
        done.add(module)

    for module in graph:
        visit(module, ())
