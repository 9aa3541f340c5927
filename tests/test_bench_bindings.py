"""The names the benchmark in ``bench/`` binds in the package still exist.

``bench/tracer.py`` wraps functions and methods by name, and the other
scripts import from ``coincalc``; a library change that drops one of
those names breaks the benchmark, and these tests catch it here first.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("mod_name, path", [
    (mod, path) for mod, path, _ in TRACER.SPANS + TRACER.COUNTS + TRACER.BUILDS
])
def test_tracer_targets_exist(mod_name, path):
    # the lookup ``Tracer._patch`` does before wrapping
    module = importlib.import_module(f"coincalc.{mod_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in owner.__dict__, f"coincalc.{mod_name}.{path}"


# every script under bench/ that imports from coincalc, at module level or
# inside a function
@pytest.mark.parametrize("script", sorted(
    path.name for path in BENCH.glob("*.py") if "from coincalc" in path.read_text("utf-8")
))
def test_bench_imports_resolve(script):
    tree = ast.parse((BENCH / script).read_text("utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "coincalc"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"

