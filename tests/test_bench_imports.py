"""Every name that the benchmark imports from the package resolves.

``bench/`` imports its references (``min_of_independent``,
``surrogate_dist``, ...) from ``src/``; a name removed from the package
would break ``bench/run.py`` at its first op.  The benchmark is parsed, not
imported, so this runs without its dependencies.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from pandora_hedge[.<module>] import
    <name>`` and ``import pandora_hedge.<module>`` in ``bench/*.py``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pandora_hedge":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names if alias.name.startswith("pandora_hedge")]
    return found


def test_the_benchmark_imports_from_the_package():
    modules = {module for _, module, _ in bench_imports()}
    assert "pandora_hedge.distkit" in modules and "pandora_hedge.cli" in modules


@pytest.mark.parametrize("file, module, name", bench_imports())
def test_each_benchmark_import_resolves(file, module, name):
    target = importlib.import_module(module)
    if name is not None:  # an attribute of the module, or a submodule of the package
        submodule = hasattr(target, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        assert hasattr(target, name) or submodule, f"{file} imports {name} from {module}"
