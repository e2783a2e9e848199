"""Library modules import each other at module level only.

A function-level import hides a dependency, and one that breaks an import
cycle hides the cycle.  The one exception is ``projective.collinear``'s
import of ``matrices``: ``matrices`` imports ``projective`` at module level,
so ``projective`` cannot import ``matrices`` at module level in turn.
"""

import ast
from pathlib import Path

import troplane

ALLOWED = {("projective", "collinear", ".matrices")}


def _imported(node):
    """The troplane modules an import statement names, as written."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = ["." * node.level + (node.module or "")]
    else:
        return []
    return [n for n in names if n.startswith(".") or n == "troplane"
            or n.startswith("troplane.")]


def test_no_function_level_troplane_imports():
    found = set()
    for path in Path(troplane.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.stem, fn.name, name)
                          for node in ast.walk(fn) for name in _imported(node)}
    assert found == ALLOWED
