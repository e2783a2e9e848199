"""Library modules import each other at module level only, and a command
loads only the modules it runs.

A function-level import hides a dependency, and one that breaks an import
cycle hides the cycle.  The one exception is ``cli``'s imports of ``verify``
(in ``cmd_verify``) and ``svgfig`` (in ``cmd_figure`` and
``_parse_viewport``), for cold start: ``troplane analyze`` then neither
compiles them nor loads ``randgen`` and ``random``.

``test_import_closure`` checks the cold-start side in a fresh interpreter:
what ``import troplane.cli`` and ``import troplane`` load, and that the
package's lazy exports are the defining modules' own objects.
"""

import ast
import subprocess
import sys
from pathlib import Path

import troplane

ALLOWED = {
    ("cli", "cmd_verify", ".verify"),
    ("cli", "cmd_figure", ".svgfig"),
    ("cli", "_parse_viewport", ".svgfig"),
}


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


_CLOSURE = """
import sys
sys.path.insert(0, sys.argv[1])

import troplane
assert [m for m in sys.modules if m.startswith("troplane.")] == [], \\
    "import troplane loaded a submodule"

import troplane.cli
loaded = {"troplane.verify", "troplane.randgen", "troplane.svgfig",
          "dataclasses", "typing", "random", "inspect"} & set(sys.modules)
assert not loaded, f"import troplane.cli loaded {sorted(loaded)}"

import importlib
for name in troplane.__all__:
    obj = getattr(troplane, name)
    module = importlib.import_module(obj.__module__)  # where it is defined
    assert obj is getattr(module, name), name
print(len(troplane.__all__))
"""


def test_import_closure():
    src = Path(troplane.__file__).parent.parent
    out = subprocess.run([sys.executable, "-S", "-c", _CLOSURE, str(src)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["53"]
