"""The package's modules import one another in one order.

Each module may import only modules before it in LAYERS: the solver knows
nothing of the cost (optim), the problems (presets) or the checks (verify).
Imports under `if TYPE_CHECKING:` are for annotations only and do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tumorctrl"

LAYERS = ("forking", "fields", "model", "solver", "sparsity", "presets",
          "optim", "verify", "runner", "cli")


def _runtime_imports(tree: ast.Module) -> set:
    """Names of the package modules a module imports outside TYPE_CHECKING
    blocks, from its `from .x import` and `from . import x` lines."""
    found = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                    and node.test.id == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    found.update(a.name for a in node.names)
                else:
                    found.add(node.module.split(".")[0])
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, ()))

    visit(tree.body)
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    upward = []
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        upward += [(name, dep) for dep in sorted(_runtime_imports(tree))
                   if LAYERS.index(dep) >= LAYERS.index(name)]
    assert upward == []
