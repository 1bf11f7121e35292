"""Every module-level import of the package is used by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isocomb"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name counts as read when it appears as a name anywhere in the module,
    including inside quoted annotations; ``__future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    annotations = [
        n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))
    ] + [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    quoted = [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    read = {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport os.path\n"
        "from .a import B, C\n"
        "def f(x: 'C') -> None:\n    return np.pi\n"
    )
    assert unused_imports(source) == ["os", "os", "B"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
