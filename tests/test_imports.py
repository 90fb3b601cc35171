"""Every imported name is used: a stdlib ``ast`` scan of the repository.

A name imported by a module under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/``, or by the root ``conftest.py``, must be read in that module,
listed in its ``__all__``, or named in a quoted annotation.  An import kept
for its side effect (registering job kinds or world families) carries
``# noqa: F401``; package ``__init__.py`` files, whose imports are
re-exports, are not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")


def _modules() -> Iterator[Path]:
    yield ROOT / "conftest.py"
    for top in SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _quoted_names(annotation: ast.AST) -> Set[str]:
    """Names read by the string annotations inside ``annotation``."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            }
    return set()


def unused_imports(source: str) -> List[str]:
    """The names ``source`` imports and never uses, as ``"line: name"``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    for annotation in _annotations(tree):
        used |= _quoted_names(annotation)
    return [f"{line}: {name}" for line, name in imported if name not in used]


def test_the_scan_finds_unused_names_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy as np\n"
        "import repro.worlds.registry  # noqa: F401\n"
        "from typing import List, Optional\n"
        "from a import (\n"
        "    b,\n"
        "    c,\n"
        ")\n"
        "__all__ = ['c']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return sys.maxsize + np.pi\n"
    )
    assert unused_imports(source) == ["2: os", "5: List", "6: b"]


@pytest.mark.parametrize(
    "path", list(_modules()), ids=lambda path: str(path.relative_to(ROOT))
)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
