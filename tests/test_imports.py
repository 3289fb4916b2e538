"""Every name a module of the package imports is used there or exported."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "agentmesh"

# bench/tests/test_bench.py looks verify_digest up on each of these modules,
# to check that the tracer patches every binding site and puts it back
KEPT_FOR_THE_TRACER = {
    ("contractnet", "verify_digest"),
    ("mailbox", "verify_digest"),
    ("registry", "verify_digest"),
    ("wire", "verify_digest"),
}


def _names_in_annotation(node: ast.AST) -> set[str]:
    """Names an annotation reads, also inside a quoted one."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in_annotation(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """Imported names the source neither reads nor lists in __all__, in
    import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in_annotation(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_a_module_imports_only_what_it_uses(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    kept = sorted(name for module, name in KEPT_FOR_THE_TRACER if module == path.stem)
    assert unused == kept


def test_the_check_sees_an_import_left_behind():
    source = (
        "from .ledger import InsufficientFunds, Ledger\n"
        "import hashlib, os.path as osp\n"
        "from typing import Sequence\n"
        "__all__ = ['hashlib']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    osp.join()\n"
    )
    assert unused_imports(source) == ["InsufficientFunds", "Ledger"]
