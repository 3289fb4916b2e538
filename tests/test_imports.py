"""Every name a module of the package imports is used there or exported,
and every name it defines is read somewhere."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "agentmesh"

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


def defined_names(source: str) -> list[str]:
    """The names a module's top-level statements bind by def, class or
    assignment, dunders aside, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Every name the source loads, takes as an attribute, imports by name,
    or reads in an annotation."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _names_in_annotation(node.returns)
    return read


def unread_definitions(definitions: dict[str, str], readers: list[str],
                       entry_points: set[str]) -> list[str]:
    """`module.name` for each module-level name of `definitions` (module ->
    source) that no source in `readers` reads and no entry point names."""
    read = set(entry_points)
    for source in readers:
        read |= names_read(source)
    return [
        f"{module}.{name}"
        for module, source in sorted(definitions.items())
        for name in defined_names(source)
        if name not in read
    ]


def test_every_name_the_package_defines_is_read():
    definitions = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = [
        p.read_text(encoding="utf-8")
        for tree in ("src", "tests", "bench")
        for p in sorted((ROOT / tree).rglob("*.py"))
    ]
    # the functions [project.scripts] names, as in `agentmesh = "agentmesh.cli:main"`
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entry_points = set(re.findall(r':(\w+)"', scripts))
    assert entry_points
    assert unread_definitions(definitions, readers, entry_points) == []


def test_only_identity_reads_the_verify_pool():
    """identity.hand_ahead alone decides what goes to the pool: no other
    module reads the pool or asks whether the backend's calls overlap."""
    pool_names = {"verify_pool", "VerifyPool", "verifies_overlap"}
    readers = {
        path.stem: sorted(names_read(path.read_text(encoding="utf-8")) & pool_names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "identity"
    }
    assert {module: names for module, names in readers.items() if names} == {}


def test_the_check_sees_a_name_left_behind():
    module = (
        "import json\n"
        "KEPT: int = 1\n"
        "ORPHAN = (1, 2)\n"
        "__all__ = []\n"
        "def main(): pass\n"
        "def helper() -> 'Kind': return KEPT\n"
        "class Kind: pass\n"
        "class Dead: pass\n"
    )
    reader = "from mod import helper\n"
    assert unread_definitions({"mod": module}, [module, reader], {"main"}) == [
        "mod.ORPHAN",
        "mod.Dead",
    ]
