"""The public surface of the package and the hygiene of its sources."""

import ast
import re
import sys
from pathlib import Path

import pytest

import stemgrow

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # `from stemgrow import *` fails on a stale entry in __all__
    missing = [name for name in stemgrow.__all__ if not hasattr(stemgrow, name)]
    assert missing == []
    namespace = {}
    exec("from stemgrow import *", namespace)
    assert set(stemgrow.__all__) <= set(namespace)


def _unused_imports(path):
    """Names a module imports at top level but never mentions again."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # package __init__ modules import names only to re-export them
    files = sorted((ROOT / "src" / "stemgrow").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [
        entry for path in files if path.name != "__init__.py" for entry in _unused_imports(path)
    ]
    assert unused == []


def test_declared_dependencies_match_imports():
    # a third-party module the package imports must be installed with it
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (ROOT / "src" / "stemgrow").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"stemgrow"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == declared == {"numpy", "orjson"}
