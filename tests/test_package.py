"""The public surface of the package and the hygiene of its sources."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import stemgrow_env

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


def _third_party_imports(directory):
    """Top-level names of the modules the files of directory import, anywhere in
    their code, less the standard library, the package and the directory's own modules."""
    imported = set()
    paths = sorted(directory.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in paths}
    return imported - set(sys.stdlib_module_names) - {"stemgrow"} - local


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}


def _project():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_declared_dependencies_match_imports():
    # a third-party module the package imports must be installed with it
    declared = _requirement_names(_project()["dependencies"])
    assert _third_party_imports(ROOT / "src" / "stemgrow") == declared == {"numpy", "orjson"}


def test_test_extra_installs_what_the_tests_import():
    # pip install -e ".[test]" must give a suite that collects
    project = _project()
    installed = _requirement_names(project["dependencies"]) | _requirement_names(
        project["optional-dependencies"]["test"]
    )
    assert _third_party_imports(ROOT / "tests") <= installed


def test_command_line_does_not_load_orjson():
    # the writer and the readers import orjson only when they are called, so
    # importing the command line, which every run pays for, does not load it
    code = "import stemgrow.cli, sys; sys.exit(int('orjson' in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=stemgrow_env()
    )
    assert proc.returncode == 0, proc.stderr


def _public_definitions(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _name_counts(node):
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def test_every_public_definition_is_used_or_exported():
    # a public function or class that no other code in the package names,
    # and that the package root does not export, is code only tests need
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src" / "stemgrow").glob("*.py"))
    }
    total = sum((_name_counts(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{node.lineno}: {node.name}"
        for module, tree in trees.items()
        for node in _public_definitions(tree)
        if node.name not in stemgrow.__all__
        and total[node.name] == _name_counts(node)[node.name]
    ]
    assert unused == []
