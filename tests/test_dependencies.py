import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_packages() -> set[str]:
    """Top-level names of every absolute import in the package's modules,
    including imports inside functions."""
    names = set()
    for path in (ROOT / "src" / "sympac").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"sympac"}
    assert third_party == declared == {"numpy"}
