import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_packages(pattern: str = "*.py") -> set[str]:
    """Top-level names of every absolute import in the package's modules
    that match ``pattern``, including imports inside functions."""
    names = set()
    for path in (ROOT / "src" / "sympac").glob(pattern):
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


@pytest.mark.parametrize("module", ["vocab", "errors", "ingest", "smf", "encoding"])
def test_the_token_layer_imports_no_third_party_package(module):
    # So annotation and MIDI ingest and token-file validation can run
    # without numpy once the package imports each layer only when used.
    assert imported_packages(f"{module}.py") - set(sys.stdlib_module_names) == set()
