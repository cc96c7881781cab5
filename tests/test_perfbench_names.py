"""The benchmark under ``perfbench/`` calls into sympac by name, and none
of the other tests run it, so a library change that removes or renames a
name it uses would break the benchmark with every test here passing.
This reads its sources (without running or changing them) and checks
that each name it takes from sympac still exists."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(dotted: str) -> bool:
    """Whether ``dotted`` names a sympac module or an attribute reachable
    from one by ``getattr``."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a plain name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _sympac_names(tree: ast.Module) -> set[str]:
    """Every sympac name the module imports or reads off an imported module."""
    names: set[str] = set()
    modules: dict[str, str] = {}  # local name -> sympac module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sympac":
                    names.add(alias.name)
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["sympac"] = "sympac"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympac":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                names.add(full)
                modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is not None:
            root, rest = dotted.split(".", 1)
            if root in modules:
                names.add(f"{modules[root]}.{rest}")
    return names


def _perfbench_names() -> set[str]:
    names: set[str] = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _sympac_names(ast.parse(path.read_text(), filename=str(path)))
    return names


def test_perfbench_reaches_sympac_through_many_names():
    # guards the check below against passing because it found nothing
    names = _perfbench_names()
    assert len(names) >= 20, sorted(names)
    assert "sympac.fsm.compile_control" in names
    assert "sympac.lm.load_model_file" in names


@pytest.mark.parametrize("name", sorted(_perfbench_names()))
def test_perfbench_name_exists(name):
    assert _resolve(name), f"perfbench uses {name}, which sympac no longer has"
