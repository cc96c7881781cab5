"""The benchmark under ``perfbench/`` calls into sympac by name, and none
of the other tests run it, so a library change that removes or renames a
name it uses would break the benchmark with every test here passing.
This reads its sources (without running or changing them) and checks
that each name it takes from sympac still exists, and that each call it
makes into sympac still fits the callee's signature."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


_MISSING = object()


def _lookup(dotted: str):
    """The sympac module named ``dotted``, or the attribute reachable from
    one by ``getattr``; ``_MISSING`` when there is none."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:]:
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        return obj
    return _MISSING


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a plain name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _imports(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """The sympac names the module imports, and each local name bound to one."""
    names: set[str] = set()
    modules: dict[str, str] = {}  # local name -> sympac name it is bound to
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
    return names, modules


def _sympac_names(tree: ast.Module) -> set[str]:
    """Every sympac name the module imports or reads off an imported module."""
    names, modules = _imports(tree)
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is not None:
            root, rest = dotted.split(".", 1)
            if root in modules:
                names.add(f"{modules[root]}.{rest}")
    return names


def _sympac_calls(tree: ast.Module) -> list[tuple[str, int, int, list[str]]]:
    """(callee, line, positional count, keyword names) of every call the
    module makes straight to a sympac name; a call with ``*`` or ``**``
    arguments has no fixed shape and is left out."""
    _, modules = _imports(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        root, _, rest = (dotted or "").partition(".")
        if root not in modules:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            continue
        callee = f"{modules[root]}.{rest}" if rest else modules[root]
        calls.append((callee, node.lineno, len(node.args), [kw.arg for kw in node.keywords]))
    return calls


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
    assert _lookup(name) is not _MISSING, f"perfbench uses {name}, which sympac no longer has"


def test_perfbench_calls_fit_sympac_signatures():
    checked, misfits = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for callee, line, positional, keywords in _sympac_calls(ast.parse(path.read_text())):
            try:
                signature = inspect.signature(_lookup(callee))
            except (TypeError, ValueError):  # not callable, or no signature to read
                continue
            checked.add(callee)
            try:
                signature.bind(*[None] * positional, **dict.fromkeys(keywords))
            except TypeError as exc:
                misfits.append(f"{path.name}:{line} {callee}: {exc}")
    # guards the check against passing because it found nothing
    assert {"sympac.fsm.initial_state", "sympac.fsm.compile_control"} <= checked, sorted(checked)
    assert not misfits, misfits


# Patch targets perfbench knows are gone; their spans read 0 until the
# benchmark is retargeted (ROADMAP item 3).
_STALE_TARGETS = {("sympac.sampler", "get_sub_vocab"), ("sympac.sampler", "renormalize")}


def _patch_targets() -> set[tuple[str, str]]:
    """(module, attribute) of every ``(module, "attr", "span", ...)`` tuple in
    perfbench whose module is a sympac module: what ``tracing.patched``
    wraps, and skips without a word when the attribute is missing."""
    targets = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _, modules = _imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Tuple) or len(node.elts) < 3:
                continue
            module, attr, span = node.elts[:3]
            if (
                isinstance(module, ast.Name) and module.id in modules
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in (attr, span))
            ):
                targets.add((modules[module.id], attr.value))
    return targets


def test_perfbench_patch_targets_exist_but_the_known_stale_ones():
    targets = _patch_targets()
    # guards the check against passing because it found nothing
    assert ("sympac.cli", "parse_annotations") in targets and len(targets) >= 20, sorted(targets)
    missing = {(module, attr) for module, attr in targets if not hasattr(_lookup(module), attr)}
    assert missing == _STALE_TARGETS, f"perfbench patches {sorted(missing - _STALE_TARGETS)}"
