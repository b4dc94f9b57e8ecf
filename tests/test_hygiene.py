"""Static checks over the library sources."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "auglag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read elsewhere in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport math\nmath.pi\n"
    assert unused_imports(source) == ["line 2: json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names that no module in ``sources`` reads.

    A read is a name loaded anywhere, or an attribute of that name (as in
    ``outer.INNER_CUBIC``); the sources are keyed by module file name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                name = getattr(target, "id", "")
                if name.lstrip("_").isupper() and name not in read:
                    unread.append(f"{module} line {node.lineno}: {name}")
    return unread


def test_scanner_flags_an_unread_constant():
    sources = {
        "a.py": "USED = 1\nUNUSED = 2\n_PRIVATE: int = 3\nprint(_PRIVATE)\nlower = 4\n",
        "b.py": "from . import a\na.USED\n",
    }
    assert unread_constants(sources) == ["a.py line 2: UNUSED"]


def test_every_constant_is_read():
    """A module-level constant no library module reads is dead code."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def test_inner_solvers_import_no_package_module():
    """The inner solvers see only an InnerTask, never the problem or the penalty."""
    tree = ast.parse((SRC / "inner.py").read_text(encoding="utf-8"))
    relative = [
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert relative == []


def test_readme_library_example_runs():
    """The README's "Library use" example runs against the current API."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library use)", "exec"), {"__name__": "readme_example"})
