"""Static checks over the library sources."""
import argparse
import ast
import importlib.util
import inspect
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import auglag
from auglag import cli, problems

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


def numpy_reduction_wrappers(source: str) -> list[str]:
    """Each use of numpy's module-level max, min, sum, all or any.

    The ndarray method (``x.max()``, ``x.sum()``, ...) runs the same reduction
    without the wrapper's Python-level dispatch.
    """
    uses = [
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("max", "min", "sum", "all", "any")
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    return [f"line {line}: {name}" for line, name in sorted(uses)]


def test_scanner_flags_a_numpy_reduction_wrapper():
    source = (
        "import numpy as np\nx = np.zeros(2)\nnp.max(x, initial=0.0)\nx.max()\n"
        "np.add.reduce(x)\nreduce = np.all\nnumpy.sum(x)\n"
    )
    assert numpy_reduction_wrappers(source) == [
        "line 3: np.max", "line 6: np.all", "line 7: numpy.sum",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_reduction_wrappers(path):
    assert numpy_reduction_wrappers(path.read_text(encoding="utf-8")) == []


def matmul_operators(source: str) -> list[str]:
    """Each use of the ``@`` operator, binary or augmented; a decorator is not one.

    ``ndarray.dot`` computes the same product without the operator's dispatch,
    about twice as fast on the small vectors and matrices of the hot path.
    """
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    return [f"line {line}: @" for line in sorted(lines)]


def test_scanner_flags_a_matmul_operator():
    source = (
        "import functools\nimport numpy as np\nx = np.ones(2)\n@functools.cache\ndef f():\n"
        "    return x @ x\nx.dot(x)\nx @= np.eye(2)\n"
    )
    assert matmul_operators(source) == ["line 6: @", "line 8: @"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_matmul_operators(path):
    assert matmul_operators(path.read_text(encoding="utf-8")) == []


def float_conversions(source: str, converter: str = "_floats") -> list[str]:
    """Each ``dtype=float`` keyword and ``.astype(float)`` call outside the function ``converter``."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == converter:
            return
        if isinstance(node, ast.keyword) and node.arg == "dtype" and ast.unparse(node.value) == "float":
            found.append((node.value.lineno, "dtype=float"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
              and node.args and ast.unparse(node.args[0]) == "float"):
            found.append((node.lineno, ".astype(float)"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_scanner_flags_a_float_conversion():
    source = (
        "import numpy as np\ndef _floats(v):\n    return np.asarray(v).astype(float)\n"
        "np.asarray([1], dtype=float)\nnp.zeros(2).astype(float, copy=False)\nnp.zeros(2).astype(int)\n"
        "np.ones(2, dtype=int)\n"
    )
    assert float_conversions(source) == ["line 4: dtype=float", "line 5: .astype(float)"]


def test_problems_converts_to_float_in_one_place():
    """``problems._floats`` is the one conversion of caller data, so every array and oracle output is read alike."""
    assert float_conversions((SRC / "problems.py").read_text(encoding="utf-8")) == []


def _names_read(trees) -> set[str]:
    """Every name loaded, and every attribute taken, anywhere in ``trees``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names that no module in ``sources`` reads.

    A read is a name loaded anywhere, or an attribute of that name (as in
    ``outer.INNER_CUBIC``); the sources are keyed by module file name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _names_read(trees.values())
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


def uncalled_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and methods whose name no module in ``sources`` reads.

    Reads are counted as in ``unread_constants``, by name; an import alone is
    not a read, so a function that a package ``__init__`` only re-exports is
    reported.  Dunder methods and nested functions are left out.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _names_read(trees.values())
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions):
                defs = [(node, node.name)]
            elif isinstance(node, ast.ClassDef):
                defs = [(d, f"{node.name}.{d.name}") for d in node.body if isinstance(d, functions)]
            else:
                defs = []
            for d, qualname in defs:
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if not dunder and d.name not in read:
                    uncalled.append(f"{module} line {d.lineno}: {qualname}")
    return uncalled


def test_scanner_flags_an_uncalled_function():
    sources = {
        "a.py": (
            "def used():\n    def nested():\n        pass\n"
            "def unused():\n    pass\n"
            "class K:\n    def __init__(self):\n        pass\n"
            "    def method(self):\n        pass\n    def dead(self):\n        pass\n"
        ),
        "b.py": "from a import K, unused, used\nused()\nK().method()\n",
    }
    assert uncalled_functions(sources) == ["a.py line 4: unused", "a.py line 11: K.dead"]


def test_every_function_is_called():
    """A function or method no library module reads is dead code, or a twin kept for a test."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert uncalled_functions(sources) == []


def unread_fields(source: str, cls: str) -> list[str]:
    """The annotated fields of class ``cls`` that no code outside the class body reads."""
    tree = ast.parse(source)
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    fields = [(n.lineno, n.target.id) for n in body.body if isinstance(n, ast.AnnAssign)]
    inside = {id(n) for n in ast.walk(body)}
    read = {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in inside
    }
    return [f"line {line}: {name}" for line, name in fields if name not in read]


def test_scanner_flags_an_unread_field():
    source = (
        "from dataclasses import dataclass\n@dataclass\nclass Task:\n    used: int\n"
        "    checked_only: int = 0\n    def __post_init__(self):\n        assert self.checked_only >= 0\n"
        "def run(task):\n    task.checked_only = 1\n    return task.used\n"
    )
    assert unread_fields(source, "Task") == ["line 5: checked_only"]


def test_every_inner_task_field_is_read():
    """The inner/outer seam keeps no write-only field: the solvers read every ``InnerTask`` field."""
    assert unread_fields((SRC / "inner.py").read_text(encoding="utf-8"), "InnerTask") == []


def raised_exceptions(source: str, function: str) -> list[str]:
    """Each exception that module-level ``function`` raises, as "line 4: OracleBudgetExceeded".

    A ``raise`` names its exception by class or by a call of it, bare or through
    a module; a bare ``raise`` reads "re-raise" and any other form "?".
    """
    tree = ast.parse(source)
    body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    found = []
    for node in ast.walk(body):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = "re-raise" if exc is None else getattr(exc, "id", getattr(exc, "attr", "?"))
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scanner_lists_raised_exceptions():
    source = (
        "def solve(x):\n    if x:\n        raise ValueError('x')\n    try:\n        pass\n"
        "    except KeyError:\n        raise\n    raise inner.Stop from None\n"
        "def other():\n    raise TypeError\n"
    )
    assert raised_exceptions(source, "solve") == ["line 3: ValueError", "line 7: re-raise", "line 8: Stop"]


def functions_raising(source: str, exception: str) -> list[str]:
    """The module-level functions of ``source`` that raise ``exception``, nested functions included."""
    names = [n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)]
    return [name for name in names if any(e.endswith(f": {exception}") for e in raised_exceptions(source, name))]


def test_scanner_lists_functions_raising_an_exception():
    source = (
        "def rule(task):\n    def step(x):\n        raise Stop('x')\n    return step\n"
        "def loop():\n    raise inner.Stop\ndef other():\n    raise Stopped\n"
    )
    assert functions_raising(source, "Stop") == ["rule", "loop"]


def test_the_inner_loop_raises_only_the_oracle_budget():
    """One budget ends every inner solve: ``_descend`` has no iteration cap, each step rule raises
    its own checks, and only ``_descend``'s counted ``value`` raises ``OracleBudgetExceeded``."""
    source = (SRC / "inner.py").read_text(encoding="utf-8")
    raised = raised_exceptions(source, "_descend")
    assert [entry.split(": ", 1)[1] for entry in raised] == ["OracleBudgetExceeded"]
    assert functions_raising(source, "OracleBudgetExceeded") == ["_descend"]


def functions_calling(source: str, callee: str) -> list[str]:
    """The module-level functions of ``source`` that call ``callee``, a name as written
    (such as "task.gradient"), nested functions included."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and ast.unparse(n.func) == callee for n in ast.walk(node))
    ]


def test_scanner_lists_functions_calling_a_name():
    source = (
        "def rule(task):\n    def step(x):\n        return task.gradient(x)\n    return step\n"
        "def loop(task):\n    return task.gradient(task.start)\n"
        "def other(task):\n    return task.gradient, gradient(task.start), task.objective(task.start)\n"
    )
    assert functions_calling(source, "task.gradient") == ["rule", "loop"]


def test_only_the_inner_loop_calls_the_gradient():
    """A step rule proposes its point and value; ``_descend`` alone accepts it and takes grad g there."""
    assert functions_calling((SRC / "inner.py").read_text(encoding="utf-8"), "task.gradient") == ["_descend"]


def test_one_k0_path_in_the_outer_loop():
    """Every k = 0 inner solve runs in ``_first_descent``, and only ``solve``'s k >= 1 steps warm-start."""
    source = (SRC / "outer.py").read_text(encoding="utf-8")
    assert functions_calling(source, "warm_start") == ["solve"]
    assert functions_calling(source, "_inner_solve") == ["_first_descent", "solve"]


def inner_solver_uses(sources: dict[str, str]) -> list[str]:
    """Each use of ``gd_solve`` or ``cubic_newton_solve`` in ``sources`` but an import, in source order.

    An entry reads "outer.py: _inner_solve: inner.gd_solve(_, _)": the module,
    the innermost ``def`` around the use ("<module>" outside every one), and
    the use as written; a call lists an ``_`` per positional argument and a
    ``name=`` per keyword.
    """
    solvers = ("gd_solve", "cubic_newton_solve")
    found = []

    def named(node):
        return getattr(node, "id", getattr(node, "attr", None)) in solvers

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and named(node.func):
            args = ["_"] * len(node.args) + [f"{kw.arg}=" for kw in node.keywords]
            found.append(f"{module}: {where}: {ast.unparse(node.func)}({', '.join(args)})")
            children = node.args + node.keywords
        elif isinstance(node, (ast.Name, ast.Attribute)) and named(node):
            found.append(f"{module}: {where}: {ast.unparse(node)}")
            children = []
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return found


def test_scanner_finds_inner_solver_uses():
    sources = {
        "a.py": (
            "from .inner import gd_solve\n"
            "def seam(task):\n    inner.cubic_newton_solve(task)\n    return inner.gd_solve(task, 'fixed')\n"
            "def other(task):\n    gd_solve(task, variant='fixed')\n    run = inner.cubic_newton_solve\n"
            "    return inner.gd_solve(task, inner.gd_solve(task))\n"
        ),
        "b.py": "SOLVE = inner.gd_solve\ninner.solve_cubic_model(g, H, M)\n",
    }
    assert inner_solver_uses(sources) == [
        "a.py: seam: inner.cubic_newton_solve(_)", "a.py: seam: inner.gd_solve(_, _)",
        "a.py: other: gd_solve(_, variant=)", "a.py: other: inner.cubic_newton_solve",
        "a.py: other: inner.gd_solve(_, _)", "a.py: other: inner.gd_solve(_)",
        "b.py: <module>: inner.gd_solve",
    ]


def test_inner_solvers_are_called_once_each_in_the_seam():
    """``outer._inner_solve`` makes the library's one call of each inner solver, looked up on ``inner``.

    The benchmark's tracer wraps ``inner.gd_solve`` and ``inner.cubic_newton_solve``
    as module attributes and reads ``gd_solve``'s variant as its second positional
    argument, so a call by another name or with ``variant=`` would go uncounted.
    """
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert inner_solver_uses(sources) == [
        "outer.py: _inner_solve: inner.cubic_newton_solve(_)", "outer.py: _inner_solve: inner.gd_solve(_, _)",
    ]


# what decides whether an inner solver applies, and with which constant
SOLVER_CONDITIONS = ("is_linear", "has_hessian", "L1", "L2", "lipschitz_bound_for")


def solver_condition_reads(sources: dict[str, str]) -> list[str]:
    """Each read of a name in ``SOLVER_CONDITIONS``, bare or as an attribute, in source order.

    An entry reads "outer.py: _inner_constant: L2": the module, the innermost
    ``def`` around the read ("<module>" outside every one) and the name.
    """
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in SOLVER_CONDITIONS and isinstance(getattr(node, "ctx", None), ast.Load):
            found.append(f"{module}: {where}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return found


def test_scanner_finds_solver_condition_reads():
    sources = {
        "a.py": (
            "def rule(p, sigma):\n    if p.constraints.is_linear and p.objective.has_hessian:\n"
            "        return p.objective.L2\n    return core.lipschitz_bound_for(p, sigma)\n"
            "def other(p):\n    p.L2 = 1.0\n    def note():\n        return p.objective.L1\n"
            "    return note\n"
        ),
        "b.py": "from .core import lipschitz_bound_for\nbound = lipschitz_bound_for\nL2 = 3\n",
    }
    assert solver_condition_reads(sources) == [
        "a.py: rule: is_linear", "a.py: rule: has_hessian", "a.py: rule: L2",
        "a.py: rule: lipschitz_bound_for", "a.py: note: L1", "b.py: <module>: lipschitz_bound_for",
    ]


def test_only_inner_constant_decides_what_an_inner_solver_needs():
    """In ``outer`` and ``cli``, ``outer._inner_constant`` alone reads what the inner solvers need.

    ``default_inner_for`` and the start check ask it, so ``--inner auto`` cannot pick a solver the
    start check refuses; ``_inner_solve``'s failure note names the declared L1 a user can fix.
    """
    sources = {name: (SRC / name).read_text(encoding="utf-8") for name in ("outer.py", "cli.py")}
    reads = [entry for entry in solver_condition_reads(sources) if ": _inner_constant: " not in entry]
    assert reads == ["outer.py: _inner_solve: L1"]


def package_imports(source: str) -> list[str]:
    """The package modules a module imports, by relative import, as "line 3: inner"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found += [f"line {node.lineno}: {name.split('.')[0]}" for name in names]
    return found


def test_scanner_flags_package_imports():
    source = "import json\nfrom . import core, inner\nfrom .inner import gd_solve\nfrom numpy import ndarray\n"
    assert package_imports(source) == ["line 2: core", "line 2: inner", "line 3: inner"]


def test_inner_solvers_import_no_package_module():
    """The inner solvers see only an InnerTask, never the problem or the penalty."""
    assert package_imports((SRC / "inner.py").read_text(encoding="utf-8")) == []


def test_problems_imports_no_package_module():
    """Problems check only their own inputs, and every check raises a ``ValidationError``, a ``ValueError``."""
    assert package_imports((SRC / "problems.py").read_text(encoding="utf-8")) == []


def test_report_imports_no_package_module():
    """The report layouts read runs and sweeps by attribute, so ``outer`` and ``complexity`` can import them."""
    assert package_imports((SRC / "report.py").read_text(encoding="utf-8")) == []


def test_cli_imports_nothing_from_inner():
    """The CLI reaches the inner solvers only through ``outer``, as every run does."""
    imports = package_imports((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [entry for entry in imports if entry.endswith(": inner")] == []


def test_readme_library_example_runs():
    """The README's "Library use" example runs against the current API."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library use)", "exec"), {"__name__": "readme_example"})


def readme_flags_unknown_to(parser: argparse.ArgumentParser, readme: str) -> list[str]:
    """The ``--flags`` in README's "CLI" section that no subcommand of ``parser`` accepts."""
    section = ("\n" + readme).split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {flag for sub in subcommands.choices.values() for flag in sub._option_string_actions}
    return sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section)) - known)


def test_scanner_flags_a_stale_readme_flag():
    readme = "## CLI\n`--eps`, `--eps-grid` and `--retired-flag 2`\n## Next\n`--later`\n"
    assert readme_flags_unknown_to(cli.build_parser(), readme) == ["--retired-flag"]


def test_readme_cli_flags_exist():
    """Every flag the README's "CLI" section names is an option of some subcommand."""
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme_flags_unknown_to(cli.build_parser(), readme) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_cross_references(sources: dict[str, str]) -> list[str]:
    """Each private name a module reaches in another module of ``sources``, one entry per use.

    Three forms count: ``module._name``, ``from .module import _name`` and a
    ``_keyword=`` argument in a call of ``module.function``.  The sources are
    keyed by module file name; an entry reads "complexity.py: outer.solve(_first=)".
    """
    modules = {Path(name).stem for name in sources}
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    f"{name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names if _private(alias.name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules and _private(node.attr):
                    found.append(f"{name}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                if isinstance(owner, ast.Name) and owner.id in modules:
                    found += [
                        f"{name}: {owner.id}.{node.func.attr}({kw.arg}=)"
                        for kw in node.keywords if kw.arg and _private(kw.arg)
                    ]
    return sorted(found)


def test_scanner_flags_private_cross_references():
    sources = {
        "a.py": "def _helper(x, _flag=None):\n    return x\npublic = _helper\n_helper(1, _flag=2)\n",
        "b.py": (
            "from . import a\nfrom .a import _helper, public\n"
            "a._helper(1)\na.public(2)\na.public(3, _flag=4)\nobj._attr\na.__name__\n"
        ),
    }
    assert private_cross_references(sources) == [
        "b.py: a._helper", "b.py: a.public(_flag=)", "b.py: from .a import _helper",
    ]


# Today's private cross-module references, each waiting on a ROADMAP item;
# the list may only shrink.  Item 14 gives the inner solvers one public entry
# point, which the sweep's shared first descent can then take.
PRIVATE_CROSS_REFERENCES = {
    "complexity.py: outer.solve(_first=)": "item 14",
}


def test_private_cross_references_are_only_the_listed_ones():
    """No new private cross-module reference, and no stale entry in the list."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert private_cross_references(sources) == sorted(PRIVATE_CROSS_REFERENCES)


# each module-attribute table: the functions only its pinned module may use
REPORT_WRITERS = {"json": ("dump", "dumps"), "csv": ("writer",)}
JSON_READERS = {"json": ("load", "loads")}


def module_uses(source: str, table: dict[str, tuple[str, ...]]) -> list[str]:
    """Each use of a function named in ``table`` (module -> names), by attribute or by import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in table.get(node.value.id, ()):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in table:
            found += [
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names if alias.name in table[node.module]
            ]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def report_writers(source: str) -> list[str]:
    """Each use of ``json.dump``, ``json.dumps`` or ``csv.writer``."""
    return module_uses(source, REPORT_WRITERS)


def modules_using(table: dict[str, tuple[str, ...]]) -> list[str]:
    """The library modules that use a function named in ``table``."""
    return [p.name for p in sorted(SRC.glob("*.py")) if module_uses(p.read_text(encoding="utf-8"), table)]


def test_scanner_flags_report_writers():
    source = (
        "import csv\nimport json\nfrom json import dumps, load\n"
        "json.load(fh)\njson.dumps({})\ncsv.writer(fh).writerow([])\ncsv.reader(fh)\n"
    )
    assert report_writers(source) == ["line 3: json.dumps", "line 5: json.dumps", "line 6: csv.writer"]


def test_scanner_flags_json_readers():
    source = "import json\nfrom json import dumps, load\njson.load(fh)\njson.loads(s)\njson.dump({}, fh)\n"
    assert module_uses(source, JSON_READERS) == ["line 2: json.load", "line 3: json.load", "line 4: json.loads"]


def test_only_report_writes_reports():
    """``auglag.report`` is the one module that encodes JSON or writes CSV, so every report has one layout."""
    assert modules_using(REPORT_WRITERS) == ["report.py"]


def test_only_problems_decodes_json_input():
    """``auglag.problems`` is the one module that decodes JSON, so a problem file and a --config file fail alike."""
    assert modules_using(JSON_READERS) == ["problems.py"]


def monitor_entries(sources: dict[str, str]) -> list[str]:
    """Each ``MonitorEntry(...)`` call in ``sources``, as "outer.py: monitor_step: mu_growth", in source order.

    The check is the call's second positional argument or its ``check=``
    keyword, "?" where that is not a string literal; the function is the
    innermost ``def`` around the call, "<module>" outside every one.
    """
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and "MonitorEntry" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None)):
            check = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "check"]
            literal = check and isinstance(check[0], ast.Constant) and isinstance(check[0].value, str)
            found.append(f"{module}: {where}: {check[0].value if literal else '?'}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return found


def test_scanner_finds_monitor_entries():
    sources = {
        "a.py": (
            "def monitor_step(k):\n    out = [MonitorEntry(k, 'one', 0.0, 1.0, True)]\n"
            "    out.append(outer.MonitorEntry(k, check='two', lhs=0.0, rhs=1.0, passed=True))\n"
            "    return out\n"
            "def solve(name):\n    return MonitorEntry(1, name, 0.0, 1.0, False)\n"
        ),
        "b.py": "E = MonitorEntry(1, 'three', 0.0, 1.0, True)\nMonitorEntrySet()\n",
    }
    assert monitor_entries(sources) == [
        "a.py: monitor_step: one", "a.py: monitor_step: two", "a.py: solve: ?", "b.py: <module>: three",
    ]


def readme_monitor_checks(readme: str) -> list[str]:
    """The check names in the first column of the table in README's "Monitors" section, in order."""
    section = ("\n" + readme).split("\n## Monitors\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_scanner_reads_the_readme_monitor_table():
    readme = (
        "## Monitors\n| check | inequality |\n|---|---|\n| `mu_growth` | a ≤ b |\n"
        "| `dual_identity` | `x` ≤ 1e-12 |\ntext with | `not_a_row` |\n## Next\n| `later` | c |\n"
    )
    assert readme_monitor_checks(readme) == ["mu_growth", "dual_identity"]


def test_monitor_entries_are_built_in_monitor_step_only():
    """One function builds every monitor entry, so the one traced ``outer.monitor_step`` span times them all."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    places = {entry.rsplit(": ", 1)[0] for entry in monitor_entries(sources)}
    assert places == {"outer.py: monitor_step"}


def test_readme_monitor_table_lists_every_check():
    """README's "Monitors" table names each check ``monitor_step`` logs, in its order: none missing, none stale."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    checks = [entry.rsplit(": ", 1)[1] for entry in monitor_entries(sources)]
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme_monitor_checks(readme) == checks
    assert len(checks) == len(set(checks)) == 9


def readme_validate_checks(readme: str) -> list[str]:
    """The snake_case names in backquotes in README's paragraph on ``auglag check``, in order."""
    paragraph = readme.split("\n`auglag check` runs ", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([a-z0-9]+(?:_[a-z0-9]+)+)`", paragraph)


def test_readme_names_every_validate_check():
    """README's ``auglag check`` paragraph names each check ``validate`` runs, in its order: none missing, none stale.

    The problem has every row: callable constraints, a Hessian oracle, L1 and L2.
    """
    objective = problems.ObjectiveOracle(fn=lambda x: float(x.dot(x)), grad_fn=lambda x: 2.0 * x,
                                         hess_fn=lambda x: 2.0 * np.eye(x.shape[0]), f_low=0.0, L1=2.0, L2=0.0)
    constraints = problems.ConstraintSet(m=1, m_e=1, c_fn=lambda x: np.array([x.sum()]),
                                         jac_fn=lambda x: np.ones((1, x.shape[0])))
    report = problems.validate(problems.ProblemSpec("every-check", objective, constraints, np.zeros(2)), samples=3)
    checks = [c.name for c in report.checks]
    assert report.passed and len(checks) == len(set(checks)) == 6
    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme_validate_checks(readme) == checks


def dead_layer_spans(spans, package, extra) -> list[str]:
    """Each of ``spans`` ("module.function") that is in neither ``extra`` nor the public functions
    defined in that module of ``package``: the functions the bench tracer wraps by name."""
    def traced(name: str) -> bool:
        short, _, attr = name.partition(".")
        mod = getattr(package, short, None)
        obj = getattr(mod, attr, None)
        return not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__

    return [name for name in spans if name not in extra and not traced(name)]


def test_scanner_flags_dead_layer_spans():
    mod = types.ModuleType("pkg.m")
    exec("import math\nfrom os.path import join\ndef f(): pass\ndef _g(): pass\nclass C: pass\n"
         "sqrt = math.sqrt\n", mod.__dict__)
    spans = ("m.f", "m._g", "m.C", "m.sqrt", "m.join", "m.gone", "n.f", "m.wrapped")
    assert dead_layer_spans(spans, types.SimpleNamespace(m=mod), {"m.wrapped"}) == [
        "m._g", "m.C", "m.sqrt", "m.join", "m.gone", "n.f",
    ]


# Spans that name no function since P's evaluation moved into core.Penalty's methods; a ratchet:
# ROADMAP item 5 traces those methods in their place and empties it.
STALE_LAYER_SPANS = ["core.eval_P", "core.grad_P", "core.hess_P"]


def test_no_bench_layer_span_goes_dead():
    """Each ``LAYER_SPANS`` name of bench/run.py, loaded read-only, is a function the tracer wraps.

    A renamed or fused function would otherwise report 0 s and 0 calls in every benchmark run.
    """
    spec = importlib.util.spec_from_file_location("bench_run", SRC.parent.parent / "bench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)  # its dataclasses look the module up in sys.modules
    extra = {name for _, _, name, _ in run.trace_targets()}
    assert dead_layer_spans(run.LAYER_SPANS, auglag, extra) == STALE_LAYER_SPANS
