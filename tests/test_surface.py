"""The package's surface: every public top-level function in
``src/fedguide`` is referenced somewhere in ``src/`` outside its own body,
so nothing the engine does not run is kept in the package for tests alone.
Test-only helpers live in ``tests/helpers.py``.

Exempt are ``cli.main``, the console script's entry point, and the
functions ``perfbench/tracing.py`` wraps by name (``TRACED``), which the
benchmark's traced run and ``tests/test_trace_contract.py`` require to
exist.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedguide"
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402

EXEMPT = {("cli", "main"), *tracing.TRACED}


def _references(tree: ast.Module, module: str, counts: dict):
    """Add to ``counts`` each name the module's code loads, as a bare name or
    an attribute, keyed by the (module, function) whose body it is in, or by
    None at module level and in classes."""
    for stmt in tree.body:
        owner = (module, stmt.name) if isinstance(stmt, ast.FunctionDef) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            counts.setdefault(name, []).append(owner)


def test_every_public_function_is_referenced_in_the_package():
    defined = []
    counts: dict[str, list] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        defined += [
            (module, stmt.name)
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
        ]
        _references(tree, module, counts)
    assert defined
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if (module, name) not in EXEMPT
        and not any(owner != (module, name) for owner in counts.get(name, []))
    ]
    assert unused == [], f"public functions no code in src/ references: {unused}"
